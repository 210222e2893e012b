// lan_party_durable: the paper's demo, durably. A file-backed database with
// real fsync; two typists share one document, a third types (with undo, redo
// and copy->paste) into its own; a watcher session on both documents polls
// kResume and, between polls, re-reads a document and runs a search. Both
// documents stay a few thousand characters, well inside the buffer pool, so
// the durable commit path dominates.
#include "workloads.h"

namespace bench {

namespace {

constexpr size_t kDocWords = 420;          // ~3k characters per document
// Set-up history per document: enough that the run's own history does not
// dwarf it, and that the timed reopen does measurable work.
constexpr int kPreloadGestures = 6000;
constexpr int kReadEvery = 16;             // watcher polls per document re-read
constexpr int kSearchEvery = 32;           // watcher polls per search
// The watcher's pause between polls. Without it the watcher spins a whole
// CPU that the typists' commit path needs.
constexpr auto kPollPause = std::chrono::microseconds(100);

struct LanParty {
  Storage storage;
  std::unique_ptr<TendaxServer> server;
  Reopen restart;  // the set-up reopen's timings
  PropagationIndex index;
  std::vector<std::pair<DocumentId, std::string>> docs;  // shared, private
  std::unique_ptr<SharedDoc> shared;
  std::unique_ptr<SingleWriterDoc> mine;
  std::unique_ptr<Agent> typists[3];
  std::unique_ptr<Watcher> watcher;
};

Status Setup(const RunConfig& config, int rep, IoCounters* io, LanParty* f) {
  f->storage = Storage::File(config.scratch / ("lan" + std::to_string(rep)));
  std::vector<std::string> texts;
  auto reopened = PreloadAndReopen(
      config, f->storage, io, [&](TendaxServer* s) -> Status {
        auto host = s->accounts()->CreateUser("host");
        if (!host.ok()) return host.status();
        auto editor = s->AttachEditor(*host, "setup");
        if (!editor.ok()) return editor.status();
        CorpusGenerator corpus(SubSeed(config.seed, 1));
        std::vector<DocumentId> ids;
        for (const char* name : {"shared.txt", "private.txt"}) {
          auto doc = (*editor)->CreateDocument(name);
          if (!doc.ok()) return doc.status();
          texts.push_back(corpus.Document(kDocWords));
          TENDAX_RETURN_IF_ERROR((*editor)->Type(*doc, 0, texts.back()));
          f->docs.emplace_back(*doc, name);
          ids.push_back(*doc);
        }
        return ChurnDocuments(s, editor->get(), ids, &texts,
                              kPreloadGestures, 0, SubSeed(config.seed, 5),
                              nullptr);
      });
  if (!reopened.ok()) return reopened.status();
  f->server = std::move(reopened->server);
  f->restart = std::move(*reopened);
  TendaxServer* s = f->server.get();

  const DocumentId shared = f->docs[0].first;
  const DocumentId mine = f->docs[1].first;
  const auto shared_len = static_cast<int64_t>(texts[0].size());
  f->shared = std::make_unique<SharedDoc>(shared, shared_len, shared_len / 2);
  f->mine = std::make_unique<SingleWriterDoc>(
      mine, texts[1], SubSeed(config.seed, 2), kUndoShare);
  for (int i = 0; i < 3; ++i) {
    auto user = s->accounts()->CreateUser("typist" + std::to_string(i));
    if (!user.ok()) return user.status();
    f->index.AddTypist(*user);
    auto agent = MakeAgent(s, *user, "typist", config.traced,
                           SubSeed(config.seed, 10 + i));
    if (!agent.ok()) return agent.status();
    f->typists[i] = std::move(*agent);
  }
  f->index.AddDocument(shared);
  f->index.AddDocument(mine);
  f->index.Seal();

  auto watcher_user = s->accounts()->CreateUser("watcher");
  if (!watcher_user.ok()) return watcher_user.status();
  auto agent = MakeAgent(s, *watcher_user, "watcher", config.traced,
                         SubSeed(config.seed, 20));
  if (!agent.ok()) return agent.status();
  f->watcher = std::make_unique<Watcher>(std::move(*agent), &f->index);
  for (const auto& [doc, name] : f->docs) {
    auto version = s->text()->CurrentVersion(doc);
    if (!version.ok()) return version.status();
    TENDAX_RETURN_IF_ERROR(f->watcher->Watch(doc, *version));
  }
  return Status::OK();
}

}  // namespace

Result<PassResult> RunLanPartyDurable(const RunConfig& config) {
  PassResult r;
  IoCounters io_counters;
  IoCounters* io = config.traced ? &io_counters : nullptr;
  std::unique_ptr<LanParty> f;
  std::vector<double> reopens;
  auto setup = RepeatSetup(config, &f, [&](int rep, LanParty* fresh) {
    Status st = Setup(config, rep, io, fresh);
    reopens.push_back(fresh->restart.server_open_s);
    return st;
  });
  if (!setup.ok()) return setup.status();
  r.setup_s = *setup;
  r.reopen_s = Median(reopens);
  TendaxServer* s = f->server.get();
  LayerInputs in;
  in.db_open_s = f->restart.db_open_s;
  in.recovery_records_scanned = f->restart.recovery_records_scanned;
  const uint64_t bytes_before = f->storage.Bytes();

  PhaseClock phase;
  ThreadStats stats[4];
  std::atomic<bool> bad_search{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      SharedTypist typist(SubSeed(config.seed, 30 + i));
      while (!phase.stopped()) {
        typist.Step(f->typists[i].get(), f->shared.get(), 0,
                    f->index.log(i, 0), phase.measuring(), &stats[i]);
      }
    });
  }
  threads.emplace_back([&] {
    while (!phase.stopped()) {
      f->mine->Step(f->typists[2].get(), f->index.log(2, 1),
                    phase.measuring(), &stats[2]);
    }
  });
  threads.emplace_back([&] {
    QueryGen queries(SubSeed(config.seed, 1), 1);
    for (uint64_t k = 1; !phase.stopped(); ++k) {
      const bool measured = phase.measuring();
      std::this_thread::sleep_for(kPollPause);
      f->watcher->Poll(measured, &stats[3]);
      if (k % kReadEvery == 0) {
        const DocumentId doc = f->docs[(k / kReadEvery) % 2].first;
        RecordRead(&stats[3], measured,
                   Call(f->watcher->agent(),
                        Command(CommandKind::kGetText, doc)));
      }
      if (k % kSearchEvery == 0 &&
          !TimedSearch(s, queries.Next(), measured, &stats[3])) {
        bad_search = true;
      }
    }
  });
  RunWindow(config, &phase, s->metrics(), io, &in, &r);
  JoinAll(&threads);
  f->watcher->Drain(&stats[3]);
  for (const ThreadStats& t : stats) {
    t.MergeInto(&r);
    in.load_keystrokes += t.load_keystrokes;
  }
  in.disk_bytes_delta = f->storage.Bytes() - bytes_before;
  r.primary_rate = r.ops.keystrokes / r.window_s;

  // Correctness gate.
  r.Check(!bad_search, "a search returned an unranked or oversized list");
  auto mine_text = Call(f->typists[2].get(),
                        Command(CommandKind::kGetText, f->mine->id()));
  r.Check(mine_text.ok && mine_text.response.payload == f->mine->text(),
          "private document differs from its shadow");
  auto shared_text = Call(f->typists[0].get(),
                          Command(CommandKind::kGetText, f->shared->id()));
  r.Check(shared_text.ok && static_cast<int64_t>(
                                shared_text.response.payload.size()) ==
                                f->shared->expected_len(),
          "shared document length differs from acknowledged edits");
  f->watcher->CheckFinal(s, &r);
  r.notes.push_back("change events delivered out of version order: " +
                    std::to_string(f->watcher->out_of_order()));
  QueryGen check_terms(SubSeed(config.seed, 1), 9);
  std::vector<std::string> terms;
  for (int i = 0; i < 4; ++i) terms.push_back(check_terms.Word());
  CheckSearchIndex(s, f->docs, terms, &r);
  if (config.traced) ChainShape(s, {f->docs[0].first, f->docs[1].first}, &in);
  for (auto& t : f->typists) AddClientStats(*t, &in);
  AddClientStats(*f->watcher->agent(), &in);
  std::vector<std::pair<DocumentId, std::string>> final_texts;
  for (const auto& [doc, name] : f->docs) {
    auto text = s->text()->Text(doc);
    if (!text.ok()) return text.status();
    final_texts.emplace_back(doc, *text);
  }

  // The closing reopen must reproduce every document byte for byte.
  for (auto& t : f->typists) t.reset();
  f->watcher.reset();
  f->server.reset();
  auto reopened = TimedReopen(f->storage, nullptr, nullptr);
  if (!reopened.ok()) return reopened.status();
  for (const auto& [doc, text] : final_texts) {
    auto after = reopened->server->text()->Text(doc);
    r.Check(after.ok() && *after == text,
            "reopen changed " + doc.ToString());
  }
  Status integrity = reopened->server->CheckIntegrity();
  r.Check(integrity.ok(), "integrity after reopen: " + integrity.ToString());
  Report(config, in, &r);
  return r;
}

}  // namespace bench
