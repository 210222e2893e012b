// big_corpus_memory: CPU layers with the durable path out of the way. An
// in-memory database holding a Zipf-vocabulary corpus several times the
// default buffer pool, restarted once at set-up (cold handles, cold pool).
// A few hundred idle viewer sessions have documents open; they are server
// state, drained in turn by one thread over the wire. Three typists pick a
// Zipf-skewed document per burst. Position lookup and relinks grow with
// document size, the pool misses and evicts, and every commit fans out
// through SessionManager::Dispatch.
#include "workloads.h"

namespace bench {

namespace {

constexpr size_t kDocs = 18;
// Document i holds kMinDocChars + kDocCharStep * ((7 * i) % kDocs)
// characters: sizes 16k..56k, fixed across seeds (so only content varies)
// and shuffled so the Zipf head is not simply the largest documents. In all
// ~650k characters, about three times the default buffer pool.
constexpr size_t kMinDocChars = 16 * 1024;
constexpr size_t kDocCharStep = 40 * 1024 / (kDocs - 1);
constexpr size_t kChunk = 4000;       // characters per set-up insert
constexpr size_t kViewers = 200;      // spread evenly over the documents
constexpr int kBurst = 100;           // gestures per document pick
constexpr int64_t kHeadroom = 1500;   // live length kept above len - this
constexpr int kReadsPerRound = 8;     // document reads per round of polls
// Typists pause between gestures so four CPU-bound threads leave the machine
// some headroom; latency then measures the work, not the run queue.
constexpr auto kTypistThink = std::chrono::microseconds(100);

struct BigCorpus {
  Storage storage;
  std::unique_ptr<TendaxServer> server;
  Reopen restart;  // the set-up reopen's timings
  PropagationIndex index;
  std::vector<std::pair<DocumentId, std::string>> docs;
  std::vector<std::unique_ptr<SharedDoc>> shared;
  std::unique_ptr<Agent> typists[3];
  std::vector<std::unique_ptr<Watcher>> viewers;
};

Status BuildCorpus(const RunConfig& config, TendaxServer* s, BigCorpus* f) {
  auto host = s->accounts()->CreateUser("host");
  if (!host.ok()) return host.status();
  auto editor = s->AttachEditor(*host, "setup");
  if (!editor.ok()) return editor.status();
  CorpusGenerator corpus(SubSeed(config.seed, 1));
  for (size_t i = 0; i < kDocs; ++i) {
    const std::string name = "corpus-" + std::to_string(i) + ".txt";
    auto doc = (*editor)->CreateDocument(name);
    if (!doc.ok()) return doc.status();
    const size_t chars = kMinDocChars + kDocCharStep * ((7 * i) % kDocs);
    std::string text = corpus.Document(chars / 5);
    text.resize(chars);
    for (size_t at = 0; at < text.size(); at += kChunk) {
      TENDAX_RETURN_IF_ERROR(
          (*editor)->Type(*doc, at, text.substr(at, kChunk)));
    }
    f->docs.emplace_back(*doc, name);
  }
  return Status::OK();
}

Status Setup(const RunConfig& config, IoCounters* io, BigCorpus* f) {
  f->storage = Storage::Memory();
  auto reopened = PreloadAndReopen(
      config, f->storage, io,
      [&](TendaxServer* s) { return BuildCorpus(config, s, f); });
  if (!reopened.ok()) return reopened.status();
  f->server = std::move(reopened->server);
  f->restart = std::move(*reopened);
  TendaxServer* s = f->server.get();

  // Viewers render their documents: every handle and snapshot is loaded
  // before the window, as in a server that has been up for a while.
  for (const auto& [doc, name] : f->docs) {
    auto len = s->text()->Length(doc);
    if (!len.ok()) return len.status();
    f->shared.push_back(
        std::make_unique<SharedDoc>(doc, *len, *len - kHeadroom));
    f->index.AddDocument(doc);
  }
  for (int i = 0; i < 3; ++i) {
    auto user = s->accounts()->CreateUser("typist" + std::to_string(i));
    if (!user.ok()) return user.status();
    f->index.AddTypist(*user);
    auto agent = MakeAgent(s, *user, "typist", config.traced,
                           SubSeed(config.seed, 10 + i));
    if (!agent.ok()) return agent.status();
    f->typists[i] = std::move(*agent);
  }
  f->index.Seal();
  auto viewer = s->accounts()->CreateUser("viewer");
  if (!viewer.ok()) return viewer.status();
  for (size_t i = 0; i < kViewers; ++i) {
    auto agent = MakeAgent(s, *viewer, "viewer", config.traced,
                           SubSeed(config.seed, 1000 + i));
    if (!agent.ok()) return agent.status();
    auto watcher = std::make_unique<Watcher>(std::move(*agent), &f->index);
    const DocumentId doc = f->docs[i % kDocs].first;
    auto version = s->text()->CurrentVersion(doc);
    if (!version.ok()) return version.status();
    TENDAX_RETURN_IF_ERROR(watcher->Watch(doc, *version));
    f->viewers.push_back(std::move(watcher));
  }
  return Status::OK();
}

}  // namespace

Result<PassResult> RunBigCorpusMemory(const RunConfig& config) {
  PassResult r;
  IoCounters io_counters;
  IoCounters* io = config.traced ? &io_counters : nullptr;
  std::unique_ptr<BigCorpus> f;
  std::vector<double> reopens;
  auto setup = RepeatSetup(config, &f, [&](int, BigCorpus* fresh) {
    Status st = Setup(config, io, fresh);
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
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      Zipf pick(kDocs, SubSeed(config.seed, 30 + i));
      SharedTypist typist(SubSeed(config.seed, 40 + i));
      while (!phase.stopped()) {
        const size_t d = pick.Next();
        for (int g = 0; g < kBurst && !phase.stopped(); ++g) {
          std::this_thread::sleep_for(kTypistThink);
          typist.Step(f->typists[i].get(), f->shared[d].get(), d,
                      f->index.log(i, static_cast<int>(d)), phase.measuring(),
                      &stats[i]);
        }
      }
    });
  }
  threads.emplace_back([&] {
    QueryGen queries(SubSeed(config.seed, 1), 1);
    Zipf pick(kDocs, SubSeed(config.seed, 4));
    // A round polls every viewer once, renders a few documents, and runs
    // one search.
    while (!phase.stopped()) {
      for (auto& viewer : f->viewers) {
        viewer->Poll(phase.measuring(), &stats[3]);
      }
      for (int i = 0; i < kReadsPerRound; ++i) {
        RecordRead(&stats[3], phase.measuring(),
                   Call(f->viewers[i]->agent(),
                        Command(CommandKind::kGetText,
                                f->docs[pick.Next()].first)));
      }
      if (!TimedSearch(s, queries.Next(), phase.measuring(), &stats[3])) {
        bad_search = true;
      }
    }
  });
  RunWindow(config, &phase, s->metrics(), io, &in, &r);
  JoinAll(&threads);
  for (auto& viewer : f->viewers) viewer->Drain(&stats[3]);
  for (const ThreadStats& t : stats) {
    t.MergeInto(&r);
    in.load_keystrokes += t.load_keystrokes;
  }
  in.disk_bytes_delta = f->storage.Bytes() - bytes_before;
  r.primary_rate = r.ops.keystrokes / r.window_s;

  // Correctness gate.
  r.Check(!bad_search, "a search returned an unranked or oversized list");
  for (const auto& doc : f->shared) {
    auto text =
        Call(f->typists[0].get(), Command(CommandKind::kGetText, doc->id()));
    r.Check(text.ok && static_cast<int64_t>(text.response.payload.size()) ==
                           doc->expected_len(),
            doc->id().ToString() + " length differs from acknowledged edits");
  }
  uint64_t out_of_order = 0;
  for (const auto& viewer : f->viewers) {
    viewer->CheckFinal(s, &r);
    out_of_order += viewer->out_of_order();
  }
  r.notes.push_back("change events delivered out of version order: " +
                    std::to_string(out_of_order));
  QueryGen check_terms(SubSeed(config.seed, 1), 9);
  std::vector<std::string> terms;
  for (int i = 0; i < 4; ++i) terms.push_back(check_terms.Word());
  CheckSearchIndex(s, f->docs, terms, &r);
  Status integrity = s->CheckIntegrity();
  r.Check(integrity.ok(), "integrity: " + integrity.ToString());
  if (config.traced) {
    std::vector<DocumentId> ids;
    for (const auto& [doc, name] : f->docs) ids.push_back(doc);
    ChainShape(s, ids, &in);
  }
  for (auto& t : f->typists) AddClientStats(*t, &in);
  for (auto& viewer : f->viewers) AddClientStats(*viewer->agent(), &in);
  Report(config, in, &r);
  return r;
}

}  // namespace bench
