// history_readers: reads and restart over long history. A file-backed
// database is preloaded with documents whose history is churned (most chain
// records are tombstones) and crossed by pastes between documents; set-up
// closes it and times the reopen. Three readers issue kGetText, kGetTextAt at
// random past versions, kCopy and searches over Zipf terms, while one writer
// types durable keystrokes into two of the documents in an open loop at a
// fixed rate and, between keystrokes, drains a watcher on them.
#include "workloads.h"

namespace bench {

namespace {

constexpr size_t kDocs = 8;
constexpr size_t kWriterDocs = 2;        // documents 0 and 1
constexpr size_t kDocWords = 450;
constexpr int kChurnPerDoc = 2500;       // preload gestures per document
constexpr int kPasteEvery = 40;          // preload gestures per cross paste
// Keystrokes per second, open loop: about a third of what one writer
// sustains here, and 12,000 samples in a 20 s window, so keystroke_p99_us
// rests on 120 samples beyond it.
constexpr double kWriterRate = 600;
constexpr int kWriterBurst = 20;         // keystrokes per document switch
// The writer spins until a keystroke is due instead of sleeping. On a
// virtual machine an idle virtual CPU is halted, and waking it for the
// writer and its fsync completions made repeated runs disagree by 2x.
// Readers pause between reads: three readers at full speed left the
// kernel's I/O completion threads waiting for a CPU, which doubled the
// writer's fsync time in some runs and not in others.
constexpr auto kReaderThink = std::chrono::microseconds(200);

struct History {
  Storage storage;
  std::unique_ptr<TendaxServer> server;
  Reopen restart;  // the set-up reopen's timings
  PropagationIndex index;
  std::vector<std::pair<DocumentId, std::string>> docs;
  // [doc][version] fingerprint of the preloaded text at that version; 0
  // where unknown. The last entry is the text the preload ended with.
  std::vector<std::vector<uint64_t>> versions;
  std::vector<size_t> preload_len;
  std::unique_ptr<SingleWriterDoc> written[kWriterDocs];
  std::unique_ptr<Agent> readers[3];
  std::unique_ptr<Agent> writer;
  std::unique_ptr<Watcher> watcher;
};

Status Preload(const RunConfig& config, TendaxServer* s, History* f,
               std::vector<std::string>* texts) {
  auto host = s->accounts()->CreateUser("host");
  if (!host.ok()) return host.status();
  auto editor = s->AttachEditor(*host, "setup");
  if (!editor.ok()) return editor.status();
  CorpusGenerator corpus(SubSeed(config.seed, 1));
  std::vector<DocumentId> ids;
  for (size_t i = 0; i < kDocs; ++i) {
    const std::string name = "history-" + std::to_string(i) + ".txt";
    auto doc = (*editor)->CreateDocument(name);
    if (!doc.ok()) return doc.status();
    texts->push_back(corpus.Document(kDocWords));
    TENDAX_RETURN_IF_ERROR((*editor)->Type(*doc, 0, texts->back()));
    f->docs.emplace_back(*doc, name);
    ids.push_back(*doc);
  }
  return ChurnDocuments(s, editor->get(), ids, texts, kChurnPerDoc,
                        kPasteEvery, SubSeed(config.seed, 3), &f->versions);
}

Status Setup(const RunConfig& config, int rep, IoCounters* io, History* f) {
  f->storage = Storage::File(config.scratch / ("hist" + std::to_string(rep)));
  std::vector<std::string> texts;
  auto reopened = PreloadAndReopen(
      config, f->storage, io,
      [&](TendaxServer* s) { return Preload(config, s, f, &texts); });
  if (!reopened.ok()) return reopened.status();
  f->server = std::move(reopened->server);
  f->restart = std::move(*reopened);
  TendaxServer* s = f->server.get();

  for (size_t i = 0; i < kDocs; ++i) {
    // Load every document's handle and snapshot before the window.
    auto text = s->text()->Text(f->docs[i].first);
    if (!text.ok()) return text.status();
    if (*text != texts[i]) {
      return Status::Corruption("reopen changed " + f->docs[i].second);
    }
    f->preload_len.push_back(texts[i].size());
  }
  for (size_t j = 0; j < kWriterDocs; ++j) {
    // No undo here: an undo of a delete reloads the whole long chain, and
    // its tens of milliseconds would back up the open loop; lan_party_durable
    // measures undo.
    f->written[j] = std::make_unique<SingleWriterDoc>(
        f->docs[j].first, texts[j], SubSeed(config.seed, 60 + j), 0.0);
    f->index.AddDocument(f->docs[j].first);
  }
  for (int i = 0; i < 3; ++i) {
    auto user = s->accounts()->CreateUser("reader" + std::to_string(i));
    if (!user.ok()) return user.status();
    auto agent = MakeAgent(s, *user, "reader", config.traced,
                           SubSeed(config.seed, 10 + i));
    if (!agent.ok()) return agent.status();
    f->readers[i] = std::move(*agent);
  }
  auto writer = s->accounts()->CreateUser("writer");
  if (!writer.ok()) return writer.status();
  f->index.AddTypist(*writer);
  f->index.Seal();
  auto agent = MakeAgent(s, *writer, "writer", config.traced,
                         SubSeed(config.seed, 20));
  if (!agent.ok()) return agent.status();
  f->writer = std::move(*agent);
  auto watcher_user = s->accounts()->CreateUser("watcher");
  if (!watcher_user.ok()) return watcher_user.status();
  agent = MakeAgent(s, *watcher_user, "watcher", config.traced,
                    SubSeed(config.seed, 21));
  if (!agent.ok()) return agent.status();
  f->watcher = std::make_unique<Watcher>(std::move(*agent), &f->index);
  for (size_t j = 0; j < kWriterDocs; ++j) {
    auto version = s->text()->CurrentVersion(f->docs[j].first);
    if (!version.ok()) return version.status();
    TENDAX_RETURN_IF_ERROR(f->watcher->Watch(f->docs[j].first, *version));
  }
  return Status::OK();
}

/// One reader's closed loop. Every past-version read is checked against the
/// preload's fingerprint of that version; current reads of documents the
/// writer leaves alone must equal the preload's final text.
void ReaderLoop(const RunConfig& config, int id, History* f,
                const PhaseClock& phase, ThreadStats* stats,
                std::string* error) {
  Random rng(SubSeed(config.seed, 70 + id));
  Zipf pick(kDocs, SubSeed(config.seed, 80 + id));
  QueryGen queries(SubSeed(config.seed, 1), 2 + id);
  Agent* agent = f->readers[id].get();
  TendaxServer* s = f->server.get();
  while (!phase.stopped()) {
    std::this_thread::sleep_for(kReaderThink);
    const bool measured = phase.measuring();
    const double r = rng.NextDouble();
    const size_t d = pick.Next();
    const DocumentId doc = f->docs[d].first;
    const std::vector<uint64_t>& fps = f->versions[d];
    if (r < 0.35) {
      const uint64_t v = 1 + rng.Uniform(fps.size() - 1);
      Exchange x = Call(agent, Command(CommandKind::kGetTextAt, doc, v));
      RecordRead(stats, measured, x);
      if (x.ok && fps[v] != 0 && Fingerprint(x.response.payload) != fps[v] &&
          error->empty()) {
        *error = "time travel to version " + std::to_string(v) + " of " +
                 f->docs[d].second + " returned other text";
      }
    } else if (r < 0.65) {
      Exchange x = Call(agent, Command(CommandKind::kGetText, doc));
      RecordRead(stats, measured, x);
      if (x.ok && d >= kWriterDocs &&
          Fingerprint(x.response.payload) != fps.back() && error->empty()) {
        *error = "current text of " + f->docs[d].second + " changed";
      }
    } else if (r < 0.75) {
      // Copy from a document the writer leaves alone, so the range is valid.
      const size_t src = kWriterDocs + rng.Uniform(kDocs - kWriterDocs);
      const uint64_t len = 1 + rng.Uniform(32);
      const uint64_t from = rng.Uniform(f->preload_len[src] - len + 1);
      RecordRead(stats, measured,
                 Call(agent, Command(CommandKind::kCopy, f->docs[src].first,
                                     from, len)));
    } else if (!TimedSearch(s, queries.Next(), measured, stats) &&
               error->empty()) {
      *error = "a search returned an unranked or oversized list";
    }
  }
}

/// The writer's open loop: keystroke i is due at start + i / rate; it is
/// also timed from then (loadgen.keystroke_from_due_p99_us) and the
/// generator's lateness is kept (loadgen.lag_p99_us). Between keystrokes it
/// drains the watcher.
void WriterLoop(History* f, const PhaseClock& phase, ThreadStats* stats) {
  const int64_t period_ns = static_cast<int64_t>(1e9 / kWriterRate);
  const int64_t start = NowNs();
  for (int64_t i = 0; !phase.stopped(); ++i) {
    const int64_t due = start + i * period_ns;
    while (NowNs() < due) {
    }
    const bool measured = phase.measuring();
    if (measured) stats->lag.Add(NsToUs(NowNs() - due));
    const size_t j = (i / kWriterBurst) % kWriterDocs;
    f->written[j]->Step(f->writer.get(), f->index.log(0, static_cast<int>(j)),
                        measured, stats, due);
    f->watcher->Poll(measured, stats);
  }
}

}  // namespace

Result<PassResult> RunHistoryReaders(const RunConfig& config) {
  PassResult r;
  IoCounters io_counters;
  IoCounters* io = config.traced ? &io_counters : nullptr;
  std::unique_ptr<History> f;
  std::vector<double> reopens;
  auto setup = RepeatSetup(config, &f, [&](int rep, History* fresh) {
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
  std::string errors[3];
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      ReaderLoop(config, i, f.get(), phase, &stats[i], &errors[i]);
    });
  }
  threads.emplace_back([&] { WriterLoop(f.get(), phase, &stats[3]); });
  RunWindow(config, &phase, s->metrics(), io, &in, &r);
  JoinAll(&threads);
  f->watcher->Drain(&stats[3]);
  for (const ThreadStats& t : stats) {
    t.MergeInto(&r);
    in.load_keystrokes += t.load_keystrokes;
  }
  in.disk_bytes_delta = f->storage.Bytes() - bytes_before;
  r.primary_rate = r.ops.reads / r.window_s;

  // Correctness gate.
  for (const std::string& e : errors) r.Check(e.empty(), e);
  for (const auto& doc : f->written) {
    auto text = Call(f->writer.get(), Command(CommandKind::kGetText, doc->id()));
    r.Check(text.ok && text.response.payload == doc->text(),
            doc->id().ToString() + " differs from its shadow");
  }
  for (size_t d = kWriterDocs; d < kDocs; ++d) {
    auto text = s->text()->Text(f->docs[d].first);
    r.Check(text.ok() && Fingerprint(*text) == f->versions[d].back(),
            f->docs[d].second + " changed without a writer");
  }
  f->watcher->CheckFinal(s, &r);
  r.notes.push_back("change events delivered out of version order: " +
                    std::to_string(f->watcher->out_of_order()));
  QueryGen check_terms(SubSeed(config.seed, 1), 9);
  std::vector<std::string> terms;
  for (int i = 0; i < 4; ++i) terms.push_back(check_terms.Word());
  CheckSearchIndex(s, f->docs, terms, &r);
  std::vector<DocumentId> ids;
  for (const auto& [doc, name] : f->docs) ids.push_back(doc);
  if (config.traced) ChainShape(s, ids, &in);
  for (auto& t : f->readers) AddClientStats(*t, &in);
  AddClientStats(*f->writer, &in);
  AddClientStats(*f->watcher->agent(), &in);
  std::vector<std::string> final_texts;
  for (DocumentId doc : ids) {
    auto text = s->text()->Text(doc);
    if (!text.ok()) return text.status();
    final_texts.push_back(*text);
  }

  // The closing reopen must reproduce every document byte for byte.
  for (auto& t : f->readers) t.reset();
  f->writer.reset();
  f->watcher.reset();
  f->server.reset();
  auto reopened = TimedReopen(f->storage, nullptr, nullptr);
  if (!reopened.ok()) return reopened.status();
  for (size_t d = 0; d < ids.size(); ++d) {
    auto after = reopened->server->text()->Text(ids[d]);
    r.Check(after.ok() && *after == final_texts[d],
            "reopen changed " + f->docs[d].second);
  }
  Status integrity = reopened->server->CheckIntegrity();
  r.Check(integrity.ok(), "integrity after reopen: " + integrity.ToString());
  Report(config, in, &r);
  return r;
}

}  // namespace bench
