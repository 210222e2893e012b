// E1 — "everything typed appears as soon as it is stored persistently":
// per-character editing as real-time database transactions.
//
// Measures single-character insert/delete latency against document size,
// plus the DESIGN.md ablations: cached position lookup vs full chain walk,
// and read-at-head vs historic-version reads.

#include <benchmark/benchmark.h>

#include <string>

#include "bench_files.h"
#include "core/tendax.h"
#include "workload/generators.h"

namespace tendax {
namespace {

struct EditingEnv {
  std::unique_ptr<TendaxServer> server;
  UserId user;

  static EditingEnv* Get() {
    static EditingEnv* env = [] {
      auto* e = new EditingEnv();
      TendaxOptions options;
      options.db.buffer_pool_pages = 16384;
      e->server = *TendaxServer::Open(std::move(options));
      e->user = *e->server->accounts()->CreateUser("bench");
      return e;
    }();
    return env;
  }

  /// A document whose ~100-char live text sits on a chain of at least
  /// `records` records: the rest are tombstones, written in 4000-char
  /// type-then-delete rounds, as a long editing history leaves them.
  DocumentId HistoryDoc(size_t records) {
    DocumentId doc = FreshDoc(100);
    for (size_t chain = 100; chain < records; chain += 4000) {
      (void)server->text()->InsertText(user, doc, 50, std::string(4000, 'h'));
      (void)server->text()->DeleteRange(user, doc, 50, 4000);
    }
    return doc;
  }

  DocumentId FreshDoc(size_t chars) {
    static int counter = 0;
    auto doc = server->text()->CreateDocument(
        user, "bench-doc-" + std::to_string(counter++));
    CorpusGenerator corpus(counter);
    size_t remaining = chars;
    while (remaining > 0) {
      size_t batch = std::min<size_t>(remaining, 4000);
      std::string text = corpus.Document(batch / 6 + 1).substr(0, batch);
      (void)server->text()->InsertText(user, *doc, 0, text);
      remaining -= text.size();
    }
    return *doc;
  }
};

// One keystroke at the end of the document = one committed transaction.
void BM_InsertCharAtEnd(benchmark::State& state) {
  EditingEnv* env = EditingEnv::Get();
  DocumentId doc = env->FreshDoc(static_cast<size_t>(state.range(0)));
  size_t pos = static_cast<size_t>(*env->server->text()->Length(doc));
  for (auto _ : state) {
    auto r = env->server->text()->InsertText(env->user, doc, pos, "x");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    ++pos;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertCharAtEnd)->Arg(1024)->Arg(16384)->Arg(65536);

// One keystroke at a random position.
void BM_InsertCharRandom(benchmark::State& state) {
  EditingEnv* env = EditingEnv::Get();
  DocumentId doc = env->FreshDoc(static_cast<size_t>(state.range(0)));
  Random rng(1234);
  size_t len = static_cast<size_t>(*env->server->text()->Length(doc));
  for (auto _ : state) {
    size_t pos = rng.Uniform(len + 1);
    auto r = env->server->text()->InsertText(env->user, doc, pos, "y");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    ++len;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertCharRandom)->Arg(1024)->Arg(16384)->Arg(65536);

// One keystroke into a ~100-char live text whose chain carries a long
// history of tombstones. The chain is a copy-on-write tree, so the cost
// should follow the tree's height, not the record count.
void BM_KeystrokeWithHistory(benchmark::State& state) {
  EditingEnv* env = EditingEnv::Get();
  DocumentId doc = env->HistoryDoc(static_cast<size_t>(state.range(0)));
  Random rng(77);
  size_t len = static_cast<size_t>(*env->server->text()->Length(doc));
  for (auto _ : state) {
    auto r = env->server->text()->InsertText(env->user, doc,
                                             rng.Uniform(len + 1), "k");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    ++len;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["chain_records"] = static_cast<double>(
      env->server->text()->FullChain(doc)->size());
}
BENCHMARK(BM_KeystrokeWithHistory)->Arg(2000)->Arg(100000)->Arg(400000);

// Deleting one character (tombstone transaction).
void BM_DeleteCharRandom(benchmark::State& state) {
  EditingEnv* env = EditingEnv::Get();
  // Oversize the doc so it never empties during the run.
  DocumentId doc = env->FreshDoc(400000);
  Random rng(99);
  size_t len = static_cast<size_t>(*env->server->text()->Length(doc));
  for (auto _ : state) {
    size_t pos = rng.Uniform(len);
    auto r = env->server->text()->DeleteRange(env->user, doc, pos, 1);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    --len;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeleteCharRandom);

// A realistic typing session: trace-driven inserts/deletes.
void BM_TypingTrace(benchmark::State& state) {
  EditingEnv* env = EditingEnv::Get();
  DocumentId doc = env->FreshDoc(1000);
  TypingTraceGenerator trace(7);
  size_t len = static_cast<size_t>(*env->server->text()->Length(doc));
  uint64_t chars = 0;
  for (auto _ : state) {
    TypingAction action = trace.Next(len);
    if (action.kind == TypingAction::Kind::kInsert) {
      auto r =
          env->server->text()->InsertText(env->user, doc, action.pos,
                                          action.text);
      if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
      len += action.text.size();
      chars += action.text.size();
    } else {
      auto r = env->server->text()->DeleteRange(env->user, doc, action.pos,
                                                action.len);
      if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
      len -= action.len;
      chars += action.len;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(chars));
  state.counters["chars_per_gesture"] =
      static_cast<double>(chars) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_TypingTrace);

// Ablation: position lookup through the order-statistic cache ...
void BM_ReadTextCached(benchmark::State& state) {
  EditingEnv* env = EditingEnv::Get();
  DocumentId doc = env->FreshDoc(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto text = env->server->text()->Text(doc);
    if (!text.ok()) state.SkipWithError(text.status().ToString().c_str());
    benchmark::DoNotOptimize(text->size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReadTextCached)->Arg(1024)->Arg(16384)->Arg(65536);

// ... vs the full linked-record chain walk (also the time-travel path).
void BM_ReadTextChainWalk(benchmark::State& state) {
  EditingEnv* env = EditingEnv::Get();
  DocumentId doc = env->FreshDoc(static_cast<size_t>(state.range(0)));
  Version head = *env->server->text()->CurrentVersion(doc);
  for (auto _ : state) {
    auto text = env->server->text()->TextAtVersion(doc, head);
    if (!text.ok()) state.SkipWithError(text.status().ToString().c_str());
    benchmark::DoNotOptimize(text->size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReadTextChainWalk)->Arg(1024)->Arg(16384)->Arg(65536);

// Historic reads cost the same chain walk regardless of target version.
void BM_TimeTravelRead(benchmark::State& state) {
  EditingEnv* env = EditingEnv::Get();
  DocumentId doc = env->FreshDoc(8192);
  // Burn some history.
  for (int i = 0; i < 20; ++i) {
    (void)env->server->text()->DeleteRange(env->user, doc, 0, 10);
    (void)env->server->text()->InsertText(env->user, doc, 0, "replacement");
  }
  Version target = static_cast<Version>(state.range(0));
  for (auto _ : state) {
    auto text = env->server->text()->TextAtVersion(doc, target);
    if (!text.ok()) state.SkipWithError(text.status().ToString().c_str());
    benchmark::DoNotOptimize(text->size());
  }
}
BENCHMARK(BM_TimeTravelRead)->Arg(1)->Arg(20)->Arg(1000000);

// Opening a document rebuilds the cache from the linked records.
void BM_OpenDocument(benchmark::State& state) {
  EditingEnv* env = EditingEnv::Get();
  DocumentId doc = env->FreshDoc(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    env->server->text()->InvalidateHandle(doc);
    auto len = env->server->text()->Length(doc);  // forces reload
    if (!len.ok()) state.SkipWithError(len.status().ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OpenDocument)->Arg(1024)->Arg(16384)->Arg(65536);

// Ablation: tombstone retention vs history purging. A churned document
// carries its whole edit history in the chain; opening it (and any chain
// walk) pays for the tombstones until PurgeHistory reclaims them.
void BM_OpenChurnedDocument(benchmark::State& state) {
  EditingEnv* env = EditingEnv::Get();
  const bool purged = state.range(0) != 0;
  static int counter = 0;
  auto doc = env->server->text()->CreateDocument(
      env->user, "churn" + std::to_string(counter++));
  // Churn: repeatedly type and delete so tombstones pile up (~90%).
  for (int round = 0; round < 40; ++round) {
    (void)env->server->text()->InsertText(env->user, *doc, 0,
                                          std::string(200, 'x'));
    (void)env->server->text()->DeleteRange(env->user, *doc, 0, 180);
  }
  if (purged) {
    auto n = env->server->text()->PurgeHistory(env->user, *doc, kVersionMax);
    if (!n.ok()) state.SkipWithError(n.status().ToString().c_str());
  }
  for (auto _ : state) {
    env->server->text()->InvalidateHandle(*doc);
    auto len = env->server->text()->Length(*doc);  // forces a chain walk
    if (!len.ok()) state.SkipWithError(len.status().ToString().c_str());
  }
  state.counters["chain_records"] = static_cast<double>(
      env->server->text()->FullChain(*doc)->size());
}
BENCHMARK(BM_OpenChurnedDocument)
    ->Arg(0)   // tombstones retained (full history)
    ->Arg(1);  // history purged

// One durable keystroke, single editor on a file backend (real fsyncs):
// the uncontended cost of the commit path. The contended rows live in
// bench_concurrency (BM_GroupCommit).
void BM_InsertCharDurable(benchmark::State& state) {
  struct DurableEnv {
    std::unique_ptr<TendaxServer> server;
    UserId user;
    DocumentId doc;
  };
  static DurableEnv* env = [] {
    auto* e = new DurableEnv();
    const std::string path = "bench_edit_durable.db";
    RemoveDatabaseFiles(path);
    TendaxOptions options;
    options.db.path = path;
    options.db.buffer_pool_pages = 16384;
    e->server = *TendaxServer::Open(std::move(options));
    e->user = *e->server->accounts()->CreateUser("bench");
    e->doc = *e->server->text()->CreateDocument(e->user, "durable");
    return e;
  }();
  for (auto _ : state) {
    auto r = env->server->text()->InsertText(env->user, env->doc, 0, "x");
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["wal_syncs"] = static_cast<double>(
      env->server->metrics()->counter("wal.syncs")->Value());
}
BENCHMARK(BM_InsertCharDurable)->UseRealTime();  // CPU time would hide the
                                                 // fsync wait

// The purge operation itself.
void BM_PurgeHistory(benchmark::State& state) {
  EditingEnv* env = EditingEnv::Get();
  static int counter = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto doc = env->server->text()->CreateDocument(
        env->user, "purge" + std::to_string(counter++));
    (void)env->server->text()->InsertText(
        env->user, *doc, 0, std::string(state.range(0), 'x'));
    (void)env->server->text()->DeleteRange(
        env->user, *doc, 0, static_cast<size_t>(state.range(0)) / 2);
    state.ResumeTiming();
    auto n = env->server->text()->PurgeHistory(env->user, *doc, kVersionMax);
    if (!n.ok()) state.SkipWithError(n.status().ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) / 2);
}
BENCHMARK(BM_PurgeHistory)->Arg(1000)->Arg(8000);

}  // namespace
}  // namespace tendax

BENCHMARK_MAIN();
