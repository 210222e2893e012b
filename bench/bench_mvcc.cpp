// MVCC economics: what lock-free snapshot reads cost.
//
// BM_ReadersWithWriter/<readers> runs `readers` threads taking copy-paste
// source reads (`TextStore::Copy`) from one shared document while a
// background writer types durable keystrokes into it (file-backed WAL,
// inline commit fsync — which holds the writer's exclusive document lock
// through the flush). Every Copy materializes from the published snapshot
// inside a lock-free snapshot-read transaction, so readers never queue
// behind the fsync-ing writer.
//
// BM_AcquireSnapshot is the raw fast-path cost: one acquire-load plus a
// shared_ptr refcount bump (and the mvcc.snapshots_acquired tick).
//
// The durable keystroke that publication rides on is bench_editing's
// BM_InsertCharDurable.
//
// BENCH_mvcc.json records the ablation against a locked-read baseline that
// retired that path: snapshot reads at ~2.5x the locked readers'
// throughput at /16, publication at ~2% of a durable keystroke. This bench
// no longer regenerates those rows.
//
// NOTE: committed numbers come from a single-CPU VM; reader threads time
// share.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_files.h"
#include "core/tendax.h"

namespace tendax {
namespace {

struct ReadEnv {
  std::unique_ptr<TendaxServer> server;
  UserId user;
  DocumentId doc;
};

ReadEnv* MakeReadEnv(const std::string& tag) {
  auto* e = new ReadEnv();
  const std::string path = "bench_mvcc_readers_" + tag + ".db";
  RemoveDatabaseFiles(path);
  TendaxOptions options;
  options.db.path = path;  // durable writer: X lock held through the fsync
  options.db.buffer_pool_pages = 16384;
  e->server = *TendaxServer::Open(std::move(options));
  e->user = *e->server->accounts()->CreateUser("bench");
  e->doc = *e->server->text()->CreateDocument(e->user, "scanned");
  (void)e->server->text()->InsertText(e->user, e->doc, 0,
                                      std::string(2000, 'x'));
  return e;
}

constexpr size_t kReadsPerReaderPerRound = 500;

// One round: a background writer types durably for the round's duration
// while `readers` threads each take a fixed batch of copy-source reads.
// Returns the wall-clock seconds the readers took.
double ReaderRound(ReadEnv* env, size_t readers) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto r = env->server->text()->InsertText(env->user, env->doc, 0, "w");
      if (!r.ok() && !r.status().IsRetryable()) return;
    }
  });
  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (size_t i = 0; i < readers; ++i) {
    threads.emplace_back([&] {
      for (size_t op = 0; op < kReadsPerReaderPerRound; ++op) {
        auto chars = env->server->text()->Copy(env->user, env->doc, 0, 64);
        if (chars.ok()) benchmark::DoNotOptimize(chars->size());
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();
  stop.store(true, std::memory_order_release);
  writer.join();
  return std::chrono::duration<double>(end - begin).count();
}

void BM_ReadersWithWriter(benchmark::State& state) {
  static ReadEnv* env = MakeReadEnv("mvcc");
  const size_t readers = static_cast<size_t>(state.range(0));

  double secs = 0;
  uint64_t reads = 0;
  for (auto _ : state) {
    secs += ReaderRound(env, readers);
    reads += readers * kReadsPerReaderPerRound;
  }
  state.SetItemsProcessed(static_cast<int64_t>(reads));
  state.counters["snapshot_reads_per_sec"] =
      static_cast<double>(reads) / secs;
}
BENCHMARK(BM_ReadersWithWriter)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Raw snapshot acquisition: the read fast path with no materialization.
void BM_AcquireSnapshot(benchmark::State& state) {
  static ReadEnv* env = MakeReadEnv("acquire");
  for (auto _ : state) {
    auto snap = env->server->text()->AcquireSnapshot(env->doc);
    if (!snap.ok()) state.SkipWithError(snap.status().ToString().c_str());
    benchmark::DoNotOptimize(snap->get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AcquireSnapshot);

}  // namespace
}  // namespace tendax

BENCHMARK_MAIN();
