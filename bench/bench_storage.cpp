// E9 — substrate soundness: buffer pool hit behaviour, WAL append/flush,
// record CRUD through the transactional heap, and crash-recovery time
// against log length.

#include <benchmark/benchmark.h>

#include <chrono>

#include "db/database.h"
#include "util/random.h"

namespace tendax {
namespace {

Schema BenchSchema() {
  return Schema({{"id", ColumnType::kUint64},
                 {"payload", ColumnType::kString}});
}

// Buffer pool: hit path (working set fits) vs miss/eviction path.
void BM_BufferPoolFetch(benchmark::State& state) {
  InMemoryDiskManager disk;
  const size_t pool_pages = 256;
  BufferPool pool(pool_pages, &disk);
  const int total_pages = static_cast<int>(state.range(0));
  std::vector<PageId> pids;
  for (int i = 0; i < total_pages; ++i) {
    auto page = pool.NewPage();
    pids.push_back((*page)->id());
    pool.Unpin(*page, true);
  }
  Random rng(3);
  for (auto _ : state) {
    auto page = pool.FetchPage(pids[rng.Uniform(pids.size())]);
    if (!page.ok()) state.SkipWithError(page.status().ToString().c_str());
    pool.Unpin(*page, false);
  }
  auto stats = pool.stats();
  state.counters["hit_rate"] =
      static_cast<double>(stats.hits) /
      static_cast<double>(stats.hits + stats.misses);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolFetch)->Arg(128)->Arg(256)->Arg(1024)->Arg(4096);

// WAL: buffered append vs append+flush (the durable-commit path).
void BM_WalAppend(benchmark::State& state) {
  Wal wal(std::make_shared<InMemoryLogStorage>());
  std::string image(state.range(0), 'w');
  for (auto _ : state) {
    LogRecord rec;
    rec.type = LogType::kUpdate;
    rec.txn = TxnId(1);
    rec.op = UpdateOp::kInsert;
    rec.table_id = 2;
    rec.rid = 3;
    rec.after = image;
    benchmark::DoNotOptimize(wal.Append(&rec));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WalAppend)->Arg(32)->Arg(256);

void BM_WalAppendFlush(benchmark::State& state) {
  Wal wal(std::make_shared<InMemoryLogStorage>());
  std::string image(64, 'w');
  for (auto _ : state) {
    LogRecord rec;
    rec.type = LogType::kUpdate;
    rec.txn = TxnId(1);
    rec.op = UpdateOp::kInsert;
    rec.after = image;
    auto st = wal.Flush(wal.Append(&rec));
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalAppendFlush);

// Transactional record insert through the full stack (WAL + locks + heap).
void BM_HeapInsertCommit(benchmark::State& state) {
  DatabaseOptions options;
  options.buffer_pool_pages = 8192;
  auto db = *Database::Open(std::move(options));
  auto table = *db->CreateTable("bench", BenchSchema());
  std::string payload(state.range(0), 'p');
  uint64_t id = 0;
  for (auto _ : state) {
    Status st = db->txns()->RunInTxn(UserId(1), [&](Transaction* txn) {
      return table->Insert(txn, Record({id++, payload})).status();
    });
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapInsertCommit)->Arg(16)->Arg(256);

// Abort path: insert + rollback.
void BM_HeapInsertAbort(benchmark::State& state) {
  DatabaseOptions options;
  options.buffer_pool_pages = 8192;
  auto db = *Database::Open(std::move(options));
  auto table = *db->CreateTable("bench", BenchSchema());
  for (auto _ : state) {
    Transaction* txn = db->txns()->Begin(UserId(1));
    (void)table->Insert(txn, Record({uint64_t{1}, std::string("doomed")}));
    auto st = db->txns()->Abort(txn);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapInsertAbort);

// Crash recovery: committed transactions in the log vs reopen time.
// (Manual timing: each iteration replays a fresh crash image.)
void BM_CrashRecovery(benchmark::State& state) {
  const int txns = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto disk = std::make_shared<InMemoryDiskManager>();
    auto log = std::make_shared<InMemoryLogStorage>();
    {
      DatabaseOptions options;
      options.disk = disk;
      options.log_storage = log;
      options.buffer_pool_pages = 8192;
      auto db = *Database::Open(std::move(options));
      auto table = *db->CreateTable("bench", BenchSchema());
      for (int i = 0; i < txns; ++i) {
        (void)db->txns()->RunInTxn(UserId(1), [&](Transaction* txn) {
          return table
              ->Insert(txn, Record({static_cast<uint64_t>(i),
                                    std::string("recoverable-payload")}))
              .status();
        });
      }
      db->SimulateCrash();
    }
    state.ResumeTiming();
    DatabaseOptions options;
    options.disk = disk;
    options.log_storage = log;
    options.buffer_pool_pages = 8192;
    auto db = Database::Open(std::move(options));
    if (!db.ok()) state.SkipWithError(db.status().ToString().c_str());
    benchmark::DoNotOptimize((*db)->recovery_stats().redo_applied);
  }
  state.counters["txns_replayed"] = txns;
}
BENCHMARK(BM_CrashRecovery)->Arg(100)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

// Checkpointing cost (flush-all + log truncation).
void BM_Checkpoint(benchmark::State& state) {
  DatabaseOptions options;
  options.buffer_pool_pages = 8192;
  auto db = *Database::Open(std::move(options));
  auto table = *db->CreateTable("bench", BenchSchema());
  uint64_t id = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 100; ++i) {
      (void)db->txns()->RunInTxn(UserId(1), [&](Transaction* txn) {
        return table->Insert(txn, Record({id++, std::string("cp")})).status();
      });
    }
    state.ResumeTiming();
    auto st = db->Checkpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
}
BENCHMARK(BM_Checkpoint);

}  // namespace
}  // namespace tendax

BENCHMARK_MAIN();
