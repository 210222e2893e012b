// Checkpoint economics: what a fuzzy checkpoint buys (bounded recovery) and
// what it costs (the pause it imposes while flushing dirty pages).
//
// BM_RecoveryReplay/0 vs /1 is the acceptance comparison: crash-recovery
// time over the same edit history without (/0) and with (/1) a fuzzy
// checkpoint taken near the end. The checkpointed run replays only the
// post-checkpoint tail — and its WAL has already been truncated to it.
// BM_CheckpointPause prices one CheckpointNow() call as a function of the
// number of dirty pages it must flush (the arg).
//
// Regenerate the committed results with
//   ./build/bench/bench_checkpoint --benchmark_out=BENCH_checkpoint.json
//       --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "db/database.h"
#include "storage/disk_manager.h"
#include "storage/segmented_log.h"

namespace tendax {
namespace {

Schema BenchSchema() {
  return Schema({{"id", ColumnType::kUint64}, {"body", ColumnType::kString}});
}

Result<std::unique_ptr<Database>> OpenBenchDb(
    std::shared_ptr<InMemoryDiskManager> disk,
    std::shared_ptr<SegmentedLogStorage> log) {
  DatabaseOptions options;
  options.buffer_pool_pages = 512;
  options.disk = std::move(disk);
  options.log_storage = std::move(log);
  options.wal_segment_bytes = 16 * 1024;
  return Database::Open(std::move(options));
}

Status InsertRows(Database* db, HeapTable* table, uint64_t base, uint64_t n) {
  return db->txns()->RunInTxn(UserId(1), [&](Transaction* txn) -> Status {
    for (uint64_t i = 0; i < n; ++i) {
      auto r = table->Insert(
          txn, Record({base + i, std::string(64, 'x')}));
      if (!r.ok()) return r.status();
    }
    return Status::OK();
  });
}

// Crash-recovery latency over a 40k-row history. arg=0: no checkpoint, the
// reopen replays everything. arg=1: a fuzzy checkpoint ran after row 39800,
// so analysis anchors on its end record and replays only the tail.
void BM_RecoveryReplay(benchmark::State& state) {
  const bool with_checkpoint = state.range(0) != 0;
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  {
    auto db = OpenBenchDb(disk, log);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    auto table = (*db)->CreateTable("bench", BenchSchema());
    if (!table.ok()) {
      state.SkipWithError(table.status().ToString().c_str());
      return;
    }
    for (uint64_t chunk = 0; chunk < 199; ++chunk) {
      (void)InsertRows(db->get(), *table, chunk * 200, 200);
    }
    if (with_checkpoint) (void)(*db)->CheckpointNow();
    (void)InsertRows(db->get(), *table, 39800, 200);
    (*db)->SimulateCrash();
  }
  // Recovery is idempotent, so every iteration reopens the same crashed
  // image. Open() includes analysis + redo + undo + catalog reload.
  for (auto _ : state) {
    auto db = OpenBenchDb(disk, log);
    if (!db.ok()) state.SkipWithError(db.status().ToString().c_str());
    benchmark::DoNotOptimize(db);
    state.PauseTiming();
    db->reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecoveryReplay)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Cost of one CheckpointNow() that must flush `arg` freshly dirtied pages:
// begin record + ATT/DPT snapshot + idle-page flush loop + end record +
// segment rotation and truncation.
void BM_CheckpointPause(benchmark::State& state) {
  const uint64_t dirty_rows = static_cast<uint64_t>(state.range(0));
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  auto db = OpenBenchDb(disk, log);
  if (!db.ok()) {
    state.SkipWithError(db.status().ToString().c_str());
    return;
  }
  auto table = (*db)->CreateTable("bench", BenchSchema());
  if (!table.ok()) {
    state.SkipWithError(table.status().ToString().c_str());
    return;
  }
  uint64_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Status st = InsertRows(db->get(), *table, next, dirty_rows);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    next += dirty_rows;
    state.ResumeTiming();
    st = (*db)->CheckpointNow();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckpointPause)->Arg(16)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace tendax

BENCHMARK_MAIN();
