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
// BM_ServerReopen times TendaxServer::Open over a clean-closed in-memory
// corpus of 18 documents of 16-56k chars (663k char records), the shape of
// the big_corpus_memory workload. A clean close leaves an empty log, so
// this is the restart's own work: the catalog, the char-id scan and the
// rest of the server's Init. BM_FirstOpenAfterReopen times the first
// Text() of a 50k-char document after that reopen, which loads its chain
// from storage.
//
// Regenerate the committed results with
//   ./build/bench/bench_checkpoint --benchmark_out=BENCH_checkpoint.json
//       --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "core/tendax.h"
#include "db/database.h"
#include "storage/disk_manager.h"
#include "storage/segmented_log.h"
#include "workload/generators.h"

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

// Copies every page and the whole log into fresh in-memory storage.
Status CopyStorage(DiskManager* disk, LogStorage* log, DiskManager* disk_copy,
                   LogStorage* log_copy) {
  auto page = std::make_unique<char[]>(kPageSize);
  for (PageId pid = 0; pid < disk->NumPages(); ++pid) {
    TENDAX_RETURN_IF_ERROR(disk->ReadPage(pid, page.get()));
    auto allocated = disk_copy->AllocatePage();
    if (!allocated.ok()) return allocated.status();
    TENDAX_RETURN_IF_ERROR(disk_copy->WritePage(*allocated, page.get()));
  }
  std::string raw;
  TENDAX_RETURN_IF_ERROR(log->ReadAll(&raw));
  return log_copy->Append(raw);
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
  // Open() replays the log and then empties it, so every iteration opens a
  // fresh copy of the crashed image. Open() includes analysis + redo +
  // undo + catalog reload.
  for (auto _ : state) {
    state.PauseTiming();
    auto disk_copy = std::make_shared<InMemoryDiskManager>();
    auto log_copy = std::make_shared<InMemoryLogStorage>();
    Status copied = CopyStorage(disk.get(), log.get(), disk_copy.get(),
                                log_copy.get());
    if (!copied.ok()) state.SkipWithError(copied.ToString().c_str());
    state.ResumeTiming();
    auto db = OpenBenchDb(disk_copy, log_copy);
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

// The big_corpus_memory corpus, typed in 4000-char inserts and closed
// cleanly. Built once per process.
struct Corpus {
  std::shared_ptr<InMemoryDiskManager> disk =
      std::make_shared<InMemoryDiskManager>();
  std::shared_ptr<InMemoryLogStorage> log =
      std::make_shared<InMemoryLogStorage>();
  DocumentId doc_50k;  // the document of about 50k chars
  Status built;
};

Result<std::unique_ptr<TendaxServer>> OpenCorpus(const Corpus& corpus) {
  TendaxOptions options;
  options.db.disk = corpus.disk;
  options.db.log_storage = corpus.log;
  return TendaxServer::Open(std::move(options));
}

const Corpus& CleanClosedCorpus() {
  static const Corpus* corpus = [] {
    auto* c = new Corpus;
    c->built = [&]() -> Status {
      auto server = OpenCorpus(*c);
      if (!server.ok()) return server.status();
      TextStore* text = (*server)->text();
      constexpr size_t kDocs = 18, kMinChars = 16 * 1024,
                       kStep = 40 * 1024 / (kDocs - 1), kChunk = 4000;
      CorpusGenerator generator(1);
      for (size_t i = 0; i < kDocs; ++i) {
        auto doc = text->CreateDocument(UserId(1), "corpus-" +
                                                       std::to_string(i));
        if (!doc.ok()) return doc.status();
        const size_t chars = kMinChars + kStep * ((7 * i) % kDocs);
        std::string body = generator.Document(chars / 5);
        body.resize(chars);
        for (size_t at = 0; at < body.size(); at += kChunk) {
          auto typed =
              text->InsertText(UserId(1), *doc, at, body.substr(at, kChunk));
          if (!typed.ok()) return typed.status();
        }
        if (chars >= 50 * 1000 && !c->doc_50k.valid()) c->doc_50k = *doc;
      }
      return Status::OK();
    }();
    return c;
  }();
  return *corpus;
}

void BM_ServerReopen(benchmark::State& state) {
  const Corpus& corpus = CleanClosedCorpus();
  if (!corpus.built.ok()) {
    state.SkipWithError(corpus.built.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto server = OpenCorpus(corpus);
    if (!server.ok()) state.SkipWithError(server.status().ToString().c_str());
    benchmark::DoNotOptimize(server);
    state.PauseTiming();
    server->reset();  // a clean close again: the log stays empty
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ServerReopen)->Unit(benchmark::kMillisecond);

void BM_FirstOpenAfterReopen(benchmark::State& state) {
  const Corpus& corpus = CleanClosedCorpus();
  if (!corpus.built.ok()) {
    state.SkipWithError(corpus.built.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto server = OpenCorpus(corpus);
    if (!server.ok()) state.SkipWithError(server.status().ToString().c_str());
    // A server that loaded every chain at open (before they were loaded on
    // first use) serves this read from memory; evicted, it loads the chain
    // from storage as a first open does.
    (*server)->text()->EvictDocument(corpus.doc_50k);
    state.ResumeTiming();
    auto text = (*server)->text()->Text(corpus.doc_50k);
    if (!text.ok()) state.SkipWithError(text.status().ToString().c_str());
    benchmark::DoNotOptimize(text);
    state.PauseTiming();
    server->reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_FirstOpenAfterReopen)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tendax

BENCHMARK_MAIN();
