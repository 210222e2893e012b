// Fuzzy checkpointing + WAL segment truncation coverage:
//
//  - SegmentedLogStorage unit tests (rotation, deletion, reopen scan)
//  - Wal-level segmentation (size-based rotation, truncation bounds)
//  - the typed quiescence error on Database::Checkpoint (satellite)
//  - bounded recovery: analysis/redo start at the last complete checkpoint,
//    asserted through RecoveryStats (records_skipped / checkpoint_lsn)
//  - WAL disk usage stays bounded across >= 3 truncation cycles
//  - property test: truncated-log recovery == full-log recovery
//  - ScheduleController interleavings (commit lands mid-checkpoint)
//  - the tentpole crash sweep: power loss at EVERY storage I/O point inside
//    a fuzzy checkpoint, recovered state checked against a shadow model
//  - the clean close: it leaves an empty log, so a reopen replays nothing;
//    power loss at every I/O of the close, or midway through the log
//    truncate on disk, still recovers; a close with a transaction active
//    keeps the log; LSNs continue past the pages over an empty log
//
// Scale knobs (bounded defaults for tier-1):
//   TENDAX_CHECKPOINT_SEED   workload + fault seed   (default 7)
//   TENDAX_CHECKPOINT_OPS    edits per sweep run     (default 70)

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/tendax.h"
#include "db/database.h"
#include "storage/disk_manager.h"
#include "storage/segmented_log.h"
#include "storage/wal.h"
#include "testing/fault_injection.h"
#include "testing/fault_plan.h"
#include "testing/schedule_controller.h"
#include "util/clock.h"
#include "workload/generators.h"

namespace tendax {
namespace {

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::strtoull(v, nullptr, 10);
}

Schema TestSchema() {
  return Schema({{"id", ColumnType::kUint64},
                 {"name", ColumnType::kString},
                 {"score", ColumnType::kDouble},
                 {"active", ColumnType::kBool}});
}

// ---------- SegmentedLogStorage ----------

TEST(SegmentedLogTest, AppendRotateDropRoundTrip) {
  auto log = std::make_shared<InMemoryLogStorage>();
  EXPECT_EQ(log->current_segment(), 1u);
  ASSERT_TRUE(log->Append(Slice("aaaa")).ok());

  uint64_t second = 0;
  ASSERT_TRUE(log->RotateSegment(&second).ok());
  EXPECT_EQ(second, 2u);
  EXPECT_EQ(log->current_segment(), 2u);
  ASSERT_TRUE(log->Append(Slice("bb")).ok());

  // ReadAll concatenates the segments in id order.
  std::string all;
  ASSERT_TRUE(log->ReadAll(&all).ok());
  EXPECT_EQ(all, "aaaabb");
  EXPECT_EQ(log->SegmentBytes(1), 4u);
  EXPECT_EQ(log->SegmentBytes(2), 2u);
  EXPECT_EQ(log->TotalBytes(), 6u);

  uint64_t freed = 0;
  ASSERT_TRUE(log->DropSegment(1, &freed).ok());
  EXPECT_EQ(freed, 4u);
  ASSERT_TRUE(log->ReadAll(&all).ok());
  EXPECT_EQ(all, "bb");
  EXPECT_EQ(log->SegmentIds(), (std::vector<uint64_t>{2}));
}

TEST(SegmentedLogTest, DropRefusesCurrentSegment) {
  auto log = std::make_shared<InMemoryLogStorage>();
  ASSERT_TRUE(log->Append(Slice("x")).ok());
  uint64_t freed = 0;
  EXPECT_FALSE(log->DropSegment(log->current_segment(), &freed).ok());
  // Truncate restarts the log but never reuses a segment id.
  ASSERT_TRUE(log->Truncate().ok());
  EXPECT_GT(log->current_segment(), 1u);
  std::string all;
  ASSERT_TRUE(log->ReadAll(&all).ok());
  EXPECT_TRUE(all.empty());
}

TEST(SegmentedLogTest, FileBackedSurvivesReopen) {
  const std::string prefix =
      ::testing::TempDir() + "/tendax_seg_reopen_test.wal";
  // Segment ids are never reused, so files from a previous run would shift
  // the expected ids; start from a clean slate.
  for (const auto& entry :
       std::filesystem::directory_iterator(::testing::TempDir())) {
    if (entry.path().filename().string().rfind("tendax_seg_reopen_test.wal",
                                               0) == 0) {
      std::filesystem::remove(entry.path());
    }
  }
  {
    auto log = SegmentedLogStorage::OpenFiles(prefix);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE((*log)->Append(Slice("first")).ok());
    uint64_t id = 0;
    ASSERT_TRUE((*log)->RotateSegment(&id).ok());
    ASSERT_TRUE((*log)->Append(Slice("second")).ok());
    ASSERT_TRUE((*log)->Sync().ok());
  }
  {
    auto log = SegmentedLogStorage::OpenFiles(prefix);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ((*log)->SegmentIds(), (std::vector<uint64_t>{1, 2}));
    EXPECT_EQ((*log)->current_segment(), 2u);
    std::string all;
    ASSERT_TRUE((*log)->ReadAll(&all).ok());
    EXPECT_EQ(all, "firstsecond");
    // Dropping the old segment survives another reopen.
    uint64_t freed = 0;
    ASSERT_TRUE((*log)->DropSegment(1, &freed).ok());
    EXPECT_EQ(freed, 5u);
  }
  {
    auto log = SegmentedLogStorage::OpenFiles(prefix);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ((*log)->SegmentIds(), (std::vector<uint64_t>{2}));
    std::string all;
    ASSERT_TRUE((*log)->ReadAll(&all).ok());
    EXPECT_EQ(all, "second");
    ASSERT_TRUE((*log)->Truncate().ok());  // clean up the temp files
  }
}

// ---------- Wal over a segmented storage ----------

LogRecord UpdateRecord(uint64_t txn, const std::string& payload) {
  LogRecord rec;
  rec.type = LogType::kUpdate;
  rec.txn = TxnId(txn);
  rec.op = UpdateOp::kInsert;
  rec.table_id = 1;
  rec.rid = txn;
  rec.after = payload;
  return rec;
}

TEST(WalSegmentationTest, SizeBasedRotationKeepsAllRecordsReadable) {
  auto storage = std::make_shared<InMemoryLogStorage>();
  Wal wal(storage, nullptr, /*segment_bytes=*/256);
  for (int i = 0; i < 40; ++i) {
    LogRecord rec = UpdateRecord(1, std::string(32, 'a' + i % 26));
    ASSERT_TRUE(wal.Flush(wal.Append(&rec)).ok());
  }
  EXPECT_GT(wal.SegmentCount(), 2u) << "size-based rotation never fired";
  std::vector<LogRecord> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 40u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, static_cast<Lsn>(i + 1));
  }
}

TEST(WalSegmentationTest, TruncateDropsOnlyWholeSegmentsBelowBound) {
  auto storage = std::make_shared<InMemoryLogStorage>();
  Wal wal(storage, nullptr, /*segment_bytes=*/0);
  // Three segments of 5 records each: [1..5][6..10][11..] (last current).
  for (int seg = 0; seg < 3; ++seg) {
    for (int i = 0; i < 5; ++i) {
      LogRecord rec = UpdateRecord(1, "payload");
      wal.Append(&rec);
    }
    ASSERT_TRUE(wal.FlushAll().ok());
    if (seg < 2) {
      ASSERT_TRUE(wal.RotateSegmentNow().ok());
    }
  }
  ASSERT_EQ(wal.SegmentCount(), 3u);

  // Bound inside the second segment: only the first may go.
  auto freed = wal.TruncateSegmentsBelow(8);
  ASSERT_TRUE(freed.ok());
  EXPECT_GT(*freed, 0u);
  EXPECT_EQ(wal.SegmentCount(), 2u);
  std::vector<LogRecord> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 10u);
  EXPECT_EQ(records.front().lsn, 6u) << "suffix must start at segment 2";
  EXPECT_EQ(records.back().lsn, 15u);

  // A bound above everything never deletes the current segment.
  freed = wal.TruncateSegmentsBelow(1000);
  ASSERT_TRUE(freed.ok());
  EXPECT_EQ(wal.SegmentCount(), 1u);
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records.front().lsn, 11u);
}

TEST(WalSegmentationTest, ReopenToleratesTornTailInCurrentSegmentOnly) {
  auto storage = std::make_shared<InMemoryLogStorage>();
  {
    Wal wal(storage, nullptr, 0);
    for (int i = 0; i < 4; ++i) {
      LogRecord rec = UpdateRecord(1, "payload");
      wal.Append(&rec);
    }
    ASSERT_TRUE(wal.FlushAll().ok());
    ASSERT_TRUE(wal.RotateSegmentNow().ok());
    for (int i = 0; i < 4; ++i) {
      LogRecord rec = UpdateRecord(1, "payload");
      wal.Append(&rec);
    }
    ASSERT_TRUE(wal.FlushAll().ok());
  }
  // Tear the current segment's tail: chop 3 bytes off its last record.
  storage->CorruptTail(storage->SegmentBytes(storage->current_segment()) - 3);
  Wal reopened(storage, nullptr, 0);
  std::vector<LogRecord> records;
  ASSERT_TRUE(reopened.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 7u) << "exactly the torn record is dropped";
  EXPECT_EQ(reopened.next_lsn(), 8u);
  // Appending after the reopen continues the sequence cleanly.
  LogRecord after = UpdateRecord(2, "after");
  EXPECT_EQ(reopened.Append(&after), 8u);
}

// ---------- Database-level checkpoint fixtures ----------

class CheckpointDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_shared<InMemoryDiskManager>();
    log_ = std::make_shared<InMemoryLogStorage>();
    OpenDb();
  }

  void OpenDb(uint64_t segment_bytes = 1024) {
    DatabaseOptions options;
    options.buffer_pool_pages = 64;
    options.disk = disk_;
    options.log_storage = log_;
    options.wal_segment_bytes = segment_bytes;
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  void CrashAndReopen() {
    db_->SimulateCrash();
    db_.reset();
    OpenDb();
  }

  // One committed transaction inserting rows [base, base+n).
  void InsertRows(HeapTable* table, uint64_t base, uint64_t n) {
    ASSERT_TRUE(db_->txns()
                    ->RunInTxn(UserId(1),
                               [&](Transaction* txn) -> Status {
                                 for (uint64_t i = 0; i < n; ++i) {
                                   auto r = table->Insert(
                                       txn,
                                       Record({base + i,
                                               "row" + std::to_string(base + i),
                                               1.0, true}));
                                   if (!r.ok()) return r.status();
                                 }
                                 return Status::OK();
                               })
                    .ok());
  }

  std::shared_ptr<InMemoryDiskManager> disk_;
  std::shared_ptr<SegmentedLogStorage> log_;
  std::unique_ptr<Database> db_;
};

// Satellite: the quiescent checkpoint's contract under active transactions
// is a typed, documented error — not a hang, not success.
TEST_F(CheckpointDbTest, QuiescentCheckpointFailsTypedUnderActiveTxn) {
  auto t = db_->CreateTable("docs", TestSchema());
  ASSERT_TRUE(t.ok());
  Transaction* active = db_->txns()->Begin(UserId(1));
  ASSERT_TRUE(
      (*t)->Insert(active, Record({uint64_t{1}, std::string("x"), 1.0, true}))
          .ok());

  Status st = db_->Checkpoint();
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_NE(st.ToString().find("quiescent"), std::string::npos)
      << "error must explain the quiescence requirement: " << st.ToString();

  // The fuzzy path has no such requirement.
  EXPECT_TRUE(db_->CheckpointNow().ok());

  ASSERT_TRUE(db_->txns()->Commit(active).ok());
  EXPECT_TRUE(db_->Checkpoint().ok()) << "quiescent now, must succeed";
}

// Acceptance: with checkpoints running under continuous editing, recovery
// replays only records at/after the last complete checkpoint.
TEST_F(CheckpointDbTest, FuzzyCheckpointBoundsRecovery) {
  auto t = db_->CreateTable("docs", TestSchema());
  ASSERT_TRUE(t.ok());
  InsertRows(*t, 0, 60);

  // Size of the full history before the checkpoint: a recovery without the
  // checkpoint would have to visit at least this many records.
  std::vector<LogRecord> log_records;
  ASSERT_TRUE(db_->wal()->ReadAll(&log_records).ok());
  const size_t pre_checkpoint = log_records.size();
  ASSERT_GE(pre_checkpoint, 60u);

  ASSERT_TRUE(db_->CheckpointNow().ok());
  InsertRows(*t, 60, 20);  // the only records recovery should visit

  // Count the records that survive to the crash point. The checkpoint's
  // segment truncation already deleted the bulk of the pre-checkpoint
  // history, so the surviving log is itself much smaller than the history.
  ASSERT_TRUE(db_->wal()->FlushAll().ok());
  ASSERT_TRUE(db_->wal()->ReadAll(&log_records).ok());
  const size_t total = log_records.size();
  EXPECT_LT(total, pre_checkpoint)
      << "truncation must delete segments below the redo LSN";

  CrashAndReopen();

  const RecoveryStats& stats = db_->recovery_stats();
  EXPECT_NE(stats.checkpoint_lsn, kInvalidLsn)
      << "analysis must anchor on the checkpoint end record";
  EXPECT_EQ(stats.records_scanned + stats.records_skipped, total);
  EXPECT_LT(stats.records_scanned, pre_checkpoint / 2)
      << "recovery work must be bounded by the post-checkpoint tail, "
         "not the full history";
  EXPECT_EQ(stats.losers, 0u);

  auto table = db_->GetTable("docs");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*(*table)->Count(), 80u) << "no committed row may be lost";
}

// Acceptance: the WAL's disk footprint stays bounded across >= 3
// checkpoint/truncation cycles instead of growing with history.
TEST_F(CheckpointDbTest, WalStaysBoundedAcrossTruncationCycles) {
  auto t = db_->CreateTable("docs", TestSchema());
  ASSERT_TRUE(t.ok());

  constexpr int kCycles = 4;
  constexpr uint64_t kRowsPerCycle = 80;
  uint64_t truncated_after_first = 0;
  std::vector<uint64_t> footprint;
  for (int c = 0; c < kCycles; ++c) {
    InsertRows(*t, c * kRowsPerCycle, kRowsPerCycle);
    ASSERT_TRUE(db_->CheckpointNow().ok()) << "cycle " << c;
    footprint.push_back(log_->TotalBytes());
    if (c == 0) {
      truncated_after_first = db_->checkpointer()->stats().bytes_truncated;
    }
  }

  // Every cycle after the first must actually delete segments.
  const CheckpointerStats stats = db_->checkpointer()->stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kCycles));
  EXPECT_GT(stats.bytes_truncated, truncated_after_first)
      << "later cycles truncated nothing";

  // Bounded: the footprint after the last cycle is no bigger than a small
  // multiple of the first cycle's — O(working set), not O(cycles).
  ASSERT_EQ(footprint.size(), static_cast<size_t>(kCycles));
  EXPECT_LE(footprint.back(), footprint.front() * 2)
      << "WAL grew across cycles: first=" << footprint.front()
      << " last=" << footprint.back();
  EXPECT_LE(db_->wal()->SegmentCount(), 3u);

  // The kStats-visible gauges moved with it.
  MetricsSnapshot snap = db_->metrics()->Snapshot();
  EXPECT_GT(snap.GaugeValue("wal.truncated_bytes"), 0);
  EXPECT_GE(snap.GaugeValue("wal.segments"), 1);
  EXPECT_EQ(snap.CounterValue("checkpoint.completed"),
            static_cast<uint64_t>(kCycles));
  EXPECT_GT(snap.CounterValue("wal.rotations"), 0u);
}

// An in-memory server's background checkpointer truncates its log just as
// a file-backed server's does: across many checkpoints of typing, the live
// segments and bytes stay bounded instead of growing with the history.
TEST(CheckpointServerTest, InMemoryServerLogStaysBoundedUnderCheckpointer) {
  TendaxOptions options;
  options.db.checkpoint_interval_micros = 2000;
  auto server_res = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server_res.ok()) << server_res.status().ToString();
  TendaxServer* server = server_res->get();
  auto user = server->accounts()->CreateUser("typist");
  ASSERT_TRUE(user.ok());
  auto doc = server->text()->CreateDocument(*user, "bounded.txt");
  ASSERT_TRUE(doc.ok());

  Checkpointer* checkpointer = server->db()->checkpointer();
  auto wait_for_checkpoints = [&](uint64_t n) {
    const uint64_t target = checkpointer->stats().completed + n;
    for (int i = 0; i < 5000 && checkpointer->stats().completed < target;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return checkpointer->stats().completed >= target;
  };

  constexpr int kRounds = 8;
  constexpr int kKeystrokesPerRound = 40;
  int64_t max_segments = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kKeystrokesPerRound; ++i) {
      ASSERT_TRUE(server->text()->InsertText(*user, *doc, 0, "x").ok());
    }
    // Two completions: the second one drops what the first one sealed.
    ASSERT_TRUE(wait_for_checkpoints(2)) << "round " << round;
    max_segments = std::max(
        max_segments,
        server->metrics()->Snapshot().GaugeValue("wal.segments"));
  }

  MetricsSnapshot snap = server->metrics()->Snapshot();
  EXPECT_GE(snap.CounterValue("wal.appends"),
            static_cast<uint64_t>(kRounds * kKeystrokesPerRound))
      << "the typed history must be much larger than what survives";
  EXPECT_GT(snap.GaugeValue("wal.truncated_bytes"), 0)
      << "checkpoints never freed a byte of the in-memory log";
  EXPECT_GE(max_segments, 1);
  EXPECT_LE(max_segments, 4) << "wal.segments grew with the checkpoints";
  std::string live;
  ASSERT_TRUE(server->db()->wal()->storage()->ReadAll(&live).ok());
  EXPECT_LT(live.size(), 16u * 1024) << "the live log grew with history";
}

// Reopening rebuilds TextStore's rid maps in memory; a restart with no
// edits must not allocate a single page.
TEST(CheckpointServerTest, ReopenWithoutEditsKeepsTheDataFileSize) {
  const std::string dir = ::testing::TempDir() + "tendax_reopen_pages";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/db";
  auto open = [&] {
    TendaxOptions options;
    options.db.path = path;
    return TendaxServer::Open(std::move(options));
  };
  constexpr size_t kChars = 20000;
  DocumentId doc;
  {
    auto server = open();
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto user = (*server)->accounts()->CreateUser("typist");
    ASSERT_TRUE(user.ok());
    auto d = (*server)->text()->CreateDocument(*user, "long.txt");
    ASSERT_TRUE(d.ok());
    doc = *d;
    for (size_t at = 0; at < kChars; at += 100) {
      ASSERT_TRUE((*server)
                      ->text()
                      ->InsertText(*user, doc, at, std::string(100, 'k'))
                      .ok());
    }
  }
  const uintmax_t written = std::filesystem::file_size(path);
  for (int reopen = 1; reopen <= 5; ++reopen) {
    {
      auto server = open();
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      EXPECT_EQ(*(*server)->text()->Length(doc), kChars);
      Status integrity = (*server)->CheckIntegrity();
      EXPECT_TRUE(integrity.ok()) << integrity.ToString();
    }
    EXPECT_EQ(std::filesystem::file_size(path) / kPageSize,
              written / kPageSize)
        << "reopen " << reopen << " grew the data file";
  }
  std::filesystem::remove_all(dir);
}

// A transaction active across the checkpoint holds truncation back (its
// undo chain must survive) and is rolled back as a loser after the crash.
TEST_F(CheckpointDbTest, ActiveTxnHoldsTruncationAndRecoversAsLoser) {
  auto t = db_->CreateTable("docs", TestSchema());
  ASSERT_TRUE(t.ok());

  Transaction* loser = db_->txns()->Begin(UserId(9));
  ASSERT_TRUE(
      (*t)->Insert(loser, Record({uint64_t{999}, std::string("lost"), 0.0,
                                  false}))
          .ok());
  InsertRows(*t, 0, 50);
  ASSERT_TRUE(db_->wal()->FlushAll().ok());  // loser's update is durable

  const size_t segments_before = db_->wal()->SegmentCount();
  ASSERT_TRUE(db_->CheckpointNow().ok());
  // The loser's first record pins the truncation bound near the log start:
  // nothing may have been deleted.
  EXPECT_EQ(db_->checkpointer()->stats().bytes_truncated, 0u);
  EXPECT_GE(db_->wal()->SegmentCount(), segments_before);

  CrashAndReopen();

  const RecoveryStats& stats = db_->recovery_stats();
  EXPECT_EQ(stats.losers, 1u);
  EXPECT_GE(stats.undo_applied, 1u);
  EXPECT_NE(stats.checkpoint_lsn, kInvalidLsn);
  auto table = db_->GetTable("docs");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*(*table)->Count(), 50u) << "the loser's row must be undone";
  bool found_lost = false;
  ASSERT_TRUE((*table)
                  ->Scan([&](RecordId, const Record& rec) {
                    if (rec.GetString(1) == "lost") found_lost = true;
                    return true;
                  })
                  .ok());
  EXPECT_FALSE(found_lost);
}

// ---------- Property: truncated-log recovery == full-log recovery ----------

// Runs a deterministic mixed workload (inserts, updates, deletes, one
// in-flight loser at the end), crashes, reopens, and returns the sorted
// recovered rows.
std::vector<std::string> RecoveredRowsAfterWorkload(bool with_checkpoints,
                                                    size_t* records_scanned) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();

  DatabaseOptions options;
  options.buffer_pool_pages = 64;
  options.disk = disk;
  options.log_storage = log;
  options.wal_segment_bytes = with_checkpoints ? 512 : (64u << 20);
  auto opened = Database::Open(options);
  EXPECT_TRUE(opened.ok());
  if (!opened.ok()) return {};
  std::unique_ptr<Database> db = std::move(*opened);

  auto t = db->CreateTable("docs", TestSchema());
  EXPECT_TRUE(t.ok());
  std::vector<RecordId> rids;
  for (uint64_t round = 0; round < 12; ++round) {
    Status st = db->txns()->RunInTxn(
        UserId(1), [&](Transaction* txn) -> Status {
          for (uint64_t i = 0; i < 8; ++i) {
            auto r = (*t)->Insert(
                txn, Record({round * 100 + i,
                             "r" + std::to_string(round * 100 + i), 0.5,
                             true}));
            if (!r.ok()) return r.status();
            rids.push_back(*r);
          }
          // Mutate and delete earlier rows so redo covers all three ops.
          if (rids.size() > 20) {
            auto upd = (*t)->Update(
                txn, rids[round],
                Record({round, "updated" + std::to_string(round), 2.0,
                        false}));
            if (!upd.ok()) return upd.status();
            Status del = (*t)->Delete(txn, rids[rids.size() - 10]);
            if (!del.ok()) return del;
            rids.erase(rids.end() - 10);
          }
          return Status::OK();
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (with_checkpoints && round % 3 == 2) {
      EXPECT_TRUE(db->CheckpointNow().ok());
    }
  }
  // One loser in flight at the crash, identical on both sides.
  Transaction* loser = db->txns()->Begin(UserId(2));
  EXPECT_TRUE(
      (*t)->Insert(loser, Record({uint64_t{424242}, std::string("in-flight"),
                                  0.0, false}))
          .ok());
  EXPECT_TRUE(db->wal()->FlushAll().ok());

  db->SimulateCrash();
  db.reset();

  DatabaseOptions reopen;
  reopen.buffer_pool_pages = 64;
  reopen.disk = disk;
  reopen.log_storage = log;
  auto recovered = Database::Open(reopen);
  EXPECT_TRUE(recovered.ok());
  if (!recovered.ok()) return {};
  *records_scanned = (*recovered)->recovery_stats().records_scanned;

  auto table = (*recovered)->GetTable("docs");
  EXPECT_TRUE(table.ok());
  if (!table.ok()) return {};
  std::vector<std::string> rows;
  EXPECT_TRUE((*table)
                  ->Scan([&](RecordId, const Record& rec) {
                    rows.push_back(rec.ToString());
                    return true;
                  })
                  .ok());
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(CheckpointPropertyTest, TruncatedLogRecoveryMatchesFullLogRecovery) {
  size_t scanned_truncated = 0;
  size_t scanned_full = 0;
  std::vector<std::string> truncated =
      RecoveredRowsAfterWorkload(true, &scanned_truncated);
  std::vector<std::string> full =
      RecoveredRowsAfterWorkload(false, &scanned_full);
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_FALSE(full.empty());
  EXPECT_EQ(truncated, full)
      << "recovering from the truncated log diverged from full-log replay";
  EXPECT_LT(scanned_truncated, scanned_full)
      << "checkpointing must shrink the analysis scan (truncated="
      << scanned_truncated << " full=" << scanned_full << ")";
}

// ---------- ScheduleController interleavings ----------

// A transaction that begins and commits while the checkpointer is frozen
// between its ATT/DPT snapshot and the end record must survive recovery:
// its records land above the begin LSN, which redo rescans.
TEST(CheckpointScheduleTest, CommitLandingMidCheckpointSurvivesCrash) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  auto sched = std::make_shared<ScheduleController>(7);

  DatabaseOptions options;
  options.buffer_pool_pages = 64;
  options.disk = disk;
  options.log_storage = log;
  options.wal_segment_bytes = 1024;
  options.checkpoint_hooks = sched;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<Database> db = std::move(*opened);

  auto t = db->CreateTable("docs", TestSchema());
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(db->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) {
                               return (*t)
                                   ->Insert(txn, Record({uint64_t{1},
                                                         std::string("early"),
                                                         1.0, true}))
                                   .status();
                             })
                  .ok());

  sched->PauseAtCheckpoint(1, CheckpointPhase::kAfterBeginRecord);
  Status ckpt_status;
  std::thread checkpointer([&] { ckpt_status = db->CheckpointNow(); });
  ASSERT_TRUE(sched->WaitUntilCheckpointPaused());

  // The checkpointer is parked after snapshotting an ATT that does not
  // contain this transaction.
  ASSERT_TRUE(db->txns()
                  ->RunInTxn(UserId(2),
                             [&](Transaction* txn) {
                               return (*t)
                                   ->Insert(txn, Record({uint64_t{2},
                                                         std::string("mid"),
                                                         2.0, true}))
                                   .status();
                             })
                  .ok());

  sched->ReleaseCheckpoint();
  checkpointer.join();
  ASSERT_TRUE(ckpt_status.ok()) << ckpt_status.ToString();

  db->SimulateCrash();
  db.reset();
  DatabaseOptions reopen;
  reopen.buffer_pool_pages = 64;
  reopen.disk = disk;
  reopen.log_storage = log;
  auto recovered = Database::Open(reopen);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_NE((*recovered)->recovery_stats().checkpoint_lsn, kInvalidLsn);
  auto table = (*recovered)->GetTable("docs");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*(*table)->Count(), 2u)
      << "the commit that landed mid-checkpoint was lost";
}

// ---------- The tentpole crash sweep ----------

constexpr size_t kSweepPoolPages = 64;
constexpr size_t kSweepCheckpointEvery = 20;
constexpr const char* kSweepDocName = "checkpointed.txt";

struct SweepOutcome {
  bool setup_ok = false;
  std::string committed;
  bool has_ambiguous = false;
  std::string with_ambiguous;
};

std::string ApplyToShadow(const std::string& text, const TypingAction& a) {
  std::string next = text;
  if (a.kind == TypingAction::Kind::kInsert) {
    next.insert(std::min(a.pos, next.size()), a.text);
  } else {
    size_t pos = std::min(a.pos, next.size());
    next.erase(pos, std::min(a.len, next.size() - pos));
  }
  return next;
}

// Records the global I/O-op range covered by each fuzzy checkpoint, so the
// sweep can aim power loss at exactly the ops a checkpoint issues.
class CheckpointOpRangeRecorder : public CheckpointHooks {
 public:
  explicit CheckpointOpRangeRecorder(std::shared_ptr<FaultPlan> plan)
      : plan_(std::move(plan)) {}

  void OnCheckpointPhase(uint64_t index, CheckpointPhase phase) override {
    (void)index;
    if (phase == CheckpointPhase::kBeforeBegin) {
      pending_ = plan_->ops_seen() + 1;
    } else if (phase == CheckpointPhase::kAfterTruncate) {
      ranges_.emplace_back(pending_, plan_->ops_seen());
    }
  }

  const std::vector<std::pair<uint64_t, uint64_t>>& ranges() const {
    return ranges_;
  }

 private:
  std::shared_ptr<FaultPlan> plan_;
  uint64_t pending_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> ranges_;  // [first_op, last_op]
};

// Runs the deterministic editing workload with fuzzy checkpoints every
// kSweepCheckpointEvery edits over fault-injected segmented storage.
SweepOutcome RunCheckpointWorkload(
    const std::shared_ptr<DiskManager>& disk,
    const std::shared_ptr<LogStorage>& log,
    const std::shared_ptr<FaultPlan>& plan, uint64_t seed, size_t num_ops,
    const std::shared_ptr<CheckpointHooks>& hooks = nullptr,
    const std::function<void(TendaxServer*)>& before_close = nullptr) {
  SweepOutcome out;
  TendaxOptions options;
  options.db.disk = std::make_shared<FaultInjectingDiskManager>(disk, plan);
  options.db.log_storage =
      std::make_shared<FaultInjectingLogStorage>(log, plan);
  options.db.buffer_pool_pages = kSweepPoolPages;
  options.db.wal_segment_bytes = 2048;
  options.db.checkpoint_hooks = hooks;
  options.db.clock = std::make_shared<ManualClock>(1'000'000'000, 1000);
  auto server = TendaxServer::Open(std::move(options));
  if (!server.ok()) return out;  // crashed during open/recovery
  auto user = (*server)->accounts()->CreateUser("sweep");
  if (!user.ok()) return out;
  auto doc = (*server)->text()->CreateDocument(*user, kSweepDocName);
  if (!doc.ok()) return out;
  out.setup_ok = true;

  TypingTraceGenerator gen(seed);
  std::string shadow;
  for (size_t i = 0; i < num_ops; ++i) {
    TypingAction a = gen.Next(shadow.size());
    std::string next = ApplyToShadow(shadow, a);
    Status st = a.kind == TypingAction::Kind::kInsert
                    ? (*server)
                          ->text()
                          ->InsertText(*user, *doc, a.pos, a.text)
                          .status()
                    : (*server)
                          ->text()
                          ->DeleteRange(*user, *doc, a.pos, a.len)
                          .status();
    if (!st.ok()) {
      out.has_ambiguous = true;
      out.with_ambiguous = next;
      break;
    }
    shadow = next;
    if ((i + 1) % kSweepCheckpointEvery == 0) {
      (void)(*server)->CheckpointNow();  // may fail under injection
    }
  }
  out.committed = shadow;
  if (before_close) before_close(server->get());
  return out;
}

// Reopens over the surviving bytes and checks the recovered document
// against the shadow model. Mirrors crash_recovery_test's verifier.
void VerifySweepRecovered(const std::shared_ptr<DiskManager>& disk,
                          const std::shared_ptr<LogStorage>& log,
                          const SweepOutcome& run, const std::string& context,
                          size_t* records_scanned = nullptr) {
  TendaxOptions options;
  options.db.disk = disk;
  options.db.log_storage = log;
  options.db.buffer_pool_pages = kSweepPoolPages;
  options.db.wal_segment_bytes = 2048;
  options.db.clock = std::make_shared<ManualClock>(2'000'000'000, 1000);
  auto server = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server.ok())
      << context << ": reopen failed: " << server.status().ToString();
  if (records_scanned != nullptr) {
    *records_scanned = (*server)->db()->recovery_stats().records_scanned;
  }
  Status integrity = (*server)->CheckIntegrity();
  ASSERT_TRUE(integrity.ok())
      << context << ": integrity check failed: " << integrity.ToString();
  auto doc = (*server)->text()->FindDocumentByName(kSweepDocName);
  if (!doc.ok()) {
    EXPECT_TRUE(run.committed.empty())
        << context << ": document lost but " << run.committed.size()
        << " committed bytes expected";
    return;
  }
  auto text = (*server)->text()->Text(*doc);
  ASSERT_TRUE(text.ok())
      << context << ": text read failed: " << text.status().ToString();
  bool matches = *text == run.committed ||
                 (run.has_ambiguous && *text == run.with_ambiguous);
  EXPECT_TRUE(matches) << context << "\nrecovered: \"" << *text
                       << "\"\ncommitted: \"" << run.committed << "\""
                       << (run.has_ambiguous
                               ? "\nwith in-flight edit: \"" +
                                     run.with_ambiguous + "\""
                               : "");
}

// The tentpole: crash at EVERY storage I/O op issued inside a fuzzy
// checkpoint (log appends, page write-backs, syncs, segment rotation and
// deletion) and verify the recovered state against the shadow model —
// zero divergences allowed.
TEST(CheckpointCrashSweepTest, EveryFaultPointDuringCheckpointRecovers) {
  const uint64_t seed = EnvU64("TENDAX_CHECKPOINT_SEED", 7);
  const size_t num_ops =
      static_cast<size_t>(EnvU64("TENDAX_CHECKPOINT_OPS", 70));

  // Profile the fault-free run: where do the checkpoints' I/O ops live?
  auto profile_plan = std::make_shared<FaultPlan>(seed);
  auto recorder = std::make_shared<CheckpointOpRangeRecorder>(profile_plan);
  {
    auto disk = std::make_shared<InMemoryDiskManager>();
    auto log = std::make_shared<InMemoryLogStorage>();
    SweepOutcome probe = RunCheckpointWorkload(disk, log, profile_plan, seed,
                                               num_ops, recorder);
    ASSERT_TRUE(probe.setup_ok);
    ASSERT_FALSE(probe.has_ambiguous) << "fault-free run must not fail";
    VerifySweepRecovered(disk, log, probe, "fault-free baseline");
    ASSERT_FALSE(::testing::Test::HasFailure());
  }
  ASSERT_GE(recorder->ranges().size(), 2u)
      << "workload too small: fewer than two checkpoints ran";

  size_t points = 0;
  for (const auto& [first_op, last_op] : recorder->ranges()) {
    ASSERT_LE(first_op, last_op);
    // +1: also cover the first op after the checkpoint returns.
    for (uint64_t k = first_op; k <= last_op + 1; ++k) {
      auto disk = std::make_shared<InMemoryDiskManager>();
      auto log = std::make_shared<InMemoryLogStorage>();
      auto plan = std::make_shared<FaultPlan>(seed);
      plan->CrashAtOp(k);
      SweepOutcome run = RunCheckpointWorkload(disk, log, plan, seed, num_ops);
      std::string context = "checkpoint crash@" + std::to_string(k) + " " +
                            plan->Describe() +
                            " workload_seed=" + std::to_string(seed);
      VerifySweepRecovered(disk, log, run, context);
      ++points;
      if (::testing::Test::HasFailure()) {
        FAIL() << "first divergence at " << context;
      }
    }
  }
  EXPECT_GE(points, 20u) << "sweep covered suspiciously few I/O points";
}

// ---------- The clean close ----------

// Number of records a log storage holds, decoded the way recovery does.
size_t LogRecordCount(LogStorage* log) {
  std::string raw;
  EXPECT_TRUE(log->ReadAll(&raw).ok());
  std::vector<LogRecord> records;
  Wal::DecodeLogBuffer(raw, &records);
  return records.size();
}

// The I/O kind a FaultPlan's crash triggered at, e.g. "WritePage".
std::string TriggeredKind(const std::string& description) {
  const std::string key = "triggered=";
  size_t at = description.find(key);
  if (at == std::string::npos) return "";
  at += key.size();
  return description.substr(at, description.find('@', at) - at);
}

// Runs generated typing actions against `doc`, mirroring them in `shadow`.
void TypeActions(TendaxServer* server, UserId user, DocumentId doc,
                 TypingTraceGenerator* gen, size_t n, std::string* shadow) {
  for (size_t i = 0; i < n; ++i) {
    TypingAction a = gen->Next(shadow->size());
    Status st = a.kind == TypingAction::Kind::kInsert
                    ? server->text()->InsertText(user, doc, a.pos, a.text)
                          .status()
                    : server->text()->DeleteRange(user, doc, a.pos, a.len)
                          .status();
    ASSERT_TRUE(st.ok()) << st.ToString();
    *shadow = ApplyToShadow(*shadow, a);
  }
}

Result<std::unique_ptr<TendaxServer>> OpenShared(
    const std::shared_ptr<DiskManager>& disk,
    const std::shared_ptr<LogStorage>& log) {
  TendaxOptions options;
  options.db.disk = disk;
  options.db.log_storage = log;
  options.db.buffer_pool_pages = kSweepPoolPages;
  return TendaxServer::Open(std::move(options));
}

// The server-level form of RecoveryTest.LsnsContinueAcrossReopenOfEmptyLog:
// a session that opens an empty log types, crashes, and must lose nothing.
TEST(CleanCloseTest, TypingAfterReopenOfEmptyLogSurvivesCrash) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  TypingTraceGenerator gen(EnvU64("TENDAX_CHECKPOINT_SEED", 7));
  std::string shadow;
  UserId user;
  DocumentId doc;
  {
    auto server = OpenShared(disk, log);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto u = (*server)->accounts()->CreateUser("typist");
    ASSERT_TRUE(u.ok());
    user = *u;
    auto d = (*server)->text()->CreateDocument(user, kSweepDocName);
    ASSERT_TRUE(d.ok());
    doc = *d;
    TypeActions(server->get(), user, doc, &gen, 40, &shadow);
  }
  // A session with no edits: whatever the first close left, the next open
  // finds the log empty.
  { ASSERT_TRUE(OpenShared(disk, log).ok()); }
  for (int session = 0; session < 2; ++session) {
    auto server = OpenShared(disk, log);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    EXPECT_EQ((*server)->db()->recovery_stats().records_scanned, 0u);
    TypeActions(server->get(), user, doc, &gen, 40, &shadow);
    if (session == 1) (*server)->db()->SimulateCrash();
  }
  auto server = OpenShared(disk, log);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_GT((*server)->db()->recovery_stats().records_scanned, 0u)
      << "a crash must leave its log to replay";
  auto text = (*server)->text()->Text(doc);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text, shadow) << "committed typing was lost in the crash";
  Status integrity = (*server)->CheckIntegrity();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();
}

// Reopen work after a clean close does not grow with the history: a
// structural count instead of a timing. 5k or 50k keystrokes, the close
// leaves no record and the reopen scans none; a crash still replays.
TEST(CleanCloseTest, ReopenAfterCleanCloseScansNoRecords) {
  for (size_t keystrokes : {size_t{5000}, size_t{50000}}) {
    auto disk = std::make_shared<InMemoryDiskManager>();
    auto log = std::make_shared<InMemoryLogStorage>();
    UserId user;
    DocumentId doc;
    {
      auto server = OpenShared(disk, log);
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      auto u = (*server)->accounts()->CreateUser("typist");
      ASSERT_TRUE(u.ok());
      user = *u;
      auto d = (*server)->text()->CreateDocument(user, "history.txt");
      ASSERT_TRUE(d.ok());
      doc = *d;
      for (size_t i = 0; i < keystrokes; ++i) {
        ASSERT_TRUE((*server)->text()->InsertText(user, doc, i, "k").ok());
      }
      EXPECT_GE(LogRecordCount(log.get()), keystrokes)
          << "the history must be in the log before the close";
    }
    EXPECT_EQ(LogRecordCount(log.get()), 0u)
        << keystrokes << " keystrokes: the clean close left records";
    {
      auto server = OpenShared(disk, log);
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      EXPECT_EQ((*server)->db()->recovery_stats().records_scanned, 0u)
          << keystrokes << " keystrokes";
      EXPECT_EQ(*(*server)->text()->Length(doc), keystrokes);
      for (size_t i = 0; i < 10; ++i) {
        ASSERT_TRUE((*server)->text()->InsertText(user, doc, 0, "c").ok());
      }
      (*server)->db()->SimulateCrash();
    }
    auto server = OpenShared(disk, log);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    EXPECT_GT((*server)->db()->recovery_stats().records_scanned, 0u)
        << keystrokes << " keystrokes: the crash left nothing to replay";
    EXPECT_EQ(*(*server)->text()->Length(doc), keystrokes + 10);
  }
}

// A read-write transaction that writes nothing still logs its begin, so it
// must log its end too, or recovery counts it as a loser. A reopen's first
// read of a document runs one such transaction (the snapshot rebuild under
// a shared document lock).
TEST(CleanCloseTest, EmptyReadWriteTxnLeavesNoLoser) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  UserId user;
  DocumentId doc;
  {
    auto server = OpenShared(disk, log);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto u = (*server)->accounts()->CreateUser("reader");
    ASSERT_TRUE(u.ok());
    user = *u;
    auto d = (*server)->text()->CreateDocument(user, "existing.txt");
    ASSERT_TRUE(d.ok());
    doc = *d;
    ASSERT_TRUE((*server)->text()->InsertText(user, doc, 0, "kept").ok());
  }
  auto empty_txn = [&](TendaxServer* server) {
    return server->db()->txns()->RunInTxn(
        user, [](Transaction*) { return Status::OK(); });
  };
  {
    auto server = OpenShared(disk, log);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    EXPECT_EQ(*(*server)->text()->Text(doc), "kept");
    ASSERT_TRUE(empty_txn(server->get()).ok());
    (*server)->db()->SimulateCrash();
  }
  {
    auto server = OpenShared(disk, log);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    const RecoveryStats& stats = (*server)->db()->recovery_stats();
    EXPECT_GE(stats.txns_seen, 2u) << "the crash left no transaction to see";
    EXPECT_EQ(stats.losers, 0u);
    EXPECT_EQ(stats.winners, stats.txns_seen);
    EXPECT_EQ(*(*server)->text()->Text(doc), "kept");
    ASSERT_TRUE(empty_txn(server->get()).ok());
  }
  EXPECT_EQ(LogRecordCount(log.get()), 0u)
      << "a clean close must leave no record to replay";
}

// Power loss at every I/O the close issues: the log flush (an aborted
// transaction's records are still buffered, since an abort does not
// flush), each page write, the data sync, and the log truncate. Each cut
// leaves the log whole, so the reopen replays it, and the text must match
// the shadow model.
TEST(CleanCloseCrashSweepTest, EveryIoOfTheCloseRecovers) {
  const uint64_t seed = EnvU64("TENDAX_CHECKPOINT_SEED", 7);
  const size_t num_ops =
      static_cast<size_t>(EnvU64("TENDAX_CHECKPOINT_OPS", 70));
  auto before_close = [](FaultPlan* plan, uint64_t* first_close_op) {
    return [plan, first_close_op](TendaxServer* server) {
      Database* db = server->db();
      auto table = db->EnsureTable("close_sweep", TestSchema());
      if (table.ok()) {
        Transaction* txn = db->txns()->Begin(UserId(1));
        (void)(*table)->Insert(
            txn, Record({uint64_t{1}, std::string("rolled back"), 0.0, false}));
        (void)db->txns()->Abort(txn);
      }
      *first_close_op = plan->ops_seen() + 1;
    };
  };

  uint64_t first_op = 0;
  uint64_t last_op = 0;
  {
    auto disk = std::make_shared<InMemoryDiskManager>();
    auto log = std::make_shared<InMemoryLogStorage>();
    auto plan = std::make_shared<FaultPlan>(seed);
    SweepOutcome probe =
        RunCheckpointWorkload(disk, log, plan, seed, num_ops, nullptr,
                              before_close(plan.get(), &first_op));
    last_op = plan->ops_seen();
    ASSERT_TRUE(probe.setup_ok);
    ASSERT_FALSE(probe.has_ambiguous) << "fault-free run must not fail";
    EXPECT_EQ(LogRecordCount(log.get()), 0u)
        << "a clean close must leave no record to replay";
    size_t scanned = 1;
    VerifySweepRecovered(disk, log, probe, "fault-free close", &scanned);
    EXPECT_EQ(scanned, 0u);
    ASSERT_FALSE(::testing::Test::HasFailure());
  }
  ASSERT_LT(first_op, last_op) << "the close issued no I/O";

  std::set<std::string> kinds;
  for (uint64_t k = first_op; k <= last_op; ++k) {
    auto disk = std::make_shared<InMemoryDiskManager>();
    auto log = std::make_shared<InMemoryLogStorage>();
    auto plan = std::make_shared<FaultPlan>(seed);
    plan->CrashAtOp(k);
    uint64_t ignored = 0;
    SweepOutcome run =
        RunCheckpointWorkload(disk, log, plan, seed, num_ops, nullptr,
                              before_close(plan.get(), &ignored));
    std::string context = "close crash@" + std::to_string(k) + " " +
                          plan->Describe() +
                          " workload_seed=" + std::to_string(seed);
    ASSERT_TRUE(plan->crashed()) << context;
    ASSERT_FALSE(run.has_ambiguous) << context << ": crashed before the close";
    kinds.insert(TriggeredKind(plan->Describe()));
    size_t scanned = 0;
    VerifySweepRecovered(disk, log, run, context, &scanned);
    EXPECT_GT(scanned, 0u) << context << ": a close cut short lost its log";
    if (::testing::Test::HasFailure()) {
      FAIL() << "first divergence at " << context;
    }
  }
  for (const char* kind :
       {"LogAppend", "LogSync", "WritePage", "DiskSync", "LogTruncate"}) {
    EXPECT_EQ(kinds.count(kind), 1u) << "no crash landed on a " << kind;
  }
}

// On disk the log truncate is several I/Os: it unlinks the segments oldest
// first, then creates the next one and syncs the directory. Power loss
// between them leaves a suffix of the old segments, or none at all. The
// pages were flushed and synced first, so every such state reopens to the
// committed text, and typing after it survives a crash.
TEST(CleanCloseTest, CloseCutShortInsideTheTruncateReopens) {
  namespace fs = std::filesystem;
  const fs::path dir = ::testing::TempDir() + "tendax_close_truncate";
  const fs::path live = dir / "live";
  const fs::path snapshot = dir / "snapshot";
  fs::remove_all(dir);
  fs::create_directories(live);
  fs::create_directories(snapshot);
  auto open = [&] {
    TendaxOptions options;
    options.db.path = (live / "db").string();
    options.db.wal_segment_bytes = 4096;
    return TendaxServer::Open(std::move(options));
  };
  auto copy_files = [](const fs::path& from, const fs::path& to) {
    for (const auto& entry : fs::directory_iterator(from)) {
      fs::copy_file(entry.path(), to / entry.path().filename(),
                    fs::copy_options::overwrite_existing);
    }
  };

  TypingTraceGenerator gen(EnvU64("TENDAX_CHECKPOINT_SEED", 7));
  std::string shadow;
  UserId user;
  DocumentId doc;
  {
    auto server = open();
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto u = (*server)->accounts()->CreateUser("typist");
    ASSERT_TRUE(u.ok());
    user = *u;
    auto d = (*server)->text()->CreateDocument(user, kSweepDocName);
    ASSERT_TRUE(d.ok());
    doc = *d;
    TypeActions(server->get(), user, doc, &gen, 60, &shadow);
    // The state the close reaches just before its truncate.
    Database* db = (*server)->db();
    ASSERT_TRUE(db->wal()->FlushAll().ok());
    ASSERT_TRUE(db->buffer_pool()->FlushAll().ok());
    copy_files(live, snapshot);
  }
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(snapshot)) {
    if (entry.path().filename() != "db") segments.push_back(entry.path());
  }
  std::sort(segments.begin(), segments.end());
  ASSERT_GE(segments.size(), 3u) << "the log must span several segments";

  for (size_t unlinked = 0; unlinked <= segments.size(); ++unlinked) {
    const std::string context =
        std::to_string(unlinked) + " of " + std::to_string(segments.size()) +
        " segments unlinked";
    fs::remove_all(live);
    fs::create_directories(live);
    copy_files(snapshot, live);
    for (size_t i = 0; i < unlinked; ++i) {
      fs::remove(live / segments[i].filename());
    }
    {
      auto server = open();
      ASSERT_TRUE(server.ok()) << context << ": " << server.status().ToString();
      Status integrity = (*server)->CheckIntegrity();
      ASSERT_TRUE(integrity.ok()) << context << ": " << integrity.ToString();
      auto text = (*server)->text()->Text(doc);
      ASSERT_TRUE(text.ok()) << context << ": " << text.status().ToString();
      EXPECT_EQ(*text, shadow) << context;
      ASSERT_TRUE(
          (*server)->text()->InsertText(user, doc, 0, "after").ok());
      (*server)->db()->SimulateCrash();
    }
    auto server = open();
    ASSERT_TRUE(server.ok()) << context << ": " << server.status().ToString();
    auto text = (*server)->text()->Text(doc);
    ASSERT_TRUE(text.ok()) << context << ": " << text.status().ToString();
    EXPECT_EQ(*text, "after" + shadow)
        << context << ": typing after the reopen was lost in a crash";
  }
  fs::remove_all(dir);
}

// A close with a transaction still active keeps the log: the loser's
// records are needed to undo its writes, which the close flushed.
TEST_F(CheckpointDbTest, CloseWithActiveTxnKeepsLogAndUndoesLoser) {
  auto t = db_->CreateTable("docs", TestSchema());
  ASSERT_TRUE(t.ok());
  InsertRows(*t, 0, 20);
  Transaction* loser = db_->txns()->Begin(UserId(9));
  ASSERT_TRUE(
      (*t)->Insert(loser, Record({uint64_t{999}, std::string("lost"), 0.0,
                                  false}))
          .ok());
  db_.reset();
  EXPECT_GT(LogRecordCount(log_.get()), 0u) << "the close emptied the log";

  OpenDb();
  const RecoveryStats& stats = db_->recovery_stats();
  EXPECT_EQ(stats.losers, 1u);
  EXPECT_GE(stats.undo_applied, 1u);
  auto table = db_->GetTable("docs");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*(*table)->Count(), 20u) << "the loser's row must be undone";
  EXPECT_TRUE(db_->CheckIntegrity().ok());
}

}  // namespace
}  // namespace tendax
