// Commit-path batching tests: deterministic interleavings forced by the
// seeded ScheduleController (a gate on the log append that a flush issues
// while it holds the WAL's single flush slot) combined with FaultPlan's
// op-index fault machinery, plus the durability-ordering property under a
// crash-point sweep.
//
// Scale knobs (shared with the other torture suites):
//   TENDAX_TORTURE_SEED    schedule + fault seed          (default 7)
//   TENDAX_TORTURE_POINTS  sweep crash-point budget       (default 120)

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "testing/fault_injection.h"
#include "testing/fault_plan.h"
#include "testing/schedule_controller.h"
#include "txn/lock_manager.h"

namespace tendax {
namespace {

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::strtoull(v, nullptr, 10);
}

Schema ValueSchema() { return Schema({{"value", ColumnType::kUint64}}); }

// Everything a batching test needs in one bundle: a Database whose
// storage goes through fault injectors (the log also through the schedule
// controller's gate), the inner backends (kept to survive a simulated
// crash), the fault plan and the schedule controller.
struct Rig {
  std::shared_ptr<InMemoryDiskManager> disk;
  std::shared_ptr<InMemoryLogStorage> log;
  std::shared_ptr<FaultPlan> plan;
  std::shared_ptr<ScheduleController> sched;
  std::unique_ptr<Database> db;
  std::vector<HeapTable*> tables;  // t0..t{k-1}, schema {value: uint64}
};

Rig OpenRig(size_t num_tables, uint64_t seed) {
  Rig rig;
  rig.disk = std::make_shared<InMemoryDiskManager>();
  rig.log = std::make_shared<InMemoryLogStorage>();
  rig.plan = std::make_shared<FaultPlan>(seed);
  rig.sched = std::make_shared<ScheduleController>(seed);

  DatabaseOptions options;
  options.buffer_pool_pages = 64;
  options.disk = std::make_shared<FaultInjectingDiskManager>(rig.disk, rig.plan);
  options.metrics = std::make_shared<MetricsRegistry>();
  options.log_storage = rig.sched->GateLog(
      std::make_shared<FaultInjectingLogStorage>(rig.log, rig.plan),
      options.metrics);
  auto db = Database::Open(std::move(options));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return rig;
  rig.db = std::move(*db);
  for (size_t i = 0; i < num_tables; ++i) {
    auto table = rig.db->CreateTable("t" + std::to_string(i), ValueSchema());
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    if (!table.ok()) return rig;
    rig.tables.push_back(*table);
  }
  return rig;
}

// Decodes the surviving (inner) log and returns the set of transaction ids
// with a durable commit record. Because decoding stops at the first torn or
// LSN-discontiguous record, this set is by construction a prefix of the
// commit-LSN order — the durability-ordering property is that the recovered
// table contents match it exactly, never a subset with holes.
std::set<uint64_t> DurableCommits(
    const std::shared_ptr<InMemoryLogStorage>& log) {
  std::string buffer;
  EXPECT_TRUE(log->ReadAll(&buffer).ok());
  std::vector<LogRecord> records;
  Wal::DecodeLogBuffer(buffer, &records);
  std::set<uint64_t> commits;
  for (const LogRecord& rec : records) {
    if (rec.type == LogType::kCommit) commits.insert(rec.txn.value);
  }
  return commits;
}

// Scans a table into the set of its uint64 values.
std::set<uint64_t> TableValues(HeapTable* table) {
  std::set<uint64_t> values;
  EXPECT_TRUE(table
                  ->Scan([&](RecordId, const Record& rec) {
                    values.insert(rec.GetUint(0));
                    return true;
                  })
                  .ok());
  return values;
}

// One committing thread's bookkeeping.
struct CommitAttempt {
  uint64_t txn_id = 0;
  Status status;
};

// Writer `i`: inserts `base + i` into table t<i> inside a manually driven
// transaction holding document lock 1+i, then commits.
void CommitOne(Rig& rig, size_t i, uint64_t base, CommitAttempt* attempt) {
  TxnManager* txns = rig.db->txns();
  Transaction* txn = txns->Begin(UserId(100 + i));
  attempt->txn_id = txn->id().value;
  Status st = rig.db->locks()->Acquire(
      txn->id(), MakeResource(ResourceKind::kDocument, 1 + i), LockMode::kX);
  if (st.ok()) {
    st = rig.tables[i]
             ->Insert(txn, Record({base + static_cast<uint64_t>(i)}))
             .status();
  }
  if (st.ok()) {
    attempt->status = txns->Commit(txn);
  } else {
    // The insert failure is the interesting status; a failed abort of an
    // already-doomed txn would only mask it.
    (void)txns->Abort(txn);
    attempt->status = st;
  }
}

// K committers parked behind one gated flush. Writer 0 starts alone and
// parks inside its own commit flush, holding the WAL's flush slot; writers
// 1..K-1 start next, and their commit records pile up in the log buffer
// behind it. So once released, the gated flush makes writer 0 durable and
// the next flush carries all the others. `parked` says whether that
// schedule formed. Join() opens the gate (if the test has not) and waits
// for every writer; the destructor joins too, so a failed assertion never
// leaves a writer running.
class ParkedCommits {
 public:
  ParkedCommits(Rig& rig, size_t k, uint64_t base)
      : rig_(rig), attempts_(k) {
    rig_.sched->PauseAtFlush(rig_.sched->flushes_seen() + 1);
    Start(0, base);
    parked_ = rig_.sched->WaitUntilPaused();
    for (size_t i = 1; i < k; ++i) Start(i, base);
    parked_ = parked_ && rig_.sched->WaitForWaiters(k);
  }
  ~ParkedCommits() { (void)Join(); }
  ParkedCommits(const ParkedCommits&) = delete;
  ParkedCommits& operator=(const ParkedCommits&) = delete;

  bool parked() const { return parked_; }

  const std::vector<CommitAttempt>& Join() {
    rig_.sched->ReleaseFlush();
    for (auto& th : threads_) {
      if (th.joinable()) th.join();
    }
    return attempts_;
  }

 private:
  void Start(size_t i, uint64_t base) {
    threads_.emplace_back(
        [this, i, base] { CommitOne(rig_, i, base, &attempts_[i]); });
  }

  Rig& rig_;
  std::vector<CommitAttempt> attempts_;
  std::vector<std::thread> threads_;
  bool parked_ = false;
};

uint64_t Syncs(Rig& rig) {
  return rig.db->metrics()->counter("wal.syncs")->Value();
}

// The one commit path batches: K committers parked behind one gated flush
// all become durable with at most 2 syncs — the gated flush, then one
// coalesced Append+Sync for every commit that queued behind it.
TEST(GroupCommitTest, BatchesConcurrentCommitsIntoOneSync) {
  const uint64_t seed = EnvU64("TENDAX_TORTURE_SEED", 7);
  const size_t kWriters = 6;
  Rig rig = OpenRig(kWriters, seed);
  ASSERT_NE(rig.db, nullptr);
  Counter* commits = rig.db->metrics()->counter("wal.commits");

  const uint64_t syncs_before = Syncs(rig);
  const uint64_t commits_before = commits->Value();
  ParkedCommits parked(rig, kWriters, 1000);
  ASSERT_TRUE(parked.parked()) << rig.sched->Describe();
  const std::vector<CommitAttempt>& attempts = parked.Join();

  for (size_t i = 0; i < kWriters; ++i) {
    EXPECT_TRUE(attempts[i].status.ok())
        << "writer " << i << ": " << attempts[i].status.ToString();
  }
  EXPECT_LE(Syncs(rig) - syncs_before, 2u) << rig.sched->Describe();
  EXPECT_EQ(commits->Value() - commits_before, kWriters);
  EXPECT_EQ(rig.db->txns()->ActiveCount(), 0u);
  for (size_t i = 0; i < kWriters; ++i) {
    EXPECT_EQ(TableValues(rig.tables[i]), std::set<uint64_t>{1000 + i});
  }
}

// "Commit waiting when the crash fires": K commits are parked at or behind
// the gated flush when the machine dies. None of their bytes reached storage,
// so recovery must come back without any of them — and with everything
// durable before the crash intact.
TEST(GroupCommitTest, CrashWhileCommitsWaitingRecoversCleanly) {
  const uint64_t seed = EnvU64("TENDAX_TORTURE_SEED", 7);
  const size_t kWriters = 4;
  Rig rig = OpenRig(kWriters, seed);
  ASSERT_NE(rig.db, nullptr);

  ParkedCommits parked(rig, kWriters, 5000);
  ASSERT_TRUE(parked.parked()) << rig.sched->Describe();
  // Power cut: every I/O from the gated flush on fails.
  rig.plan->CrashAtOp(rig.plan->ops_seen() + 1);
  const std::vector<CommitAttempt>& attempts = parked.Join();

  for (size_t i = 0; i < kWriters; ++i) {
    EXPECT_FALSE(attempts[i].status.ok()) << "writer " << i;
  }
  EXPECT_EQ(rig.db->txns()->ActiveCount(), 0u);
  std::string context = rig.plan->Describe() + " " + rig.sched->Describe();

  std::vector<uint64_t> txn_ids;
  for (const auto& a : attempts) txn_ids.push_back(a.txn_id);
  rig.db.reset();  // process dies; buffered bytes are gone
  rig.plan->Disarm();

  std::set<uint64_t> durable = DurableCommits(rig.log);
  for (uint64_t id : txn_ids) {
    EXPECT_EQ(durable.count(id), 0u)
        << context << ": txn " << id << " was parked at the crash but has a "
        << "durable commit record";
  }
  DatabaseOptions reopen;
  reopen.buffer_pool_pages = 64;
  reopen.disk = rig.disk;
  reopen.log_storage = rig.log;
  auto db2 = Database::Open(std::move(reopen));
  ASSERT_TRUE(db2.ok()) << context << ": " << db2.status().ToString();
  ASSERT_TRUE((*db2)->CheckIntegrity().ok()) << context;
  for (size_t i = 0; i < kWriters; ++i) {
    auto table = (*db2)->GetTable("t" + std::to_string(i));
    ASSERT_TRUE(table.ok()) << context;
    EXPECT_EQ(TableValues(*table), std::set<uint64_t>{})
        << context << " table t" << i;
  }
}

// "Batch torn mid-append": the coalesced append that carries the commit
// records of every writer queued behind the gated flush persists only a
// prefix of its bytes. Recovery must come back with exactly the
// transactions whose commit record survived in that prefix — a prefix of
// the commit-LSN order, never a subset with holes.
TEST(GroupCommitTest, TornBatchAppendRecoversLsnPrefix) {
  const uint64_t seed = EnvU64("TENDAX_TORTURE_SEED", 7);
  const size_t kWriters = 4;
  size_t round = 0;
  for (size_t keep : {size_t{0}, size_t{9}, size_t{40}, size_t{120},
                      FaultPlan::kAutoTear}) {
    Rig rig = OpenRig(kWriters, seed + round++);
    ASSERT_NE(rig.db, nullptr);

    ParkedCommits parked(rig, kWriters, 6000);
    ASSERT_TRUE(parked.parked()) << rig.sched->Describe();
    // The gated flush (writer 0) is the next log append; the batch of
    // writers 1..K-1 is the one after it. Tear that batch.
    rig.plan->TearNthLogAppend(rig.plan->appends_seen() + 2, keep);
    const std::vector<CommitAttempt>& attempts = parked.Join();

    EXPECT_TRUE(attempts[0].status.ok()) << attempts[0].status.ToString();
    for (size_t i = 1; i < kWriters; ++i) {
      EXPECT_FALSE(attempts[i].status.ok()) << "writer " << i;
    }
    EXPECT_TRUE(rig.plan->crashed());
    EXPECT_EQ(rig.db->txns()->ActiveCount(), 0u);
    std::string context = rig.plan->Describe() + " " + rig.sched->Describe();

    std::vector<uint64_t> txn_ids;
    for (const auto& a : attempts) txn_ids.push_back(a.txn_id);
    rig.db.reset();
    rig.plan->Disarm();

    // DurableCommits decodes the surviving prefix, so `durable` is by
    // construction hole-free in LSN order; the recovered tables must match
    // it exactly.
    std::set<uint64_t> durable = DurableCommits(rig.log);
    EXPECT_EQ(durable.count(txn_ids[0]), 1u) << context;
    DatabaseOptions reopen;
    reopen.buffer_pool_pages = 64;
    reopen.disk = rig.disk;
    reopen.log_storage = rig.log;
    auto db2 = Database::Open(std::move(reopen));
    ASSERT_TRUE(db2.ok()) << context << ": " << db2.status().ToString();
    ASSERT_TRUE((*db2)->CheckIntegrity().ok()) << context;
    for (size_t i = 0; i < kWriters; ++i) {
      auto table = (*db2)->GetTable("t" + std::to_string(i));
      ASSERT_TRUE(table.ok()) << context;
      std::set<uint64_t> expected;
      if (durable.count(txn_ids[i]) != 0) expected.insert(6000 + i);
      EXPECT_EQ(TableValues(*table), expected) << context << " table t" << i;
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// Durability-ordering property sweep: crash a multi-writer committing
// workload at strided I/O points. After every crash, the recovered state
// must contain exactly the transactions whose commit record survives in
// the log prefix — never a commit reported OK missing, never a torn-off
// commit present.
TEST(GroupCommitTest, DurabilityPrefixHoldsAtEveryCrashPoint) {
  const uint64_t seed = EnvU64("TENDAX_TORTURE_SEED", 7);
  const uint64_t points =
      std::max<uint64_t>(10, EnvU64("TENDAX_TORTURE_POINTS", 120) / 4);
  const size_t kWriters = 3;
  const size_t kCommitsPerWriter = 4;

  // The sweep workload: kWriters threads, kCommitsPerWriter transactions
  // each, all into the thread's own table. Threads keep going after a
  // failure — the engine must stay usable until the process "dies".
  auto run_workload = [&](Rig& rig,
                          std::vector<std::vector<CommitAttempt>>& outcomes) {
    outcomes.assign(kWriters,
                    std::vector<CommitAttempt>(kCommitsPerWriter));
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kWriters; ++i) {
      threads.emplace_back([&, i] {
        TxnManager* txns = rig.db->txns();
        for (size_t j = 0; j < kCommitsPerWriter; ++j) {
          Transaction* txn = txns->Begin(UserId(100 + i));
          outcomes[i][j].txn_id = txn->id().value;
          Status st =
              rig.tables[i]
                  ->Insert(txn, Record({uint64_t(1000 + i * 100 + j)}))
                  .status();
          if (st.ok()) {
            outcomes[i][j].status = txns->Commit(txn);
          } else {
            // Keep the insert failure; the cleanup abort's status is noise.
            (void)txns->Abort(txn);
            outcomes[i][j].status = st;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  };

  // Profile a fault-free run to learn the workload's op space (measured
  // relative to the end of table setup, which is identical in every run).
  uint64_t workload_ops = 0;
  {
    Rig rig = OpenRig(kWriters, seed);
    ASSERT_NE(rig.db, nullptr);
    const uint64_t base = rig.plan->ops_seen();
    std::vector<std::vector<CommitAttempt>> outcomes;
    run_workload(rig, outcomes);
    for (const auto& per_thread : outcomes) {
      for (const auto& a : per_thread) {
        ASSERT_TRUE(a.status.ok()) << a.status.ToString();
      }
    }
    rig.db.reset();  // close I/O (dirty page writeback) is sweep space too
    workload_ops = rig.plan->ops_seen() - base;
  }
  ASSERT_GT(workload_ops, 0u);

  const uint64_t stride = std::max<uint64_t>(1, workload_ops / points);
  for (uint64_t k = 1; k <= workload_ops; k += stride) {
    Rig rig = OpenRig(kWriters, seed + k);
    ASSERT_NE(rig.db, nullptr);
    // Crash k ops into the workload proper (setup is already behind us).
    rig.plan->CrashAtOp(rig.plan->ops_seen() + k);

    std::vector<std::vector<CommitAttempt>> outcomes;
    run_workload(rig, outcomes);
    EXPECT_EQ(rig.db->txns()->ActiveCount(), 0u);
    std::string context = "crash@+" + std::to_string(k) + " " +
                          rig.plan->Describe() +
                          " seed=" + std::to_string(seed + k);
    rig.db.reset();
    const bool crashed = rig.plan->crashed();
    rig.plan->Disarm();

    std::set<uint64_t> durable = DurableCommits(rig.log);
    if (!crashed) {
      // Thread timing moves the op count, so a crash point near the end of
      // the profiled run may lie past this run's last I/O. Then nothing
      // failed and the close was clean: it empties the log, and every
      // commit is durable on the synced pages instead.
      EXPECT_TRUE(durable.empty())
          << context << ": a clean close left commit records";
      for (const auto& per_thread : outcomes) {
        for (const auto& a : per_thread) {
          EXPECT_TRUE(a.status.ok()) << context << ": " << a.status.ToString();
          durable.insert(a.txn_id);
        }
      }
    }
    DatabaseOptions reopen;
    reopen.buffer_pool_pages = 64;
    reopen.disk = rig.disk;
    reopen.log_storage = rig.log;
    auto db2 = Database::Open(std::move(reopen));
    ASSERT_TRUE(db2.ok()) << context << ": " << db2.status().ToString();
    ASSERT_TRUE((*db2)->CheckIntegrity().ok()) << context;
    for (size_t i = 0; i < kWriters; ++i) {
      auto table = (*db2)->GetTable("t" + std::to_string(i));
      ASSERT_TRUE(table.ok()) << context;
      std::set<uint64_t> values = TableValues(*table);
      for (size_t j = 0; j < kCommitsPerWriter; ++j) {
        const uint64_t value = 1000 + i * 100 + j;
        const bool present = values.count(value) != 0;
        const bool in_log = durable.count(outcomes[i][j].txn_id) != 0;
        // Durability: a commit reported OK must survive. (The converse is
        // allowed — a commit whose fsync died mid-call may still be
        // durable; the log decides.)
        if (outcomes[i][j].status.ok()) {
          EXPECT_TRUE(present)
              << context << ": committed value " << value << " lost";
        }
        // Exactness: recovered contents == the durable commit prefix.
        EXPECT_EQ(present, in_log)
            << context << ": value " << value << " present=" << present
            << " but commit record durable=" << in_log;
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace tendax
