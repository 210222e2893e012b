#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "core/tendax.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "testing/fault_injection.h"
#include "testing/fault_plan.h"
#include "util/clock.h"
#include "util/random.h"
#include "workload/generators.h"

namespace tendax {
namespace {

// Crash-torture harness: run a deterministic editing workload against a
// TendaxServer whose storage is wrapped in fault injectors, crash it at an
// injected I/O point, reopen over the surviving bytes, and check the
// recovered state against a shadow model of the committed edits.
//
// Every assertion message carries the FaultPlan description and the
// workload seed, so any failure is a one-line reproduction recipe.
//
// Defaults are bounded for tier-1 runs; scale up via environment:
//   TENDAX_TORTURE_SEED    workload + fault seed        (default 7)
//   TENDAX_TORTURE_POINTS  crash points in the sweep    (default 120)
//   TENDAX_TORTURE_OPS     edits per workload run       (default 90)
//   TENDAX_TORTURE_ITERS   randomized torture rounds    (default 8)

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::strtoull(v, nullptr, 10);
}

constexpr size_t kPoolPages = 64;        // small pool: force evictions
constexpr size_t kCheckpointEvery = 25;  // exercise rotation + truncation
constexpr const char* kDocName = "torture.txt";

// What the shadow model knows after a (possibly crashed) workload run.
struct RunOutcome {
  bool setup_ok = false;        // user + document creation succeeded
  std::string committed;        // text after the last successful edit
  bool has_ambiguous = false;   // an edit failed mid-flight
  std::string with_ambiguous;   // `committed` with the failed edit applied
};

// Applies one typing action to a shadow string, clamped the same way the
// generator clamps against the reported document length.
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

// Runs the scripted workload against a server whose storage goes through
// fault-injecting wrappers around `disk`/`log`. Stops at the first failed
// edit (under a crash plan every later I/O fails anyway). The server is
// destroyed before returning, modeling the process dying.
RunOutcome RunWorkload(const std::shared_ptr<DiskManager>& disk,
                       const std::shared_ptr<LogStorage>& log,
                       const std::shared_ptr<FaultPlan>& plan,
                       uint64_t workload_seed, size_t num_ops) {
  RunOutcome out;
  TendaxOptions options;
  options.db.disk = std::make_shared<FaultInjectingDiskManager>(disk, plan);
  options.db.log_storage =
      std::make_shared<FaultInjectingLogStorage>(log, plan);
  options.db.buffer_pool_pages = kPoolPages;
  options.db.clock = std::make_shared<ManualClock>(1'000'000'000, 1000);
  auto server = TendaxServer::Open(std::move(options));
  if (!server.ok()) return out;  // crashed during open/recovery
  auto user = (*server)->accounts()->CreateUser("torture");
  if (!user.ok()) return out;
  auto doc = (*server)->text()->CreateDocument(*user, kDocName);
  if (!doc.ok()) return out;
  out.setup_ok = true;

  TypingTraceGenerator gen(workload_seed);
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
      // The edit failed mid-flight; whether its commit record reached
      // durable storage is ambiguous, so remember both outcomes.
      out.has_ambiguous = true;
      out.with_ambiguous = next;
      break;
    }
    shadow = next;
    if ((i + 1) % kCheckpointEvery == 0) {
      (void)(*server)->Checkpoint();  // may fail under injection
    }
  }
  out.committed = shadow;
  return out;  // ~TendaxServer: shutdown flushes fail silently post-crash
}

// Reopens the database over the raw (surviving) storage and checks the
// recovered state: open succeeds, the structural integrity sweep passes,
// and the document text matches the shadow model exactly — either the
// committed text, or (when an edit died mid-flight) the committed text
// with that one edit applied.
void VerifyRecovered(const std::shared_ptr<DiskManager>& disk,
                     const std::shared_ptr<LogStorage>& log,
                     const RunOutcome& run, const std::string& context) {
  TendaxOptions options;
  options.db.disk = disk;
  options.db.log_storage = log;
  options.db.buffer_pool_pages = kPoolPages;
  options.db.clock = std::make_shared<ManualClock>(2'000'000'000, 1000);
  auto server = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server.ok())
      << context << ": reopen failed: " << server.status().ToString();
  Status integrity = (*server)->CheckIntegrity();
  ASSERT_TRUE(integrity.ok())
      << context << ": integrity check failed: " << integrity.ToString();
  auto doc = (*server)->text()->FindDocumentByName(kDocName);
  if (!doc.ok()) {
    // The crash hit before the document creation became durable; no
    // committed edit may be lost with it.
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

// Like VerifyRecovered, but for faults that may corrupt a page image (torn
// page writes): the engine has no full-page-write protection, so the
// requirement is "detected, never silent" — reopen either fails cleanly
// (checksum catches the tear) or succeeds with all invariants intact.
void VerifyRecoveredOrDetected(const std::shared_ptr<DiskManager>& disk,
                               const std::shared_ptr<LogStorage>& log,
                               const RunOutcome& run,
                               const std::string& context) {
  TendaxOptions options;
  options.db.disk = disk;
  options.db.log_storage = log;
  options.db.buffer_pool_pages = kPoolPages;
  options.db.clock = std::make_shared<ManualClock>(2'000'000'000, 1000);
  auto server = TendaxServer::Open(std::move(options));
  if (!server.ok()) {
    EXPECT_TRUE(server.status().IsCorruption() || server.status().IsIOError())
        << context
        << ": unexpected reopen error: " << server.status().ToString();
    return;
  }
  Status integrity = (*server)->CheckIntegrity();
  ASSERT_TRUE(integrity.ok())
      << context << ": opened but integrity failed: " << integrity.ToString();
  auto doc = (*server)->text()->FindDocumentByName(kDocName);
  if (!doc.ok()) {
    EXPECT_TRUE(run.committed.empty()) << context << ": document lost";
    return;
  }
  auto text = (*server)->text()->Text(*doc);
  ASSERT_TRUE(text.ok()) << context << ": " << text.status().ToString();
  bool matches = *text == run.committed ||
                 (run.has_ambiguous && *text == run.with_ambiguous);
  EXPECT_TRUE(matches) << context << "\nrecovered: \"" << *text
                       << "\"\ncommitted: \"" << run.committed << "\"";
}

// Profiles the fault-free workload: how many I/O ops, appends, page writes
// and syncs it issues, and that the shadow model agrees with the server.
struct Profile {
  uint64_t total_ops = 0;
  uint64_t appends = 0;
  uint64_t page_writes = 0;
  uint64_t syncs = 0;
};

Profile ProfileWorkload(uint64_t workload_seed, size_t num_ops) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  auto plan = std::make_shared<FaultPlan>(workload_seed);
  RunOutcome probe = RunWorkload(disk, log, plan, workload_seed, num_ops);
  EXPECT_TRUE(probe.setup_ok) << "fault-free setup failed";
  EXPECT_FALSE(probe.has_ambiguous) << "fault-free run must not fail";
  VerifyRecovered(disk, log, probe, "fault-free baseline");
  Profile p;
  p.total_ops = plan->ops_seen();
  p.appends = plan->appends_seen();
  p.page_writes = plan->page_writes_seen();
  p.syncs = plan->syncs_seen();
  return p;
}

TEST(CrashTortureTest, FaultPlanIsDeterministicAndDescribable) {
  FaultPlan plan(42);
  plan.CrashAtOp(3);
  plan.TearNthLogAppend(2, 5);
  EXPECT_EQ(plan.OnIo(IoOp::kLogAppend, 100).action, FaultAction::kProceed);
  FaultDecision tear = plan.OnIo(IoOp::kLogAppend, 100);
  EXPECT_EQ(tear.action, FaultAction::kTear);
  EXPECT_EQ(tear.keep_bytes, 5u);
  EXPECT_TRUE(plan.crashed());
  // After the tear the plan is crashed: everything fails, backend untouched.
  EXPECT_EQ(plan.OnIo(IoOp::kReadPage, 0).action, FaultAction::kCrashed);
  EXPECT_EQ(plan.ops_seen(), 3u);
  std::string desc = plan.Describe();
  EXPECT_NE(desc.find("seed=42"), std::string::npos) << desc;
  EXPECT_NE(desc.find("LogAppend@2"), std::string::npos) << desc;
  // Disarm models the restart: ops proceed again over the surviving bytes.
  plan.Disarm();
  EXPECT_EQ(plan.OnIo(IoOp::kLogRead, 0).action, FaultAction::kProceed);
}

TEST(CrashTortureTest, InjectedWrappersForwardAndFail) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto plan = std::make_shared<FaultPlan>(1);
  FaultInjectingDiskManager injected(disk, plan);
  auto page = injected.AllocatePage();
  ASSERT_TRUE(page.ok());
  char buf[kPageSize] = {};
  buf[100] = 'x';
  ASSERT_TRUE(injected.WritePage(*page, buf).ok());
  plan->FailOp(plan->ops_seen() + 1);
  char read_buf[kPageSize];
  Status st = injected.ReadPage(*page, read_buf);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  // The failure is transient: the next read goes through.
  ASSERT_TRUE(injected.ReadPage(*page, read_buf).ok());
  EXPECT_EQ(read_buf[100], 'x');
}

// The tentpole sweep: crash at >= 100 distinct I/O points strided across
// the whole workload (open, setup, edits, checkpoints, shutdown flushes)
// and verify recovery invariants at every single one.
TEST(CrashTortureTest, CrashPointSweepRecoversEverywhere) {
  const uint64_t seed = EnvU64("TENDAX_TORTURE_SEED", 7);
  const uint64_t target_points = EnvU64("TENDAX_TORTURE_POINTS", 120);
  const size_t num_ops = static_cast<size_t>(EnvU64("TENDAX_TORTURE_OPS", 90));

  Profile profile = ProfileWorkload(seed, num_ops);
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_GE(profile.total_ops, target_points)
      << "workload too small to yield " << target_points << " crash points";

  const uint64_t stride = std::max<uint64_t>(1, profile.total_ops / target_points);
  uint64_t tested = 0;
  for (uint64_t k = 1; k <= profile.total_ops; k += stride) {
    auto disk = std::make_shared<InMemoryDiskManager>();
    auto log = std::make_shared<InMemoryLogStorage>();
    auto plan = std::make_shared<FaultPlan>(seed);
    plan->CrashAtOp(k);
    RunOutcome run = RunWorkload(disk, log, plan, seed, num_ops);
    std::string context = "crash@" + std::to_string(k) + " " +
                          plan->Describe() +
                          " workload_seed=" + std::to_string(seed);
    VerifyRecovered(disk, log, run, context);
    ++tested;
    if (::testing::Test::HasFailure()) break;  // first failing point only
  }
  EXPECT_GE(tested, std::min<uint64_t>(100, target_points))
      << "sweep covered too few crash points";
}

// Randomized torture: seeded random fault flavors (hard crash, torn log
// append, torn page write) at seeded random points. Failures print the
// exact FaultPlan for deterministic replay.
TEST(CrashTortureTest, RandomizedTortureFlavors) {
  const uint64_t seed = EnvU64("TENDAX_TORTURE_SEED", 7);
  const uint64_t iters = EnvU64("TENDAX_TORTURE_ITERS", 8);
  const size_t num_ops = static_cast<size_t>(EnvU64("TENDAX_TORTURE_OPS", 90));

  Profile profile = ProfileWorkload(seed, num_ops);
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_GT(profile.appends, 0u);
  ASSERT_GT(profile.page_writes, 0u);

  for (uint64_t iter = 0; iter < iters; ++iter) {
    Random rng(seed * 7919 + iter + 1);
    auto disk = std::make_shared<InMemoryDiskManager>();
    auto log = std::make_shared<InMemoryLogStorage>();
    auto plan = std::make_shared<FaultPlan>(seed + iter);
    uint32_t flavor = rng.Uniform(3);
    bool page_tear = false;
    switch (flavor) {
      case 0:
        plan->CrashAtOp(1 + rng.Uniform(static_cast<uint32_t>(profile.total_ops)));
        break;
      case 1:
        plan->TearNthLogAppend(
            1 + rng.Uniform(static_cast<uint32_t>(profile.appends)));
        break;
      default:
        plan->TearNthPageWrite(
            1 + rng.Uniform(static_cast<uint32_t>(profile.page_writes)));
        page_tear = true;
        break;
    }
    RunOutcome run = RunWorkload(disk, log, plan, seed, num_ops);
    std::string context = "iter=" + std::to_string(iter) + " " +
                          plan->Describe() +
                          " workload_seed=" + std::to_string(seed);
    if (page_tear) {
      VerifyRecoveredOrDetected(disk, log, run, context);
    } else {
      VerifyRecovered(disk, log, run, context);
    }
    if (::testing::Test::HasFailure()) break;
  }
}

// A torn tail record in the log is the normal crash signature and must be
// tolerated: recovery stops at the tear and replays the complete prefix.
TEST(CrashTortureTest, TornLogTailIsToleratedOnReopen) {
  const uint64_t seed = EnvU64("TENDAX_TORTURE_SEED", 7);
  const size_t num_ops = 40;
  Profile profile = ProfileWorkload(seed, num_ops);
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_GT(profile.appends, 10u);

  // Tear appends at several depths, including a 3-byte stub (inside the
  // length prefix) and a near-complete record.
  for (uint64_t n : {profile.appends / 2, profile.appends - 3}) {
    for (size_t keep : {size_t{0}, size_t{3}, FaultPlan::kAutoTear}) {
      auto disk = std::make_shared<InMemoryDiskManager>();
      auto log = std::make_shared<InMemoryLogStorage>();
      auto plan = std::make_shared<FaultPlan>(seed);
      plan->TearNthLogAppend(n, keep);
      RunOutcome run = RunWorkload(disk, log, plan, seed, num_ops);
      std::string context = "torn tail " + plan->Describe() +
                            " workload_seed=" + std::to_string(seed);
      // Strict check: a torn log tail must never make reopen fail.
      VerifyRecovered(disk, log, run, context);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// A torn page write leaves a half-new half-old page image. The checksum
// must catch it: reopen either fails with a detected error or recovers
// with every invariant intact — never silent corruption.
TEST(CrashTortureTest, TornPageWriteIsDetectedNeverSilent) {
  const uint64_t seed = EnvU64("TENDAX_TORTURE_SEED", 7);
  const size_t num_ops = 60;
  Profile profile = ProfileWorkload(seed, num_ops);
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_GT(profile.page_writes, 2u);

  for (uint64_t n :
       {uint64_t{1}, profile.page_writes / 2, profile.page_writes - 1}) {
    auto disk = std::make_shared<InMemoryDiskManager>();
    auto log = std::make_shared<InMemoryLogStorage>();
    auto plan = std::make_shared<FaultPlan>(seed);
    plan->TearNthPageWrite(n);
    RunOutcome run = RunWorkload(disk, log, plan, seed, num_ops);
    std::string context = "torn page " + plan->Describe() +
                          " workload_seed=" + std::to_string(seed);
    VerifyRecoveredOrDetected(disk, log, run, context);
    if (::testing::Test::HasFailure()) return;
  }
}

// Regression for the RecoveryStats bookkeeping (the undo loop used to
// clobber `losers` with a dead store before the final recompute): a known
// workload — two committed transactions, one in flight at the crash — must
// produce exactly these counters, including the checkpoint-related fields
// staying at their no-checkpoint defaults.
TEST(CrashTortureTest, RecoveryStatsAreExactForKnownWorkload) {
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();

  DatabaseOptions options;
  options.buffer_pool_pages = kPoolPages;
  options.disk = disk;
  options.log_storage = log;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);

  Schema schema({{"id", ColumnType::kUint64}, {"name", ColumnType::kString}});
  auto t = db->CreateTable("docs", schema);  // txn 1: committed (catalog)
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(db->txns()
                  ->RunInTxn(UserId(1),
                             [&](Transaction* txn) -> Status {  // txn 2
                               for (uint64_t i = 0; i < 5; ++i) {
                                 auto r = (*t)->Insert(
                                     txn, Record({i, "r" + std::to_string(i)}));
                                 if (!r.ok()) return r.status();
                               }
                               return Status::OK();
                             })
                  .ok());
  Transaction* loser = db->txns()->Begin(UserId(2));  // txn 3: in flight
  ASSERT_TRUE(
      (*t)->Insert(loser, Record({uint64_t{100}, std::string("lost")})).ok());
  ASSERT_TRUE(
      (*t)->Insert(loser, Record({uint64_t{101}, std::string("lost2")})).ok());
  ASSERT_TRUE(db->wal()->FlushAll().ok());

  // Count the durable records so the scan assertions are exact.
  std::string raw;
  ASSERT_TRUE(log->ReadAll(&raw).ok());
  std::vector<LogRecord> durable;
  Wal::DecodeLogBuffer(raw, &durable);
  ASSERT_GT(durable.size(), 7u);

  db->SimulateCrash();
  db.reset();
  auto reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  const RecoveryStats& stats = (*reopened)->recovery_stats();
  EXPECT_EQ(stats.records_scanned, durable.size());
  EXPECT_EQ(stats.records_skipped, 0u);
  EXPECT_EQ(stats.checkpoint_lsn, kInvalidLsn);
  EXPECT_EQ(stats.txns_seen, 3u);
  EXPECT_EQ(stats.winners, 2u);
  EXPECT_EQ(stats.losers, 1u);
  EXPECT_EQ(stats.undo_applied, 2u) << "exactly the loser's two inserts";
  EXPECT_GE(stats.redo_applied, 7u);

  auto table = (*reopened)->GetTable("docs");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*(*table)->Count(), 5u);
}

// A transient fsync failure at commit time must not wedge the engine: the
// failed transaction rolls back, its locks release, and later edits on the
// same document keep working.
TEST(CrashTortureTest, TransientCommitFlushFailureKeepsEngineUsable) {
  const uint64_t seed = EnvU64("TENDAX_TORTURE_SEED", 7);
  auto disk = std::make_shared<InMemoryDiskManager>();
  auto log = std::make_shared<InMemoryLogStorage>();
  auto plan = std::make_shared<FaultPlan>(seed);

  TendaxOptions options;
  options.db.disk = std::make_shared<FaultInjectingDiskManager>(disk, plan);
  options.db.log_storage =
      std::make_shared<FaultInjectingLogStorage>(log, plan);
  options.db.buffer_pool_pages = kPoolPages;
  options.db.clock = std::make_shared<ManualClock>(1'000'000'000, 1000);
  auto server = TendaxServer::Open(std::move(options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto user = (*server)->accounts()->CreateUser("torture");
  ASSERT_TRUE(user.ok());
  auto doc = (*server)->text()->CreateDocument(*user, kDocName);
  ASSERT_TRUE(doc.ok());

  TypingTraceGenerator gen(seed);
  std::string shadow;
  size_t failures = 0;
  for (size_t i = 0; i < 40; ++i) {
    if (i == 10) {
      // Fail the very next sync: each edit transaction's commit flush is
      // the first sync it issues (listener transactions sync later), so
      // this deterministically kills edit #10's commit.
      plan->FailNthSync(plan->syncs_seen() + 1);
    }
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
    if (st.ok()) {
      shadow = next;
    } else {
      ++failures;
      EXPECT_TRUE(st.IsIOError()) << st.ToString();
    }
  }
  EXPECT_EQ(failures, 1u) << plan->Describe();
  // No leaked transactions or locks: the stream kept going after the
  // failure and the live text matches the shadow of successful edits.
  EXPECT_EQ((*server)->db()->txns()->ActiveCount(), 0u);
  auto text = (*server)->text()->Text(*doc);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text, shadow) << plan->Describe();
  Status integrity = (*server)->CheckIntegrity();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();
}

}  // namespace
}  // namespace tendax
