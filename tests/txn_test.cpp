// Tests for the lock manager (modes, blocking, deadlock detection) and the
// transaction manager (lifecycle, events, retry loop).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "storage/segmented_log.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "util/clock.h"

namespace tendax {
namespace {

TEST(LockModeTest, CompatibilityMatrix) {
  using L = LockMode;
  // Classic hierarchical matrix.
  EXPECT_TRUE(LockCompatible(L::kIS, L::kIS));
  EXPECT_TRUE(LockCompatible(L::kIS, L::kIX));
  EXPECT_TRUE(LockCompatible(L::kIS, L::kS));
  EXPECT_FALSE(LockCompatible(L::kIS, L::kX));
  EXPECT_TRUE(LockCompatible(L::kIX, L::kIX));
  EXPECT_FALSE(LockCompatible(L::kIX, L::kS));
  EXPECT_FALSE(LockCompatible(L::kIX, L::kX));
  EXPECT_TRUE(LockCompatible(L::kS, L::kS));
  EXPECT_FALSE(LockCompatible(L::kS, L::kX));
  EXPECT_FALSE(LockCompatible(L::kX, L::kX));
  // Symmetry.
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(LockCompatible(static_cast<L>(a), static_cast<L>(b)),
                LockCompatible(static_cast<L>(b), static_cast<L>(a)));
    }
  }
}

TEST(LockModeTest, CoversAndSupremum) {
  using L = LockMode;
  EXPECT_TRUE(LockCovers(L::kX, L::kS));
  EXPECT_TRUE(LockCovers(L::kX, L::kIX));
  EXPECT_TRUE(LockCovers(L::kS, L::kIS));
  EXPECT_FALSE(LockCovers(L::kS, L::kIX));
  EXPECT_FALSE(LockCovers(L::kIS, L::kS));
  EXPECT_EQ(LockSupremum(L::kIX, L::kS), L::kX);  // no SIX mode
  EXPECT_EQ(LockSupremum(L::kIS, L::kIX), L::kIX);
  EXPECT_EQ(LockSupremum(L::kS, L::kS), L::kS);
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  uint64_t res = MakeResource(ResourceKind::kDocument, 1);
  EXPECT_TRUE(lm.Acquire(TxnId(1), res, LockMode::kS).ok());
  EXPECT_TRUE(lm.Acquire(TxnId(2), res, LockMode::kS).ok());
  EXPECT_EQ(lm.LockedResourceCount(), 1u);
  lm.ReleaseAll(TxnId(1));
  lm.ReleaseAll(TxnId(2));
  EXPECT_EQ(lm.LockedResourceCount(), 0u);
}

TEST(LockManagerTest, ExclusiveBlocksAndUnblocks) {
  LockManager lm(std::chrono::milliseconds(5000));
  uint64_t res = MakeResource(ResourceKind::kDocument, 1);
  ASSERT_TRUE(lm.Acquire(TxnId(1), res, LockMode::kX).ok());

  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    EXPECT_TRUE(lm.Acquire(TxnId(2), res, LockMode::kX).ok());
    acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired);
  lm.ReleaseAll(TxnId(1));
  waiter.join();
  EXPECT_TRUE(acquired);
  EXPECT_GE(lm.stats().waits, 1u);
  lm.ReleaseAll(TxnId(2));
}

TEST(LockManagerTest, TimeoutReturnsConflict) {
  LockManager lm(std::chrono::milliseconds(50));
  uint64_t res = MakeResource(ResourceKind::kDocument, 1);
  ASSERT_TRUE(lm.Acquire(TxnId(1), res, LockMode::kX).ok());
  Status st = lm.Acquire(TxnId(2), res, LockMode::kS);
  EXPECT_TRUE(st.IsConflict()) << st.ToString();
  EXPECT_GE(lm.stats().timeouts, 1u);
  lm.ReleaseAll(TxnId(1));
}

TEST(LockManagerTest, UpgradeSharedToExclusive) {
  LockManager lm;
  uint64_t res = MakeResource(ResourceKind::kDocument, 1);
  ASSERT_TRUE(lm.Acquire(TxnId(1), res, LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(TxnId(1), res, LockMode::kX).ok());
  // Now exclusive: a shared request from another txn must block until
  // txn 1 releases.
  std::atomic<bool> got{false};
  std::thread t([&] {
    Status s = lm.Acquire(TxnId(2), res, LockMode::kS);
    got = s.ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(got);
  lm.ReleaseAll(TxnId(1));
  t.join();
  EXPECT_TRUE(got);
  lm.ReleaseAll(TxnId(2));
}

TEST(LockManagerTest, IntentionLocksAllowFineGrainedSharing) {
  LockManager lm;
  uint64_t doc = MakeResource(ResourceKind::kDocument, 1);
  uint64_t region_a = MakeResource(ResourceKind::kRegion, 100);
  uint64_t region_b = MakeResource(ResourceKind::kRegion, 200);
  // Two writers in different regions of the same document.
  EXPECT_TRUE(lm.Acquire(TxnId(1), doc, LockMode::kIX).ok());
  EXPECT_TRUE(lm.Acquire(TxnId(2), doc, LockMode::kIX).ok());
  EXPECT_TRUE(lm.Acquire(TxnId(1), region_a, LockMode::kX).ok());
  EXPECT_TRUE(lm.Acquire(TxnId(2), region_b, LockMode::kX).ok());
  lm.ReleaseAll(TxnId(1));
  lm.ReleaseAll(TxnId(2));
}

TEST(LockManagerTest, DeadlockDetectedAndVictimChosen) {
  LockManager lm(std::chrono::milliseconds(5000));
  uint64_t r1 = MakeResource(ResourceKind::kDocument, 1);
  uint64_t r2 = MakeResource(ResourceKind::kDocument, 2);
  ASSERT_TRUE(lm.Acquire(TxnId(1), r1, LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(TxnId(2), r2, LockMode::kX).ok());

  std::atomic<int> deadlocks{0};
  std::thread t1([&] {
    Status st = lm.Acquire(TxnId(1), r2, LockMode::kX);
    if (st.IsDeadlock()) {
      ++deadlocks;
      lm.ReleaseAll(TxnId(1));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread t2([&] {
    Status st = lm.Acquire(TxnId(2), r1, LockMode::kX);
    if (st.IsDeadlock()) {
      ++deadlocks;
      lm.ReleaseAll(TxnId(2));
    }
  });
  t1.join();
  t2.join();
  EXPECT_GE(deadlocks.load(), 1);
  EXPECT_GE(lm.stats().deadlocks, 1u);
  lm.ReleaseAll(TxnId(1));
  lm.ReleaseAll(TxnId(2));
}

// ---------- TxnManager ----------

class TxnManagerTest : public ::testing::Test {
 protected:
  TxnManagerTest()
      : wal_(std::make_shared<InMemoryLogStorage>()),
        clock_(std::make_shared<ManualClock>()),
        txns_(&wal_, &locks_, clock_.get(), /*sync_commit=*/true) {}

  Wal wal_;
  LockManager locks_;
  std::shared_ptr<ManualClock> clock_;
  TxnManager txns_;
};

TEST_F(TxnManagerTest, LifecycleCounters) {
  Transaction* a = txns_.Begin(UserId(1));
  EXPECT_EQ(txns_.ActiveCount(), 1u);
  EXPECT_EQ(a->state(), TxnState::kActive);
  ASSERT_TRUE(txns_.Commit(a).ok());
  EXPECT_EQ(txns_.ActiveCount(), 0u);

  Transaction* b = txns_.Begin(UserId(1));
  ASSERT_TRUE(txns_.Abort(b).ok());
  auto stats = txns_.stats();
  EXPECT_EQ(stats.begun, 2u);
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.aborted, 1u);
}

TEST_F(TxnManagerTest, CommitReleasesLocks) {
  uint64_t res = MakeResource(ResourceKind::kDocument, 1);
  Transaction* a = txns_.Begin(UserId(1));
  ASSERT_TRUE(locks_.Acquire(a->id(), res, LockMode::kX).ok());
  ASSERT_TRUE(txns_.Commit(a).ok());
  // Lock is gone: another txn gets it instantly.
  Transaction* b = txns_.Begin(UserId(2));
  EXPECT_TRUE(locks_.Acquire(b->id(), res, LockMode::kX).ok());
  ASSERT_TRUE(txns_.Commit(b).ok());
}

TEST_F(TxnManagerTest, CommitListenersReceiveEvents) {
  std::vector<ChangeEvent> received;
  txns_.AddCommitListener(
      [&](TxnId, UserId user, const ChangeBatch& batch) {
        EXPECT_EQ(user.value, 5u);
        received.insert(received.end(), batch.begin(), batch.end());
      });
  Transaction* txn = txns_.Begin(UserId(5));
  ChangeEvent ev;
  ev.kind = ChangeKind::kTextInserted;
  ev.doc = DocumentId(3);
  ev.user = txn->user();
  ev.detail = "abc";
  txn->AddEvent(ev);
  ASSERT_TRUE(txns_.Commit(txn).ok());
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].kind, ChangeKind::kTextInserted);
  EXPECT_EQ(received[0].detail, "abc");
}

TEST_F(TxnManagerTest, AbortedTxnPublishesNothing) {
  int calls = 0;
  txns_.AddCommitListener(
      [&](TxnId, UserId, const ChangeBatch&) { ++calls; });
  Transaction* txn = txns_.Begin(UserId(5));
  ChangeEvent ev;
  ev.kind = ChangeKind::kTextInserted;
  txn->AddEvent(ev);
  ASSERT_TRUE(txns_.Abort(txn).ok());
  EXPECT_EQ(calls, 0);
}

TEST_F(TxnManagerTest, RunInTxnCommitsOnSuccess) {
  Status st = txns_.RunInTxn(UserId(1), [&](Transaction*) {
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(txns_.stats().committed, 1u);
}

TEST_F(TxnManagerTest, RunInTxnAbortsOnFailure) {
  Status st = txns_.RunInTxn(UserId(1), [&](Transaction*) {
    return Status::InvalidArgument("boom");
  });
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(txns_.stats().aborted, 1u);
  EXPECT_EQ(txns_.stats().committed, 0u);
}

TEST_F(TxnManagerTest, RunInTxnRetriesRetryableFailures) {
  int attempts = 0;
  Status st = txns_.RunInTxn(UserId(1), [&](Transaction*) -> Status {
    if (++attempts < 3) return Status::Conflict("try again");
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(txns_.stats().aborted, 2u);
  EXPECT_EQ(txns_.stats().committed, 1u);
}

TEST_F(TxnManagerTest, RunInTxnGivesUpAfterMaxRetries) {
  int attempts = 0;
  Status st = txns_.RunInTxn(
      UserId(1),
      [&](Transaction*) -> Status {
        ++attempts;
        return Status::Deadlock("always");
      },
      /*max_retries=*/2);
  EXPECT_TRUE(st.IsDeadlock());
  EXPECT_EQ(attempts, 3);  // initial + 2 retries
}

TEST_F(TxnManagerTest, WalContainsBeginCommitChain) {
  Transaction* txn = txns_.Begin(UserId(1));
  ASSERT_TRUE(txns_.LogUpdate(txn, UpdateOp::kInsert, 7, 3, "", "img").ok());
  ASSERT_TRUE(txns_.Commit(txn).ok());
  std::vector<LogRecord> log;
  ASSERT_TRUE(wal_.ReadAll(&log).ok());
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].type, LogType::kBegin);
  EXPECT_EQ(log[1].type, LogType::kUpdate);
  EXPECT_EQ(log[1].prev_lsn, log[0].lsn);
  EXPECT_EQ(log[2].type, LogType::kCommit);
  EXPECT_EQ(log[2].prev_lsn, log[1].lsn);
}

}  // namespace
}  // namespace tendax
