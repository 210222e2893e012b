#ifndef TENDAX_TXN_LOCK_MANAGER_H_
#define TENDAX_TXN_LOCK_MANAGER_H_

#include <chrono>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "util/ids.h"
#include "util/mutex.h"
#include "util/status.h"

namespace tendax {

/// Hierarchical lock modes (no SIX; an IX+S holder upgrades to X).
enum class LockMode : uint8_t { kIS = 0, kIX = 1, kS = 2, kX = 3 };

const char* LockModeName(LockMode mode);

/// True if a holder in `held` permits another transaction in `requested`.
bool LockCompatible(LockMode held, LockMode requested);

/// True if holding `held` already grants everything `requested` would.
bool LockCovers(LockMode held, LockMode requested);

/// Least mode granting both `a` and `b` (used for upgrades).
LockMode LockSupremum(LockMode a, LockMode b);

/// Kinds of lockable resources in the TeNDaX hierarchy. A transaction takes
/// intention locks on the document before locking a finer region inside it.
enum class ResourceKind : uint8_t {
  kDocument = 1,   // whole document
  kRegion = 2,     // character region inside a document (keyed by anchor)
  kCatalog = 3,    // schema-level operations
  kFolder = 4,
  kProcess = 5,
  kTable = 6,      // a whole table (keyed by table id)
};

/// Packs a resource kind and entity id into the flat lock key space.
constexpr uint64_t MakeResource(ResourceKind kind, uint64_t id) {
  return (static_cast<uint64_t>(kind) << 56) | (id & 0x00FF'FFFF'FFFF'FFFFULL);
}

struct LockManagerStats {
  uint64_t acquisitions = 0;
  uint64_t waits = 0;
  uint64_t deadlocks = 0;
  uint64_t timeouts = 0;
  /// Waits cut short by the *request's* deadline (not lock_timeout): the
  /// ambient RequestDeadline expired first, so the caller got the typed
  /// kDeadlineExceeded instead of a retryable Conflict.
  uint64_t deadline_exceeded = 0;
};

/// Strict two-phase lock manager with wait-for-graph deadlock detection.
/// On deadlock the *requesting* transaction is the victim and receives
/// Status::Deadlock; callers abort it and may retry. A wait that exceeds
/// `timeout` returns Status::Conflict. When the calling thread carries an
/// ambient RequestDeadline (util/deadline.h) that lands before the
/// timeout, the wait is capped there instead and an expiry surfaces as
/// Status::DeadlineExceeded.
class LockManager {
 public:
  /// `metrics` may be null (standalone/unit use); it must outlive the
  /// manager.
  explicit LockManager(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(2000),
      MetricsRegistry* metrics = nullptr)
      : timeout_(timeout) {
    if (metrics != nullptr) {
      m_acquisitions_ = metrics->counter("lock.acquisitions");
      m_waits_ = metrics->counter("lock.waits");
      m_deadlocks_ = metrics->counter("lock.deadlocks");
      m_timeouts_ = metrics->counter("lock.timeouts");
      m_deadline_exceeded_ = metrics->counter("lock.deadline_exceeded");
      m_wait_micros_ = metrics->histogram("lock.wait_micros");
    }
  }

  /// Acquires (or upgrades to) `mode` on `resource` for `txn`. Blocks while
  /// incompatible locks are held by other transactions.
  Status Acquire(TxnId txn, uint64_t resource, LockMode mode)
      TENDAX_EXCLUDES(mu_);

  /// Releases every lock held by `txn` and wakes waiters.
  void ReleaseAll(TxnId txn) TENDAX_EXCLUDES(mu_);

  /// Number of distinct resources currently locked (for tests).
  size_t LockedResourceCount() const TENDAX_EXCLUDES(mu_);

  LockManagerStats stats() const TENDAX_EXCLUDES(mu_);

 private:
  struct Grant {
    TxnId txn;
    LockMode mode;
  };
  struct ResourceState {
    std::vector<Grant> grants;
    int waiters = 0;
  };

  // Requires mu_ held: is `mode` grantable to `txn` on `state` right now?
  static bool Grantable(const ResourceState& state, TxnId txn, LockMode mode);

  // Requires mu_ held: would granting create a wait; returns blockers.
  static std::vector<TxnId> Blockers(const ResourceState& state, TxnId txn,
                                     LockMode mode);

  // Does adding edges waiter->blockers close a cycle? (Grantable/Blockers
  // above also require mu_, but static members cannot name it in an
  // attribute — callers hold it through Acquire.)
  bool WouldDeadlock(TxnId waiter, const std::vector<TxnId>& blockers) const
      TENDAX_REQUIRES(mu_);

  const std::chrono::milliseconds timeout_;

  // Leaf of the txn layer: held across nothing but metrics updates.
  mutable Mutex mu_{"lockmgr.mu", lockorder::kRankLock};
  CondVar cv_;
  std::unordered_map<uint64_t, ResourceState> resources_
      TENDAX_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> held_by_txn_
      TENDAX_GUARDED_BY(mu_);
  // wait-for graph: txn -> set of txns it is waiting on
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> wait_for_
      TENDAX_GUARDED_BY(mu_);
  LockManagerStats stats_ TENDAX_GUARDED_BY(mu_);

  // Registry mirrors of stats_ (null without a registry).
  Counter* m_acquisitions_ = nullptr;
  Counter* m_waits_ = nullptr;
  Counter* m_deadlocks_ = nullptr;
  Counter* m_timeouts_ = nullptr;
  Counter* m_deadline_exceeded_ = nullptr;
  Histogram* m_wait_micros_ = nullptr;
};

}  // namespace tendax

#endif  // TENDAX_TXN_LOCK_MANAGER_H_
