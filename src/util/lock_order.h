#ifndef TENDAX_UTIL_LOCK_ORDER_H_
#define TENDAX_UTIL_LOCK_ORDER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/status.h"

namespace tendax {

class MetricsRegistry;

namespace lockorder {

// Runtime lock-order validation. Every named `tendax::Mutex` /
// `tendax::SharedMutex` (util/mutex.h) registers a graph node interned by
// name, so all instances of e.g. "wal.mu" share one node. While validation
// is enabled, each acquisition
//   1. checks declared ranks: acquiring a mutex whose rank is *lower* than
//      a ranked mutex already held is an inversion — reported immediately,
//      on the first run, whether or not the opposing thread ever shows up;
//   2. records an acquired-after edge (innermost held -> acquired) in a
//      global graph and runs cycle detection — so the two halves of an
//      inversion taken on *different* threads are caught the first time the
//      second edge appears, again without needing the deadlock to strike;
//   3. flags re-acquisition of the same instance (guaranteed self-deadlock
//      for a non-recursive mutex).
// Violations carry the full held-stack and offending edge/cycle, and either
// abort (validation builds / tests) or surface through the `lockorder.*`
// metrics family (see PublishTo). Disabled, the per-acquisition cost is one
// relaxed atomic load and branch.
//
// Same-name nesting across *different instances* (two documents, two
// databases) is permitted and generates no edge: instances of one subsystem
// are peers the name graph cannot order.

/// Rank for mutexes that opt out of rank checking (the edge graph still
/// covers them). Ranks increase along the permitted acquisition order:
/// a thread may only acquire mutexes of strictly increasing rank.
inline constexpr int kUnranked = -1;

// Canonical cross-module rank map. Outer layers lock first (low rank),
// storage locks last (high rank, innermost). Gaps are deliberate: new
// mutexes slot in without renumbering. See DESIGN.md "Static analysis &
// lock discipline" before adding a rank.
inline constexpr int kRankServer = 10;        // core/tendax server state
inline constexpr int kRankSession = 20;       // collab/session_manager
inline constexpr int kRankWorkflow = 30;      // workflow engine
inline constexpr int kRankDocument = 40;      // document/meta/folders/search
inline constexpr int kRankUndo = 50;          // collab/undo_manager
inline constexpr int kRankDatabase = 60;      // db/database, catalog
inline constexpr int kRankTable = 70;         // heap tables, text
inline constexpr int kRankPageLatch = 75;     // storage/page latch: taken
                                              // after the table mutex and
                                              // held across LogUpdate (txn,
                                              // wal), so it sits between
inline constexpr int kRankTxn = 80;           // txn/txn_manager
inline constexpr int kRankLock = 90;          // txn/lock_manager
inline constexpr int kRankBufferPool = 95;    // storage/buffer_pool: holds
                                              // its mutex across the
                                              // write-ahead WAL flush
inline constexpr int kRankWal = 110;          // storage/wal mu_
inline constexpr int kRankDisk = 130;         // storage/disk_manager, log
inline constexpr int kRankLeaf = 200;         // metrics, testing hooks: no
                                              // tracked mutex taken inside

/// Interned per-name graph node. Opaque to callers; `tendax::Mutex` holds a
/// pointer obtained from Register().
struct MutexNode;

/// A detected discipline violation, Status-style: one line of what, plus
/// the machine-readable pieces a test can assert on exactly.
struct Violation {
  enum class Kind : uint8_t {
    kRankInversion = 0,  // acquired a lower rank while holding a higher one
    kCycle = 1,          // new edge closed a cycle in the acquired-after graph
    kSelfDeadlock = 2,   // re-acquired the same non-recursive instance
  };

  Kind kind = Kind::kRankInversion;
  /// Full formatted report: kind, offending edge, held stack, cycle path.
  std::string message;
  /// Name of the mutex being acquired when the violation fired.
  std::string acquiring;
  /// Names of tracked mutexes the thread held, outermost first.
  std::vector<std::string> held_stack;
  /// kCycle only: the cycle as node names, starting and ending at the
  /// acquired mutex (e.g. {"a", "b", "a"}).
  std::vector<std::string> cycle;

  /// The report as a Status (kFailedPrecondition) for call sites that
  /// propagate rather than abort.
  Status AsStatus() const { return Status::FailedPrecondition(message); }
};

/// Monotonic counters; mirrored into `lockorder.*` gauges by PublishTo().
struct Stats {
  uint64_t registered = 0;        // distinct named nodes interned
  uint64_t tracked_acquires = 0;  // acquisitions validated while enabled
  uint64_t edges = 0;             // distinct acquired-after edges recorded
  uint64_t rank_inversions = 0;
  uint64_t cycles = 0;
  uint64_t self_deadlocks = 0;

  uint64_t violations() const {
    return rank_inversions + cycles + self_deadlocks;
  }
};

namespace internal {
// Validation toggle, read on every Mutex::lock/unlock. Inline so the
// disabled fast path is a single relaxed load without a function call.
#if defined(TENDAX_LOCK_ORDER)
inline std::atomic<bool> g_enabled{true};
#else
inline std::atomic<bool> g_enabled{false};
#endif
}  // namespace internal

/// True while runtime validation is on. Defaults to the build mode:
/// on under -DTENDAX_LOCK_ORDER=ON, off otherwise.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Turns validation on or off. Enable before spawning worker threads:
/// acquisitions made while disabled are invisible, so a mid-flight enable
/// sees partial held-stacks until those locks unwind.
void SetEnabled(bool enabled);

/// When true, an unhandled violation aborts the process after printing the
/// report (the validation-build / test posture). When false it is recorded
/// (stats + last violation + stderr) and execution continues. Defaults to
/// the build mode, like Enabled().
void SetAbortOnViolation(bool abort_on_violation);

/// Replaces the violation sink. A non-null handler suppresses both the
/// stderr print and the abort — tests install one to capture reports.
/// Null restores the default behavior. Handlers run with no lockorder
/// lock held and may take tracked mutexes.
using Handler = std::function<void(const Violation&)>;
void SetViolationHandler(Handler handler);

Stats GetStats();

/// True once any violation has been recorded since the last Reset().
bool HasViolation();
/// The most recently recorded violation (empty Violation if none).
Violation LastViolation();

/// Test hook: clears the edge graph, stats, and last violation. Node
/// registrations survive (live mutexes keep their node pointers). Only
/// call while no tracked mutex is held on any thread.
void ResetForTest();

/// Test hook: names of tracked mutexes the calling thread currently holds,
/// outermost first.
std::vector<std::string> HeldStackForTest();

/// Mirrors Stats into `lockorder.*` gauges on `registry` (null-safe):
/// lockorder.registered, .tracked_acquires, .edges, .rank_inversions,
/// .cycles, .self_deadlocks, .violations, .enabled. Called at snapshot
/// time (kStats) so remote scrapes see violations from surviving runs.
void PublishTo(MetricsRegistry* registry);

// --- hooks for tendax::Mutex / tendax::SharedMutex (util/mutex.h) ---

/// Interns (or finds) the node for `name` and records `rank` on first
/// registration; later registrations of the same name keep the first rank.
/// Returns nullptr for a null name (unnamed mutexes are untracked).
const MutexNode* Register(const char* name, int rank);

/// Validates an intended acquisition of `instance` (a Mutex address)
/// registered under `node`: self-deadlock, rank, and cycle checks, plus
/// acquired-after edge recording. Call *before* blocking on the underlying
/// lock — a self-deadlock must be reported while the thread can still run.
void OnAcquiring(const MutexNode* node, const void* instance);

/// Pushes the now-held lock onto the thread's held stack. Call after the
/// underlying lock call returns (also used alone for successful try-locks,
/// which impose no ordering and skip OnAcquiring).
void OnAcquired(const MutexNode* node, const void* instance);

/// Records the release. Tolerates entries missing from the stack (lock
/// taken while validation was off) and out-of-stack-order unlocks.
void OnRelease(const MutexNode* node, const void* instance);

}  // namespace lockorder
}  // namespace tendax

#endif  // TENDAX_UTIL_LOCK_ORDER_H_
