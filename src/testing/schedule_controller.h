#ifndef TENDAX_TESTING_SCHEDULE_CONTROLLER_H_
#define TENDAX_TESTING_SCHEDULE_CONTROLLER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "db/checkpointer.h"
#include "obs/metrics.h"
#include "storage/wal.h"
#include "util/mutex.h"
#include "util/random.h"

namespace tendax {

/// A seeded concurrency-schedule controller for the commit path.
///
/// `GateLog` wraps the database's `LogStorage` so that every log append
/// first passes the controller's flush gate. The WAL issues that append
/// from inside its single flush slot, so a flush parked at the gate keeps
/// the slot: every later committer queues behind it, and their commit
/// records all wait in the log buffer for the next flush. A test can pile
/// up K concurrent committers and arm storage faults behind the closed
/// gate, then release the flush into the prepared interleaving. Combined
/// with `FaultPlan`'s op-index machinery this makes schedules like "commit
/// waiting when the crash fires" and "batch torn mid-append"
/// deterministic.
///
/// Control flow of a typical test:
///
///   auto sched = std::make_shared<ScheduleController>(seed);
///   options.metrics = std::make_shared<MetricsRegistry>();
///   options.log_storage = sched->GateLog(log, options.metrics);
///   ... open the database ...
///   sched->PauseAtFlush(sched->flushes_seen() + 1);  // gate the next flush
///   ... start K committing threads ...
///   ASSERT_TRUE(sched->WaitUntilPaused());    // one flush holds the slot
///   ASSERT_TRUE(sched->WaitForWaiters(K));    // all K are committing
///   plan->FailNthSync(plan->syncs_seen() + 1);
///   sched->ReleaseFlush();                    // open the gate
///
/// Thread-safe. `seed` only drives `PickFlush` and is echoed by
/// `Describe()` so failures are reproducible.
///
/// It is also a `CheckpointHooks`: plugged into
/// `DatabaseOptions::checkpoint_hooks` it parks the fuzzy checkpointer at a
/// chosen (checkpoint index, phase) gate so a test can run edits, commits
/// or storage faults against a checkpoint frozen mid-pipeline, then release
/// it — e.g. "transaction begins after the ATT snapshot", "power is lost
/// between the end record and truncation".
class ScheduleController : public CheckpointHooks {
 public:
  explicit ScheduleController(uint64_t seed = 1) : seed_(seed), rng_(seed) {}

  uint64_t seed() const { return seed_; }

  /// Wraps `inner` so each `Append` passes the flush gate first; plug the
  /// result into `DatabaseOptions::log_storage`. `metrics` must be the
  /// registry the database is opened with (`DatabaseOptions::metrics`):
  /// WaitForWaiters reads its `wal.commits` counter. The controller must
  /// outlive the returned storage.
  std::shared_ptr<LogStorage> GateLog(std::shared_ptr<LogStorage> inner,
                                      std::shared_ptr<MetricsRegistry> metrics);

  // --- scheduling (call before / between flushes) ---

  /// Gates flush number `n` (1-based), counting every log append through
  /// `GateLog` storage — i.e. every flush that had new bytes to write. The
  /// flush blocks, holding the WAL's flush slot, until `ReleaseFlush()`.
  void PauseAtFlush(uint64_t n);

  /// Seeded inclusive pick in [lo, hi] for choosing a flush index to gate.
  uint64_t PickFlush(uint64_t lo, uint64_t hi);

  // --- control (test side) ---

  /// Blocks until a flush is parked at a gate. False on timeout.
  bool WaitUntilPaused(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

  /// Blocks until at least `k` commits have entered `Wal::CommitFlush`
  /// (the `wal.commits` counter) since the last `PauseAtFlush` call. While
  /// the gate is closed, each of them is parked at it or queued behind it.
  /// False on timeout.
  bool WaitForWaiters(
      size_t k,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

  /// Opens every flush gate: the parked flush (if any) proceeds, and gates
  /// not reached yet are dropped, so nothing can park after this call.
  void ReleaseFlush();

  /// Gates fuzzy checkpoint number `checkpoint_index` (1-based) at `phase`:
  /// the checkpointer blocks inside its phase hook until
  /// `ReleaseCheckpoint()`. Each gate fires at most once.
  void PauseAtCheckpoint(uint64_t checkpoint_index, CheckpointPhase phase);

  /// Blocks until the checkpointer is parked at a gate. False on timeout.
  bool WaitUntilCheckpointPaused(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

  /// Opens the gate the checkpointer is currently parked at (or the next
  /// one it reaches, if called early).
  void ReleaseCheckpoint();

  // --- observation ---

  /// Flushes (log appends) that have reached the gate so far.
  uint64_t flushes_seen() const;
  /// One-line reproduction recipe, e.g.
  /// "ScheduleController{seed=7, flushes=3, pause_at=4}".
  std::string Describe() const;

  // --- CheckpointHooks ---

  void OnCheckpointPhase(uint64_t checkpoint_index,
                         CheckpointPhase phase) override;

 private:
  friend class GatedLogStorage;

  /// The flush gate, run by GatedLogStorage before each append.
  void OnFlush();

  const uint64_t seed_;

  // The gate runs on a flushing thread that may hold the buffer pool mutex
  // (write-ahead flush); this lock guards only the gate bookkeeping (the
  // parked flush waits on cv_ holding nothing else), hence leaf rank.
  mutable Mutex mu_{"schedule.mu", lockorder::kRankLeaf};
  CondVar cv_;
  Random rng_ TENDAX_GUARDED_BY(mu_);
  std::set<uint64_t> pause_at_
      TENDAX_GUARDED_BY(mu_);  // flush indices with a closed gate
  bool paused_ TENDAX_GUARDED_BY(mu_) =
      false;  // a flush is parked at a gate right now
  uint64_t started_ TENDAX_GUARDED_BY(mu_) = 0;
  // `wal.commits` of the gated database, and its value at PauseAtFlush.
  std::shared_ptr<MetricsRegistry> metrics_ TENDAX_GUARDED_BY(mu_);
  const Counter* commits_ TENDAX_GUARDED_BY(mu_) = nullptr;
  uint64_t commits_at_pause_ TENDAX_GUARDED_BY(mu_) = 0;

  // Checkpoint gate, mirroring the flush gate above. (index, phase) pairs
  // with a closed gate; each is erased when its pause fires.
  std::set<std::pair<uint64_t, uint8_t>> ckpt_pause_at_
      TENDAX_GUARDED_BY(mu_);
  bool ckpt_paused_ TENDAX_GUARDED_BY(mu_) = false;
  bool ckpt_release_ TENDAX_GUARDED_BY(mu_) = false;
};

}  // namespace tendax

#endif  // TENDAX_TESTING_SCHEDULE_CONTROLLER_H_
