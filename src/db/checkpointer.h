#ifndef TENDAX_DB_CHECKPOINTER_H_
#define TENDAX_DB_CHECKPOINTER_H_

#include <cstdint>
#include <memory>
#include <thread>

#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"
#include "txn/txn_manager.h"
#include "util/mutex.h"
#include "util/status.h"

namespace tendax {

/// Where a fuzzy checkpoint run currently stands. Hooks fire at each phase
/// boundary, which is exactly where the crash sweeps and schedule tests
/// need to interleave concurrent commits or power loss.
enum class CheckpointPhase : uint8_t {
  kBeforeBegin = 0,    // about to append kCheckpointBegin
  kAfterBeginRecord,   // begin record appended, ATT/DPT snapshotted
  kAfterDirtyFlush,    // pre-checkpoint dirty pages written back
  kAfterEndRecord,     // kCheckpointEnd appended and durable
  kAfterTruncate,      // redundant segments deleted
};

/// Human-readable phase name, e.g. "AfterDirtyFlush".
const char* CheckpointPhaseName(CheckpointPhase phase);

/// Test-only observation and pause points on the checkpoint pipeline.
/// `ScheduleController` (src/testing) implements this to park the
/// checkpointer at a chosen phase while editor commits (or a fault plan)
/// run against it.
class CheckpointHooks {
 public:
  virtual ~CheckpointHooks() = default;
  /// Checkpoint number `checkpoint_index` (1-based) reached `phase`.
  /// Called without any storage lock held, so implementations may block —
  /// this is the pause gate.
  virtual void OnCheckpointPhase(uint64_t checkpoint_index,
                                 CheckpointPhase phase) {
    (void)checkpoint_index;
    (void)phase;
  }
};

/// Knobs for the background checkpointer, plumbed in via DatabaseOptions /
/// TendaxOptions.
struct CheckpointOptions {
  /// Run a checkpoint every this many microseconds (0 = no timer trigger).
  uint64_t interval_micros = 0;
  /// Run a checkpoint once this many buffer-pool pages are dirty
  /// (0 = no threshold trigger). Polled by the background thread.
  size_t dirty_page_threshold = 0;
  /// Test-only phase hooks; null in production.
  std::shared_ptr<CheckpointHooks> hooks;
};

/// Counters for the checkpoint pipeline.
struct CheckpointerStats {
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t pages_flushed = 0;       // dirty pages written by checkpoints
  uint64_t pages_skipped_busy = 0;  // left dirty because they stayed pinned
  uint64_t bytes_truncated = 0;     // WAL segment bytes deleted
  Lsn last_end_lsn = kInvalidLsn;   // kCheckpointEnd of the last success
  Lsn last_redo_lsn = kInvalidLsn;  // its computed redo point
};

/// The non-quiescent (fuzzy) checkpointer. A checkpoint runs concurrently
/// with editing transactions:
///
///   1. append kCheckpointBegin (LSN B)
///   2. snapshot the active-transaction table (TxnManager) and dirty-page
///      table (BufferPool, per-page rec_lsn)
///   3. write back the snapshotted dirty pages, skipping any that stay
///      pinned (they simply remain in the DPT and bound redo_lsn)
///   4. re-snapshot the DPT; redo_lsn = min(B, min rec_lsn)
///   5. append kCheckpointEnd carrying ATT + DPT + redo_lsn; flush it
///   6. rotate the WAL segment and delete segments wholly below
///      min(redo_lsn, min ATT first_lsn), oldest-first
///
/// Recovery then starts analysis at the last complete checkpoint instead
/// of record zero (see RecoveryManager), which together with step 6 makes
/// both restart time and log disk usage O(working set), not O(history).
///
/// Thread-safe; CheckpointNow() may be called directly (tests, the
/// quiescent Database::Checkpoint wrapper) and is serialized against the
/// background thread.
class Checkpointer {
 public:
  /// All pointers must outlive the Checkpointer; `metrics` may be null.
  Checkpointer(Wal* wal, BufferPool* pool, TxnManager* txns,
               MetricsRegistry* metrics, CheckpointOptions options);
  ~Checkpointer();

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Starts the background thread when a trigger (interval or threshold)
  /// is configured; no-op otherwise. Idempotent.
  void Start();

  /// Stops and joins the background thread. Idempotent; called by the
  /// destructor. In-flight checkpoints finish first.
  void Stop();

  /// Runs one fuzzy checkpoint synchronously on the calling thread.
  Status CheckpointNow() TENDAX_EXCLUDES(run_mu_);

  CheckpointerStats stats() const TENDAX_EXCLUDES(state_mu_);

 private:
  void Loop();
  Status RunOnce() TENDAX_REQUIRES(run_mu_);
  void Hook(uint64_t index, CheckpointPhase phase);

  Wal* const wal_;
  BufferPool* const pool_;
  TxnManager* const txns_;
  const CheckpointOptions options_;

  // Serializes checkpoint runs. Held across WAL appends, buffer-pool
  // flushes and the ATT snapshot, so it ranks with the database layer —
  // well below every storage/txn mutex it reaches into.
  mutable Mutex run_mu_{"checkpointer.run", lockorder::kRankDatabase};
  uint64_t index_ TENDAX_GUARDED_BY(run_mu_) = 0;

  // Lifecycle + stats only; never held across any call out.
  mutable Mutex state_mu_{"checkpointer.state", lockorder::kRankLeaf};
  CondVar cv_;
  bool stop_ TENDAX_GUARDED_BY(state_mu_) = false;
  bool started_ TENDAX_GUARDED_BY(state_mu_) = false;
  CheckpointerStats stats_ TENDAX_GUARDED_BY(state_mu_);
  std::thread thread_;

  // Registry mirrors (null without a registry).
  Counter* m_completed_ = nullptr;
  Counter* m_failed_ = nullptr;
  Counter* m_pages_flushed_ = nullptr;
  Counter* m_pages_busy_ = nullptr;
  Histogram* m_duration_micros_ = nullptr;
  Histogram* m_pages_per_checkpoint_ = nullptr;
};

}  // namespace tendax

#endif  // TENDAX_DB_CHECKPOINTER_H_
