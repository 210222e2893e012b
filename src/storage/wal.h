#ifndef TENDAX_STORAGE_WAL_H_
#define TENDAX_STORAGE_WAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/ids.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace tendax {

/// Log sequence number. LSN 0 is "none"; real LSNs start at 1 and increase
/// by one per appended record.
using Lsn = uint64_t;
constexpr Lsn kInvalidLsn = 0;

/// Kind of a WAL record.
enum class LogType : uint8_t {
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,
  kUpdate = 4,        // a logical record-level change (insert/update/delete)
  kCompensation = 5,  // CLR written while undoing an update
  // 6 was a retired quiescent-checkpoint marker; it now decodes as trash.
  kCheckpointBegin = 7,  // fuzzy checkpoint opened (ARIES begin_chkpt)
  kCheckpointEnd = 8,    // fuzzy checkpoint closed; carries the ATT and DPT
};

/// Sub-kind for kUpdate / kCompensation records.
enum class UpdateOp : uint8_t {
  kInsert = 1,
  kUpdate = 2,
  kDelete = 3,
};

/// One active transaction at the instant a fuzzy checkpoint snapshotted the
/// transaction table. `first_lsn` bounds how far back undo may need to read.
struct CheckpointTxnEntry {
  uint64_t txn = 0;
  Lsn first_lsn = kInvalidLsn;  // LSN of the transaction's begin record
  Lsn last_lsn = kInvalidLsn;   // most recent record at snapshot time
};

/// One dirty page at the instant a fuzzy checkpoint snapshotted the buffer
/// pool. `rec_lsn` is the LSN of the first record that dirtied the page
/// since it was last clean — redo must start no later than the minimum
/// rec_lsn across the table.
struct CheckpointPageEntry {
  uint64_t page = 0;
  Lsn rec_lsn = kInvalidLsn;
};

/// A single WAL record. Updates are logged logically at record granularity:
/// the (table, rid) addressed plus before/after images. Replay is
/// deterministic because the rid chosen at run time is recorded, and
/// idempotent because pages carry the LSN of the last applied record.
struct LogRecord {
  Lsn lsn = kInvalidLsn;
  Lsn prev_lsn = kInvalidLsn;  // previous record of the same transaction
  TxnId txn;
  LogType type = LogType::kBegin;

  // kUpdate / kCompensation only:
  UpdateOp op = UpdateOp::kInsert;
  uint64_t table_id = 0;
  uint64_t rid = 0;          // packed RecordId (page << 16 | slot)
  std::string before;        // pre-image (empty for insert)
  std::string after;         // post-image (empty for delete)
  Lsn undo_next_lsn = kInvalidLsn;  // kCompensation: next record to undo

  // kCheckpointEnd only: the fuzzy-checkpoint snapshot.
  Lsn checkpoint_begin_lsn = kInvalidLsn;  // LSN of the paired kCheckpointBegin
  Lsn checkpoint_redo_lsn = kInvalidLsn;   // min(begin, min DPT rec_lsn)
  std::vector<CheckpointTxnEntry> att;     // active-transaction table
  std::vector<CheckpointPageEntry> dpt;    // dirty-page table

  /// Serializes this record (without framing) into `dst`.
  void EncodeTo(std::string* dst) const;
  /// Parses a record from `input`; returns false on malformed input,
  /// including a type or update-op byte that names no enumerator.
  static bool DecodeFrom(Slice input, LogRecord* out);
};

/// Byte sink holding the serialized log as a sequence of numbered segments
/// (`SegmentedLogStorage` is the implementation, in memory or on disk).
/// Appends always go to the current (highest-numbered) segment; ReadAll
/// concatenates segments in id order, so callers that do not care about
/// segmentation see one contiguous byte stream. Segment ids are monotonic
/// and never reused, which is what lets the Wal keep per-segment LSN spans.
/// Implementations must make Append atomic with respect to concurrent calls
/// from Wal (Wal serializes internally, so plain implementations suffice).
class LogStorage {
 public:
  virtual ~LogStorage() = default;
  virtual Status Append(const Slice& data) = 0;
  virtual Status Sync() = 0;
  /// Reads the entire log into `out`.
  virtual Status ReadAll(std::string* out) = 0;
  /// Discards all content; the log restarts in a fresh segment.
  virtual Status Truncate() = 0;
  /// Every log storage is segmented; kept so decorators that forward it
  /// still compile. Nothing branches on it.
  virtual bool segmented() const { return true; }
  /// Id of the segment receiving appends.
  virtual uint64_t current_segment() const = 0;
  /// All live segment ids, ascending.
  virtual std::vector<uint64_t> SegmentIds() const = 0;
  /// Byte size of segment `id` (0 for unknown ids).
  virtual uint64_t SegmentBytes(uint64_t id) const = 0;
  /// Reads the raw bytes of one segment.
  virtual Status ReadSegment(uint64_t id, std::string* out) = 0;
  /// Seals the current segment (durably) and opens a fresh one; the new
  /// segment's id is returned through `new_id` when non-null.
  virtual Status RotateSegment(uint64_t* new_id) = 0;
  /// Deletes one sealed segment; `bytes_freed` (when non-null) receives its
  /// size. Deleting the current segment is an error.
  virtual Status DropSegment(uint64_t id, uint64_t* bytes_freed) = 0;
};

/// The write-ahead log. Thread-safe. Appends buffer in memory; Flush()
/// makes everything up to a given LSN durable. Framing per record:
/// fixed32 payload length, fixed32 FNV-1a checksum, payload. A torn tail
/// (truncated or corrupt final record) is tolerated on read.
///
/// There is one physical flush path, and it is single-flighted: one flush
/// owns the storage Append+Sync at a time, and the next flusher takes
/// everything buffered meanwhile. So commits that arrive during an fsync
/// coalesce into the next one (group commit) with no extra thread or mode.
class Wal {
 public:
  /// Storage is shared so that a test can keep a handle, simulate a crash
  /// by dropping the Wal (losing `pending_`), and reopen a new Wal over the
  /// same bytes. `metrics` may be null (standalone/unit use); it must
  /// outlive the Wal. Once the current segment exceeds `segment_bytes`,
  /// the next successful flush rotates to a new segment (0 disables
  /// size-based rotation; checkpoints still rotate explicitly via
  /// RotateSegmentNow). Construction walks the frames already in storage
  /// to rebuild the LSN cursor and segment spans; it decodes no record.
  explicit Wal(std::shared_ptr<LogStorage> storage,
               MetricsRegistry* metrics = nullptr,
               uint64_t segment_bytes = 0);

  /// Assigns the next LSN to `rec`, serializes and buffers it. Returns the
  /// assigned LSN. Never fails: storage errors surface from the flush.
  Lsn Append(LogRecord* rec) TENDAX_EXCLUDES(mu_);

  /// Ensures all records with lsn <= `up_to` are durable.
  Status Flush(Lsn up_to) TENDAX_EXCLUDES(mu_);
  /// Ensures every appended record is durable.
  Status FlushAll() TENDAX_EXCLUDES(mu_);

  /// Makes the commit record at `lsn` durable: the commit-path flush,
  /// counted (`wal.commits`) and timed (`wal.commit_flush_micros`). A
  /// commit that arrives while another flush is in flight waits for it and
  /// is usually covered by the next one, together with every other commit
  /// that queued meanwhile. On error the caller must treat its commit as
  /// not durable.
  Status CommitFlush(Lsn lsn) TENDAX_EXCLUDES(mu_);

  Lsn next_lsn() const TENDAX_EXCLUDES(mu_);
  Lsn flushed_lsn() const TENDAX_EXCLUDES(mu_);

  /// Decodes every durable record plus any still-buffered ones, in order.
  /// Stops silently at the first torn/corrupt record (crash tail).
  Status ReadAll(std::vector<LogRecord>* out) TENDAX_EXCLUDES(mu_);

  /// Discards the entire log and continues LSN numbering in a fresh
  /// segment. Only valid once nothing in the log is needed any more: every
  /// page it covers is flushed and synced, after recovery or at a clean
  /// close.
  Status Reset() TENDAX_EXCLUDES(mu_);

  /// Moves LSN numbering past `lsn`, so every record appended from now on
  /// sorts after it; a no-op when numbering is already past. Open calls it
  /// with the highest page LSN, since an emptied log restarts numbering at
  /// 1 while the pages keep theirs. Requires nothing buffered.
  void AdvancePast(Lsn lsn) TENDAX_EXCLUDES(mu_);

  LogStorage* storage() { return storage_.get(); }

  /// Decodes a serialized log (as produced by LogStorage::ReadAll) without
  /// a Wal instance; used by recovery. Returns the next LSN to issue.
  /// Stops at the first torn, checksum-corrupt, undecodable, or
  /// LSN-discontiguous record, so a crash tail is always dropped cleanly.
  /// This is the only place a whole log is decoded; opening a Wal reads
  /// just the frames.
  static Lsn DecodeLogBuffer(const std::string& buffer,
                             std::vector<LogRecord>* out);

  // --- segmentation ---

  /// Live segments.
  size_t SegmentCount() const TENDAX_EXCLUDES(mu_);

  /// Flushes everything buffered, seals the current segment and opens a
  /// fresh one. Used by the checkpointer so sealed history becomes
  /// truncatable regardless of `segment_bytes`.
  Status RotateSegmentNow() TENDAX_EXCLUDES(mu_);

  /// Deletes sealed segments whose records all have lsn < `bound`,
  /// oldest-first so a crash mid-sweep always leaves a contiguous log
  /// suffix. The current segment is never deleted. Returns bytes freed.
  Result<uint64_t> TruncateSegmentsBelow(Lsn bound) TENDAX_EXCLUDES(mu_);

 private:
  /// Per-segment LSN span. `last == kInvalidLsn` means the segment is still
  /// open (or its span is unknown, e.g. an empty sealed segment) and must
  /// be retained by truncation.
  struct SegmentSpan {
    Lsn first = kInvalidLsn;
    Lsn last = kInvalidLsn;
  };

  /// Seals the current segment at `last_lsn` and opens a fresh one whose
  /// span starts at `last_lsn + 1`. Expects `mu_` held by the caller.
  Status RotateLocked(Lsn last_lsn) TENDAX_REQUIRES(mu_);
  /// The one physical flush path. Single-flighted: concurrent callers wait
  /// for the in-flight flush, then re-check coverage. The storage
  /// Append+Sync runs outside `mu_` so appends keep flowing during a slow
  /// fsync.
  Status FlushInternal(Lsn up_to) TENDAX_EXCLUDES(mu_);

  mutable Mutex mu_{"wal.mu", lockorder::kRankWal};
  std::shared_ptr<LogStorage> storage_;
  // Serialized but not yet flushed to storage.
  std::string pending_ TENDAX_GUARDED_BY(mu_);
  Lsn next_lsn_ TENDAX_GUARDED_BY(mu_) = 1;
  Lsn flushed_lsn_ TENDAX_GUARDED_BY(mu_) = 0;
  // A FlushInternal is in storage I/O.
  bool flush_in_flight_ TENDAX_GUARDED_BY(mu_) = false;
  CondVar flush_cv_;  // signaled when flush_in_flight_ drops

  // --- segmentation state ---
  const uint64_t segment_bytes_;
  // LSN span of every live segment, keyed by segment id.
  std::map<uint64_t, SegmentSpan> segment_spans_ TENDAX_GUARDED_BY(mu_);

  // Registry metrics (null when no registry was given).
  Counter* m_appends_ = nullptr;
  Counter* m_rotations_ = nullptr;
  Gauge* m_segments_ = nullptr;
  Gauge* m_truncated_bytes_ = nullptr;
  Counter* m_syncs_ = nullptr;
  Counter* m_commits_ = nullptr;
  Counter* m_failed_flushes_ = nullptr;
  Histogram* m_flush_micros_ = nullptr;
  Histogram* m_commit_flush_micros_ = nullptr;
};

}  // namespace tendax

#endif  // TENDAX_STORAGE_WAL_H_
