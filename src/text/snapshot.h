#ifndef TENDAX_TEXT_SNAPSHOT_H_
#define TENDAX_TEXT_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/ids.h"
#include "util/lock_order.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace tendax {

/// Document-level header as stored in the documents table. Defined here
/// (rather than text_store.h) because every published `CharListSnapshot`
/// embeds the header it was materialized from.
struct DocumentInfo {
  DocumentId id;
  std::string name;
  UserId creator;
  Timestamp created = 0;
  std::string state;       // free-form lifecycle state, e.g. "draft"
  Version version = 0;     // bumped by every committed editing transaction
  uint64_t length = 0;     // live characters
};

/// One character of the version-stamped chain as captured by the MVCC read
/// path: identity, code point, version interval, copy-paste provenance.
/// Author / timestamp / deleted_by metadata stays record-only — lineage
/// reads (`CharAt`, `RangeInfo`, `FullChain`) keep the locked record path.
struct SnapChar {
  uint64_t id = 0;
  uint32_t cp = 0;
  Version inserted = 0;
  Version deleted = 0;  // 0 = live
  uint64_t src_doc = 0;
  uint64_t src_char = 0;
  std::string src_external;
};

/// A slice of the character chain in physical order, tombstones included.
/// Copy-on-write unit: once a segment has been frozen into a snapshot it is
/// never mutated again — writers clone the touched segment instead. So an
/// unchanged segment pointer between two snapshots marks unchanged text.
struct SnapSegment {
  std::vector<SnapChar> chars;
  size_t live = 0;  // chars with deleted == 0
  /// UTF-8 of the live chars. Filled when the segment is frozen: only a
  /// segment reached through a snapshot carries it.
  std::string text;
};

class SnapshotTracker;

/// An immutable, refcounted view of one document at one committed version.
///
/// Readers acquire one through `TextStore::AcquireSnapshot()` and then read
/// (text, ranges, time travel, copy provenance) with no LockManager
/// acquisition and no per-handle mutex: the snapshot shares segments with
/// the writer-side chain copy-on-write, so it stays valid — and bit-stable —
/// while `PurgeHistory`, cache eviction, or further edits run concurrently.
/// Reclamation is by refcount: the backing segments are freed when the last
/// snapshot (or the writer chain) referencing them drops away, never while a
/// reader still holds them.
class CharListSnapshot {
 public:
  CharListSnapshot(DocumentInfo info, Version purge_floor,
                   std::vector<std::shared_ptr<const SnapSegment>> segments,
                   std::shared_ptr<SnapshotTracker> tracker);
  ~CharListSnapshot();

  CharListSnapshot(const CharListSnapshot&) = delete;
  CharListSnapshot& operator=(const CharListSnapshot&) = delete;

  const DocumentInfo& info() const { return info_; }
  Version version() const { return info_.version; }
  /// Versions strictly below this are unreadable: `PurgeHistory` physically
  /// deleted tombstones that were alive in them. `TextAtVersion` below the
  /// floor returns kFailedPrecondition instead of silently wrong text.
  Version purge_floor() const { return purge_floor_; }
  uint64_t length() const { return info_.length; }
  /// The frozen segments in physical order; their `text`s concatenate to
  /// `Text()`.
  const std::vector<std::shared_ptr<const SnapSegment>>& segments() const {
    return segments_;
  }

  std::string Text() const;
  Result<std::string> TextRange(size_t pos, size_t len) const;
  /// Text as of `version` — kFailedPrecondition below the purge floor.
  Result<std::string> TextAtVersion(Version version) const;
  /// The live character at `pos` (0-based over live characters).
  Result<SnapChar> LiveAt(size_t pos) const;
  /// Live characters [pos, pos+len) in order, with provenance.
  Result<std::vector<SnapChar>> LiveRange(size_t pos, size_t len) const;

 private:
  const DocumentInfo info_;
  const Version purge_floor_;
  const std::vector<std::shared_ptr<const SnapSegment>> segments_;
  const std::shared_ptr<SnapshotTracker> tracker_;
  uint64_t seq_ = 0;  // tracker registration (0 = untracked)
};

using SnapshotRef = std::shared_ptr<const CharListSnapshot>;

/// Bookkeeping for the mvcc.* metric family. Snapshots register on
/// construction and deregister on destruction, so at any instant
///   mvcc.snapshots_published == mvcc.snapshots_reclaimed + live set
/// and the oldest-snapshot-age gauge reports how far behind the slowest
/// reader is. Held by shared_ptr from both the TextStore and every
/// snapshot, so a snapshot outliving its store still deregisters safely.
class SnapshotTracker {
 public:
  SnapshotTracker(std::shared_ptr<Clock> clock,
                  std::shared_ptr<MetricsRegistry> metrics);

  /// Registers a newly materialized snapshot; returns its tracking seq.
  uint64_t OnPublish() TENDAX_EXCLUDES(mu_);
  /// Deregisters a destroyed snapshot.
  void OnReclaim(uint64_t seq) TENDAX_EXCLUDES(mu_);
  /// Counts one reader acquisition (shared snapshots count per acquire).
  void OnAcquire();

  /// Recomputes mvcc.live_snapshots / mvcc.oldest_snapshot_age_micros;
  /// called on every stats scrape so kStats folds the gauges in.
  void RefreshGauges() TENDAX_EXCLUDES(mu_);

  uint64_t live() const TENDAX_EXCLUDES(mu_);

 private:
  const std::shared_ptr<Clock> clock_;
  const std::shared_ptr<MetricsRegistry> metrics_;
  Counter* published_ = nullptr;
  Counter* acquired_ = nullptr;
  Counter* reclaimed_ = nullptr;
  Gauge* live_gauge_ = nullptr;
  Gauge* oldest_age_ = nullptr;

  mutable Mutex mu_{"mvcc.tracker", lockorder::kRankLeaf};
  uint64_t next_seq_ TENDAX_GUARDED_BY(mu_) = 1;
  std::map<uint64_t, Timestamp> live_ TENDAX_GUARDED_BY(mu_);
};

/// The writer-side character chain: physical order including tombstones,
/// stored as copy-on-write segments so that publishing a snapshot is O(#
/// segments) pointer copies and a subsequent edit clones only the touched
/// segment. Not internally synchronized — the TextStore mutates it under
/// the document handle mutex only.
class VersionedCharList {
 public:
  size_t live_size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// The live character at `pos`; precondition pos < live_size().
  const SnapChar& LiveAt(size_t pos) const;

  void Clear();
  /// Replaces the content with `chain` (physical order, tombstones
  /// included), re-segmenting from scratch.
  void Rebuild(std::vector<SnapChar> chain);
  /// Inserts `run` directly after the live character at live_pos-1 (at the
  /// physical head for live_pos == 0) — mirroring how the record layer
  /// links new characters into the chain.
  void InsertRun(size_t live_pos, const std::vector<SnapChar>& run);
  /// Tombstones the live characters [live_pos, live_pos+len).
  void TombstoneRange(size_t live_pos, size_t len, Version deleted);
  /// Tombstones the live character with `id`; false if not live.
  bool TombstoneById(uint64_t id, Version deleted);
  /// Revives the tombstoned character with `id` where it stands; false if
  /// it is not a tombstone.
  bool ResurrectById(uint64_t id);
  /// Physically drops tombstones with deleted <= before; returns the count.
  uint64_t PurgeBelow(Version before);

  /// Marks every segment frozen and returns them for snapshot publication;
  /// later mutations copy-on-write the touched segment. Fills the `text` of
  /// the segments not frozen yet — the ones edited since the last freeze —
  /// so a publishing commit pays for the segments it touched.
  std::vector<std::shared_ptr<const SnapSegment>> Freeze();

 private:
  // Segment sizing: re-segment at kSegTarget, clone-split once a segment
  // grows past 2x. Keeps per-edit clone cost bounded while amortizing the
  // per-segment shared_ptr overhead. Sized small because the clone of one
  // touched segment is the copy-on-write cost every publishing commit
  // pays — BM_InsertCharDurable's publication_overhead_pct watches it.
  static constexpr size_t kSegTarget = 128;

  SnapSegment* Own(size_t idx);
  void SplitIfOversize(size_t idx);
  void DropEmptySegments();

  std::vector<std::shared_ptr<SnapSegment>> segs_;
  std::vector<uint8_t> frozen_;  // parallel to segs_: 1 = shared, clone first
  size_t live_ = 0;
};

}  // namespace tendax

#endif  // TENDAX_TEXT_SNAPSHOT_H_
