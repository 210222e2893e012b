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

/// A node of the persistent copy-on-write B-tree that holds a document's
/// character chain in physical order, tombstones included. Every node
/// carries its subtree's aggregates, so a position lookup descends by live
/// count and a reader skips whole subtrees with no live text.
///
/// Copy-on-write unit: once a node has been frozen into a snapshot it is
/// never mutated again — the writer clones the touched leaf and its path
/// from the root instead. So an unchanged node pointer between two
/// snapshots marks an unchanged subtree.
struct SnapNode {
  uint32_t height = 0;  // 0: a leaf (SnapSegment); else a SnapInterior
  size_t live = 0;      // chars with deleted == 0
  size_t records = 0;   // chain records, tombstones included
  size_t bytes = 0;     // UTF-8 bytes of the live chars
  uint64_t min_id = UINT64_MAX;  // id range of the subtree's records
  uint64_t max_id = 0;
  /// Writer-side only: set when a snapshot shares the node. Written before
  /// the node is published and never after, so readers never race it.
  bool frozen = false;
};

/// A leaf: a slice of the chain.
struct SnapSegment : SnapNode {
  std::vector<SnapChar> chars;
  /// UTF-8 of the live chars. Filled when the leaf is frozen: only a leaf
  /// reached through a snapshot carries it.
  std::string text;
};

/// An interior node: children of one height, in physical order.
struct SnapInterior : SnapNode {
  std::vector<std::shared_ptr<const SnapNode>> children;
  /// Bottom interior nodes (height 1) only: the concatenated `text` of the
  /// leaves, filled when frozen. A full read appends these, so it touches
  /// one node per few thousand chain records instead of every leaf.
  std::string text;
};

inline const SnapSegment& AsSegment(const SnapNode& node) {
  return static_cast<const SnapSegment&>(node);
}
inline const SnapInterior& AsInterior(const SnapNode& node) {
  return static_cast<const SnapInterior&>(node);
}

/// Calls `fn(const std::string&)` with the live text under `node` in
/// physical order, one buffer per bottom interior node (or the leaf's, for
/// a one-leaf tree), skipping subtrees without any. Stops, returning false,
/// once `fn` returns false. A full read never touches a leaf.
template <typename Fn>
bool ForEachTextChunk(const SnapNode& node, Fn&& fn) {
  if (node.bytes == 0) return true;
  if (node.height == 0) return fn(AsSegment(node).text);
  if (node.height == 1) return fn(AsInterior(node).text);
  for (const auto& child : AsInterior(node).children) {
    if (!ForEachTextChunk(*child, fn)) return false;
  }
  return true;
}

/// Calls `fn(const SnapSegment&)` for every leaf under `node` that has live
/// text, in physical order (reverse order when `backward`), skipping
/// subtrees without any. Stops, returning false, once `fn` returns false.
template <typename Fn>
bool ForEachTextSegment(const SnapNode& node, Fn&& fn, bool backward = false) {
  if (node.bytes == 0) return true;
  if (node.height == 0) return fn(AsSegment(node));
  const auto& children = AsInterior(node).children;
  for (size_t i = 0; i < children.size(); ++i) {
    const SnapNode& child = *children[backward ? children.size() - 1 - i : i];
    if (!ForEachTextSegment(child, fn, backward)) return false;
  }
  return true;
}

class SnapshotTracker;

/// An immutable, refcounted view of one document at one committed version.
///
/// Readers acquire one through `TextStore::AcquireSnapshot()` and then read
/// (text, ranges, time travel, copy provenance) with no LockManager
/// acquisition and no per-handle mutex: the snapshot shares tree nodes with
/// the writer-side chain copy-on-write, so it stays valid — and bit-stable —
/// while `PurgeHistory`, cache eviction, or further edits run concurrently.
/// Reclamation is by refcount: the backing nodes are freed when the last
/// snapshot (or the writer chain) referencing them drops away, never while a
/// reader still holds them. Position reads seek by live count, so they cost
/// O(log n) in chain length plus what they return.
class CharListSnapshot {
 public:
  CharListSnapshot(DocumentInfo info, Version purge_floor,
                   std::shared_ptr<const SnapNode> root,
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
  /// The root of the frozen chain (null for an empty chain); its leaves'
  /// `text`s concatenate to `Text()`.
  const std::shared_ptr<const SnapNode>& root() const { return root_; }

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
  const std::shared_ptr<const SnapNode> root_;
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
/// stored as a persistent copy-on-write B-tree of segments. Publishing a
/// snapshot hands out the root; a later edit clones only the leaf it
/// touches and that leaf's path from the root, so a keystroke, a position
/// lookup and a publication cost O(log n) in chain length. Not internally
/// synchronized — the TextStore mutates it under the document handle mutex
/// only.
class VersionedCharList {
 public:
  size_t live_size() const { return root_ ? root_->live : 0; }
  bool empty() const { return live_size() == 0; }

  /// The live character at `pos`; precondition pos < live_size().
  const SnapChar& LiveAt(size_t pos) const;

  void Clear();
  /// Replaces the content with `chain` (physical order, tombstones
  /// included), building the tree bottom-up in O(n).
  void Rebuild(std::vector<SnapChar> chain);
  /// Inserts `run` directly after the live character at live_pos-1 (at the
  /// physical head for live_pos == 0) — mirroring how the record layer
  /// links new characters into the chain.
  void InsertRun(size_t live_pos, const std::vector<SnapChar>& run);
  /// Tombstones the live characters [live_pos, live_pos+len) and returns
  /// their ids in order.
  std::vector<uint64_t> TombstoneRange(size_t live_pos, size_t len,
                                       Version deleted);
  /// One gesture's undo or redo in one pass. With `deleted` != 0,
  /// tombstones every live char whose id is in `ids`; with 0, revives every
  /// such tombstone where it stands. Subtrees whose id range misses `ids`
  /// are skipped, and only the leaves hit are cloned. Returns the number of
  /// chars changed.
  size_t SetDeleted(std::vector<uint64_t> ids, Version deleted);
  /// Physically drops tombstones with deleted <= before; returns the count.
  uint64_t PurgeBelow(Version before);

  /// Marks the tree frozen and returns its root for snapshot publication;
  /// later mutations copy-on-write the touched path. Fills the `text` of
  /// the leaves and bottom interior nodes created since the last freeze
  /// only, so a publishing commit pays for what it touched.
  std::shared_ptr<const SnapNode> Freeze();

 private:
  // Leaf sizing: build leaves of kSegTarget chars, clone-split a leaf once
  // it grows past 2x. Sized small because the clone of one touched leaf is
  // the copy-on-write cost every publishing commit pays —
  // BM_InsertCharDurable's publication_overhead_pct watches it. Interior
  // nodes are built with kNodeTarget children and split past kMaxFanout.
  static constexpr size_t kSegTarget = 128;
  static constexpr size_t kNodeTarget = 32;
  static constexpr size_t kMaxFanout = 64;

  using NodeRef = std::shared_ptr<const SnapNode>;
  using Nodes = std::vector<NodeRef>;

  /// A writable node in `slot`: the node itself if no snapshot shares it,
  /// else a clone that replaces it there.
  SnapSegment* OwnSegment(NodeRef* slot);
  SnapInterior* OwnInterior(NodeRef* slot);
  /// Inserts `run`, whose aggregates are `add`, into the subtree at `slot`
  /// after its live char `after` (SIZE_MAX: at its physical head). Returns
  /// the nodes split off the subtree's root, which belong right after it
  /// in the parent.
  Nodes InsertIn(NodeRef* slot, size_t after,
                 const std::vector<SnapChar>& run, const SnapNode& add);
  /// Lets `edit` change the leaves under `slot` whose subtrees `enter`
  /// accepts; see snapshot.cc.
  template <typename Enter, typename Edit>
  bool EditLeaves(NodeRef* slot, Enter& enter, Edit& edit);
  /// Groups `nodes` (one height) into parents of about kNodeTarget
  /// children each.
  Nodes Group(Nodes nodes);
  /// Makes `pieces` (split off the root) the root's siblings under new
  /// roots until one root is left.
  void GrowRoot(Nodes pieces);

  NodeRef root_;
  // Nodes created since the last Freeze: the ones it must fill and freeze.
  Nodes unfrozen_;
};

}  // namespace tendax

#endif  // TENDAX_TEXT_SNAPSHOT_H_
