#include "text/snapshot.h"

#include <algorithm>
#include <cassert>

#include "text/utf8.h"

namespace tendax {

namespace {

size_t Utf8Size(uint32_t cp) {
  if (cp <= 0x7F) return 1;
  if (cp <= 0x7FF) return 2;
  if (cp <= 0xFFFF) return 3;
  if (cp <= 0x10FFFF) return 4;
  return 3;  // AppendUtf8 writes U+FFFD
}

// Calls `fn(const SnapSegment&)` for every leaf under `node`, in order.
template <typename Fn>
void ForEachSegment(const SnapNode& node, const Fn& fn) {
  if (node.height == 0) {
    fn(AsSegment(node));
    return;
  }
  for (const auto& child : AsInterior(node).children) {
    ForEachSegment(*child, fn);
  }
}

// Calls `fn(const SnapChar&)` for the live chars under `node` from live
// index *skip on, in order, while it returns true. Subtrees wholly before
// *skip are stepped over by their live counts. Returns false once `fn`
// stopped the walk.
template <typename Fn>
bool VisitLive(const SnapNode& node, size_t* skip, const Fn& fn) {
  if (*skip >= node.live) {
    *skip -= node.live;
    return true;
  }
  if (node.height > 0) {
    for (const auto& child : AsInterior(node).children) {
      if (!VisitLive(*child, skip, fn)) return false;
    }
    return true;
  }
  for (const SnapChar& c : AsSegment(node).chars) {
    if (c.deleted != 0) continue;
    if (*skip > 0) {
      --*skip;
      continue;
    }
    if (!fn(c)) return false;
  }
  return true;
}

void ResetAggregates(SnapNode* node) {
  node->live = node->records = node->bytes = 0;
  node->min_id = UINT64_MAX;
  node->max_id = 0;
}

// Folds one char into `agg`.
void Count(const SnapChar& c, SnapNode* agg) {
  ++agg->records;
  agg->min_id = std::min(agg->min_id, c.id);
  agg->max_id = std::max(agg->max_id, c.id);
  if (c.deleted == 0) {
    ++agg->live;
    agg->bytes += Utf8Size(c.cp);
  }
}

// Folds the aggregates of `part` into `agg`.
void Count(const SnapNode& part, SnapNode* agg) {
  agg->live += part.live;
  agg->records += part.records;
  agg->bytes += part.bytes;
  agg->min_id = std::min(agg->min_id, part.min_id);
  agg->max_id = std::max(agg->max_id, part.max_id);
}

void Recount(SnapSegment* seg) {
  ResetAggregates(seg);
  for (const SnapChar& c : seg->chars) Count(c, seg);
}

void Recount(SnapInterior* node) {
  ResetAggregates(node);
  for (const auto& child : node->children) Count(*child, node);
}

}  // namespace

// ---------------------------------------------------------------------------
// CharListSnapshot

CharListSnapshot::CharListSnapshot(DocumentInfo info, Version purge_floor,
                                   std::shared_ptr<const SnapNode> root,
                                   std::shared_ptr<SnapshotTracker> tracker)
    : info_(std::move(info)),
      purge_floor_(purge_floor),
      root_(std::move(root)),
      tracker_(std::move(tracker)) {
  if (tracker_) seq_ = tracker_->OnPublish();
}

CharListSnapshot::~CharListSnapshot() {
  if (tracker_) tracker_->OnReclaim(seq_);
}

std::string CharListSnapshot::Text() const {
  std::string out;
  if (root_ == nullptr) return out;
  out.reserve(root_->bytes);
  ForEachTextChunk(*root_, [&](const std::string& text) {
    out += text;
    return true;
  });
  return out;
}

Result<std::string> CharListSnapshot::TextRange(size_t pos, size_t len) const {
  if (pos + len > info_.length) {
    return Status::OutOfRange("text range beyond document length");
  }
  std::string out;
  if (len == 0) return out;
  out.reserve(len);
  size_t remaining = len;
  VisitLive(*root_, &pos, [&](const SnapChar& c) {
    AppendUtf8(&out, c.cp);
    return --remaining > 0;
  });
  return out;
}

Result<std::string> CharListSnapshot::TextAtVersion(Version version) const {
  if (version < purge_floor_) {
    return Status::FailedPrecondition(
        "version " + std::to_string(version) +
        " predates the purge floor " + std::to_string(purge_floor_) +
        " of document " + info_.id.ToString() +
        ": its tombstones were physically purged");
  }
  std::string out;
  if (root_ != nullptr) ForEachSegment(*root_, [&](const SnapSegment& seg) {
    for (const SnapChar& c : seg.chars) {
      if (c.inserted <= version && (c.deleted == 0 || c.deleted > version)) {
        AppendUtf8(&out, c.cp);
      }
    }
  });
  return out;
}

Result<SnapChar> CharListSnapshot::LiveAt(size_t pos) const {
  if (pos >= info_.length) {
    return Status::OutOfRange("position beyond document length");
  }
  SnapChar out;
  VisitLive(*root_, &pos, [&](const SnapChar& c) {
    out = c;
    return false;
  });
  return out;
}

Result<std::vector<SnapChar>> CharListSnapshot::LiveRange(size_t pos,
                                                          size_t len) const {
  if (pos + len > info_.length) {
    return Status::OutOfRange("range beyond document length");
  }
  std::vector<SnapChar> out;
  if (len == 0) return out;
  out.reserve(len);
  VisitLive(*root_, &pos, [&](const SnapChar& c) {
    out.push_back(c);
    return out.size() < len;
  });
  return out;
}

// ---------------------------------------------------------------------------
// SnapshotTracker

SnapshotTracker::SnapshotTracker(std::shared_ptr<Clock> clock,
                                 std::shared_ptr<MetricsRegistry> metrics)
    : clock_(std::move(clock)), metrics_(std::move(metrics)) {
  if (metrics_) {
    published_ = metrics_->counter("mvcc.snapshots_published");
    acquired_ = metrics_->counter("mvcc.snapshots_acquired");
    reclaimed_ = metrics_->counter("mvcc.snapshots_reclaimed");
    live_gauge_ = metrics_->gauge("mvcc.live_snapshots");
    oldest_age_ = metrics_->gauge("mvcc.oldest_snapshot_age_micros");
  }
}

uint64_t SnapshotTracker::OnPublish() {
  Timestamp now = clock_ ? clock_->NowMicros() : 0;
  uint64_t seq;
  {
    MutexLock lock(mu_);
    seq = next_seq_++;
    live_[seq] = now;
  }
  MetricAdd(published_);
  return seq;
}

void SnapshotTracker::OnReclaim(uint64_t seq) {
  {
    MutexLock lock(mu_);
    live_.erase(seq);
  }
  MetricAdd(reclaimed_);
}

void SnapshotTracker::OnAcquire() { MetricAdd(acquired_); }

void SnapshotTracker::RefreshGauges() {
  int64_t live_count;
  int64_t oldest_age = 0;
  {
    MutexLock lock(mu_);
    live_count = static_cast<int64_t>(live_.size());
    if (!live_.empty() && clock_) {
      Timestamp now = clock_->NowMicros();
      Timestamp oldest = live_.begin()->second;  // seqs publish in time order
      if (now > oldest) oldest_age = static_cast<int64_t>(now - oldest);
    }
  }
  if (live_gauge_) live_gauge_->Set(live_count);
  if (oldest_age_) oldest_age_->Set(oldest_age);
}

uint64_t SnapshotTracker::live() const {
  MutexLock lock(mu_);
  return live_.size();
}

// ---------------------------------------------------------------------------
// VersionedCharList

const SnapChar& VersionedCharList::LiveAt(size_t pos) const {
  assert(pos < live_size());
  const SnapChar* out = nullptr;
  VisitLive(*root_, &pos, [&](const SnapChar& c) {
    out = &c;
    return false;
  });
  assert(out != nullptr && "live index out of sync");
  return *out;
}

void VersionedCharList::Clear() {
  root_.reset();
  unfrozen_.clear();
}

void VersionedCharList::Rebuild(std::vector<SnapChar> chain) {
  Clear();
  if (chain.empty()) return;
  Nodes level;
  for (size_t off = 0; off < chain.size(); off += kSegTarget) {
    size_t end = std::min(off + kSegTarget, chain.size());
    auto seg = std::make_shared<SnapSegment>();
    seg->chars.assign(std::make_move_iterator(chain.begin() + off),
                      std::make_move_iterator(chain.begin() + end));
    Recount(seg.get());
    unfrozen_.push_back(seg);
    level.push_back(std::move(seg));
  }
  while (level.size() > 1) level = Group(std::move(level));
  root_ = std::move(level.front());
}

VersionedCharList::Nodes VersionedCharList::Group(Nodes nodes) {
  const size_t parts = (nodes.size() + kNodeTarget - 1) / kNodeTarget;
  Nodes parents;
  parents.reserve(parts);
  size_t begin = 0;
  for (size_t p = 0; p < parts; ++p) {
    // Even shares: the first nodes.size() % parts parents take one more.
    size_t end = begin + nodes.size() / parts + (p < nodes.size() % parts);
    auto parent = std::make_shared<SnapInterior>();
    parent->height = nodes[begin]->height + 1;
    parent->children.assign(std::make_move_iterator(nodes.begin() + begin),
                            std::make_move_iterator(nodes.begin() + end));
    Recount(parent.get());
    unfrozen_.push_back(parent);
    parents.push_back(std::move(parent));
    begin = end;
  }
  return parents;
}

void VersionedCharList::GrowRoot(Nodes pieces) {
  while (!pieces.empty()) {
    pieces.insert(pieces.begin(), std::move(root_));
    if (pieces.size() <= kMaxFanout) {
      auto root = std::make_shared<SnapInterior>();
      root->height = pieces.front()->height + 1;
      root->children = std::move(pieces);
      Recount(root.get());
      unfrozen_.push_back(root);
      root_ = std::move(root);
      return;
    }
    pieces = Group(std::move(pieces));
    root_ = std::move(pieces.front());
    pieces.erase(pieces.begin());
  }
}

SnapSegment* VersionedCharList::OwnSegment(NodeRef* slot) {
  const SnapSegment& seg = AsSegment(**slot);
  if (!seg.frozen) return const_cast<SnapSegment*>(&seg);
  // The clone's text is left empty: Freeze fills it.
  auto clone = std::make_shared<SnapSegment>();
  static_cast<SnapNode&>(*clone) = seg;
  clone->frozen = false;
  clone->chars = seg.chars;
  SnapSegment* out = clone.get();
  unfrozen_.push_back(clone);
  *slot = std::move(clone);
  return out;
}

SnapInterior* VersionedCharList::OwnInterior(NodeRef* slot) {
  const SnapInterior& node = AsInterior(**slot);
  if (!node.frozen) return const_cast<SnapInterior*>(&node);
  // The clone's text is left empty: Freeze fills it.
  auto clone = std::make_shared<SnapInterior>();
  static_cast<SnapNode&>(*clone) = node;
  clone->frozen = false;
  clone->children = node.children;
  SnapInterior* out = clone.get();
  unfrozen_.push_back(clone);
  *slot = std::move(clone);
  return out;
}

void VersionedCharList::InsertRun(size_t live_pos,
                                  const std::vector<SnapChar>& run) {
  assert(live_pos <= live_size());
  if (run.empty()) return;
  SnapNode add;
  for (const SnapChar& c : run) Count(c, &add);
  if (root_ == nullptr) {
    auto seg = std::make_shared<SnapSegment>();
    unfrozen_.push_back(seg);
    root_ = std::move(seg);
  }
  // Physical insertion point: directly after the live char at live_pos-1,
  // or the physical head for live_pos == 0 — exactly where the record layer
  // links the new characters.
  GrowRoot(InsertIn(&root_, live_pos == 0 ? SIZE_MAX : live_pos - 1, run,
                    add));
}

VersionedCharList::Nodes VersionedCharList::InsertIn(
    NodeRef* slot, size_t after, const std::vector<SnapChar>& run,
    const SnapNode& add) {
  if ((*slot)->height > 0) {
    SnapInterior* node = OwnInterior(slot);
    Count(add, node);
    size_t i = 0;
    if (after != SIZE_MAX) {
      while (after >= node->children[i]->live) {
        after -= node->children[i++]->live;
      }
    }
    Nodes pieces = InsertIn(&node->children[i], after, run, add);
    if (pieces.empty()) return {};
    node->children.insert(node->children.begin() + i + 1,
                          std::make_move_iterator(pieces.begin()),
                          std::make_move_iterator(pieces.end()));
    if (node->children.size() <= kMaxFanout) return {};
    Nodes parts = Group(std::move(node->children));
    *slot = std::move(parts.front());
    parts.erase(parts.begin());
    return parts;
  }
  SnapSegment* seg = OwnSegment(slot);
  size_t at = 0;
  if (after != SIZE_MAX) {
    for (;; ++at) {
      if (seg->chars[at].deleted != 0) continue;
      if (after == 0) break;
      --after;
    }
    ++at;  // just past the live char `after`
  }
  seg->chars.insert(seg->chars.begin() + at, run.begin(), run.end());
  Count(add, seg);
  if (seg->chars.size() <= 2 * kSegTarget) return {};
  // Clone-split into kSegTarget-char leaves; this one keeps the first.
  Nodes pieces;
  for (size_t off = kSegTarget; off < seg->chars.size(); off += kSegTarget) {
    size_t end = std::min(off + kSegTarget, seg->chars.size());
    auto piece = std::make_shared<SnapSegment>();
    piece->chars.assign(std::make_move_iterator(seg->chars.begin() + off),
                        std::make_move_iterator(seg->chars.begin() + end));
    Recount(piece.get());
    unfrozen_.push_back(piece);
    pieces.push_back(std::move(piece));
  }
  seg->chars.resize(kSegTarget);
  seg->chars.shrink_to_fit();  // a paste may have grown it a hundredfold
  Recount(seg);
  return pieces;
}

// Walks the subtree at `slot` in physical order. `enter(node)` decides
// whether to descend into a child (the root of the walk is always
// entered); `edit(seg, own)` sees each entered leaf and calls `own()` for
// the writable copy before its first write. Only leaves that called
// `own()` and their paths are cloned. Aggregates are brought up to date,
// and leaves and interior nodes left without records are unlinked (the
// slot becomes null). Returns whether anything under `slot` changed.
template <typename Enter, typename Edit>
bool VersionedCharList::EditLeaves(NodeRef* slot, Enter& enter, Edit& edit) {
  if ((*slot)->height == 0) {
    const NodeRef keep = *slot;  // `edit` reads it after own() replaced it
    SnapSegment* seg = nullptr;
    edit(AsSegment(*keep), [&] {
      if (seg == nullptr) seg = OwnSegment(slot);
      return seg;
    });
    if (seg == nullptr) return false;
    Recount(seg);
    if (seg->chars.empty()) slot->reset();
    return true;
  }
  SnapInterior* node = nullptr;
  bool removed = false;  // some child lost records
  for (size_t i = 0; i < AsInterior(**slot).children.size(); ++i) {
    NodeRef child = AsInterior(**slot).children[i];
    if (!enter(*child)) continue;
    const size_t live = child->live;
    const size_t bytes = child->bytes;
    const size_t records = child->records;
    if (!EditLeaves(&child, enter, edit)) continue;
    if (node == nullptr) node = OwnInterior(slot);
    // Unsigned wrap-around makes these exact for shrinking subtrees too.
    node->live += (child ? child->live : 0) - live;
    node->bytes += (child ? child->bytes : 0) - bytes;
    removed |= (child ? child->records : 0) != records;
    node->children[i] = std::move(child);
  }
  if (node == nullptr) return false;
  if (removed) {
    std::erase(node->children, nullptr);
    if (node->children.empty()) {
      slot->reset();
    } else {
      Recount(node);
    }
  }
  return true;
}

std::vector<uint64_t> VersionedCharList::TombstoneRange(size_t live_pos,
                                                        size_t len,
                                                        Version deleted) {
  assert(live_pos + len <= live_size());
  std::vector<uint64_t> ids;
  if (len == 0) return ids;
  ids.reserve(len);
  const size_t end = live_pos + len;
  size_t offset = 0;  // live chars before the next node the walk reaches
  auto enter = [&](const SnapNode& node) {
    if (offset < end && offset + node.live > live_pos) return true;
    offset += node.live;
    return false;
  };
  auto edit = [&](const SnapSegment&, auto own) {
    for (SnapChar& c : own()->chars) {
      if (c.deleted != 0) continue;
      if (offset >= live_pos && offset < end) {
        c.deleted = deleted;
        ids.push_back(c.id);
      }
      ++offset;
    }
  };
  EditLeaves(&root_, enter, edit);
  assert(ids.size() == len);
  return ids;
}

size_t VersionedCharList::SetDeleted(std::vector<uint64_t> ids,
                                     Version deleted) {
  if (root_ == nullptr || ids.empty()) return 0;
  std::sort(ids.begin(), ids.end());
  size_t changed = 0;
  auto enter = [&](const SnapNode& node) {
    auto it = std::lower_bound(ids.begin(), ids.end(), node.min_id);
    return it != ids.end() && *it <= node.max_id;
  };
  auto edit = [&](const SnapSegment& seg, auto own) {
    for (size_t i = 0; i < seg.chars.size(); ++i) {
      const SnapChar& c = seg.chars[i];
      if ((c.deleted == 0) == (deleted == 0)) continue;  // already there
      if (!std::binary_search(ids.begin(), ids.end(), c.id)) continue;
      own()->chars[i].deleted = deleted;
      ++changed;
    }
  };
  EditLeaves(&root_, enter, edit);
  return changed;
}

uint64_t VersionedCharList::PurgeBelow(Version before) {
  if (root_ == nullptr) return 0;
  uint64_t purged = 0;
  // Only subtrees holding tombstones can hold purgeable ones.
  auto enter = [](const SnapNode& node) { return node.records > node.live; };
  auto edit = [&](const SnapSegment& seg, auto own) {
    auto purgeable = [&](const SnapChar& c) {
      return c.deleted != 0 && c.deleted <= before;
    };
    if (std::none_of(seg.chars.begin(), seg.chars.end(), purgeable)) return;
    purged += std::erase_if(own()->chars, purgeable);
  };
  EditLeaves(&root_, enter, edit);
  // Interior nodes are never merged; a root left with one child hands the
  // root over to it.
  while (root_ != nullptr && root_->height > 0 &&
         AsInterior(*root_).children.size() == 1) {
    NodeRef child = AsInterior(*root_).children.front();
    root_ = std::move(child);
  }
  return purged;
}

std::shared_ptr<const SnapNode> VersionedCharList::Freeze() {
  // Leaves first: a bottom interior node's text is made of theirs.
  for (const NodeRef& ref : unfrozen_) {
    if (ref->height != 0) continue;
    auto* seg = const_cast<SnapSegment*>(&AsSegment(*ref));
    seg->text.clear();
    seg->text.reserve(seg->bytes);
    for (const SnapChar& c : seg->chars) {
      if (c.deleted == 0) AppendUtf8(&seg->text, c.cp);
    }
  }
  for (const NodeRef& ref : unfrozen_) {
    if (ref->height == 1) {
      auto* node = const_cast<SnapInterior*>(&AsInterior(*ref));
      node->text.clear();
      node->text.reserve(node->bytes);
      for (const auto& child : node->children) {
        node->text += AsSegment(*child).text;
      }
    }
    const_cast<SnapNode*>(ref.get())->frozen = true;
  }
  unfrozen_.clear();
  return root_;
}

}  // namespace tendax
