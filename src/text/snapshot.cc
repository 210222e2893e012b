#include "text/snapshot.h"

#include <algorithm>
#include <cassert>

#include "text/utf8.h"

namespace tendax {

// ---------------------------------------------------------------------------
// CharListSnapshot

CharListSnapshot::CharListSnapshot(
    DocumentInfo info, Version purge_floor,
    std::vector<std::shared_ptr<const SnapSegment>> segments,
    std::shared_ptr<SnapshotTracker> tracker)
    : info_(std::move(info)),
      purge_floor_(purge_floor),
      segments_(std::move(segments)),
      tracker_(std::move(tracker)) {
  if (tracker_) seq_ = tracker_->OnPublish();
}

CharListSnapshot::~CharListSnapshot() {
  if (tracker_) tracker_->OnReclaim(seq_);
}

std::string CharListSnapshot::Text() const {
  size_t bytes = 0;
  for (const auto& seg : segments_) bytes += seg->text.size();
  std::string out;
  out.reserve(bytes);
  for (const auto& seg : segments_) out += seg->text;
  return out;
}

Result<std::string> CharListSnapshot::TextRange(size_t pos, size_t len) const {
  if (pos + len > info_.length) {
    return Status::OutOfRange("text range beyond document length");
  }
  std::string out;
  out.reserve(len);
  size_t skip = pos;
  size_t remaining = len;
  for (const auto& seg : segments_) {
    if (remaining == 0) break;
    if (skip >= seg->live) {
      skip -= seg->live;
      continue;
    }
    for (const SnapChar& c : seg->chars) {
      if (c.deleted != 0) continue;
      if (skip > 0) {
        --skip;
        continue;
      }
      if (remaining == 0) break;
      AppendUtf8(&out, c.cp);
      --remaining;
    }
  }
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
  for (const auto& seg : segments_) {
    for (const SnapChar& c : seg->chars) {
      if (c.inserted <= version && (c.deleted == 0 || c.deleted > version)) {
        AppendUtf8(&out, c.cp);
      }
    }
  }
  return out;
}

Result<SnapChar> CharListSnapshot::LiveAt(size_t pos) const {
  if (pos >= info_.length) {
    return Status::OutOfRange("position beyond document length");
  }
  size_t skip = pos;
  for (const auto& seg : segments_) {
    if (skip >= seg->live) {
      skip -= seg->live;
      continue;
    }
    for (const SnapChar& c : seg->chars) {
      if (c.deleted != 0) continue;
      if (skip == 0) return c;
      --skip;
    }
  }
  return Status::Internal("snapshot live index out of sync");
}

Result<std::vector<SnapChar>> CharListSnapshot::LiveRange(size_t pos,
                                                          size_t len) const {
  if (pos + len > info_.length) {
    return Status::OutOfRange("range beyond document length");
  }
  std::vector<SnapChar> out;
  out.reserve(len);
  size_t skip = pos;
  size_t remaining = len;
  for (const auto& seg : segments_) {
    if (remaining == 0) break;
    for (const SnapChar& c : seg->chars) {
      if (c.deleted != 0) continue;
      if (skip > 0) {
        --skip;
        continue;
      }
      if (remaining == 0) break;
      out.push_back(c);
      --remaining;
    }
  }
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
  assert(pos < live_);
  size_t skip = pos;
  for (const auto& seg : segs_) {
    if (skip >= seg->live) {
      skip -= seg->live;
      continue;
    }
    for (const SnapChar& c : seg->chars) {
      if (c.deleted != 0) continue;
      if (skip == 0) return c;
      --skip;
    }
  }
  // Unreachable while live counts are consistent; keep the compiler happy.
  static const SnapChar kNone{};
  assert(false && "live index out of sync");
  return kNone;
}

void VersionedCharList::Clear() {
  segs_.clear();
  frozen_.clear();
  live_ = 0;
}

void VersionedCharList::Rebuild(std::vector<SnapChar> chain) {
  Clear();
  for (size_t off = 0; off < chain.size(); off += kSegTarget) {
    size_t end = std::min(off + kSegTarget, chain.size());
    auto seg = std::make_shared<SnapSegment>();
    seg->chars.assign(std::make_move_iterator(chain.begin() + off),
                      std::make_move_iterator(chain.begin() + end));
    for (const SnapChar& c : seg->chars) {
      if (c.deleted == 0) ++seg->live;
    }
    live_ += seg->live;
    segs_.push_back(std::move(seg));
    frozen_.push_back(0);
  }
}

SnapSegment* VersionedCharList::Own(size_t idx) {
  if (frozen_[idx]) {
    // The clone's text is left empty: Freeze recomputes it.
    auto clone = std::make_shared<SnapSegment>();
    clone->chars = segs_[idx]->chars;
    clone->live = segs_[idx]->live;
    segs_[idx] = std::move(clone);
    frozen_[idx] = 0;
  }
  return segs_[idx].get();
}

void VersionedCharList::SplitIfOversize(size_t idx) {
  if (segs_[idx]->chars.size() <= 2 * kSegTarget) return;
  SnapSegment* seg = Own(idx);
  std::vector<SnapChar>& v = seg->chars;
  std::vector<std::shared_ptr<SnapSegment>> pieces;
  for (size_t off = 0; off < v.size(); off += kSegTarget) {
    size_t end = std::min(off + kSegTarget, v.size());
    auto piece = std::make_shared<SnapSegment>();
    piece->chars.assign(std::make_move_iterator(v.begin() + off),
                        std::make_move_iterator(v.begin() + end));
    for (const SnapChar& c : piece->chars) {
      if (c.deleted == 0) ++piece->live;
    }
    pieces.push_back(std::move(piece));
  }
  segs_.erase(segs_.begin() + idx);
  frozen_.erase(frozen_.begin() + idx);
  segs_.insert(segs_.begin() + idx, pieces.begin(), pieces.end());
  frozen_.insert(frozen_.begin() + idx, pieces.size(), 0);
}

void VersionedCharList::DropEmptySegments() {
  for (size_t s = segs_.size(); s-- > 0;) {
    if (segs_[s]->chars.empty()) {
      segs_.erase(segs_.begin() + s);
      frozen_.erase(frozen_.begin() + s);
    }
  }
}

void VersionedCharList::InsertRun(size_t live_pos,
                                  const std::vector<SnapChar>& run) {
  assert(live_pos <= live_);
  if (run.empty()) return;
  size_t run_live = 0;
  for (const SnapChar& c : run) {
    if (c.deleted == 0) ++run_live;
  }

  if (segs_.empty()) {
    auto seg = std::make_shared<SnapSegment>();
    seg->chars = run;
    seg->live = run_live;
    segs_.push_back(std::move(seg));
    frozen_.push_back(0);
    live_ += run_live;
    SplitIfOversize(0);
    return;
  }

  // Physical insertion point: directly after the live char at live_pos-1,
  // or the physical head for live_pos == 0 — exactly where the record layer
  // links the new characters.
  size_t seg_idx = 0;
  size_t char_idx = 0;
  if (live_pos > 0) {
    size_t skip = live_pos - 1;  // find the (live_pos-1)-th live char
    bool found = false;
    for (size_t s = 0; s < segs_.size() && !found; ++s) {
      if (skip >= segs_[s]->live) {
        skip -= segs_[s]->live;
        continue;
      }
      const auto& chars = segs_[s]->chars;
      for (size_t i = 0; i < chars.size(); ++i) {
        if (chars[i].deleted != 0) continue;
        if (skip == 0) {
          seg_idx = s;
          char_idx = i + 1;
          found = true;
          break;
        }
        --skip;
      }
    }
    assert(found);
  }

  SnapSegment* seg = Own(seg_idx);
  seg->chars.insert(seg->chars.begin() + char_idx, run.begin(), run.end());
  seg->live += run_live;
  live_ += run_live;
  SplitIfOversize(seg_idx);
}

void VersionedCharList::TombstoneRange(size_t live_pos, size_t len,
                                       Version deleted) {
  assert(live_pos + len <= live_);
  size_t skip = live_pos;
  size_t remaining = len;
  for (size_t s = 0; s < segs_.size() && remaining > 0; ++s) {
    if (skip >= segs_[s]->live) {
      skip -= segs_[s]->live;
      continue;
    }
    SnapSegment* seg = Own(s);
    for (SnapChar& c : seg->chars) {
      if (c.deleted != 0) continue;
      if (skip > 0) {
        --skip;
        continue;
      }
      if (remaining == 0) break;
      c.deleted = deleted;
      --seg->live;
      --remaining;
    }
  }
  assert(remaining == 0);
  live_ -= len;
}

bool VersionedCharList::TombstoneById(uint64_t id, Version deleted) {
  for (size_t s = 0; s < segs_.size(); ++s) {
    const auto& chars = segs_[s]->chars;
    for (size_t i = 0; i < chars.size(); ++i) {
      if (chars[i].id == id && chars[i].deleted == 0) {
        SnapSegment* seg = Own(s);
        seg->chars[i].deleted = deleted;
        --seg->live;
        --live_;
        return true;
      }
    }
  }
  return false;
}

bool VersionedCharList::ResurrectById(uint64_t id) {
  for (size_t s = 0; s < segs_.size(); ++s) {
    const auto& chars = segs_[s]->chars;
    for (size_t i = 0; i < chars.size(); ++i) {
      if (chars[i].id == id && chars[i].deleted != 0) {
        SnapSegment* seg = Own(s);
        seg->chars[i].deleted = 0;
        ++seg->live;
        ++live_;
        return true;
      }
    }
  }
  return false;
}

uint64_t VersionedCharList::PurgeBelow(Version before) {
  uint64_t purged = 0;
  for (size_t s = 0; s < segs_.size(); ++s) {
    bool any = false;
    for (const SnapChar& c : segs_[s]->chars) {
      if (c.deleted != 0 && c.deleted <= before) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    SnapSegment* seg = Own(s);
    size_t before_n = seg->chars.size();
    std::erase_if(seg->chars, [&](const SnapChar& c) {
      return c.deleted != 0 && c.deleted <= before;
    });
    purged += before_n - seg->chars.size();
  }
  DropEmptySegments();
  return purged;
}

std::vector<std::shared_ptr<const SnapSegment>> VersionedCharList::Freeze() {
  for (size_t s = 0; s < segs_.size(); ++s) {
    if (frozen_[s]) continue;
    SnapSegment* seg = segs_[s].get();
    seg->text.clear();
    seg->text.reserve(seg->live);
    for (const SnapChar& c : seg->chars) {
      if (c.deleted == 0) AppendUtf8(&seg->text, c.cp);
    }
    frozen_[s] = 1;
  }
  return std::vector<std::shared_ptr<const SnapSegment>>(segs_.begin(),
                                                         segs_.end());
}

}  // namespace tendax
