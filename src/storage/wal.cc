#include "storage/wal.h"

#include "util/checksum.h"
#include "util/coding.h"
#include "util/logging.h"

namespace tendax {

namespace {

bool IsLogType(uint8_t b) {
  switch (static_cast<LogType>(b)) {
    case LogType::kBegin:
    case LogType::kCommit:
    case LogType::kAbort:
    case LogType::kUpdate:
    case LogType::kCompensation:
    case LogType::kCheckpointBegin:
    case LogType::kCheckpointEnd:
      return true;
  }
  return false;
}

bool IsUpdateOp(uint8_t b) {
  switch (static_cast<UpdateOp>(b)) {
    case UpdateOp::kInsert:
    case UpdateOp::kUpdate:
    case UpdateOp::kDelete:
      return true;
  }
  return false;
}

// Calls `fn(lsn, payload)` on each frame of `input` in order, where `lsn` is
// the payload's leading varint. Stops at a torn or checksum-corrupt frame,
// at an LSN of 0 or one that breaks the sequence (LSNs are assigned
// contiguously and Reset() keeps numbering, so such a frame is trash), or
// when `fn` returns false. Returns the next LSN after the last frame
// visited, 1 when none was.
template <typename Fn>
Lsn WalkFrames(Slice input, Fn fn) {
  Lsn next = kInvalidLsn;
  while (input.size() >= 8) {
    const uint32_t len = DecodeFixed32(input.data());
    const uint32_t crc = DecodeFixed32(input.data() + 4);
    if (input.size() - 8 < len) break;  // torn tail
    Slice payload(input.data() + 8, len);
    if (Fnv1a32(payload.data(), payload.size()) != crc) break;  // corrupt
    Slice head = payload;
    uint64_t lsn;
    if (!GetVarint64(&head, &lsn) || lsn == kInvalidLsn) break;
    if (next != kInvalidLsn && lsn != next) break;
    if (!fn(lsn, payload)) break;
    next = lsn + 1;
    input.remove_prefix(8 + len);
  }
  return next == kInvalidLsn ? 1 : next;
}

}  // namespace

void LogRecord::EncodeTo(std::string* dst) const {
  PutVarint64(dst, lsn);
  PutVarint64(dst, prev_lsn);
  PutVarint64(dst, txn.value);
  dst->push_back(static_cast<char>(type));
  if (type == LogType::kUpdate || type == LogType::kCompensation) {
    dst->push_back(static_cast<char>(op));
    PutVarint64(dst, table_id);
    PutVarint64(dst, rid);
    PutLengthPrefixed(dst, before);
    PutLengthPrefixed(dst, after);
    PutVarint64(dst, undo_next_lsn);
  } else if (type == LogType::kCheckpointEnd) {
    PutVarint64(dst, checkpoint_begin_lsn);
    PutVarint64(dst, checkpoint_redo_lsn);
    PutVarint64(dst, att.size());
    for (const CheckpointTxnEntry& e : att) {
      PutVarint64(dst, e.txn);
      PutVarint64(dst, e.first_lsn);
      PutVarint64(dst, e.last_lsn);
    }
    PutVarint64(dst, dpt.size());
    for (const CheckpointPageEntry& e : dpt) {
      PutVarint64(dst, e.page);
      PutVarint64(dst, e.rec_lsn);
    }
  }
}

bool LogRecord::DecodeFrom(Slice input, LogRecord* out) {
  uint64_t lsn, prev, txn;
  if (!GetVarint64(&input, &lsn)) return false;
  if (!GetVarint64(&input, &prev)) return false;
  if (!GetVarint64(&input, &txn)) return false;
  // An unknown type or op byte is trash, rejected exactly like a torn
  // record: the frame passed its checksum, but nothing can interpret it.
  if (input.empty() || !IsLogType(static_cast<uint8_t>(input[0]))) {
    return false;
  }
  auto type = static_cast<LogType>(input[0]);
  input.remove_prefix(1);
  out->lsn = lsn;
  out->prev_lsn = prev;
  out->txn = TxnId(txn);
  out->type = type;
  if (type == LogType::kUpdate || type == LogType::kCompensation) {
    if (input.empty() || !IsUpdateOp(static_cast<uint8_t>(input[0]))) {
      return false;
    }
    out->op = static_cast<UpdateOp>(input[0]);
    input.remove_prefix(1);
    Slice before, after;
    if (!GetVarint64(&input, &out->table_id)) return false;
    if (!GetVarint64(&input, &out->rid)) return false;
    if (!GetLengthPrefixed(&input, &before)) return false;
    if (!GetLengthPrefixed(&input, &after)) return false;
    if (!GetVarint64(&input, &out->undo_next_lsn)) return false;
    out->before = before.ToString();
    out->after = after.ToString();
  } else if (type == LogType::kCheckpointEnd) {
    uint64_t n;
    if (!GetVarint64(&input, &out->checkpoint_begin_lsn)) return false;
    if (!GetVarint64(&input, &out->checkpoint_redo_lsn)) return false;
    if (!GetVarint64(&input, &n)) return false;
    // Each entry is at least one byte per field; a count past the remaining
    // input is malformed (and guards the reserve against fuzzed payloads).
    if (n > input.size()) return false;
    out->att.clear();
    out->att.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      CheckpointTxnEntry e;
      if (!GetVarint64(&input, &e.txn)) return false;
      if (!GetVarint64(&input, &e.first_lsn)) return false;
      if (!GetVarint64(&input, &e.last_lsn)) return false;
      out->att.push_back(e);
    }
    if (!GetVarint64(&input, &n)) return false;
    if (n > input.size()) return false;
    out->dpt.clear();
    out->dpt.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      CheckpointPageEntry e;
      if (!GetVarint64(&input, &e.page)) return false;
      if (!GetVarint64(&input, &e.rec_lsn)) return false;
      out->dpt.push_back(e);
    }
  }
  return true;
}

Wal::Wal(std::shared_ptr<LogStorage> storage, MetricsRegistry* metrics,
         uint64_t segment_bytes)
    : storage_(std::move(storage)), segment_bytes_(segment_bytes) {
  if (metrics != nullptr) {
    m_appends_ = metrics->counter("wal.appends");
    m_rotations_ = metrics->counter("wal.rotations");
    m_segments_ = metrics->gauge("wal.segments");
    m_truncated_bytes_ = metrics->gauge("wal.truncated_bytes");
    m_syncs_ = metrics->counter("wal.syncs");
    m_commits_ = metrics->counter("wal.commits");
    m_failed_flushes_ = metrics->counter("wal.failed_flushes");
    m_flush_micros_ = metrics->histogram("wal.flush_micros");
    m_commit_flush_micros_ = metrics->histogram("wal.commit_flush_micros");
  }
  // Continue LSN numbering after any records already in the log. The
  // per-segment frame walk rebuilds both the LSN cursor and the segment
  // spans the truncation logic needs; only recovery decodes records. Only
  // the last segment may carry a torn tail (appends never touch sealed
  // segments), so a segment that breaks the sequence marks itself and
  // everything after it untrustworthy.
  Lsn next = 1;
  {
    MutexLock lock(mu_);
    bool trusted = true;
    for (uint64_t id : storage_->SegmentIds()) {
      SegmentSpan span;
      std::string part;
      Lsn first = kInvalidLsn;
      Lsn end = 1;
      if (trusted && storage_->ReadSegment(id, &part).ok()) {
        end = WalkFrames(Slice(part), [&](Lsn lsn, Slice) {
          if (first == kInvalidLsn) first = lsn;
          return true;
        });
      } else {
        trusted = false;
      }
      if (first != kInvalidLsn) {
        if (next != 1 && first != next) {
          // Discontiguous across the segment boundary: treat this segment
          // and everything after it as trash (span unknown => retained).
          trusted = false;
          segment_spans_[id] = SegmentSpan{};
          continue;
        }
        span.first = first;
        span.last = end - 1;
        next = end;
      } else if (trusted) {
        // A sealed-empty segment: holds no records, safe to truncate once
        // anything newer is truncatable.
        span.first = next;
        span.last = next - 1;
      }
      segment_spans_[id] = span;
    }
    // The current segment is open-ended regardless of what the scan saw.
    SegmentSpan& current = segment_spans_[storage_->current_segment()];
    if (current.first == kInvalidLsn) current.first = next;
    current.last = kInvalidLsn;
    next_lsn_ = next;
    flushed_lsn_ = next - 1;
    MetricSet(m_segments_, static_cast<int64_t>(segment_spans_.size()));
  }
}

Lsn Wal::Append(LogRecord* rec) {
  MutexLock lock(mu_);
  rec->lsn = next_lsn_++;
  std::string payload;
  rec->EncodeTo(&payload);
  PutFixed32(&pending_, static_cast<uint32_t>(payload.size()));
  PutFixed32(&pending_, Fnv1a32(payload.data(), payload.size()));
  pending_.append(payload);
  MetricAdd(m_appends_);
  return rec->lsn;
}

Status Wal::Flush(Lsn up_to) { return FlushInternal(up_to); }

Status Wal::FlushInternal(Lsn up_to) {
  MutexLock l(mu_);
  for (;;) {
    if (up_to <= flushed_lsn_) return Status::OK();
    if (!flush_in_flight_) break;
    flush_cv_.Wait(l);
  }
  flush_in_flight_ = true;
  // Armed only after the already-durable early return above, so the
  // histogram measures physical flushes; RAII covers both the append-failed
  // and sync-failed exits below.
  ScopedTimer flush_timer(m_flush_micros_);
  std::string batch;
  batch.swap(pending_);
  const Lsn target = next_lsn_ - 1;
  l.Unlock();

  // Storage I/O runs without mu_ so appenders keep flowing during a slow
  // fsync; flush_in_flight_ keeps the batches themselves serialized.
  Status st = Status::OK();
  if (!batch.empty()) st = storage_->Append(batch);
  const bool appended = st.ok();
  if (appended) st = storage_->Sync();

  l.Lock();
  if (appended) {
    // The bytes reached storage even if the Sync failed; a retry only needs
    // to Sync again, so the batch stays out of pending_.
    MetricAdd(m_syncs_);
    if (st.ok() && target > flushed_lsn_) flushed_lsn_ = target;
    if (st.ok() && segment_bytes_ > 0 &&
        storage_->SegmentBytes(storage_->current_segment()) >=
            segment_bytes_) {
      // Size-based rotation. Safe here: we still own the flight, so no
      // other flush can be mid-I/O against the old segment. Failure is
      // benign — appends simply keep landing in the oversized segment.
      (void)RotateLocked(flushed_lsn_);
    }
  } else {
    // Nothing new became durable; put the batch back ahead of any records
    // appended meanwhile so log order is preserved for the retry.
    pending_.insert(0, batch);
  }
  if (!st.ok()) MetricAdd(m_failed_flushes_);
  flush_in_flight_ = false;
  flush_cv_.NotifyAll();
  return st;
}

Status Wal::FlushAll() {
  Lsn last;
  {
    MutexLock lock(mu_);
    last = next_lsn_ - 1;
  }
  return Flush(last);
}

Status Wal::CommitFlush(Lsn lsn) {
  ScopedTimer commit_timer(m_commit_flush_micros_);
  MetricAdd(m_commits_);
  return FlushInternal(lsn);
}

Lsn Wal::next_lsn() const {
  MutexLock lock(mu_);
  return next_lsn_;
}

Lsn Wal::flushed_lsn() const {
  MutexLock lock(mu_);
  return flushed_lsn_;
}

Status Wal::ReadAll(std::vector<LogRecord>* out) {
  TENDAX_RETURN_IF_ERROR(FlushAll());
  std::string buffer;
  TENDAX_RETURN_IF_ERROR(storage_->ReadAll(&buffer));
  out->clear();
  DecodeLogBuffer(buffer, out);
  return Status::OK();
}

Status Wal::Reset() {
  MutexLock lock(mu_);
  // An in-flight flush would append its batch after the truncate; wait it
  // out so the log restarts empty.
  while (flush_in_flight_) flush_cv_.Wait(lock);
  pending_.clear();
  TENDAX_RETURN_IF_ERROR(storage_->Truncate());
  flushed_lsn_ = next_lsn_ - 1;
  segment_spans_.clear();
  segment_spans_[storage_->current_segment()] =
      SegmentSpan{next_lsn_, kInvalidLsn};
  MetricSet(m_segments_, static_cast<int64_t>(segment_spans_.size()));
  return Status::OK();
}

void Wal::AdvancePast(Lsn lsn) {
  MutexLock lock(mu_);
  TENDAX_CHECK(pending_.empty());
  if (lsn < next_lsn_) return;
  // The current segment holds no record numbered past flushed_lsn_, so an
  // open span that starts at the old cursor starts at the new one.
  SegmentSpan& current = segment_spans_[storage_->current_segment()];
  if (current.first == next_lsn_) current.first = lsn + 1;
  next_lsn_ = lsn + 1;
  flushed_lsn_ = lsn;
}

size_t Wal::SegmentCount() const {
  MutexLock lock(mu_);
  return segment_spans_.size();
}

Status Wal::RotateLocked(Lsn last_lsn) {
  const uint64_t old_id = storage_->current_segment();
  uint64_t new_id = 0;
  TENDAX_RETURN_IF_ERROR(storage_->RotateSegment(&new_id));
  SegmentSpan& old_span = segment_spans_[old_id];
  old_span.last = last_lsn;
  if (old_span.first == kInvalidLsn) old_span.first = last_lsn + 1;
  // Records buffered but not yet flushed (lsn > last_lsn) land in the new
  // segment, so its span opens right after the sealed one.
  segment_spans_[new_id] = SegmentSpan{last_lsn + 1, kInvalidLsn};
  MetricAdd(m_rotations_);
  MetricSet(m_segments_, static_cast<int64_t>(segment_spans_.size()));
  return Status::OK();
}

Status Wal::RotateSegmentNow() {
  TENDAX_RETURN_IF_ERROR(FlushAll());
  MutexLock lock(mu_);
  // Rotation must not interleave with a flush's storage I/O: the flush's
  // Sync would hit the new, empty segment while its batch sits unsynced in
  // the sealed one.
  while (flush_in_flight_) flush_cv_.Wait(lock);
  return RotateLocked(flushed_lsn_);
}

Result<uint64_t> Wal::TruncateSegmentsBelow(Lsn bound) {
  if (bound <= 1) return uint64_t{0};
  MutexLock lock(mu_);
  uint64_t freed = 0;
  // Oldest-first: a crash mid-sweep then leaves a contiguous suffix of the
  // log, which is the shape every reader (recovery, the span rebuild in
  // the constructor) is built to trust.
  while (segment_spans_.size() > 1) {
    auto it = segment_spans_.begin();
    if (it->first == storage_->current_segment()) break;
    const SegmentSpan& span = it->second;
    // An open/unknown span, or one reaching into [bound, ...), must stay.
    if (span.last == kInvalidLsn || span.last >= bound) break;
    uint64_t bytes = 0;
    Status st = storage_->DropSegment(it->first, &bytes);
    if (!st.ok()) {
      MetricSet(m_segments_, static_cast<int64_t>(segment_spans_.size()));
      return st;
    }
    freed += bytes;
    segment_spans_.erase(it);
  }
  MetricSet(m_segments_, static_cast<int64_t>(segment_spans_.size()));
  if (m_truncated_bytes_ != nullptr) {
    m_truncated_bytes_->Add(static_cast<int64_t>(freed));
  }
  return freed;
}

Lsn Wal::DecodeLogBuffer(const std::string& buffer,
                         std::vector<LogRecord>* out) {
  return WalkFrames(Slice(buffer), [out](Lsn, Slice payload) {
    LogRecord rec;
    if (!LogRecord::DecodeFrom(payload, &rec)) return false;
    out->push_back(std::move(rec));
    return true;
  });
}

}  // namespace tendax
