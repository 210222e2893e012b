#include "collab/wire.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "collab/admission.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/deadline.h"

namespace tendax {

const char* CommandKindName(CommandKind kind) {
  switch (kind) {
    case CommandKind::kOpen:
      return "open";
    case CommandKind::kClose:
      return "close";
    case CommandKind::kType:
      return "type";
    case CommandKind::kErase:
      return "erase";
    case CommandKind::kCopy:
      return "copy";
    case CommandKind::kPaste:
      return "paste";
    case CommandKind::kUndo:
      return "undo";
    case CommandKind::kRedo:
      return "redo";
    case CommandKind::kUndoAnyone:
      return "undo_anyone";
    case CommandKind::kRedoAnyone:
      return "redo_anyone";
    case CommandKind::kGetText:
      return "get_text";
    case CommandKind::kSetCursor:
      return "set_cursor";
    case CommandKind::kAnnotate:
      return "annotate";
    case CommandKind::kApplyLayout:
      return "apply_layout";
    case CommandKind::kHeartbeat:
      return "heartbeat";
    case CommandKind::kResume:
      return "resume";
    case CommandKind::kStats:
      return "stats";
    case CommandKind::kGetTextAt:
      return "get_text_at";
  }
  return "?";
}

bool IsDedupExempt(CommandKind kind) {
  switch (kind) {
    case CommandKind::kGetText:
    case CommandKind::kGetTextAt:
    case CommandKind::kResume:
    case CommandKind::kHeartbeat:
    case CommandKind::kStats:
      return true;
    default:
      return false;
  }
}

// Both encoders reserve their worst-case size (the kind or code byte, each
// varint64 at 10 bytes, each length prefix at 5) plus the frame trailer, so
// the body is sealed in place: a 40 KB document is not copied again to gain
// 8 bytes.
std::string EncodeCommand(const EditCommand& command) {
  std::string out;
  out.reserve(1 + 5 * 10 + 2 * 5 + command.text.size() +
              command.extra.size() + kFrameTrailerSize);
  out.push_back(static_cast<char>(command.kind));
  PutVarint64(&out, command.request_id);
  PutVarint64(&out, command.doc.value);
  PutVarint64(&out, command.pos);
  PutVarint64(&out, command.len);
  PutLengthPrefixed(&out, command.text);
  PutLengthPrefixed(&out, command.extra);
  PutVarint64(&out, command.deadline_micros);
  return out;
}

Result<EditCommand> DecodeCommand(Slice bytes) {
  if (bytes.empty()) return Status::Corruption("empty command");
  const uint8_t kind = static_cast<uint8_t>(bytes[0]);
  if (kind < 1 || kind > kCommandKindMax) {
    return Status::InvalidArgument("unknown command kind " +
                                   std::to_string(kind));
  }
  EditCommand command;
  command.kind = static_cast<CommandKind>(kind);
  bytes.remove_prefix(1);
  uint64_t doc;
  Slice text, extra;
  if (!GetVarint64(&bytes, &command.request_id) ||
      !GetVarint64(&bytes, &doc) || !GetVarint64(&bytes, &command.pos) ||
      !GetVarint64(&bytes, &command.len) ||
      !GetLengthPrefixed(&bytes, &text) ||
      !GetLengthPrefixed(&bytes, &extra) ||
      !GetVarint64(&bytes, &command.deadline_micros)) {
    return Status::Corruption("truncated command");
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("trailing bytes after command");
  }
  command.doc = DocumentId(doc);
  command.text = text.ToString();
  command.extra = extra.ToString();
  return command;
}

std::string EncodeResponse(const WireResponse& response) {
  std::string out;
  out.reserve(1 + 2 * 5 + 10 + response.message.size() +
              response.payload.size() + kFrameTrailerSize);
  out.push_back(static_cast<char>(response.code));
  PutLengthPrefixed(&out, response.message);
  PutLengthPrefixed(&out, response.payload);
  PutVarint64(&out, response.retry_after_micros);
  return out;
}

Result<WireResponse> DecodeResponse(Slice bytes) {
  if (bytes.empty()) return Status::Corruption("empty response");
  const uint8_t code = static_cast<uint8_t>(bytes[0]);
  if (code > static_cast<uint8_t>(kStatusCodeMax)) {
    return Status::InvalidArgument("unknown status code " +
                                   std::to_string(code));
  }
  WireResponse response;
  response.code = static_cast<StatusCode>(code);
  bytes.remove_prefix(1);
  Slice message, payload;
  if (!GetLengthPrefixed(&bytes, &message) ||
      !GetLengthPrefixed(&bytes, &payload) ||
      !GetVarint64(&bytes, &response.retry_after_micros)) {
    return Status::Corruption("truncated response");
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("trailing bytes after response");
  }
  response.message = message.ToString();
  response.payload = payload.ToString();
  return response;
}

std::string EncodeEvent(const ChangeEvent& event) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(event.kind));
  PutVarint64(&out, event.doc.value);
  PutVarint64(&out, event.user.value);
  PutVarint64(&out, event.version);
  PutVarint64(&out, event.at);
  PutVarint64(&out, event.anchor.value);
  PutVarint64(&out, event.count);
  PutLengthPrefixed(&out, event.detail);
  return out;
}

Result<ChangeEvent> DecodeEvent(Slice bytes) {
  ChangeEvent event;
  uint32_t kind;
  uint64_t doc, user, anchor;
  Slice detail;
  if (!GetVarint32(&bytes, &kind) || !GetVarint64(&bytes, &doc) ||
      !GetVarint64(&bytes, &user) || !GetVarint64(&bytes, &event.version) ||
      !GetVarint64(&bytes, &event.at) || !GetVarint64(&bytes, &anchor) ||
      !GetVarint64(&bytes, &event.count) ||
      !GetLengthPrefixed(&bytes, &detail)) {
    return Status::Corruption("truncated event");
  }
  if (kind < 1 || kind > kChangeKindMax) {
    return Status::InvalidArgument("unknown change kind " +
                                   std::to_string(kind));
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("trailing bytes after event");
  }
  event.kind = static_cast<ChangeKind>(kind);
  event.doc = DocumentId(doc);
  event.user = UserId(user);
  event.anchor = CharId(anchor);
  event.detail = detail.ToString();
  return event;
}

std::string EncodeEventBatch(const ChangeBatch& batch) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(batch.size()));
  for (const ChangeEvent& event : batch) {
    PutLengthPrefixed(&out, EncodeEvent(event));
  }
  return out;
}

Result<ChangeBatch> DecodeEventBatch(Slice bytes) {
  uint32_t n;
  if (!GetVarint32(&bytes, &n)) return Status::Corruption("truncated batch");
  ChangeBatch batch;
  // The count is attacker-controlled; cap the upfront reservation so a
  // corrupt varint cannot demand a multi-gigabyte allocation. Each entry
  // needs at least one length byte, so a plausible n is bounded by the
  // remaining payload; growth beyond the cap goes through push_back.
  batch.reserve(std::min<size_t>(n, bytes.size()));
  for (uint32_t i = 0; i < n; ++i) {
    Slice one;
    if (!GetLengthPrefixed(&bytes, &one)) {
      return Status::Corruption("truncated batch entry");
    }
    auto event = DecodeEvent(one);
    if (!event.ok()) return event.status();
    batch.push_back(std::move(*event));
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("trailing bytes after batch");
  }
  return batch;
}

std::string EncodeSeqEventBatch(const std::vector<SeqEvent>& events) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(events.size()));
  for (const SeqEvent& entry : events) {
    PutVarint64(&out, entry.seq);
    PutLengthPrefixed(&out, EncodeEvent(entry.event));
  }
  return out;
}

Result<std::vector<SeqEvent>> DecodeSeqEventBatch(Slice bytes) {
  uint32_t n;
  if (!GetVarint32(&bytes, &n)) {
    return Status::Corruption("truncated seq batch");
  }
  std::vector<SeqEvent> events;
  events.reserve(std::min<size_t>(n, bytes.size()));
  for (uint32_t i = 0; i < n; ++i) {
    SeqEvent entry;
    Slice one;
    if (!GetVarint64(&bytes, &entry.seq) || !GetLengthPrefixed(&bytes, &one)) {
      return Status::Corruption("truncated seq batch entry");
    }
    auto event = DecodeEvent(one);
    if (!event.ok()) return event.status();
    entry.event = std::move(*event);
    events.push_back(std::move(entry));
  }
  if (!bytes.empty()) {
    return Status::InvalidArgument("trailing bytes after seq batch");
  }
  return events;
}

namespace {

// Word-at-a-time frame checksum. Four independent 64-bit lanes take
// successive 8-byte words, so their multiplies overlap instead of forming
// one byte-serial chain (over 20x faster than FNV-1a on a 40 KB body).
// Each step `h = (h ^ w) * kMul` is a bijection of h and of w, so damage
// confined to one word — any single bit flip or byte substitution — always
// changes its lane, and with it the XOR of distinctly rotated lanes.
// The tail is zero-padded; seeding every lane with the length keeps a body
// distinct from the same body plus trailing zero bytes.
uint64_t FrameChecksum(const char* data, size_t n) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;  // odd
  uint64_t lane[4] = {n ^ 0x243F6A8885A308D3ull, n ^ 0x13198A2E03707344ull,
                      n ^ 0xA4093822299F31D0ull, n ^ 0x082EFA98EC4E6C89ull};
  auto word = [data](size_t at) {
    uint64_t w;
    memcpy(&w, data + at, sizeof(w));
    return w;
  };
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    lane[0] = (lane[0] ^ word(i)) * kMul;
    lane[1] = (lane[1] ^ word(i + 8)) * kMul;
    lane[2] = (lane[2] ^ word(i + 16)) * kMul;
    lane[3] = (lane[3] ^ word(i + 24)) * kMul;
  }
  size_t k = 0;
  for (; i + 8 <= n; i += 8, ++k) lane[k] = (lane[k] ^ word(i)) * kMul;
  if (i < n) {
    uint64_t tail = 0;
    memcpy(&tail, data + i, n - i);
    lane[k] = (lane[k] ^ tail) * kMul;
  }
  return lane[0] ^ std::rotl(lane[1], 16) ^ std::rotl(lane[2], 32) ^
         std::rotl(lane[3], 48);
}

}  // namespace

std::string SealFrame(std::string body) {
  PutFixed64(&body, FrameChecksum(body.data(), body.size()));
  return body;
}

Result<Slice> OpenFrame(Slice frame) {
  if (frame.size() < kFrameTrailerSize) {
    return Status::Corruption("frame shorter than its checksum");
  }
  const size_t n = frame.size() - kFrameTrailerSize;
  if (DecodeFixed64(frame.data() + n) != FrameChecksum(frame.data(), n)) {
    return Status::Corruption("frame checksum mismatch");
  }
  return Slice(frame.data(), n);
}

Status OpenFrame(std::string* frame) {
  auto body = OpenFrame(Slice(*frame));
  if (!body.ok()) return body.status();
  frame->resize(body->size());
  return Status::OK();
}

Result<std::string> DirectTransport::RoundTrip(const std::string& request) {
  return endpoint_->HandleFrame(request);
}

RemoteEditorEndpoint::RemoteEditorEndpoint(Editor* editor,
                                           size_t dedup_capacity)
    : editor_(editor), dedup_capacity_(dedup_capacity) {
  MetricsRegistry* metrics = editor_->metrics();
  if (metrics != nullptr) {
    m_requests_ = metrics->counter("wire.requests");
    m_decode_errors_ = metrics->counter("wire.decode_errors");
    m_dedup_hits_ = metrics->counter("wire.dedup_hits");
    m_deadline_rejected_ = metrics->counter("admission.deadline_rejected");
    m_dispatch_[0] = metrics->histogram("wire.dispatch_micros.invalid");
    for (uint8_t k = 1; k <= kCommandKindMax; ++k) {
      m_dispatch_[k] = metrics->histogram(
          std::string("wire.dispatch_micros.") +
          CommandKindName(static_cast<CommandKind>(k)));
    }
  }
}

std::string RemoteEditorEndpoint::Handle(Slice command_bytes) {
  MetricAdd(m_requests_);
  // Armed before decode so malformed requests record too; retargeted to the
  // per-command histogram once the kind is known. RAII covers every exit.
  ScopedTimer dispatch_timer(m_dispatch_[0]);
  auto command = DecodeCommand(command_bytes);
  if (!command.ok()) {
    MetricAdd(m_decode_errors_);
    WireResponse bad;
    bad.code = command.status().code();
    bad.message = command.status().message();
    return EncodeResponse(bad);
  }
  dispatch_timer.Redirect(m_dispatch_[static_cast<uint8_t>(command->kind)]);
  // Deadline check happens before any work: an already-expired request is
  // pure waste — the client stopped waiting — so reject it at the door.
  // The remaining budget (if any) is armed as the ambient RequestDeadline
  // around admission + execution so lock waits and scans stay within it.
  uint64_t budget_micros = 0;
  if (command->deadline_micros != 0 && editor_->clock() != nullptr) {
    const uint64_t now = editor_->clock()->NowMicros();
    if (now >= command->deadline_micros) {
      ++deadline_rejected_;
      MetricAdd(m_deadline_rejected_);
      WireResponse expired;
      expired.code = StatusCode::kDeadlineExceeded;
      expired.message = "deadline expired before dispatch";
      return EncodeResponse(expired);
    }
    budget_micros = command->deadline_micros - now;
  }
  // At-most-once execution: a retried command (same idempotency key)
  // returns the cached response instead of running again. Reads and session
  // upkeep are exempt — they are idempotent by construction and must
  // reflect current state, never a cached snapshot of it.
  const bool dedupable =
      command->request_id != 0 && !IsDedupExempt(command->kind);
  if (dedupable) {
    auto it = dedup_.find(command->request_id);
    if (it != dedup_.end()) {
      ++dedup_hits_;
      MetricAdd(m_dedup_hits_);
      return it->second;
    }
  }
  std::string encoded;
  {
    ScopedRequestDeadline scoped_deadline(budget_micros);
    // Admission sits after the dedup lookup (a cached answer costs nothing
    // and must stay reachable even under shed) and inside the deadline
    // scope (queue wait counts against the request's budget).
    AdmissionController* admission = editor_->admission();
    AdmissionController::Pass pass(admission,
                                   ClassifyCommand(command->kind));
    const auto& ticket = pass.ticket();
    if (!ticket.status.ok()) {
      WireResponse refused;
      refused.code = ticket.status.code();
      refused.message = ticket.status.message();
      refused.retry_after_micros = ticket.retry_after_micros;
      return EncodeResponse(refused);
    }
    encoded = EncodeResponse(Execute(*command));
  }
  if (dedupable) {
    if (dedup_.size() >= dedup_capacity_ && !dedup_order_.empty()) {
      dedup_.erase(dedup_order_.front());
      dedup_order_.pop_front();
    }
    dedup_.emplace(command->request_id, encoded);
    dedup_order_.push_back(command->request_id);
  }
  return encoded;
}

Result<std::string> RemoteEditorEndpoint::HandleFrame(Slice sealed_request) {
  auto body = OpenFrame(sealed_request);
  // A damaged request frame is indistinguishable from a lost one: the
  // caller must surface a timeout so the client retries.
  if (!body.ok()) return body.status();
  return SealFrame(Handle(*body));
}

WireResponse RemoteEditorEndpoint::Execute(const EditCommand& command) {
  WireResponse response;
  auto fail = [&response](const Status& st) {
    response.code = st.code();
    response.message = st.message();
  };
  switch (command.kind) {
    case CommandKind::kOpen:
      fail(editor_->Open(command.doc));
      break;
    case CommandKind::kClose:
      fail(editor_->Close(command.doc));
      break;
    case CommandKind::kType:
      fail(editor_->Type(command.doc, command.pos, command.text));
      break;
    case CommandKind::kErase:
      fail(editor_->Erase(command.doc, command.pos, command.len));
      break;
    case CommandKind::kCopy: {
      auto clip = editor_->CopyRange(command.doc, command.pos, command.len);
      if (!clip.ok()) {
        fail(clip.status());
        break;
      }
      clipboards_.push_back(std::move(*clip));
      response.payload = std::to_string(clipboards_.size() - 1);
      break;
    }
    case CommandKind::kPaste: {
      size_t handle = 0;
      if (!command.text.empty()) handle = std::stoull(command.text);
      if (handle >= clipboards_.size()) {
        fail(Status::InvalidArgument("unknown clipboard handle"));
        break;
      }
      fail(editor_->PasteAt(command.doc, command.pos, clipboards_[handle]));
      break;
    }
    case CommandKind::kUndo:
      fail(editor_->Undo(command.doc));
      break;
    case CommandKind::kRedo:
      fail(editor_->Redo(command.doc));
      break;
    case CommandKind::kUndoAnyone:
      fail(editor_->UndoAnyone(command.doc));
      break;
    case CommandKind::kRedoAnyone:
      fail(editor_->RedoAnyone(command.doc));
      break;
    case CommandKind::kGetText: {
      auto text = editor_->Text(command.doc);
      if (!text.ok()) {
        fail(text.status());
        break;
      }
      response.payload = std::move(*text);
      break;
    }
    case CommandKind::kSetCursor:
      fail(editor_->SetCursor(command.doc, command.pos));
      break;
    case CommandKind::kAnnotate:
      fail(editor_->Annotate(command.doc, command.pos, command.text)
               .status());
      break;
    case CommandKind::kApplyLayout:
      fail(editor_->ApplyLayout(command.doc, command.pos, command.len,
                                command.text, command.extra));
      break;
    case CommandKind::kHeartbeat:
      fail(editor_->Heartbeat());
      break;
    case CommandKind::kResume: {
      auto events = editor_->ResumeEvents(command.pos);
      if (!events.ok()) {
        fail(events.status());
        break;
      }
      response.payload = EncodeSeqEventBatch(*events);
      break;
    }
    case CommandKind::kStats: {
      auto snapshot = editor_->ServerStats();
      if (!snapshot.ok()) {
        fail(snapshot.status());
        break;
      }
      response.payload = EncodeMetricsSnapshot(*snapshot);
      break;
    }
    case CommandKind::kGetTextAt: {
      auto text = editor_->TextAt(command.doc, command.pos);
      if (!text.ok()) {
        fail(text.status());
        break;
      }
      response.payload = std::move(*text);
      break;
    }
  }
  return response;
}

Result<std::string> RemoteEditorEndpoint::PollEventsWire() {
  auto events = editor_->PollEvents();
  if (!events.ok()) return events.status();
  return EncodeEventBatch(*events);
}

}  // namespace tendax
