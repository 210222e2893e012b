#include "collab/retrying_client.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/clock.h"

namespace tendax {

uint64_t BackoffWindowMicros(uint64_t base, int attempt, uint64_t cap) {
  if (base == 0) return 0;
  if (attempt < 0) attempt = 0;
  // `base << attempt` wraps once the shift pushes the top set bit out, so
  // clamp the exponent first: any shift that cannot fit saturates to cap.
  if (attempt >= std::countl_zero(base)) return cap;
  return std::min(base << attempt, cap);
}

RetryingClient::RetryingClient(WireTransport* transport, RetryOptions options)
    : transport_(transport),
      options_(std::move(options)),
      rng_(options_.seed),
      // Salt keys with the seed so two clients sharing one endpoint (a
      // reconnect) do not collide on key 1, 2, 3, ...
      key_salt_(options_.seed * 0x9E3779B97F4A7C15ULL) {
  if (options_.metrics != nullptr) {
    m_calls_ = options_.metrics->counter("client.calls");
    m_attempts_ = options_.metrics->counter("client.attempts");
    m_retries_ = options_.metrics->counter("client.retries");
    m_timeouts_ = options_.metrics->counter("client.timeouts");
    m_wire_errors_ = options_.metrics->counter("client.wire_errors");
    m_exhausted_ = options_.metrics->counter("client.exhausted");
    m_resyncs_ = options_.metrics->counter("client.resyncs");
    m_unavailable_ = options_.metrics->counter("client.unavailable");
    m_retry_after_honored_ =
        options_.metrics->counter("client.retry_after_honored");
    m_breaker_opens_ = options_.metrics->counter("client.breaker_opens");
    m_breaker_short_circuits_ =
        options_.metrics->counter("client.breaker_short_circuits");
  }
}

Clock* RetryingClient::clock() const {
  if (options_.clock != nullptr) return options_.clock;
  static SystemClock shared;
  return &shared;
}

Result<WireResponse> RetryingClient::Call(EditCommand command) {
  ++stats_.calls;
  MetricAdd(m_calls_);

  // Fail fast while the breaker is open: a server that just shed us will
  // shed us again, and every extra frame feeds the storm. After the
  // cooldown the next call goes through as a half-open probe.
  if (breaker_open_) {
    const uint64_t now = clock()->NowMicros();
    const uint64_t reopen_at =
        breaker_opened_at_ + options_.breaker_cooldown_micros;
    if (now < reopen_at) {
      ++stats_.breaker_short_circuits;
      MetricAdd(m_breaker_short_circuits_);
      WireResponse open;
      open.code = StatusCode::kUnavailable;
      open.message = "circuit breaker open";
      open.retry_after_micros = reopen_at - now;
      return open;
    }
  }

  if (command.request_id == 0 && !IsDedupExempt(command.kind)) {
    command.request_id = key_salt_ ^ ++next_key_;
    if (command.request_id == 0) command.request_id = ++next_key_;
  }
  // The deadline is stamped once per logical command: it spans every retry
  // of this frame, so a frame redelivered after the client gave up arrives
  // already-expired and the server drops it at dispatch.
  if (command.deadline_micros == 0 && options_.default_deadline_micros > 0) {
    command.deadline_micros =
        clock()->NowMicros() + options_.default_deadline_micros;
  }
  const std::string frame = SealFrame(EncodeCommand(command));
  // A nonzero hint from the server replaces the next jittered window — the
  // server can see the whole queue; the client can't.
  uint64_t server_hint = 0;
  Status last_error = Status::IOError("no attempt made");
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      uint64_t wait;
      if (server_hint > 0) {
        wait = server_hint;
        server_hint = 0;
        ++stats_.retry_after_honored;
        MetricAdd(m_retry_after_honored_);
      } else {
        // Full jitter: wait a uniform slice of the current window, which
        // doubles per retry (saturating — see BackoffWindowMicros). Keeps
        // retry storms from synchronizing across clients.
        const uint64_t window =
            BackoffWindowMicros(options_.base_backoff_micros, attempt - 1,
                                options_.max_backoff_micros);
        wait = window > 0 ? 1 + rng_.Uniform(window) : 0;
      }
      stats_.backoff_micros += wait;
      if (options_.sleep_fn) options_.sleep_fn(wait);
      MetricAdd(m_retries_);
    }
    ++stats_.attempts;
    MetricAdd(m_attempts_);
    auto raw = transport_->RoundTrip(frame);
    if (!raw.ok()) {
      last_error = raw.status();
      ++stats_.timeouts;
      MetricAdd(m_timeouts_);
      continue;
    }
    if (Status opened = OpenFrame(&*raw); !opened.ok()) {
      last_error = opened;
      ++stats_.wire_errors;
      MetricAdd(m_wire_errors_);
      continue;
    }
    auto response = DecodeResponse(*raw);
    if (!response.ok()) {
      last_error = response.status();
      ++stats_.wire_errors;
      MetricAdd(m_wire_errors_);
      continue;
    }
    if (response->code == StatusCode::kUnavailable) {
      // The server shed us. Retry on its schedule — unless that keeps
      // happening, in which case open the breaker and stop contributing
      // to the storm.
      ++stats_.unavailable;
      MetricAdd(m_unavailable_);
      if (response->retry_after_micros == 0) {
        ++stats_.unavailable_without_hint;
      }
      ++consecutive_unavailable_;
      if (options_.breaker_threshold > 0 &&
          consecutive_unavailable_ >= options_.breaker_threshold) {
        breaker_open_ = true;
        breaker_opened_at_ = clock()->NowMicros();
        ++stats_.breaker_opens;
        MetricAdd(m_breaker_opens_);
        return std::move(*response);
      }
      if (attempt + 1 >= options_.max_attempts) return std::move(*response);
      server_hint = response->retry_after_micros;
      continue;
    }
    // Any non-shed answer (success or a clean server error) proves the
    // server is responsive again: reset/close the breaker.
    consecutive_unavailable_ = 0;
    breaker_open_ = false;
    return std::move(*response);
  }
  ++stats_.exhausted;
  MetricAdd(m_exhausted_);
  return Status::FromCode(last_error.code(),
                          "retries exhausted: " + last_error.message());
}

namespace {
Status ToStatus(const WireResponse& response) {
  return Status::FromCode(response.code, response.message);
}

EditCommand MakeCommand(CommandKind kind, DocumentId doc, uint64_t pos = 0,
                        uint64_t len = 0, std::string text = "") {
  EditCommand command;
  command.kind = kind;
  command.doc = doc;
  command.pos = pos;
  command.len = len;
  command.text = std::move(text);
  return command;
}
}  // namespace

Status RetryingClient::Open(DocumentId doc) {
  auto r = Call(MakeCommand(CommandKind::kOpen, doc));
  return r.ok() ? ToStatus(*r) : r.status();
}

Status RetryingClient::Close(DocumentId doc) {
  auto r = Call(MakeCommand(CommandKind::kClose, doc));
  return r.ok() ? ToStatus(*r) : r.status();
}

Status RetryingClient::Type(DocumentId doc, uint64_t pos,
                            const std::string& text) {
  auto r = Call(MakeCommand(CommandKind::kType, doc, pos, 0, text));
  return r.ok() ? ToStatus(*r) : r.status();
}

Status RetryingClient::Erase(DocumentId doc, uint64_t pos, uint64_t len) {
  auto r = Call(MakeCommand(CommandKind::kErase, doc, pos, len));
  return r.ok() ? ToStatus(*r) : r.status();
}

Result<std::string> RetryingClient::GetText(DocumentId doc) {
  auto r = Call(MakeCommand(CommandKind::kGetText, doc));
  if (!r.ok()) return r.status();
  if (r->code != StatusCode::kOk) return ToStatus(*r);
  return std::move(r->payload);
}

Result<std::string> RetryingClient::GetTextAt(DocumentId doc,
                                              uint64_t version) {
  auto r = Call(MakeCommand(CommandKind::kGetTextAt, doc, version));
  if (!r.ok()) return r.status();
  if (r->code != StatusCode::kOk) return ToStatus(*r);
  return std::move(r->payload);
}

Status RetryingClient::SetCursor(DocumentId doc, uint64_t pos) {
  auto r = Call(MakeCommand(CommandKind::kSetCursor, doc, pos));
  return r.ok() ? ToStatus(*r) : r.status();
}

Status RetryingClient::Heartbeat() {
  auto r = Call(MakeCommand(CommandKind::kHeartbeat, DocumentId()));
  return r.ok() ? ToStatus(*r) : r.status();
}

Result<MetricsSnapshot> RetryingClient::ServerStats() {
  auto r = Call(MakeCommand(CommandKind::kStats, DocumentId()));
  if (!r.ok()) return r.status();
  if (r->code != StatusCode::kOk) return ToStatus(*r);
  return DecodeMetricsSnapshot(r->payload);
}

Result<RetryingClient::Changes> RetryingClient::PollChanges() {
  auto r = Call(MakeCommand(CommandKind::kResume, DocumentId(), last_seq_));
  if (!r.ok()) return r.status();
  if (r->code != StatusCode::kOk) return ToStatus(*r);
  auto batch = DecodeSeqEventBatch(r->payload);
  if (!batch.ok()) return batch.status();
  Changes out;
  for (SeqEvent& entry : *batch) {
    // The server delivers a contiguous suffix; a gap means events between
    // the cursor and this entry were trimmed server-side.
    if (entry.seq > last_seq_ + 1) out.resync_required = true;
    if (entry.seq > last_seq_) last_seq_ = entry.seq;
    if (entry.event.kind == ChangeKind::kResync) {
      out.resync_required = true;
    } else {
      out.events.push_back(std::move(entry.event));
    }
  }
  if (out.resync_required) {
    ++stats_.resyncs;
    MetricAdd(m_resyncs_);
  }
  return out;
}

}  // namespace tendax
