#ifndef TENDAX_COLLAB_WIRE_H_
#define TENDAX_COLLAB_WIRE_H_

#include <array>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "collab/editor.h"
#include "txn/events.h"
#include "util/result.h"
#include "util/slice.h"

namespace tendax {

/// Editor gestures as wire messages. The original demo ran GUI editors on
/// Windows, Linux and macOS against one database over a LAN; this codec is
/// the reproduction's stand-in for that protocol: every gesture and every
/// change notification round-trips through a compact binary encoding, so a
/// remote editor only ever exchanges bytes with the server.
enum class CommandKind : uint8_t {
  kOpen = 1,
  kClose = 2,
  kType = 3,
  kErase = 4,
  kCopy = 5,       // returns a clipboard handle held server-side
  kPaste = 6,
  kUndo = 7,
  kRedo = 8,
  kUndoAnyone = 9,
  kRedoAnyone = 10,
  kGetText = 11,
  kSetCursor = 12,
  kAnnotate = 13,
  kApplyLayout = 14,
  kHeartbeat = 15,  // lease renewal; no payload
  kResume = 16,     // `pos` = last applied seq; payload = SeqEvent batch
  kStats = 17,      // payload = checksummed EncodeMetricsSnapshot bytes
  kGetTextAt = 18,  // time travel: `pos` = version; payload = text at it
};

/// Highest valid `CommandKind` value; `DecodeCommand` rejects anything
/// outside [1, kCommandKindMax] with kInvalidArgument.
constexpr uint8_t kCommandKindMax = 18;

/// Lowercase short name of a command kind, e.g. "type"; "?" for values
/// outside the enum. Used for per-command metric names.
const char* CommandKindName(CommandKind kind);

/// True for the commands the endpoint never deduplicates: the reads
/// (kGetText, kGetTextAt) and the session upkeep (kResume, kHeartbeat,
/// kStats). Each is idempotent and must answer with current state, and a
/// cached read would hold a full copy of a document per request. Clients
/// send these without an idempotency key.
bool IsDedupExempt(CommandKind kind);

/// One editor gesture on the wire.
struct EditCommand {
  CommandKind kind = CommandKind::kGetText;
  /// Idempotency key. 0 = none; otherwise the server caches the response
  /// under this key and a retried duplicate returns the cached response
  /// instead of executing twice. Clients assign a fresh key per logical
  /// command and reuse it across retries of that command.
  uint64_t request_id = 0;
  DocumentId doc;
  uint64_t pos = 0;
  uint64_t len = 0;
  std::string text;   // kType/kPaste payload, kAnnotate note, layout attr
  std::string extra;  // layout value
  /// Absolute request deadline in server-clock microseconds; 0 = none.
  /// Absolute (not a relative budget) so a frame that sat in a retry queue
  /// arrives already-expired and is rejected at dispatch instead of doing
  /// work nobody is waiting for. The remaining budget caps lock waits and
  /// long scans downstream (see util/deadline.h).
  uint64_t deadline_micros = 0;
};

/// The server's answer: a status plus an optional payload (document text,
/// clipboard id, encoded SeqEvent batch, ...).
struct WireResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::string payload;
  /// Server-computed backoff hint, nonzero iff `code == kUnavailable`: how
  /// long the client should wait before retrying. Overrides the client's
  /// own exponential backoff (the server can see the whole queue; the
  /// client can't).
  uint64_t retry_after_micros = 0;
};

// --- codec ---
//
// Decoders are strict: unknown enum values and trailing bytes are rejected
// with kInvalidArgument, truncated input with kCorruption. A frame either
// parses exactly or not at all — there is no best-effort acceptance.

std::string EncodeCommand(const EditCommand& command);
Result<EditCommand> DecodeCommand(Slice bytes);

std::string EncodeResponse(const WireResponse& response);
Result<WireResponse> DecodeResponse(Slice bytes);

/// Change notifications cross the wire too (server -> editor push).
std::string EncodeEvent(const ChangeEvent& event);
Result<ChangeEvent> DecodeEvent(Slice bytes);
std::string EncodeEventBatch(const ChangeBatch& batch);
Result<ChangeBatch> DecodeEventBatch(Slice bytes);

/// Sequence-stamped events for the resumable change stream (kResume).
std::string EncodeSeqEventBatch(const std::vector<SeqEvent>& events);
Result<std::vector<SeqEvent>> DecodeSeqEventBatch(Slice bytes);

// --- frame integrity ---
//
// Frames crossing a real network carry a checksum so in-flight corruption
// is detected at the receiving side and handled as frame loss (drop +
// retry) rather than leaking into command parsing. A frame is the body
// followed by an 8-byte trailer: a word-at-a-time 64-bit checksum seeded
// with the body length. It is a wire format only, never stored, so it is
// free to differ from the persisted formats' `Fnv1a32`.

/// Size of the checksum trailer `SealFrame` appends.
constexpr size_t kFrameTrailerSize = 8;

/// Appends the checksum trailer to `body` and returns it. Encoders reserve
/// `kFrameTrailerSize` spare bytes, so a moved-in body is sealed without a
/// copy.
std::string SealFrame(std::string body);
/// Verifies `frame` and returns a view of its body (into `frame`'s
/// storage); kCorruption on damage or a frame shorter than the trailer.
Result<Slice> OpenFrame(Slice frame);
/// Verifies `*frame` and shrinks it to its body in place.
Status OpenFrame(std::string* frame);

// --- transport ---

/// One synchronous request/response exchange over sealed frames. A non-OK
/// result means the request or response frame was lost, damaged, or timed
/// out — the command may or may not have executed server-side, which is
/// exactly why commands carry idempotency keys.
class WireTransport {
 public:
  virtual ~WireTransport() = default;
  virtual Result<std::string> RoundTrip(const std::string& request) = 0;
};

class RemoteEditorEndpoint;

/// The lossless in-process transport: every frame is delivered intact.
class DirectTransport : public WireTransport {
 public:
  explicit DirectTransport(RemoteEditorEndpoint* endpoint)
      : endpoint_(endpoint) {}
  Result<std::string> RoundTrip(const std::string& request) override;

 private:
  RemoteEditorEndpoint* const endpoint_;
};

/// Server-side endpoint for one remote editor: decodes command bytes,
/// executes them against the wrapped `Editor`, and encodes the response.
/// Clipboards from kCopy stay server-side and are referenced by handle in
/// kPaste (`text` = handle), exactly like a GUI client would do.
///
/// The endpoint also deduplicates retried commands: responses to commands
/// carrying an idempotency key are cached (bounded, FIFO eviction), and a
/// duplicate delivery of the same key returns the cached response without
/// re-executing — at-most-once execution under at-least-once delivery.
/// `IsDedupExempt` commands are never cached; they run again.
class RemoteEditorEndpoint {
 public:
  explicit RemoteEditorEndpoint(Editor* editor, size_t dedup_capacity = 1024);

  /// One request/response exchange on raw (unsealed) command bytes.
  std::string Handle(Slice command_bytes);

  /// One exchange on checksummed frames: verifies the request envelope,
  /// handles the body, seals the response. A non-OK result means the
  /// request frame was damaged in flight and must be treated as lost.
  Result<std::string> HandleFrame(Slice sealed_request);

  /// Pending change notifications, encoded for the wire.
  Result<std::string> PollEventsWire();

  /// Duplicate deliveries answered from the cache (at-most-once proof).
  uint64_t dedup_hits() const { return dedup_hits_; }
  size_t dedup_entries() const { return dedup_.size(); }

  /// Requests rejected at dispatch because their deadline had already
  /// passed (no work done).
  uint64_t deadline_rejected() const { return deadline_rejected_; }

 private:
  WireResponse Execute(const EditCommand& command);

  Editor* const editor_;
  std::vector<std::vector<PasteChar>> clipboards_;
  const size_t dedup_capacity_;
  std::unordered_map<uint64_t, std::string> dedup_;  // key -> encoded response
  std::deque<uint64_t> dedup_order_;                 // FIFO eviction
  uint64_t dedup_hits_ = 0;
  uint64_t deadline_rejected_ = 0;

  // Registry-backed wire metrics, resolved from the editor's server-side
  // registry at construction (null when metrics are disabled). Dispatch
  // latency is kept per command kind; index 0 holds requests that failed to
  // decode ("wire.dispatch_micros.invalid").
  Counter* m_requests_ = nullptr;
  Counter* m_decode_errors_ = nullptr;
  Counter* m_dedup_hits_ = nullptr;
  Counter* m_deadline_rejected_ = nullptr;
  std::array<Histogram*, kCommandKindMax + 1> m_dispatch_{};
};

}  // namespace tendax

#endif  // TENDAX_COLLAB_WIRE_H_
