// Tests for the wire protocol: codec round-trips, corrupt-input handling,
// and two "remote" editors collaborating purely through bytes.

#include <gtest/gtest.h>

#include "collab/wire.h"
#include "obs/metrics.h"
#include "server_fixture.h"
#include "util/random.h"

namespace tendax {
namespace {

// --- randomized codec property tests ------------------------------------

std::string RandomBlob(Random* rng, size_t max_len) {
  std::string out;
  size_t len = rng->Uniform(max_len + 1);
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng->Uniform(256)));
  }
  return out;
}

EditCommand RandomCommand(Random* rng) {
  EditCommand command;
  command.kind = static_cast<CommandKind>(1 + rng->Uniform(kCommandKindMax));
  command.request_id = rng->Next();
  command.doc = DocumentId(rng->Next());
  command.pos = rng->Next();
  command.len = rng->Next();
  command.text = RandomBlob(rng, 64);
  command.extra = RandomBlob(rng, 32);
  command.deadline_micros = rng->Next();
  return command;
}

WireResponse RandomResponse(Random* rng) {
  WireResponse response;
  // Codes beyond kStatusCodeMax do not exist; the decoder rejects them (see
  // UnknownEnumValuesRejected), so valid inputs stay in range.
  response.code = static_cast<StatusCode>(
      rng->Uniform(static_cast<uint64_t>(kStatusCodeMax) + 1));
  response.message = RandomBlob(rng, 48);
  response.payload = RandomBlob(rng, 96);
  response.retry_after_micros = rng->Next();
  return response;
}

ChangeEvent RandomEvent(Random* rng) {
  ChangeEvent event;
  event.kind = static_cast<ChangeKind>(1 + rng->Uniform(kChangeKindMax));
  event.doc = DocumentId(rng->Next());
  event.user = UserId(rng->Next());
  event.version = rng->Next();
  event.at = static_cast<Timestamp>(rng->Next());
  event.anchor = CharId(rng->Next());
  event.count = rng->Next();
  event.detail = RandomBlob(rng, 40);
  return event;
}

TEST(WireCodecTest, CommandRoundTrip) {
  EditCommand command;
  command.kind = CommandKind::kType;
  command.doc = DocumentId(42);
  command.pos = 7;
  command.len = 3;
  command.text = "payload text";
  command.extra = "attr-value";
  command.deadline_micros = 1'700'000'123'456ULL;
  auto decoded = DecodeCommand(EncodeCommand(command));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, CommandKind::kType);
  EXPECT_EQ(decoded->doc, DocumentId(42));
  EXPECT_EQ(decoded->pos, 7u);
  EXPECT_EQ(decoded->len, 3u);
  EXPECT_EQ(decoded->text, "payload text");
  EXPECT_EQ(decoded->extra, "attr-value");
  EXPECT_EQ(decoded->deadline_micros, 1'700'000'123'456ULL);
}

TEST(WireCodecTest, ResponseRoundTrip) {
  WireResponse response;
  response.code = StatusCode::kPermissionDenied;
  response.message = "nope";
  response.payload = std::string("bin\0data", 8);
  response.retry_after_micros = 12'500;
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kPermissionDenied);
  EXPECT_EQ(decoded->message, "nope");
  EXPECT_EQ(decoded->payload.size(), 8u);
  EXPECT_EQ(decoded->retry_after_micros, 12'500u);
}

TEST(WireCodecTest, UnavailableResponseCarriesRetryAfter) {
  WireResponse shed;
  shed.code = StatusCode::kUnavailable;
  shed.message = "admission queue full";
  shed.retry_after_micros = 64'000;
  auto decoded = DecodeResponse(EncodeResponse(shed));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kUnavailable);
  EXPECT_EQ(decoded->retry_after_micros, 64'000u);
  // The two new status codes introduced with the overload layer survive
  // the wire unchanged.
  WireResponse expired;
  expired.code = StatusCode::kDeadlineExceeded;
  auto decoded2 = DecodeResponse(EncodeResponse(expired));
  ASSERT_TRUE(decoded2.ok());
  EXPECT_EQ(decoded2->code, StatusCode::kDeadlineExceeded);
}

TEST(WireCodecTest, EventBatchRoundTrip) {
  ChangeBatch batch;
  for (int i = 0; i < 3; ++i) {
    ChangeEvent event;
    event.kind = ChangeKind::kTextInserted;
    event.doc = DocumentId(i + 1);
    event.user = UserId(9);
    event.version = 100 + i;
    event.at = 1234567;
    event.anchor = CharId(55);
    event.count = 4;
    event.detail = "abc" + std::to_string(i);
    batch.push_back(event);
  }
  auto decoded = DecodeEventBatch(EncodeEventBatch(batch));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[2].detail, "abc2");
  EXPECT_EQ((*decoded)[1].version, 101u);
  EXPECT_EQ((*decoded)[0].doc, DocumentId(1));
}

TEST(WireCodecTest, CorruptInputRejected) {
  EXPECT_TRUE(DecodeCommand(Slice("")).status().IsCorruption());
  EXPECT_TRUE(DecodeResponse(Slice("")).status().IsCorruption());
  EditCommand command;
  command.kind = CommandKind::kType;
  command.text = "hello";
  std::string bytes = EncodeCommand(command);
  bytes.resize(bytes.size() - 3);  // torn
  EXPECT_TRUE(DecodeCommand(bytes).status().IsCorruption());
}

// Strictness regressions: decoders reject unknown enum values and trailing
// garbage with kInvalidArgument instead of best-effort acceptance.
TEST(WireCodecTest, UnknownEnumValuesRejected) {
  EditCommand command;
  command.kind = CommandKind::kType;
  command.text = "x";
  std::string bytes = EncodeCommand(command);

  std::string zero_kind = bytes;
  zero_kind[0] = 0;
  EXPECT_TRUE(DecodeCommand(zero_kind).status().IsInvalidArgument());
  std::string high_kind = bytes;
  high_kind[0] = static_cast<char>(kCommandKindMax + 1);
  EXPECT_TRUE(DecodeCommand(high_kind).status().IsInvalidArgument());
  high_kind[0] = static_cast<char>(0xEE);
  EXPECT_TRUE(DecodeCommand(high_kind).status().IsInvalidArgument());

  WireResponse response;
  response.code = StatusCode::kOk;
  std::string response_bytes = EncodeResponse(response);
  response_bytes[0] =
      static_cast<char>(static_cast<uint8_t>(kStatusCodeMax) + 1);
  EXPECT_TRUE(DecodeResponse(response_bytes).status().IsInvalidArgument());

  ChangeEvent event;
  event.kind = ChangeKind::kTextInserted;
  std::string event_bytes = EncodeEvent(event);
  event_bytes[0] = 0;  // varint kind = 0
  EXPECT_TRUE(DecodeEvent(event_bytes).status().IsInvalidArgument());
  event_bytes[0] = static_cast<char>(kChangeKindMax + 1);
  EXPECT_TRUE(DecodeEvent(event_bytes).status().IsInvalidArgument());
}

TEST(WireCodecTest, TrailingBytesRejected) {
  EditCommand command;
  command.kind = CommandKind::kErase;
  command.pos = 3;
  command.len = 2;
  std::string bytes = EncodeCommand(command) + "x";
  EXPECT_TRUE(DecodeCommand(bytes).status().IsInvalidArgument());

  WireResponse response;
  response.payload = "p";
  std::string response_bytes = EncodeResponse(response) + "tail";
  EXPECT_TRUE(DecodeResponse(response_bytes).status().IsInvalidArgument());

  ChangeBatch batch{ChangeEvent{}};
  batch[0].kind = ChangeKind::kTextDeleted;
  std::string batch_bytes = EncodeEventBatch(batch);
  batch_bytes.push_back('\0');
  EXPECT_TRUE(DecodeEventBatch(batch_bytes).status().IsInvalidArgument());
}

TEST(WireCodecTest, RequestIdRoundTrips) {
  EditCommand command;
  command.kind = CommandKind::kType;
  command.request_id = 0xDEADBEEFCAFEULL;
  command.text = "retry me";
  auto decoded = DecodeCommand(EncodeCommand(command));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->request_id, 0xDEADBEEFCAFEULL);
}

TEST(WireCodecTest, SeqEventBatchRoundTripAndFuzz) {
  Random rng(20260808);
  for (int i = 0; i < 50; ++i) {
    std::vector<SeqEvent> batch;
    size_t n = rng.Uniform(6);
    for (size_t j = 0; j < n; ++j) {
      batch.push_back(SeqEvent{rng.Next(), RandomEvent(&rng)});
    }
    std::string bytes = EncodeSeqEventBatch(batch);
    auto decoded = DecodeSeqEventBatch(bytes);
    ASSERT_TRUE(decoded.ok()) << "iter " << i;
    ASSERT_EQ(decoded->size(), batch.size());
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ((*decoded)[j].seq, batch[j].seq);
      EXPECT_EQ((*decoded)[j].event.kind, batch[j].event.kind);
      EXPECT_EQ((*decoded)[j].event.detail, batch[j].event.detail);
    }
    // Every truncation and bit flip fails cleanly or decodes; never crashes.
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      (void)DecodeSeqEventBatch(Slice(bytes.data(), cut));
    }
    if (!bytes.empty()) {
      std::string flipped = bytes;
      size_t pos = rng.Uniform(flipped.size());
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << rng.Uniform(8)));
      (void)DecodeSeqEventBatch(flipped);
    }
  }
}

std::string RandomBytes(Random* rng, size_t len) {
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>(rng->Uniform(256));
  return out;
}

// The frame tests seal every body length from 0 to 80: every tail length
// (0-7 bytes past the last full word), every lane a tail can land in, and
// bodies shorter than one word or one four-lane stride.
constexpr size_t kMaxFrameTestBody = 80;

TEST(WireCodecTest, FrameChecksumDetectsEveryBitFlip) {
  Random rng(7);
  for (size_t len = 0; len <= kMaxFrameTestBody; ++len) {
    const std::string body = RandomBytes(&rng, len);
    std::string frame = SealFrame(body);
    ASSERT_EQ(frame.size(), len + kFrameTrailerSize);
    auto opened = OpenFrame(frame);
    ASSERT_TRUE(opened.ok()) << "len " << len;
    EXPECT_EQ(opened->ToString(), body);
    for (size_t pos = 0; pos < frame.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        frame[pos] = static_cast<char>(frame[pos] ^ (1 << bit));
        EXPECT_TRUE(OpenFrame(frame).status().IsCorruption())
            << "len " << len << " flip at byte " << pos << " bit " << bit;
        frame[pos] = static_cast<char>(frame[pos] ^ (1 << bit));
      }
    }
  }
  EXPECT_TRUE(OpenFrame(Slice("abc")).status().IsCorruption());
}

TEST(WireCodecTest, FrameChecksumDetectsEveryByteSubstitution) {
  Random rng(8);
  for (size_t len = 0; len <= kMaxFrameTestBody; ++len) {
    std::string frame = SealFrame(RandomBytes(&rng, len));
    for (size_t pos = 0; pos < frame.size(); ++pos) {
      const char original = frame[pos];
      for (int value = 0; value < 256; ++value) {
        if (static_cast<char>(value) == original) continue;
        frame[pos] = static_cast<char>(value);
        // Not EXPECT_TRUE per case: a million passing assertions would
        // dominate the run time. The first failure stops the sweep.
        if (!OpenFrame(frame).status().IsCorruption()) {
          FAIL() << "len " << len << " byte " << pos << " := " << value;
        }
      }
      frame[pos] = original;
    }
  }
}

TEST(WireCodecTest, FrameChecksumSeparatesTrailingZeroBytes) {
  // The tail word is zero-padded, so only the length seed tells a body
  // from the same body plus a zero byte.
  Random rng(9);
  for (size_t len = 0; len <= kMaxFrameTestBody; ++len) {
    const std::string body = RandomBytes(&rng, len);
    const std::string padded = body + '\0';
    const std::string sealed = SealFrame(body);
    const std::string sealed_padded = SealFrame(padded);
    EXPECT_NE(sealed.substr(len), sealed_padded.substr(len + 1))
        << "len " << len;
    // The padded body under the short body's trailer is damage.
    EXPECT_TRUE(OpenFrame(padded + sealed.substr(len)).status().IsCorruption())
        << "len " << len;
  }
}

TEST(WireCodecTest, TruncatedFrameIsCorruption) {
  Random rng(10);
  for (size_t len = 0; len <= kMaxFrameTestBody; ++len) {
    const std::string frame = SealFrame(RandomBytes(&rng, len));
    for (size_t cut = 1; cut <= kFrameTrailerSize; ++cut) {
      EXPECT_TRUE(OpenFrame(Slice(frame.data(), frame.size() - cut))
                      .status()
                      .IsCorruption())
          << "len " << len << " cut " << cut;
      std::string owned = frame.substr(0, frame.size() - cut);
      EXPECT_TRUE(OpenFrame(&owned).IsCorruption())
          << "len " << len << " cut " << cut;
    }
  }
}

TEST(WireCodecTest, LargeFrameRoundTripsInPlace) {
  Random rng(11);
  const std::string body = RandomBytes(&rng, 1 << 20);
  std::string frame = SealFrame(body);
  auto view = OpenFrame(frame);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->data(), frame.data());  // a view, not a copy
  EXPECT_TRUE(*view == Slice(body));
  // Client side: the owned frame shrinks to its body in its own buffer.
  const char* buffer = frame.data();
  ASSERT_TRUE(OpenFrame(&frame).ok());
  EXPECT_EQ(frame.data(), buffer);
  EXPECT_TRUE(frame == body);
  // A damaged frame is rejected and left as it was.
  std::string damaged = SealFrame(body);
  damaged[damaged.size() / 2] ^= 0x10;
  const size_t damaged_size = damaged.size();
  EXPECT_TRUE(OpenFrame(&damaged).IsCorruption());
  EXPECT_EQ(damaged.size(), damaged_size);
}

TEST(WireCodecTest, EncodedResponseIsSealedWithoutACopy) {
  // The encoder reserves the trailer, so sealing a moved-in response
  // appends to its buffer instead of reallocating the payload.
  WireResponse response;
  response.payload = std::string(40 << 10, 'x');
  std::string encoded = EncodeResponse(response);
  const char* buffer = encoded.data();
  std::string frame = SealFrame(std::move(encoded));
  EXPECT_EQ(frame.data(), buffer);
  EditCommand command;
  command.kind = CommandKind::kType;
  command.request_id = UINT64_MAX;
  command.doc = DocumentId(UINT64_MAX);
  command.pos = UINT64_MAX;
  command.len = UINT64_MAX;
  command.deadline_micros = UINT64_MAX;
  command.text = std::string(3000, 'y');
  std::string encoded_command = EncodeCommand(command);
  buffer = encoded_command.data();
  frame = SealFrame(std::move(encoded_command));
  EXPECT_EQ(frame.data(), buffer);
  auto body = OpenFrame(frame);
  ASSERT_TRUE(body.ok());
  auto decoded = DecodeCommand(*body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->text, command.text);
}

TEST(WireCodecTest, RandomizedRoundTrips) {
  Random rng(20260806);
  for (int i = 0; i < 300; ++i) {
    EditCommand command = RandomCommand(&rng);
    auto decoded = DecodeCommand(EncodeCommand(command));
    ASSERT_TRUE(decoded.ok()) << "iter " << i;
    EXPECT_EQ(decoded->kind, command.kind);
    EXPECT_EQ(decoded->doc, command.doc);
    EXPECT_EQ(decoded->pos, command.pos);
    EXPECT_EQ(decoded->len, command.len);
    EXPECT_EQ(decoded->text, command.text);
    EXPECT_EQ(decoded->extra, command.extra);

    WireResponse response = RandomResponse(&rng);
    auto response_decoded = DecodeResponse(EncodeResponse(response));
    ASSERT_TRUE(response_decoded.ok()) << "iter " << i;
    EXPECT_EQ(response_decoded->code, response.code);
    EXPECT_EQ(response_decoded->message, response.message);
    EXPECT_EQ(response_decoded->payload, response.payload);

    ChangeBatch batch;
    size_t n = rng.Uniform(5);
    for (size_t j = 0; j < n; ++j) batch.push_back(RandomEvent(&rng));
    auto batch_decoded = DecodeEventBatch(EncodeEventBatch(batch));
    ASSERT_TRUE(batch_decoded.ok()) << "iter " << i;
    ASSERT_EQ(batch_decoded->size(), batch.size());
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ((*batch_decoded)[j].kind, batch[j].kind);
      EXPECT_EQ((*batch_decoded)[j].version, batch[j].version);
      EXPECT_EQ((*batch_decoded)[j].detail, batch[j].detail);
    }
  }
}

// Decoders must survive any truncation of a valid encoding: every strict
// prefix either decodes (when the dropped bytes were not needed) or is
// rejected with a Status — never a crash or out-of-bounds read.
TEST(WireCodecTest, EveryTruncationIsHandled) {
  Random rng(99);
  for (int i = 0; i < 25; ++i) {
    std::string command_bytes = EncodeCommand(RandomCommand(&rng));
    for (size_t cut = 0; cut < command_bytes.size(); ++cut) {
      (void)DecodeCommand(Slice(command_bytes.data(), cut));
    }
    std::string response_bytes = EncodeResponse(RandomResponse(&rng));
    for (size_t cut = 0; cut < response_bytes.size(); ++cut) {
      (void)DecodeResponse(Slice(response_bytes.data(), cut));
    }
    ChangeBatch batch{RandomEvent(&rng), RandomEvent(&rng)};
    std::string batch_bytes = EncodeEventBatch(batch);
    for (size_t cut = 0; cut < batch_bytes.size(); ++cut) {
      (void)DecodeEventBatch(Slice(batch_bytes.data(), cut));
    }
  }
}

// ... and any bit flip: corrupted varints can claim absurd lengths and
// counts; decoding must fail cleanly instead of over-reading or making
// multi-gigabyte allocations.
TEST(WireCodecTest, BitFlipFuzz) {
  Random rng(20260807);
  for (int i = 0; i < 200; ++i) {
    std::string bytes = EncodeCommand(RandomCommand(&rng));
    size_t flips = 1 + rng.Uniform(4);
    for (size_t f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(bytes.size());
      bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng.Uniform(8)));
    }
    (void)DecodeCommand(bytes);

    std::string response_bytes = EncodeResponse(RandomResponse(&rng));
    size_t pos = rng.Uniform(response_bytes.size());
    response_bytes[pos] =
        static_cast<char>(response_bytes[pos] ^ (1 << rng.Uniform(8)));
    (void)DecodeResponse(response_bytes);

    ChangeBatch batch{RandomEvent(&rng)};
    std::string batch_bytes = EncodeEventBatch(batch);
    pos = rng.Uniform(batch_bytes.size());
    batch_bytes[pos] =
        static_cast<char>(batch_bytes[pos] ^ (1 << rng.Uniform(8)));
    (void)DecodeEventBatch(batch_bytes);
  }
}

TEST(WireCodecTest, StatsCommandRoundTrip) {
  EditCommand command;
  command.kind = CommandKind::kStats;
  command.request_id = 77;
  auto decoded = DecodeCommand(EncodeCommand(command));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, CommandKind::kStats);
  EXPECT_EQ(decoded->request_id, 77u);
}

class WireSessionTest : public ServerTest {};

TEST_F(WireSessionTest, StatsCommandReturnsVerifiableSnapshot) {
  auto editor = server_->AttachEditor(alice_, "stats-probe");
  ASSERT_TRUE(editor.ok());
  RemoteEditorEndpoint link(editor->get());
  MakeDoc(alice_, "stats-wire", "abc");

  EditCommand command;
  command.kind = CommandKind::kStats;
  auto response = DecodeResponse(link.Handle(EncodeCommand(command)));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->code, StatusCode::kOk) << response->message;
  auto snapshot = DecodeMetricsSnapshot(response->payload);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_GT(snapshot->CounterValue("txn.committed"), 0u);

  // The checksummed payload rejects every truncation...
  const std::string& payload = response->payload;
  for (size_t len = 0; len < payload.size(); ++len) {
    auto damaged = DecodeMetricsSnapshot(Slice(payload.data(), len));
    ASSERT_FALSE(damaged.ok()) << "prefix length " << len;
    EXPECT_TRUE(damaged.status().IsCorruption()) << "prefix length " << len;
  }
  // ...and a sample of single-bit flips.
  Random rng(171);
  for (int i = 0; i < 256; ++i) {
    std::string damaged = payload;
    size_t pos = rng.Uniform(damaged.size());
    damaged[pos] = static_cast<char>(damaged[pos] ^ (1 << rng.Uniform(8)));
    auto decoded = DecodeMetricsSnapshot(damaged);
    ASSERT_FALSE(decoded.ok()) << "flip " << i << " at byte " << pos;
    EXPECT_TRUE(decoded.status().IsCorruption());
  }
}

TEST_F(WireSessionTest, RemoteEditorsCollaborateOverBytes) {
  // Two editors on "different machines": everything crosses the codec.
  auto alice_editor = server_->AttachEditor(alice_, "remote-windows");
  auto bob_editor = server_->AttachEditor(bob_, "remote-macos");
  RemoteEditorEndpoint alice_link(alice_editor->get());
  RemoteEditorEndpoint bob_link(bob_editor->get());

  DocumentId doc = MakeDoc(alice_, "over-the-wire", "");

  auto send = [](RemoteEditorEndpoint& link, const EditCommand& command) {
    auto response = DecodeResponse(link.Handle(EncodeCommand(command)));
    EXPECT_TRUE(response.ok());
    return *response;
  };
  auto cmd = [&](CommandKind kind, uint64_t pos = 0, uint64_t len = 0,
                 std::string text = "", std::string extra = "") {
    EditCommand command;
    command.kind = kind;
    command.doc = doc;
    command.pos = pos;
    command.len = len;
    command.text = std::move(text);
    command.extra = std::move(extra);
    return command;
  };

  // Both open; alice types; bob sees the text and the event, over bytes.
  EXPECT_EQ(send(alice_link, cmd(CommandKind::kOpen)).code, StatusCode::kOk);
  EXPECT_EQ(send(bob_link, cmd(CommandKind::kOpen)).code, StatusCode::kOk);
  (void)bob_link.PollEventsWire();  // drain the read backlog
  EXPECT_EQ(send(alice_link, cmd(CommandKind::kType, 0, 0, "typed remotely"))
                .code,
            StatusCode::kOk);
  auto bob_view = send(bob_link, cmd(CommandKind::kGetText));
  EXPECT_EQ(bob_view.payload, "typed remotely");

  auto wire_events = bob_link.PollEventsWire();
  ASSERT_TRUE(wire_events.ok());
  auto batch = DecodeEventBatch(*wire_events);
  ASSERT_TRUE(batch.ok());
  bool saw_insert = false;
  for (const ChangeEvent& event : *batch) {
    if (event.kind == ChangeKind::kTextInserted) saw_insert = true;
  }
  EXPECT_TRUE(saw_insert);

  // Copy/paste via a server-side clipboard handle.
  auto copy = send(bob_link, cmd(CommandKind::kCopy, 0, 5));
  ASSERT_EQ(copy.code, StatusCode::kOk);
  EXPECT_EQ(send(bob_link, cmd(CommandKind::kPaste, 14, 0, copy.payload))
                .code,
            StatusCode::kOk);
  EXPECT_EQ(send(alice_link, cmd(CommandKind::kGetText)).payload,
            "typed remotelytyped");

  // Layout and undo flow through too.
  EXPECT_EQ(send(alice_link,
                 cmd(CommandKind::kApplyLayout, 0, 5, "bold", "true"))
                .code,
            StatusCode::kOk);
  EXPECT_EQ(send(bob_link, cmd(CommandKind::kUndo)).code, StatusCode::kOk);
  EXPECT_EQ(send(alice_link, cmd(CommandKind::kGetText)).payload,
            "typed remotely");

  // Errors come back as wire codes, not crashes.
  auto bad = send(alice_link, cmd(CommandKind::kErase, 1000, 5));
  EXPECT_EQ(bad.code, StatusCode::kOutOfRange);
  auto bogus_clip = send(bob_link, cmd(CommandKind::kPaste, 0, 0, "99"));
  EXPECT_EQ(bogus_clip.code, StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tendax
