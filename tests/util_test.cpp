// Unit tests for the util layer: Status/Result, Slice, coding, checksums,
// ids, clocks.

#include <gtest/gtest.h>

#include "util/checksum.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/ids.h"
#include "util/random.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace tendax {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status st = Status::NotFound("missing doc");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: missing doc");
}

TEST(StatusTest, RetryableClassification) {
  EXPECT_TRUE(Status::Conflict("x").IsRetryable());
  EXPECT_TRUE(Status::Deadlock("x").IsRetryable());
  EXPECT_FALSE(Status::NotFound("x").IsRetryable());
  EXPECT_FALSE(Status::Corruption("x").IsRetryable());
}

TEST(StatusTest, EveryCodeHasAName) {
  // Coverage runs to kStatusCodeMax so adding an enum value without a
  // StatusCodeName entry fails here instead of shipping "Unknown".
  for (int c = 0; c <= static_cast<int>(kStatusCodeMax); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown")
        << "StatusCode " << c << " has no name";
  }
  EXPECT_STREQ(StatusCodeName(static_cast<StatusCode>(
                   static_cast<int>(kStatusCodeMax) + 1)),
               "Unknown");
}

TEST(StatusTest, OverloadCodes) {
  Status expired = Status::DeadlineExceeded("too late");
  EXPECT_TRUE(expired.IsDeadlineExceeded());
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.ToString(), "DeadlineExceeded: too late");

  Status shed = Status::Unavailable("queue full");
  EXPECT_TRUE(shed.IsUnavailable());
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(shed.ToString(), "Unavailable: queue full");

  // Overload refusals are not transaction-retryable: the caller must wait
  // (retry-after / breaker), not immediately re-run the transaction.
  EXPECT_FALSE(expired.IsRetryable());
  EXPECT_FALSE(shed.IsRetryable());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MovesValueOut) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

// Fnv1a32 is part of the page, WAL and metrics-snapshot formats. These
// golden values pin the recipe: if a rewrite changes one, stored pages fail
// verification and a reopened WAL is truncated at its first record.
TEST(ChecksumTest, Fnv1a32GoldenValues) {
  EXPECT_EQ(Fnv1a32("", 0), 0x811c9dc5u);
  EXPECT_EQ(Fnv1a32("a", 1), 0xe40c292cu);
  EXPECT_EQ(Fnv1a32("foobar", 6), 0xbf9cf968u);
  std::string every_byte(256, '\0');
  for (int i = 0; i < 256; ++i) every_byte[i] = static_cast<char>(i);
  EXPECT_EQ(Fnv1a32(every_byte.data(), every_byte.size()), 0x90a458c5u);
  const std::string zero_page_payload(4080, '\0');
  EXPECT_EQ(Fnv1a32(zero_page_payload.data(), zero_page_payload.size()),
            0x85d4b285u);
}

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  EXPECT_TRUE(Slice("abc").starts_with(Slice("ab")));
  EXPECT_FALSE(Slice("abc").starts_with(Slice("bc")));
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEF);
  PutFixed64(&buf, 0x0123456789ABCDEFULL);
  Slice in(buf);
  uint16_t a;
  uint32_t b;
  uint64_t c;
  ASSERT_TRUE(GetFixed16(&in, &a));
  ASSERT_TRUE(GetFixed32(&in, &b));
  ASSERT_TRUE(GetFixed64(&in, &c));
  EXPECT_EQ(a, 0xBEEF);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFULL);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTripSweep) {
  // Property: Put/Get are inverses across magnitudes incl. boundaries.
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  UINT32_MAX, (1ULL << 56) - 1, UINT64_MAX};
  for (uint64_t v : values) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
    Slice in(buf);
    uint64_t out;
    ASSERT_TRUE(GetVarint64(&in, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, VarintTruncatedFails) {
  std::string buf;
  PutVarint64(&buf, UINT64_MAX);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint64_t out;
  EXPECT_FALSE(GetVarint64(&in, &out));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, Slice("alpha"));
  PutLengthPrefixed(&buf, Slice(""));
  PutLengthPrefixed(&buf, Slice("bravo"));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a.ToString(), "alpha");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.ToString(), "bravo");
}

TEST(CodingTest, LengthPrefixedTruncatedFails) {
  std::string buf;
  PutLengthPrefixed(&buf, Slice("payload"));
  buf.resize(buf.size() - 3);
  Slice in(buf);
  Slice out;
  EXPECT_FALSE(GetLengthPrefixed(&in, &out));
}

TEST(IdsTest, StrongTypingAndValidity) {
  DocumentId d(7);
  EXPECT_TRUE(d.valid());
  EXPECT_FALSE(DocumentId().valid());
  EXPECT_EQ(d.ToString(), "doc:7");
  EXPECT_EQ(DocumentId(7), DocumentId(7));
  EXPECT_LT(DocumentId(3), DocumentId(9));
  // Different tags are different types: hash usable in containers.
  std::hash<DocumentId> h;
  EXPECT_EQ(h(DocumentId(7)), h(DocumentId(7)));
}

TEST(ClockTest, ManualClockMonotoneAndSettable) {
  ManualClock clock(1000, 1);
  Timestamp a = clock.NowMicros();
  Timestamp b = clock.NowMicros();
  EXPECT_LT(a, b);
  clock.Advance(500);
  EXPECT_GE(clock.NowMicros(), a + 500);
  clock.Set(42);
  EXPECT_EQ(clock.NowMicros(), 42u);
}

TEST(ClockTest, SystemClockPlausible) {
  SystemClock clock;
  Timestamp t = clock.NowMicros();
  // After 2020-01-01 in microseconds.
  EXPECT_GT(t, 1577836800ULL * 1000000ULL);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(10), 10u);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, WordShape) {
  Random r(7);
  for (int i = 0; i < 100; ++i) {
    std::string w = r.Word(3, 8);
    EXPECT_GE(w.size(), 3u);
    EXPECT_LE(w.size(), 8u);
    for (char c : w) {
      EXPECT_GE(c, 'a');
      EXPECT_LE(c, 'z');
    }
  }
}

}  // namespace
}  // namespace tendax
