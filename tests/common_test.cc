#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/crc32c.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"

namespace veloce {
namespace {

// ---------------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing key");
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, AllFactoriesMapToCodes) {
  EXPECT_EQ(Status::Unauthorized("x").code(), Code::kUnauthorized);
  EXPECT_EQ(Status::RangeKeyMismatch("x").code(), Code::kRangeKeyMismatch);
  EXPECT_EQ(Status::TransactionRetry("x").code(), Code::kTransactionRetry);
  EXPECT_EQ(Status::WriteIntentError("x").code(), Code::kWriteIntentError);
  EXPECT_EQ(Status::ResourceExhausted("x").code(), Code::kResourceExhausted);
  EXPECT_EQ(Status::Corruption("x").code(), Code::kCorruption);
  EXPECT_EQ(Status::Unavailable("x").code(), Code::kUnavailable);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
}

TEST(StatusOrTest, MoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = std::move(v).value();
  EXPECT_EQ(*taken, 7);
}

TEST(StatusOrTest, CopyAndAssign) {
  StatusOr<std::string> a = std::string("hello");
  StatusOr<std::string> b = a;
  EXPECT_EQ(*b, "hello");
  b = Status::Internal("boom");
  EXPECT_FALSE(b.ok());
  b = a;
  EXPECT_EQ(*b, "hello");
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseAssignOrReturn(int x, int* out) {
  VELOCE_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_FALSE(UseAssignOrReturn(-1, &out).ok());
}

// ---------------------------------------------------------------------------
// Slice
// ---------------------------------------------------------------------------

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_TRUE(s.StartsWith("he"));
  EXPECT_FALSE(s.StartsWith("hello world"));
  s.RemovePrefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("a").Compare(Slice("b")), 0);
  EXPECT_EQ(Slice("ab").Compare(Slice("ab")), 0);
  EXPECT_GT(Slice("b").Compare(Slice("a")), 0);
  // Bytewise: shorter prefix sorts first.
  EXPECT_LT(Slice("ab").Compare(Slice("abc")), 0);
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(CodecTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Slice in(buf);
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v32, 0xDEADBEEFu);
  EXPECT_EQ(v64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(in.empty());
}

TEST(CodecTest, VarintRoundTrip) {
  std::string buf;
  const uint64_t values[] = {0, 1, 127, 128, 16383, 16384, 1ull << 32, UINT64_MAX};
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodecTest, VarintTruncated) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint64_t got;
  EXPECT_FALSE(GetVarint64(&in, &got));
}

TEST(CodecTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "alpha");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(300, 'x'));
  Slice in(buf);
  Slice v;
  ASSERT_TRUE(GetLengthPrefixed(&in, &v));
  EXPECT_EQ(v.ToString(), "alpha");
  ASSERT_TRUE(GetLengthPrefixed(&in, &v));
  EXPECT_TRUE(v.empty());
  ASSERT_TRUE(GetLengthPrefixed(&in, &v));
  EXPECT_EQ(v.size(), 300u);
}

TEST(CodecTest, OrderedUint64PreservesOrder) {
  Random rnd(1);
  std::vector<uint64_t> values;
  for (int i = 0; i < 200; ++i) values.push_back(rnd.Next());
  values.push_back(0);
  values.push_back(UINT64_MAX);
  std::vector<std::pair<std::string, uint64_t>> encoded;
  for (uint64_t v : values) {
    std::string buf;
    OrderedPutUint64(&buf, v);
    encoded.emplace_back(buf, v);
  }
  std::sort(encoded.begin(), encoded.end());
  for (size_t i = 1; i < encoded.size(); ++i) {
    EXPECT_LE(encoded[i - 1].second, encoded[i].second);
  }
}

TEST(CodecTest, OrderedInt64PreservesOrderAcrossSign) {
  const int64_t values[] = {INT64_MIN, -1000, -1, 0, 1, 1000, INT64_MAX};
  std::string prev;
  for (int64_t v : values) {
    std::string buf;
    OrderedPutInt64(&buf, v);
    if (!prev.empty()) EXPECT_LT(prev, buf) << v;
    Slice in(buf);
    int64_t got;
    ASSERT_TRUE(OrderedGetInt64(&in, &got));
    EXPECT_EQ(got, v);
    prev = buf;
  }
}

TEST(CodecTest, OrderedStringRoundTripWithEmbeddedNulls) {
  const std::string cases[] = {"", "a", std::string("a\x00b", 3),
                               std::string("\x00\x00", 2), "zz"};
  for (const auto& s : cases) {
    std::string buf;
    OrderedPutString(&buf, s);
    Slice in(buf);
    std::string got;
    ASSERT_TRUE(OrderedGetString(&in, &got));
    EXPECT_EQ(got, s);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodecTest, OrderedStringPreservesOrder) {
  std::vector<std::string> values = {"", "a", std::string("a\x00", 2),
                                     std::string("a\x00q", 3), "ab", "b"};
  for (size_t i = 1; i < values.size(); ++i) {
    std::string a, b;
    OrderedPutString(&a, values[i - 1]);
    OrderedPutString(&b, values[i]);
    EXPECT_LT(a, b) << i;
  }
}

TEST(CodecTest, OrderedStringGoldenBytes) {
  // The escaped form is part of every stored MVCC key: it must never change.
  struct Golden {
    std::string in;
    std::string out;
  };
  const Golden cases[] = {
      {"", std::string("\x00\x01", 2)},
      {"ab", std::string("ab\x00\x01", 4)},
      {std::string("\x00", 1), std::string("\x00\xFF\x00\x01", 4)},
      {std::string("\x01", 1), std::string("\x01\x00\x01", 3)},
      {std::string("\xFF", 1), std::string("\xFF\x00\x01", 3)},
      {std::string("a\x00\x00z", 4), std::string("a\x00\xFF\x00\xFFz\x00\x01", 8)},
      {std::string("\x00\x01\xFF\x00", 4),
       std::string("\x00\xFF\x01\xFF\x00\xFF\x00\x01", 8)},
  };
  for (const auto& c : cases) {
    std::string buf = "pre";  // appends after existing bytes
    OrderedPutString(&buf, c.in);
    EXPECT_EQ(buf, "pre" + c.out);
    Slice in(c.out);
    std::string got = "stale";
    ASSERT_TRUE(OrderedGetString(&in, &got));
    EXPECT_EQ(got, c.in);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodecTest, OrderedStringRejectsMalformedEscapes) {
  const std::string cases[] = {
      "",                                   // empty: no terminator
      "abc",                                // no terminator
      std::string("ab\x00", 3),             // truncated escape at the end
      std::string("a\x00\xFF", 3),          // escaped 0x00, then no terminator
      std::string("a\x00\x02\x00\x01", 5),  // bad escape byte
      std::string("\x00\x00\x00\x01", 4),   // 0x00 followed by 0x00
      std::string("a\x00\xFE\x00\x01", 5),  // bad escape byte (0xFE)
  };
  for (const auto& c : cases) {
    Slice in(c);
    std::string got;
    EXPECT_FALSE(OrderedGetString(&in, &got)) << testing::PrintToString(c);
    EXPECT_EQ(in.size(), c.size()) << "input consumed on failure";
  }
  // Only the first terminator ends the string; trailing bytes stay unread.
  const std::string two("a\x00\x01" "b\x00\x01", 6);
  Slice in(two);
  std::string got;
  ASSERT_TRUE(OrderedGetString(&in, &got));
  EXPECT_EQ(got, "a");
  EXPECT_EQ(in.ToString(), std::string("b\x00\x01", 3));
}

TEST(CodecTest, OrderedStringIsSelfDelimiting) {
  // A string component followed by an int component must parse back exactly.
  std::string buf;
  OrderedPutString(&buf, "user");
  OrderedPutInt64(&buf, -5);
  Slice in(buf);
  std::string s;
  int64_t v;
  ASSERT_TRUE(OrderedGetString(&in, &s));
  ASSERT_TRUE(OrderedGetInt64(&in, &v));
  EXPECT_EQ(s, "user");
  EXPECT_EQ(v, -5);
}

TEST(CodecTest, OrderedDoubleOrder) {
  const double values[] = {-1e300, -2.5, -0.0, 0.0, 1e-300, 2.5, 1e300};
  std::string prev;
  for (double v : values) {
    std::string buf;
    OrderedPutDouble(&buf, v);
    if (!prev.empty()) EXPECT_LE(prev, buf) << v;
    Slice in(buf);
    double got;
    ASSERT_TRUE(OrderedGetDouble(&in, &got));
    EXPECT_EQ(got, v);
    prev = buf;
  }
}

TEST(CodecTest, PrefixEnd) {
  EXPECT_EQ(PrefixEnd("abc"), "abd");
  EXPECT_EQ(PrefixEnd(std::string("a\xff", 2)), "b");
  EXPECT_EQ(PrefixEnd(std::string("\xff\xff", 2)), "");
  // Everything with the prefix is < PrefixEnd.
  EXPECT_LT(std::string("abc\xff\xff"), PrefixEnd("abc"));
}

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownValues) {
  // Standard check value crc32c("123456789") = 0xE3069283, then the
  // RFC 3720 (iSCSI) section B.4 vectors; each for both kernels.
  std::string zeros(32, '\0'), ones(32, '\xff'), ascending(32, 0), descending(32, 0);
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  const std::string check = "123456789";
  const std::pair<const std::string*, uint32_t> vectors[] = {
      {&check, 0xE3069283u},     {&zeros, 0x8A9136AAu},
      {&ones, 0x62A8AB43u},      {&ascending, 0x46DD794Eu},
      {&descending, 0x113FDB5Cu},
  };
  for (const auto& [data, want] : vectors) {
    EXPECT_EQ(crc32c::Value(data->data(), data->size()), want);
    EXPECT_EQ(crc32c::ExtendPortable(0, data->data(), data->size()), want);
  }
}

TEST(Crc32cTest, ExtendEqualsWhole) {
  const std::string data = "hello world, this is a crc test";
  const uint32_t whole = crc32c::Value(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t part = crc32c::Extend(crc32c::Value(data.data(), split),
                                         data.data() + split, data.size() - split);
    EXPECT_EQ(whole, part) << "split " << split;
  }
}

TEST(Crc32cTest, ExtendMatchesPortableAtEveryLengthAndAlignment) {
  Random rnd(0xC3C32C);
  std::string buf(1024 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rnd.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 1024; ++n) {
      const auto init = static_cast<uint32_t>(rnd.Next());
      const char* data = buf.data() + offset;
      ASSERT_EQ(crc32c::Extend(init, data, n), crc32c::ExtendPortable(init, data, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32cTest, MaskRoundTrip) {
  const uint32_t crc = crc32c::Value("abc", 3);
  EXPECT_NE(crc32c::Mask(crc), crc);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.SetTime(10);
  EXPECT_EQ(clock.Now(), 10);
}

TEST(ClockTest, RealClockMonotonic) {
  RealClock* clock = RealClock::Instance();
  const Nanos a = clock->Now();
  const Nanos b = clock->Now();
  EXPECT_LE(a, b);
}

// ---------------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------------

TEST(RandomTest, Deterministic) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random rnd(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rnd.Uniform(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rnd.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random rnd(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rnd.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RandomTest, ZipfianSkewsTowardZero) {
  ZipfianGenerator zipf(1000, 0.99, 3);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = zipf.Next();
    EXPECT_LT(v, 1000u);
    if (v < 100) ++low;
  }
  // With theta=0.99 the head is strongly favored: >50% of draws in the
  // first 10% of the keyspace.
  EXPECT_GT(low, n / 2);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.P50(), 0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, ExactSmallValues) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 9);
  EXPECT_NEAR(h.Mean(), 4.5, 0.001);
}

TEST(HistogramTest, QuantilesApproximate) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Record(i * 1000);  // 1us..10ms
  // p50 within one bucket (~6%) of 5ms.
  EXPECT_NEAR(static_cast<double>(h.P50()), 5e6, 5e6 * 0.08);
  EXPECT_NEAR(static_cast<double>(h.P99()), 9.9e6, 9.9e6 * 0.08);
  EXPECT_EQ(h.max(), 10000000);
}

TEST(HistogramTest, MergeMatchesCombined) {
  Histogram a, b, combined;
  Random rnd(5);
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = static_cast<int64_t>(rnd.Uniform(1'000'000));
    if (i % 2 == 0) a.Record(v); else b.Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.P50(), combined.P50());
  EXPECT_EQ(a.P99(), combined.P99());
  EXPECT_EQ(a.max(), combined.max());
}

TEST(HistogramTest, FormatNanos) {
  EXPECT_EQ(Histogram::FormatNanos(500), "500ns");
  EXPECT_EQ(Histogram::FormatNanos(1'500'000), "1500.0us");
  EXPECT_EQ(Histogram::FormatNanos(25'000'000), "25.0ms");
  EXPECT_EQ(Histogram::FormatNanos(12'000'000'000LL), "12.00s");
}

}  // namespace
}  // namespace veloce
