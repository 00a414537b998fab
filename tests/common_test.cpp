// Unit tests for rtct_common: serialization, hashing, statistics, RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/common/types.h"

namespace rtct {
namespace {

// ---- bytes ----------------------------------------------------------------

TEST(BytesTest, RoundTripsAllWidths) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i8(-5);
  w.i16(-12345);
  w.i32(-123456789);
  w.i64(-1234567890123456789ll);
  w.str("hello");

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i8(), -5);
  EXPECT_EQ(r.i16(), -12345);
  EXPECT_EQ(r.i32(), -123456789);
  EXPECT_EQ(r.i64(), -1234567890123456789ll);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(BytesTest, LittleEndianOnTheWire) {
  ByteWriter w;
  w.u16(0x1234);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.data()[0], 0x34);
  EXPECT_EQ(w.data()[1], 0x12);
}

TEST(BytesTest, OverrunPoisonsReaderAndReturnsZeros) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 7);
  EXPECT_EQ(r.u32(), 0u);  // past the end
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // stays poisoned
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, BytesSpanIsBoundsChecked) {
  ByteWriter w;
  w.u32(0x01020304);
  ByteReader r(w.data());
  auto s = r.bytes(3);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(r.ok());
  auto over = r.bytes(5);
  EXPECT_TRUE(over.empty());
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, TruncatedStringFails) {
  ByteWriter w;
  w.str("truncate me");
  auto bytes = w.take();
  bytes.resize(bytes.size() - 3);
  ByteReader r(bytes);
  (void)r.str();
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, EmptyReaderIsAtEnd) {
  ByteReader r({});
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());
}

// ---- hash -----------------------------------------------------------------

TEST(HashTest, KnownFnvVector) {
  // FNV-1a 64 of empty input is the offset basis.
  EXPECT_EQ(fnv1a64({}), kFnvOffset);
  // "a" => well-known value.
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(fnv1a64(a), 0xaf63dc4c8601ec8cull);
}

TEST(HashTest, IncrementalMatchesOneShot) {
  const std::uint8_t data[] = {1, 2, 3, 4, 5, 6, 7, 8};
  Fnv1a64 h;
  h.update(std::span<const std::uint8_t>(data, 3));
  h.update(std::span<const std::uint8_t>(data + 3, 5));
  EXPECT_EQ(h.digest(), fnv1a64(data));
}

TEST(HashTest, SinkAliasesMatchByteEncoding) {
  // Hashing u16/u32/u64 through the sink API must equal hashing the
  // little-endian bytes (so visit_state digests match serialized bytes).
  ByteWriter w;
  w.u16(0x1234);
  w.u32(0x89ABCDEF);
  w.u64(0x1122334455667788ull);

  Fnv1a64 h;
  h.u16(0x1234);
  h.u32(0x89ABCDEF);
  h.u64(0x1122334455667788ull);
  EXPECT_EQ(h.digest(), fnv1a64(w.data()));
}

TEST(HashTest, WordAtATimeMatchesReferenceByteLoop) {
  // Fnv1a64::update consumes 8-byte chunks on the hot path; FNV-1a is
  // byte-serial by definition, so the digest must equal the textbook
  // byte loop for every length (tails) and split point (alignment).
  auto reference = [](std::span<const std::uint8_t> data) {
    std::uint64_t h = kFnvOffset;
    for (std::uint8_t b : data) h = (h ^ b) * kFnvPrime;
    return h;
  };
  std::vector<std::uint8_t> data(257);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::span<const std::uint8_t> s(data.data(), len);
    ASSERT_EQ(fnv1a64(s), reference(s)) << "length " << len;
  }
  // Split mid-word: incremental updates may leave the accumulator at any
  // byte offset, the next chunk must still fold identically.
  for (std::size_t split = 0; split <= 24; ++split) {
    Fnv1a64 h;
    h.update(std::span<const std::uint8_t>(data.data(), split));
    h.update(std::span<const std::uint8_t>(data.data() + split, 100));
    ASSERT_EQ(h.digest(), reference({data.data(), split + 100})) << "split " << split;
  }
}

TEST(HashTest, BlocksMatchPerBlockHash) {
  // fnv1a64_blocks interleaves four chains; each value must still be the
  // plain per-block digest, for full groups of four, every leftover count,
  // short and page-sized block lengths, and blocks at odd addresses.
  std::vector<std::uint8_t> data(10 * 257 + 1);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (const std::size_t len : {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
    for (std::size_t n = 0; n <= 9; ++n) {
      std::vector<const std::uint8_t*> blocks;
      for (std::size_t b = 0; b < n; ++b) blocks.push_back(data.data() + 1 + b * 257);
      std::vector<std::uint64_t> out(n + 1, 0xdead);
      fnv1a64_blocks(blocks, len, out);
      for (std::size_t b = 0; b < n; ++b) {
        ASSERT_EQ(out[b], fnv1a64({blocks[b], len}))
            << "n " << n << " len " << len << " block " << b;
      }
      EXPECT_EQ(out[n], 0xdeadu) << "wrote past the last block";
    }
  }
}

TEST(HashTest, SensitiveToEveryByte) {
  std::vector<std::uint8_t> data(64, 0);
  const auto base = fnv1a64(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 1;
    EXPECT_NE(fnv1a64(data), base) << "byte " << i;
    data[i] = 0;
  }
}

// ---- stats ----------------------------------------------------------------

TEST(StatsTest, PaperFootnote10MeanAbsDeviation) {
  // Footnote 10: avg deviation of {1,2,3,4} around mean 2.5 is 1.0.
  Series s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  const auto sum = s.summarize();
  EXPECT_DOUBLE_EQ(sum.mean, 2.5);
  EXPECT_DOUBLE_EQ(sum.mean_abs_deviation, 1.0);
}

TEST(StatsTest, PaperFootnote11AbsoluteAverage) {
  // Footnote 11: absolute average of {-3, 1, -1, 3} is 2.
  Series s;
  for (double x : {-3.0, 1.0, -1.0, 3.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.summarize().mean_abs, 2.0);
  EXPECT_DOUBLE_EQ(s.summarize().mean, 0.0);
}

TEST(StatsTest, MinMaxStddevPercentiles) {
  Series s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  const auto sum = s.summarize();
  EXPECT_DOUBLE_EQ(sum.min, 1);
  EXPECT_DOUBLE_EQ(sum.max, 100);
  EXPECT_DOUBLE_EQ(sum.mean, 50.5);
  EXPECT_NEAR(sum.p50, 50.5, 1e-9);
  EXPECT_NEAR(sum.p95, 95.05, 1e-9);
  EXPECT_NEAR(sum.stddev, std::sqrt(833.25), 1e-9);
}

TEST(StatsTest, EmptySeriesIsAllZero) {
  const auto sum = Series{}.summarize();
  EXPECT_EQ(sum.count, 0u);
  EXPECT_EQ(sum.mean, 0);
  EXPECT_EQ(sum.p99, 0);
}

TEST(StatsTest, SingleSampleHasZeroDeviation) {
  Series s;
  s.add(42);
  const auto sum = s.summarize();
  EXPECT_DOUBLE_EQ(sum.mean, 42);
  EXPECT_DOUBLE_EQ(sum.mean_abs_deviation, 0);
  EXPECT_DOUBLE_EQ(sum.p50, 42);
}

TEST(StatsTest, ConsecutiveDeltasTurnStartTimesIntoFrameTimes) {
  const std::vector<double> starts = {0, 16.7, 33.4, 60.0};
  const auto deltas = consecutive_deltas(starts);
  ASSERT_EQ(deltas.size(), 3u);
  EXPECT_NEAR(deltas[0], 16.7, 1e-9);
  EXPECT_NEAR(deltas[2], 26.6, 1e-9);
  EXPECT_TRUE(consecutive_deltas({1.0}).empty());
}

TEST(StatsTest, AddDurStoresMilliseconds) {
  Series s;
  s.add_dur(milliseconds(5));
  EXPECT_DOUBLE_EQ(s.samples()[0], 5.0);
}

// ---- rng ------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_EQ(same, 0);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformCoversRangeInclusive) {
  Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.uniform(3, 8));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 8);
  EXPECT_EQ(r.uniform(5, 5), 5);
  EXPECT_EQ(r.uniform(9, 2), 9);  // degenerate range clamps to lo
}

TEST(RngTest, BernoulliFrequency) {
  Rng r(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
}

TEST(RngTest, NormalMoments) {
  Rng r(13);
  double sum = 0, sum2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, JitterRespectsLowerBound) {
  Rng r(15);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(r.jitter(milliseconds(1), milliseconds(10), 0), 0);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng r(17);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, ForkIsIndependentStream) {
  Rng a(21);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

// ---- time / types ----------------------------------------------------------

TEST(TimeTest, UnitsAndConversions) {
  EXPECT_EQ(milliseconds(1), 1000 * microseconds(1));
  EXPECT_EQ(seconds(1), 1000 * milliseconds(1));
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(250)), 250.0);
  EXPECT_EQ(frame_period(60), 16666666);
  EXPECT_EQ(frame_period(50), 20000000);
}

TEST(TypesTest, SiteBitPartitionIsDisjointAndComplete) {
  // The paper's SET[j] ∩ SET[k] = {} requirement.
  EXPECT_EQ(site_input_mask(0) & site_input_mask(1), 0);
  EXPECT_EQ(site_input_mask(0) | site_input_mask(1), 0xFFFF);
  EXPECT_EQ(site_input_mask(kNoSite), 0);
}

TEST(TypesTest, MergeAndExtractRoundTrip) {
  const InputWord full = make_input(0xAB, 0xCD);
  EXPECT_EQ(player_byte(full, 0), 0xAB);
  EXPECT_EQ(player_byte(full, 1), 0xCD);
  EXPECT_EQ(site_bits(full, 0), 0x00AB);
  EXPECT_EQ(site_bits(full, 1), 0xCD00);

  InputWord w = 0;
  w = merge_site_bits(w, site_bits(full, 0), 0);
  w = merge_site_bits(w, site_bits(full, 1), 1);
  EXPECT_EQ(w, full);
}

TEST(TypesTest, MergeReplacesOnlyOwnBits) {
  InputWord w = make_input(0x11, 0x22);
  w = merge_site_bits(w, make_input(0xFF, 0xEE), 0);  // only p0 bits move
  EXPECT_EQ(player_byte(w, 0), 0xFF);
  EXPECT_EQ(player_byte(w, 1), 0x22);
}

}  // namespace
}  // namespace rtct
