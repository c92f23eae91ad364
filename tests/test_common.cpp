// Unit tests for the common utilities: hex, CRC-32, RNG, byte helpers.
#include <gtest/gtest.h>

#include <set>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/hex.h"
#include "common/rng.h"
#include "common/time.h"

namespace mahimahi {
namespace {

TEST(Hex, EncodesKnownBytes) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(to_hex({data.data(), data.size()}), "0001abff");
}

TEST(Hex, EmptyInput) {
  EXPECT_EQ(to_hex({}), "");
  const auto decoded = from_hex("");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(Hex, RoundTrips) {
  Bytes data;
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<std::uint8_t>(i));
  const auto decoded = from_hex(to_hex({data.data(), data.size()}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(Hex, AcceptsUppercase) {
  const auto decoded = from_hex("ABCDEF");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(to_hex({decoded->data(), decoded->size()}), "abcdef");
}

TEST(Hex, RejectsOddLength) { EXPECT_FALSE(from_hex("abc").has_value()); }

TEST(Hex, RejectsNonHexCharacters) {
  EXPECT_FALSE(from_hex("zz").has_value());
  EXPECT_FALSE(from_hex("0g").has_value());
  EXPECT_FALSE(from_hex(" 1").has_value());
}

TEST(Crc32, KnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(crc32(as_bytes_view("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  const Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  std::uint32_t state = crc32_init();
  for (std::size_t i = 0; i < data.size(); i += 7) {
    const std::size_t take = std::min<std::size_t>(7, data.size() - i);
    state = crc32_update(state, {data.data() + i, take});
  }
  EXPECT_EQ(crc32_finish(state), crc32({data.data(), data.size()}));
}

// The bytewise reference the sliced kernel must match bit for bit: WAL
// segments, checkpoints, deltas and certificates written by any version stay
// readable.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t state = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    state ^= data[i];
    for (int k = 0; k < 8; ++k) state = (state & 1) ? 0xedb88320u ^ (state >> 1) : state >> 1;
  }
  return state ^ 0xffffffffu;
}

TEST(Crc32, MatchesBytewiseReferenceAtAnyLengthAlignmentAndSplit) {
  Rng rng(42);
  Bytes buffer(4096 + 16);
  for (auto& byte : buffer) byte = static_cast<std::uint8_t>(rng.next_u64());
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t offset = rng.uniform(16);
    const std::size_t size = rng.uniform(4097);
    const std::uint8_t* data = buffer.data() + offset;
    const std::uint32_t expected = reference_crc32(data, size);
    ASSERT_EQ(crc32({data, size}), expected) << "size " << size << " offset " << offset;
    // Random incremental split points.
    std::uint32_t state = crc32_init();
    for (std::size_t at = 0; at < size;) {
      const std::size_t take = rng.uniform(size - at) + 1;
      state = crc32_update(state, {data + at, take});
      at += take;
    }
    ASSERT_EQ(crc32_finish(state), expected) << "size " << size << " offset " << offset;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  Bytes data = to_bytes("some WAL record payload");
  const std::uint32_t original = crc32({data.data(), data.size()});
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    data[byte] ^= 0x01;
    EXPECT_NE(crc32({data.data(), data.size()}), original) << "flip at " << byte;
    data[byte] ^= 0x01;
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(19);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(40.0);
  EXPECT_NEAR(sum / kSamples, 40.0, 1.5);
}

TEST(Rng, GaussianRoughlyStandard) {
  Rng rng(23);
  double sum = 0, sum_sq = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const double v = rng.gaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / kSamples, 1.0, 0.05);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(29);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += parent.next_u64() == child.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Bytes, CtEqualBasics) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(ct_equal({a.data(), a.size()}, {b.data(), b.size()}));
  EXPECT_FALSE(ct_equal({a.data(), a.size()}, {c.data(), c.size()}));
  EXPECT_FALSE(ct_equal({a.data(), a.size()}, {d.data(), d.size()}));
}

TEST(Time, ConversionHelpers) {
  EXPECT_EQ(millis(1500), 1'500'000);
  EXPECT_EQ(seconds(2.5), 2'500'000);
  EXPECT_DOUBLE_EQ(to_seconds(250'000), 0.25);
}

}  // namespace
}  // namespace mahimahi
