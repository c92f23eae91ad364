// Serialization tests: round-trips, varint edges, malformed-input rejection.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "serde/serde.h"

namespace mahimahi::serde {
namespace {

TEST(Serde, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  Reader r({w.data().data(), w.data().size()});
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.done());
}

TEST(Serde, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(Serde, VarintBoundaries) {
  for (const std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, 0xffffffffULL,
        0xffffffffffffffffULL}) {
    Writer w;
    w.varint(v);
    Reader r({w.data().data(), w.data().size()});
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.done());
  }
}

TEST(Serde, VarintEncodingSizes) {
  const auto encoded_size = [](std::uint64_t v) {
    Writer w;
    w.varint(v);
    return w.size();
  };
  EXPECT_EQ(encoded_size(0), 1u);
  EXPECT_EQ(encoded_size(127), 1u);
  EXPECT_EQ(encoded_size(128), 2u);
  EXPECT_EQ(encoded_size(16383), 2u);
  EXPECT_EQ(encoded_size(16384), 3u);
  EXPECT_EQ(encoded_size(0xffffffffffffffffULL), 10u);
}

TEST(Serde, VarintRejectsOverflow) {
  // 11 continuation bytes: too long for 64 bits.
  Bytes malformed(11, 0x80);
  Reader r({malformed.data(), malformed.size()});
  EXPECT_THROW(r.varint(), SerdeError);
}

TEST(Serde, VarintRejectsOverlongFinalByte) {
  // 9 continuation bytes then a byte using more than the 1 remaining bit.
  Bytes malformed(9, 0x80);
  malformed.push_back(0x02);
  Reader r({malformed.data(), malformed.size()});
  EXPECT_THROW(r.varint(), SerdeError);
}

TEST(Serde, VarintRejectsOverlongEncodings) {
  // Writer's encodings (including a lone zero byte) are the only accepted
  // ones: a zero final byte after the first byte always has a shorter form.
  for (const Bytes& overlong : {Bytes{0x80, 0x00}, Bytes{0x81, 0x00}, Bytes{0xff, 0x80, 0x00},
                                Bytes{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00}}) {
    Reader r({overlong.data(), overlong.size()});
    EXPECT_THROW(r.varint(), SerdeError) << overlong.size() << " bytes";
  }
  const Bytes zero = {0x00};
  Reader r({zero.data(), zero.size()});
  EXPECT_EQ(r.varint(), 0u);
}

TEST(Serde, VarintSizeMatchesWriter) {
  for (std::uint64_t v = 1; v != 0; v <<= 1) {
    for (const std::uint64_t probe : {v - 1, v, v + 1}) {
      Writer w;
      w.varint(probe);
      EXPECT_EQ(varint_size(probe), w.size()) << probe;
    }
  }
}

TEST(Serde, VarintTruncatedThrows) {
  Bytes truncated = {0x80, 0x80};  // continuation bits with no terminator
  Reader r({truncated.data(), truncated.size()});
  EXPECT_THROW(r.varint(), SerdeError);
}

TEST(Serde, BytesRoundTrip) {
  Writer w;
  const Bytes payload = {1, 2, 3, 4, 5};
  w.bytes({payload.data(), payload.size()});
  w.bytes({});  // empty
  Reader r({w.data().data(), w.data().size()});
  EXPECT_EQ(r.bytes(), payload);
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serde, BytesRejectsLyingLengthPrefix) {
  Writer w;
  w.varint(1000);  // claims 1000 bytes
  w.u8(42);        // provides 1
  Reader r({w.data().data(), w.data().size()});
  EXPECT_THROW(r.bytes(), SerdeError);
}

TEST(Serde, ReadPastEndThrows) {
  Writer w;
  w.u16(7);
  Reader r({w.data().data(), w.data().size()});
  r.u8();
  r.u8();
  EXPECT_THROW(r.u8(), SerdeError);
  EXPECT_THROW(r.u64(), SerdeError);
}

TEST(Serde, ExpectDoneRejectsTrailingBytes) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r({w.data().data(), w.data().size()});
  r.u8();
  EXPECT_THROW(r.expect_done(), SerdeError);
  r.u8();
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Serde, DigestRoundTrip) {
  Digest d;
  for (int i = 0; i < 32; ++i) d.bytes[i] = static_cast<std::uint8_t>(i * 3);
  Writer w;
  w.digest(d);
  Reader r({w.data().data(), w.data().size()});
  EXPECT_EQ(r.digest(), d);
}

TEST(Serde, RandomizedMixedRoundTrip) {
  Rng rng(99);
  for (int iteration = 0; iteration < 200; ++iteration) {
    // Random sequence of typed writes, then read it back.
    std::vector<int> kinds;
    std::vector<std::uint64_t> values;
    Writer w;
    const int ops = static_cast<int>(rng.uniform(20)) + 1;
    for (int i = 0; i < ops; ++i) {
      const int kind = static_cast<int>(rng.uniform(4));
      const std::uint64_t value = rng.next_u64();
      kinds.push_back(kind);
      values.push_back(value);
      switch (kind) {
        case 0: w.u8(static_cast<std::uint8_t>(value)); break;
        case 1: w.u32(static_cast<std::uint32_t>(value)); break;
        case 2: w.u64(value); break;
        case 3: w.varint(value); break;
      }
    }
    Reader r({w.data().data(), w.data().size()});
    for (int i = 0; i < ops; ++i) {
      switch (kinds[i]) {
        case 0: EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(values[i])); break;
        case 1: EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(values[i])); break;
        case 2: EXPECT_EQ(r.u64(), values[i]); break;
        case 3: EXPECT_EQ(r.varint(), values[i]); break;
      }
    }
    EXPECT_TRUE(r.done());
  }
}

}  // namespace
}  // namespace mahimahi::serde
