// Hash-function tests: published test vectors (FIPS 180-4, RFC 7693),
// incremental-API equivalence, the self-verifying SHA-512 constant
// schedules (fracroot), and seeded differential checks of BLAKE2b and of
// both BLAKE2bp paths (the AVX2 stripe kernel and the scalar leaves) against
// the reference implementation in support/blake2b_oracle.h.
#include <gtest/gtest.h>

#include <string>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/blake2b.h"
#include "crypto/blake2bp.h"
#include "crypto/fracroot.h"
#include "crypto/sha512.h"
#include "support/blake2b_oracle.h"

namespace mahimahi::crypto {
namespace {

std::string hex512(const std::array<std::uint8_t, 64>& digest) {
  return to_hex({digest.data(), digest.size()});
}

// --- SHA-512 ---------------------------------------------------------------

TEST(Sha512, EmptyString) {
  EXPECT_EQ(hex512(Sha512::hash({})),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(hex512(Sha512::hash(as_bytes_view("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, QuickBrownFox) {
  EXPECT_EQ(hex512(Sha512::hash(as_bytes_view("The quick brown fox jumps over the lazy dog"))),
            "07e547d9586f6a73f73fbac0435ed76951218fb7d0c8d788a309d785436bbb64"
            "2e93a252a954f23912547d1e8a3b5ed6e1bfd7097821233fa0538f3db854fee6");
}

TEST(Sha512, IncrementalMatchesOneShot) {
  const std::string msg(517, 'z');  // spans several 128-byte blocks
  Sha512 h;
  for (std::size_t i = 0; i < msg.size(); i += 100) {
    h.update(as_bytes_view(msg.substr(i, 100)));
  }
  EXPECT_EQ(h.finish(), Sha512::hash(as_bytes_view(msg)));
}

TEST(Sha512, BlockBoundaryLengths) {
  for (std::size_t len = 100; len <= 260; len += 3) {
    const std::string msg(len, 'w');
    Sha512 split_hash;
    split_hash.update(as_bytes_view(msg.substr(0, len / 3)));
    split_hash.update(as_bytes_view(msg.substr(len / 3)));
    EXPECT_EQ(split_hash.finish(), Sha512::hash(as_bytes_view(msg))) << "len " << len;
  }
}

TEST(Sha512, FirstRoundConstantsAreTheFamousOnes) {
  // Spot-check the generated schedule against the widely published first
  // four constants.
  const auto& k = sha512_round_constants();
  EXPECT_EQ(k[0], 0x428a2f98d728ae22ULL);
  EXPECT_EQ(k[1], 0x7137449123ef65cdULL);
  EXPECT_EQ(k[2], 0xb5c0fbcfec4d3b2fULL);
  EXPECT_EQ(k[3], 0xe9b5dba58189dbbcULL);
  EXPECT_EQ(k[79], 0x6c44198c4a475817ULL);
}

TEST(FracRoot, SqrtConstantsMatchSha512InitVector) {
  // H0..H7 of SHA-512 are the fractional sqrt bits of the first 8 primes.
  const auto primes = first_primes<8>();
  constexpr std::uint64_t kExpected[8] = {
      0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL, 0x3c6ef372fe94f82bULL,
      0xa54ff53a5f1d36f1ULL, 0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
      0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(frac_sqrt64(primes[i]), kExpected[i]) << "prime " << primes[i];
  }
}

TEST(FracRoot, PerfectSquaresAndCubesHaveZeroFraction) {
  EXPECT_EQ(frac_sqrt64(4), 0u);
  EXPECT_EQ(frac_sqrt64(9), 0u);
  EXPECT_EQ(frac_cbrt64(8), 0u);
  EXPECT_EQ(frac_cbrt64(27), 0u);
}

// --- BLAKE2b ---------------------------------------------------------------

TEST(Blake2b, Rfc7693AbcVector) {
  EXPECT_EQ(hex512(Blake2b::hash512(as_bytes_view("abc"))),
            "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1"
            "7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923");
}

TEST(Blake2b, EmptyString512) {
  EXPECT_EQ(hex512(Blake2b::hash512({})),
            "786a02f742015903c6c6fd852552d272912f4740e15847618a86e217f71f5419"
            "d25e1031afee585313896444934eb04b903a685b1448b755d56f701afe9be2ce");
}

TEST(Blake2b, EmptyString256) {
  EXPECT_EQ(Blake2b::hash256({}).hex(),
            "0e5751c026e543b2e8ab2eb06099daa1d1e5df47778f7787faab45cdf12fe3a8");
}

TEST(Blake2b, Abc256) {
  EXPECT_EQ(Blake2b::hash256(as_bytes_view("abc")).hex(),
            "bddd813c634239723171ef3fee98579b94964e3bb1cb3e427262c8c068d52319");
}

TEST(Blake2b, MultiBlockInput) {
  const std::string msg(300, 'x');  // crosses two 128-byte block boundaries
  EXPECT_EQ(Blake2b::hash256(as_bytes_view(msg)).hex(),
            "5aa7fbbf37986bb2a5d547c0d3c4d4326a24d786e7d57bf93fc784176e38b33d");
}

TEST(Blake2b, KeyedMode) {
  EXPECT_EQ(Blake2b::mac256(as_bytes_view("secret-key"), as_bytes_view("data to mac")).hex(),
            "119b2a392331731addd55bcaac5f5821a0e19e748b2dfbf808d009ce3a0685e9");
  EXPECT_EQ(Blake2b::mac256(as_bytes_view("k"), {}).hex(),
            "490b6c8300eb23464bd2f9ca37c036be5091da14ddbeafab424c4c0a1f9eaac5");
}

TEST(Blake2b, VariableDigestLengths) {
  Blake2b h1(1);
  h1.update(as_bytes_view("abc"));
  std::uint8_t out1[1];
  h1.finish(out1);
  EXPECT_EQ(to_hex({out1, 1}), "6b");

  Blake2b h20(20);
  h20.update(as_bytes_view("abc"));
  std::uint8_t out20[20];
  h20.finish(out20);
  EXPECT_EQ(to_hex({out20, 20}), "384264f676f39536840523f284921cdc68b6846b");
}

TEST(Blake2b, IncrementalMatchesOneShot) {
  const std::string msg(1000, 'm');
  for (const std::size_t chunk : {1ul, 7ul, 127ul, 128ul, 129ul, 500ul}) {
    Blake2b h(32);
    for (std::size_t i = 0; i < msg.size(); i += chunk) {
      h.update(as_bytes_view(msg.substr(i, chunk)));
    }
    Digest d;
    h.finish(d.bytes.data());
    EXPECT_EQ(d, Blake2b::hash256(as_bytes_view(msg))) << "chunk " << chunk;
  }
}

TEST(Blake2b, ExactBlockMultiples) {
  // 128- and 256-byte inputs exercise the "full buffer is not final" rule.
  const std::string one_block(128, 'b');
  const std::string two_blocks(256, 'b');
  EXPECT_NE(Blake2b::hash256(as_bytes_view(one_block)),
            Blake2b::hash256(as_bytes_view(two_blocks)));
  Blake2b split;
  split.update(as_bytes_view(one_block));
  split.update(as_bytes_view(one_block));
  Digest d;
  split.finish(d.bytes.data());
  EXPECT_EQ(d, Blake2b::hash256(as_bytes_view(two_blocks)));
}

// RFC 7693 Appendix E: the self-test "grand hash" over unkeyed and keyed
// digests of every (digest length, input length) pair it lists.
TEST(Blake2b, Rfc7693SelfTest) {
  const auto sequence = [](std::size_t length, std::uint32_t seed) {
    Bytes out(length);
    std::uint32_t a = 0xDEAD4BAD * seed;
    std::uint32_t b = 1;
    for (auto& byte : out) {
      const std::uint32_t t = a + b;
      a = b;
      b = t;
      byte = static_cast<std::uint8_t>(t >> 24);
    }
    return out;
  };
  Blake2b grand(32);
  for (const std::size_t out_len : {20u, 32u, 48u, 64u}) {
    for (const std::size_t in_len : {0u, 3u, 128u, 129u, 255u, 1024u}) {
      const Bytes in = sequence(in_len, static_cast<std::uint32_t>(in_len));
      const Bytes key = sequence(out_len, static_cast<std::uint32_t>(out_len));
      for (const BytesView k : {BytesView{}, BytesView{key.data(), key.size()}}) {
        Blake2b h(out_len, k);
        h.update({in.data(), in.size()});
        std::uint8_t md[64];
        h.finish(md);
        grand.update({md, out_len});
      }
    }
  }
  Digest d;
  grand.finish(d.bytes.data());
  EXPECT_EQ(d.hex(), "c23a7800d98123bd10f506c61e29da5603d763b8bbad2e737f5e765a7bccd475");
}

// The reference package's keyed known-answer vectors (key 00..3f).
TEST(Blake2b, KeyedKnownAnswers) {
  Bytes key(64), in(255);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<std::uint8_t>(i);
  const auto keyed512 = [&](std::size_t in_len) {
    Blake2b h(64, {key.data(), key.size()});
    h.update({in.data(), in_len});
    std::uint8_t md[64];
    h.finish(md);
    return to_hex({md, 64});
  };
  EXPECT_EQ(keyed512(0),
            "10ebb67700b1868efb4417987acf4690ae9d972fb7a590c2f02871799aaa4786"
            "b5e996e8f0f4eb981fc214b005f42d2ff4233499391653df7aefcbc13fc51568");
  EXPECT_EQ(keyed512(255),
            "142709d62e28fcccd0af97fad0f8465b971e82201dc51070faa0372aa43e9248"
            "4be1c1e73ba10906d5d1853db6a4106e0a7bf9800d373d6dee2d46d62ef2a461");
}

// Every length 0..1000 plus a block-sized 296 KB input, one-shot and in
// random chunks, against the staged reference implementation.
TEST(Blake2b, MatchesReferenceImplementation) {
  Rng rng(7693);
  Bytes data(296 * 1024);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<std::size_t> lengths;
  for (std::size_t length = 0; length <= 1000; ++length) lengths.push_back(length);
  lengths.push_back(data.size());
  for (const std::size_t length : lengths) {
    const BytesView input{data.data(), length};
    oracle::Blake2bReference reference(32);
    reference.update(input);
    const Bytes expected = reference.finish();
    ASSERT_EQ(to_hex(Blake2b::hash256(input).view()), to_hex({expected.data(), 32}))
        << "length " << length;

    Blake2b chunked(32);
    for (std::size_t offset = 0; offset < length;) {
      const std::size_t take = std::min<std::size_t>(rng.uniform(300), length - offset);
      chunked.update(input.subspan(offset, take));
      offset += take;
    }
    Digest d;
    chunked.finish(d.bytes.data());
    ASSERT_EQ(to_hex(d.view()), to_hex({expected.data(), 32})) << "chunked length " << length;
  }
}

// --- BLAKE2bp --------------------------------------------------------------

Bytes random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.next_u64());
  return data;
}

Bytes pattern(std::size_t size) {
  Bytes data(size);
  for (std::size_t i = 0; i < size; ++i) data[i] = static_cast<std::uint8_t>(i % 251);
  return data;
}

std::string reference256(BytesView data) {
  const Bytes expected = oracle::blake2bp_reference(data, 32);
  return to_hex({expected.data(), expected.size()});
}

// The oracle's tree, with the 64-byte output where every node's declared
// digest length is 64, against values computed independently from CPython's
// hashlib.blake2b with the same node parameters (fanout, depth, node offset,
// node depth, inner size, last node).
TEST(Blake2bpReference, MatchesIndependentTreeParameters) {
  const auto reference512 = [](BytesView data) {
    const Bytes out = oracle::blake2bp_reference(data, 64);
    return to_hex({out.data(), out.size()});
  };
  EXPECT_EQ(reference512({}),
            "b5ef811a8038f70b628fa8b294daae7492b1ebe343a80eaabbf1f6ae664dd67b"
            "9d90b0120791eab81dc96985f28849f6a305186a85501b405114bfa678df9380");
  EXPECT_EQ(reference512(as_bytes_view("abc")),
            "b91a6b66ae87526c400b0a8b53774dc65284ad8f6575f8148ff93dff943a6ecd"
            "8362130f22d6dae633aa0f91df4ac89aaff31d0f1b923c898e82025dedbdad6e");
  const Bytes p640 = pattern(640);  // a full stripe plus one block
  EXPECT_EQ(reference512({p640.data(), p640.size()}),
            "0baeb34afb0295343c42d880fd427b6736a684a6f1e13154db7c01739da1d21d"
            "102f84a67a4c18e851eda12f58b5773242d41c67f00557dac7df98e374b8086c");
  const Bytes p4096 = pattern(4096);
  EXPECT_EQ(reference512({p4096.data(), p4096.size()}),
            "fbbb33fc5f391469bee5dc52c62707e6171baa52451a869bb9207cc690bd2899"
            "1017c86d1110aee447a40fce7d3f20a148b56eb65d501e94cbd41ae356b48619");
}

// Every length 0..4096 and a block-sized 296 KiB input, each also 1-7 bytes
// off alignment, one-shot and in random chunks, against the oracle.
void expect_matches_reference(Digest (*hash)(BytesView), bool dispatched) {
  const Bytes data = random_bytes(296 * 1024, 0xb1a2b);
  std::vector<std::size_t> lengths;
  for (std::size_t length = 0; length <= 4096; ++length) lengths.push_back(length);
  lengths.push_back(data.size());
  Bytes shifted(data.size() + 8);
  Rng rng(4);
  for (const std::size_t length : lengths) {
    const BytesView input{data.data(), length};
    const std::string expected = reference256(input);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      std::copy(input.begin(), input.end(), shifted.begin() + static_cast<std::ptrdiff_t>(offset));
      ASSERT_EQ(hash({shifted.data() + offset, length}).hex(), expected)
          << "length " << length << " offset " << offset;
    }
    if (!dispatched) continue;
    Blake2bp chunked;
    for (std::size_t at = 0; at < length;) {
      const std::size_t take = std::min<std::size_t>(rng.uniform(1200), length - at);
      chunked.update(input.subspan(at, take));
      at += take;
    }
    ASSERT_EQ(chunked.finish().hex(), expected) << "chunked length " << length;
  }
}

TEST(Blake2bp, PortableMatchesReference) {
  expect_matches_reference(&Blake2bp::hash256_portable, false);
}

TEST(Blake2bp, DispatchedMatchesReference) {
  expect_matches_reference(&Blake2bp::hash256, true);
}

// On an AVX2 host the dispatched path is the stripe kernel, so
// DispatchedMatchesReference above checked the kernel.
TEST(Blake2bp, Avx2HostsRunTheKernel) {
#if defined(__x86_64__)
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "host has no AVX2";
  EXPECT_TRUE(Blake2bp::vectorized());
#else
  GTEST_SKIP() << "the AVX2 kernel is x86-64 only";
#endif
}

TEST(Blake2bp, GoldenDigests) {
  const Bytes p4096 = pattern(4096);
  for (const auto hash : {&Blake2bp::hash256, &Blake2bp::hash256_portable}) {
    EXPECT_EQ(hash({}).hex(),
              "e3f5e2e3c4336e2b8eec91ecb154e40c8b1fa34091b286bca5b67d5a7f87ff98");
    EXPECT_EQ(hash(as_bytes_view("abc")).hex(),
              "4792f00c05827a437fc55481e447eea1c9a39add28087733b3e53f1c04430dc7");
    EXPECT_EQ(hash({p4096.data(), p4096.size()}).hex(),
              "16caafd8dd1ed52836ab5339a5bc4f470b945706a4ef2d6303d5db80ba0e4014");
  }
}

TEST(BulkHash, CrossoverPicksTheHash) {
  const Bytes data = random_bytes(2 * kBulkHashCrossover, 11);
  for (const std::size_t length :
       {std::size_t{0}, std::size_t{1}, kBulkHashCrossover - 1, kBulkHashCrossover,
        kBulkHashCrossover + 1, data.size()}) {
    const BytesView input{data.data(), length};
    const Digest expected = length < kBulkHashCrossover ? Blake2b::hash256(input)
                                                        : Blake2bp::hash256(input);
    EXPECT_EQ(bulk_hash256(input), expected) << "length " << length;
  }
  // The two parameter blocks separate the hashes on the same bytes.
  const BytesView at_crossover{data.data(), kBulkHashCrossover};
  EXPECT_NE(Blake2b::hash256(at_crossover), Blake2bp::hash256(at_crossover));
}

}  // namespace
}  // namespace mahimahi::crypto
