// Ed25519 tests: RFC 8032 vectors, independently generated cross-check
// vectors, randomized sign/verify round-trips, rejection paths, and a seeded
// differential check of the fast curve arithmetic against the simple
// reference implementation in support/curve25519_oracle.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/curve25519.h"
#include "crypto/ed25519.h"
#include "crypto/sha512.h"
#include "support/curve25519_oracle.h"

namespace mahimahi::crypto {
namespace {

std::array<std::uint8_t, 32> seed_from_hex(const std::string& hex) {
  const auto bytes = from_hex(hex);
  std::array<std::uint8_t, 32> out{};
  std::copy(bytes->begin(), bytes->end(), out.begin());
  return out;
}

std::string hex_of(BytesView view) { return to_hex(view); }

TEST(Ed25519, Rfc8032Vector1EmptyMessage) {
  const auto kp = ed25519_keypair_from_seed(
      seed_from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  EXPECT_EQ(hex_of({kp.public_key.bytes.data(), 32}),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
  const auto sig = ed25519_sign(kp.private_key, {});
  EXPECT_EQ(hex_of({sig.bytes.data(), 64}),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33b"
            "acc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(ed25519_verify(kp.public_key, {}, sig));
}

TEST(Ed25519, Rfc8032Vector2OneByteMessage) {
  const auto kp = ed25519_keypair_from_seed(
      seed_from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"));
  EXPECT_EQ(hex_of({kp.public_key.bytes.data(), 32}),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
  const Bytes msg = {0x72};
  const auto sig = ed25519_sign(kp.private_key, {msg.data(), msg.size()});
  EXPECT_EQ(hex_of({sig.bytes.data(), 64}),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e1599"
            "6e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(ed25519_verify(kp.public_key, {msg.data(), msg.size()}, sig));
}

struct CrossCheckVector {
  const char* seed;
  const char* pub;
  const char* msg;
  const char* sig;
};

// Generated with an independent reference implementation.
constexpr CrossCheckVector kCrossChecks[] = {
    {"d36e527b204b8b1139f7344431ead1badfcee4f0b8cef7c5ba7904f576fb2ca4",
     "3ead76439cc73f35baa63357b6f0de2e8e545863cfc38f9e916da21d22d70152", "message-0",
     "8b0e495875a6545b81b14c4aaf43dac77432dba2e147f0637c44b628bf6ffe39c8f98485f67fc1699"
     "6c75c72e1caf2fc0803f0ee49e171d0abc2693e470ff403"},
    {"082e892f413046b383efc16f5c543cf062bbb08b644acf499b984939899ff059",
     "b895b33bb5224080b8465508b068001e3396f2ff20def63d7901b76f8bf99dca", "message-1",
     "14d75910f76e076b7413a89544a72903f68ea0ec652cecaa46647bc60595975c9eef8a5e3c3226339"
     "c56de9c39161ffac3582e4a0fdbc500271a97b4352ab20a"},
    {"84d92a0051127417a1a6524cfda1b609838ec9e1b15de188df06c3a27507ae0c",
     "8f69f5cd73d5dab2c2d0dc78da45efcf8bfa1a58df50ca4d44f81e165b6cc2bf", "message-2",
     "d1faa824465fc536a4995cdbd84fead8877b3fa27617477972013b3b00e1c76e1a085a5263698b8dd"
     "d1c7be89179118d70d41f77afdb8cf563223ec5c475810e"},
};

class Ed25519CrossCheck : public ::testing::TestWithParam<CrossCheckVector> {};

TEST_P(Ed25519CrossCheck, MatchesReferenceImplementation) {
  const auto& vec = GetParam();
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(vec.seed));
  EXPECT_EQ(hex_of({kp.public_key.bytes.data(), 32}), vec.pub);
  const auto sig = ed25519_sign(kp.private_key, as_bytes_view(vec.msg));
  EXPECT_EQ(hex_of({sig.bytes.data(), 64}), vec.sig);
  EXPECT_TRUE(ed25519_verify(kp.public_key, as_bytes_view(vec.msg), sig));
}

INSTANTIATE_TEST_SUITE_P(Vectors, Ed25519CrossCheck, ::testing::ValuesIn(kCrossChecks));

class Ed25519RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(Ed25519RoundTrip, SignVerify) {
  std::array<std::uint8_t, 32> seed{};
  seed[0] = static_cast<std::uint8_t>(GetParam());
  seed[7] = 0xa5;
  const auto kp = ed25519_keypair_from_seed(seed);
  const std::string msg = "round trip message #" + std::to_string(GetParam());
  const auto sig = ed25519_sign(kp.private_key, as_bytes_view(msg));
  EXPECT_TRUE(ed25519_verify(kp.public_key, as_bytes_view(msg), sig));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ed25519RoundTrip, ::testing::Range(0, 16));

TEST(Ed25519, RejectsTamperedMessage) {
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  const auto sig = ed25519_sign(kp.private_key, as_bytes_view("payload"));
  EXPECT_FALSE(ed25519_verify(kp.public_key, as_bytes_view("Payload"), sig));
  EXPECT_FALSE(ed25519_verify(kp.public_key, as_bytes_view("payload "), sig));
  EXPECT_FALSE(ed25519_verify(kp.public_key, {}, sig));
}

TEST(Ed25519, RejectsEveryTamperedSignatureBit) {
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"));
  auto sig = ed25519_sign(kp.private_key, as_bytes_view("bit flip probe"));
  for (std::size_t byte = 0; byte < 64; byte += 5) {
    sig.bytes[byte] ^= 0x40;
    EXPECT_FALSE(ed25519_verify(kp.public_key, as_bytes_view("bit flip probe"), sig))
        << "byte " << byte;
    sig.bytes[byte] ^= 0x40;
  }
}

TEST(Ed25519, RejectsWrongKey) {
  std::array<std::uint8_t, 32> seed_a{}, seed_b{};
  seed_b[0] = 1;
  const auto kp_a = ed25519_keypair_from_seed(seed_a);
  const auto kp_b = ed25519_keypair_from_seed(seed_b);
  const auto sig = ed25519_sign(kp_a.private_key, as_bytes_view("msg"));
  EXPECT_FALSE(ed25519_verify(kp_b.public_key, as_bytes_view("msg"), sig));
}

TEST(Ed25519, RejectsNonCanonicalScalar) {
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  auto sig = ed25519_sign(kp.private_key, as_bytes_view("msg"));
  // Force the scalar half >= L by setting its top bits.
  sig.bytes[63] |= 0xf0;
  EXPECT_FALSE(ed25519_verify(kp.public_key, as_bytes_view("msg"), sig));
}

TEST(Ed25519, RejectsOffCurvePublicKey) {
  Ed25519PublicKey bogus;
  bogus.bytes.fill(0x12);  // overwhelmingly likely off-curve y
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  const auto sig = ed25519_sign(kp.private_key, as_bytes_view("msg"));
  // Either decompression fails or verification fails; it must not accept.
  EXPECT_FALSE(ed25519_verify(bogus, as_bytes_view("msg"), sig));
}

TEST(Ed25519, DeterministicSignatures) {
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(
      "d36e527b204b8b1139f7344431ead1badfcee4f0b8cef7c5ba7904f576fb2ca4"));
  const auto s1 = ed25519_sign(kp.private_key, as_bytes_view("same message"));
  const auto s2 = ed25519_sign(kp.private_key, as_bytes_view("same message"));
  EXPECT_EQ(s1, s2);
}

TEST(Ed25519, DistinctSeedsDistinctKeys) {
  std::array<std::uint8_t, 32> seed{};
  const auto base = ed25519_keypair_from_seed(seed);
  for (int i = 1; i < 8; ++i) {
    seed[31] = static_cast<std::uint8_t>(i);
    EXPECT_NE(ed25519_keypair_from_seed(seed).public_key, base.public_key);
  }
}

TEST(Ed25519, LargeMessage) {
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(
      "082e892f413046b383efc16f5c543cf062bbb08b644acf499b984939899ff059"));
  const std::string big(100000, 'B');
  const auto sig = ed25519_sign(kp.private_key, as_bytes_view(big));
  EXPECT_TRUE(ed25519_verify(kp.public_key, as_bytes_view(big), sig));
}

// --- Batch verification ------------------------------------------------------

namespace {

struct SignedMessage {
  Ed25519Keypair keypair;
  std::string message;
  Ed25519Signature signature;
};

SignedMessage make_signed(std::uint8_t key_tag, std::string message) {
  std::array<std::uint8_t, 32> seed{};
  seed[0] = key_tag;
  seed[17] = 0xa5;
  SignedMessage out;
  out.keypair = ed25519_keypair_from_seed(seed);
  out.message = std::move(message);
  out.signature = ed25519_sign(out.keypair.private_key, as_bytes_view(out.message));
  return out;
}

std::vector<Ed25519BatchItem> as_items(const std::vector<SignedMessage>& signed_messages) {
  std::vector<Ed25519BatchItem> items;
  for (const auto& s : signed_messages) {
    items.push_back({s.keypair.public_key, as_bytes_view(s.message), s.signature});
  }
  return items;
}

}  // namespace

TEST(Ed25519Batch, AcceptsValidBatchAcrossDistinctAndRepeatedKeys) {
  std::vector<SignedMessage> signed_messages;
  // 12 signatures over 4 keys — the committee shape batch grouping exploits.
  for (int i = 0; i < 12; ++i) {
    signed_messages.push_back(
        make_signed(static_cast<std::uint8_t>(i % 4 + 1), "block-" + std::to_string(i)));
  }
  EXPECT_TRUE(ed25519_verify_batch(as_items(signed_messages)));
  const auto each = ed25519_verify_each(as_items(signed_messages));
  EXPECT_TRUE(std::all_of(each.begin(), each.end(), [](std::uint8_t ok) { return ok; }));
}

TEST(Ed25519Batch, EmptyAndSingletonBatches) {
  EXPECT_TRUE(ed25519_verify_batch({}));
  const auto one = make_signed(1, "solo");
  EXPECT_TRUE(ed25519_verify_batch(as_items({one})));
}

TEST(Ed25519Batch, RejectsBatchWithOneForgeryAndPinpointsIt) {
  std::vector<SignedMessage> signed_messages;
  for (int i = 0; i < 8; ++i) {
    signed_messages.push_back(make_signed(static_cast<std::uint8_t>(i + 1), std::string("m") + std::to_string(i)));
  }
  signed_messages[5].signature.bytes[10] ^= 0x40;  // corrupt R of one item

  EXPECT_FALSE(ed25519_verify_batch(as_items(signed_messages)));
  const auto each = ed25519_verify_each(as_items(signed_messages));
  for (std::size_t i = 0; i < each.size(); ++i) {
    EXPECT_EQ(each[i] != 0, i != 5) << "item " << i;
  }
}

TEST(Ed25519Batch, RejectsWrongMessageAndWrongKey) {
  auto a = make_signed(1, "first");
  auto b = make_signed(2, "second");
  // Swap signatures: both individually invalid.
  std::swap(a.signature, b.signature);
  EXPECT_FALSE(ed25519_verify_batch(as_items({a, b})));
  const auto each = ed25519_verify_each(as_items({a, b}));
  EXPECT_FALSE(each[0]);
  EXPECT_FALSE(each[1]);
}

TEST(Ed25519Batch, RejectsNonCanonicalScalar) {
  auto good = make_signed(1, "canonical");
  auto bad = make_signed(2, "non-canonical");
  // s >= L: set the top bits so the strict decode fails.
  std::fill(bad.signature.bytes.begin() + 32, bad.signature.bytes.end(), 0xff);
  EXPECT_FALSE(ed25519_verify_batch(as_items({good, bad})));
  const auto each = ed25519_verify_each(as_items({good, bad}));
  EXPECT_TRUE(each[0]);
  EXPECT_FALSE(each[1]);
}

// Consensus-safety regression: a signature whose R carries a small-order
// torsion component must get the SAME verdict from single verification and
// from every batch composition. A cofactorless batch check fails this — the
// torsion defect z_i*T vanishes whenever the random 128-bit coefficient is
// even, so half of all batch groupings accept what the other half reject,
// and validators diverge based on how their driver happened to batch.
TEST(Ed25519Batch, TorsionComponentVerdictIsBatchInvariant) {
  const auto kp = ed25519_keypair_from_seed(seed_from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  const std::string message = "torsion probe";
  const auto honest = ed25519_sign(kp.private_key, as_bytes_view(message));

  // R' = R + T where T = (0, -1) has order 2.
  std::uint8_t t_bytes[32];
  std::fill(t_bytes, t_bytes + 32, 0xff);
  t_bytes[0] = 0xec;  // p - 1 in little-endian: y = -1, sign(x) = 0
  t_bytes[31] = 0x7f;
  const auto t_point = curve::ge_decompress(t_bytes);
  ASSERT_TRUE(t_point.has_value());
  const auto r_point = curve::ge_decompress(honest.bytes.data());
  ASSERT_TRUE(r_point.has_value());

  Ed25519Signature forged;
  curve::ge_compress(forged.bytes.data(), curve::ge_add(*r_point, *t_point));

  // Recompute s' = r + k'*a for the new challenge k' = H(R'||A||M), using
  // the RFC 8032 key expansion (the "attacker" here is the signer itself,
  // publishing a mangled-but-consistent signature).
  const auto h = Sha512::hash({kp.private_key.seed.data(), kp.private_key.seed.size()});
  std::uint8_t clamped[32];
  std::copy(h.data(), h.data() + 32, clamped);
  clamped[0] &= 0xf8;
  clamped[31] &= 0x7f;
  clamped[31] |= 0x40;
  const auto a = curve::sc_from_bytes32(clamped);
  Sha512 r_hash;
  r_hash.update({h.data() + 32, 32});
  r_hash.update(as_bytes_view(message));
  const auto r = curve::sc_from_bytes64(r_hash.finish().data());
  Sha512 k_hash;
  k_hash.update({forged.bytes.data(), 32});
  k_hash.update({kp.public_key.bytes.data(), 32});
  k_hash.update(as_bytes_view(message));
  const auto k = curve::sc_from_bytes64(k_hash.finish().data());
  curve::sc_to_bytes(forged.bytes.data() + 32, curve::sc_mul_add(k, a, r));

  const bool single_verdict =
      ed25519_verify(kp.public_key, as_bytes_view(message), forged);
  // Cofactored verification accepts: [8]T = O annihilates the defect.
  EXPECT_TRUE(single_verdict);

  // Every batch composition must agree with the single verdict.
  std::vector<SignedMessage> companions;
  for (int i = 0; i < 7; ++i) {
    companions.push_back(make_signed(static_cast<std::uint8_t>(i + 1),
                                     "companion-" + std::to_string(i)));
  }
  for (std::size_t companion_count : {0u, 1u, 3u, 7u}) {
    std::vector<Ed25519BatchItem> items;
    items.push_back({kp.public_key, as_bytes_view(message), forged});
    for (std::size_t i = 0; i < companion_count; ++i) {
      items.push_back({companions[i].keypair.public_key,
                       as_bytes_view(companions[i].message), companions[i].signature});
    }
    EXPECT_EQ(ed25519_verify_batch(items), single_verdict)
        << "batch of " << items.size();
    const auto each = ed25519_verify_each(items);
    EXPECT_EQ(each[0] != 0, single_verdict) << "batch of " << items.size();
  }
}

TEST(Ed25519Batch, AgreesWithSingleVerificationOnMixedBatches) {
  // Randomized mixes of valid and corrupted signatures: the batch path must
  // agree with per-item ed25519_verify everywhere.
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<SignedMessage> signed_messages;
    std::vector<bool> expected;
    for (int i = 0; i < 6; ++i) {
      auto s = make_signed(static_cast<std::uint8_t>((trial + i) % 3 + 1),
                           std::string("t") + std::to_string(trial) + "-" + std::to_string(i));
      const bool corrupt = ((trial * 7 + i * 3) % 5) == 0;
      if (corrupt) s.signature.bytes[(trial + i) % 64] ^= 0x01;
      // Corruption may still rarely yield the same point encoding? No — any
      // bit flip in R or s changes the (strictly decoded) values; record the
      // ground truth from the single verifier instead of assuming.
      expected.push_back(
          ed25519_verify(s.keypair.public_key, as_bytes_view(s.message), s.signature));
      signed_messages.push_back(std::move(s));
    }
    const auto each = ed25519_verify_each(as_items(signed_messages));
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(each[i] != 0, expected[i]) << "trial " << trial << " item " << i;
    }
  }
}


// --- Differential check against the reference implementation -----------------
//
// Every comparison goes through encodings (compressed points, signature
// bytes, accept/reject), so the two implementations share no arithmetic.

namespace {

using Encoding = std::array<std::uint8_t, 32>;

Encoding random_bytes32(Rng& rng) {
  Encoding out;
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

// L, little-endian: [L]P keeps only P's small-order component.
constexpr Encoding kOrderL = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
                              0xa2, 0xde, 0xf9, 0xde, 0x14, 0,    0,    0,    0,    0,    0,
                              0,    0,    0,    0,    0,    0,    0,    0,    0,    0x10};

// A random curve point (any order) with its encoding; both implementations
// must agree on which random strings decode.
std::pair<Encoding, curve::GroupElement> random_point(Rng& rng) {
  for (;;) {
    const Encoding enc = random_bytes32(rng);
    const auto fast = curve::ge_decompress(enc.data());
    const auto slow = oracle::ge_decompress(enc.data());
    EXPECT_EQ(fast.has_value(), slow.has_value()) << to_hex({enc.data(), 32});
    if (fast) return {enc, *fast};
  }
}

Encoding oracle_mult(const Encoding& scalar, const Encoding& point) {
  return oracle::ge_compressed(
      oracle::ge_scalar_mult(scalar.data(), *oracle::ge_decompress(point.data())));
}

// Canonical encodings of the eight small-order points, plus their
// sign-flipped and non-canonical variants.
std::vector<Encoding> small_order_and_noncanonical_encodings() {
  std::vector<Encoding> out;
  for (const char* hex :
       {"0100000000000000000000000000000000000000000000000000000000000000",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000080",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85"}) {
    Encoding enc;
    const auto bytes = from_hex(hex);
    std::copy(bytes->begin(), bytes->end(), enc.begin());
    out.push_back(enc);
    enc[31] ^= 0x80;  // the other sign of x (rejected where x = 0)
    out.push_back(enc);
  }
  // y in [p, 2^255): every non-canonical field encoding, both signs.
  for (int low = 0xed; low <= 0xff; ++low) {
    Encoding enc;
    enc.fill(0xff);
    enc[0] = static_cast<std::uint8_t>(low);
    enc[31] = 0x7f;
    out.push_back(enc);
    enc[31] = 0xff;
    out.push_back(enc);
  }
  return out;
}

}  // namespace

TEST(Ed25519Oracle, KeysAndSignaturesMatchByteForByte) {
  Rng rng(8032);
  for (int trial = 0; trial < 48; ++trial) {
    const auto seed = random_bytes32(rng);
    Bytes message(rng.uniform(300));
    for (auto& b : message) b = static_cast<std::uint8_t>(rng.next_u64());
    const BytesView view{message.data(), message.size()};

    const auto kp = ed25519_keypair_from_seed(seed);
    ASSERT_EQ(kp.public_key.bytes, oracle::public_key(seed)) << "trial " << trial;
    const auto sig = ed25519_sign(kp.private_key, view);
    ASSERT_EQ(sig.bytes, oracle::sign(seed, view)) << "trial " << trial;
    EXPECT_TRUE(ed25519_verify(kp.public_key, view, sig));
    EXPECT_TRUE(oracle::verify(kp.public_key.bytes, view, sig.bytes));
  }
}

// RFC 8032 §7.1 TEST 1-3 through both implementations.
TEST(Ed25519Oracle, Rfc8032VectorsAgree) {
  struct Vector {
    const char* seed;
    const char* message;
    const char* pub;
    const char* sig;
  };
  constexpr Vector kVectors[] = {
      {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60", "",
       "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
       "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bac"
       "c61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
      {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb", "72",
       "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
       "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e"
       "458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
      {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7", "af82",
       "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
       "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290"
       "ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
  };
  for (const Vector& v : kVectors) {
    const auto seed = seed_from_hex(v.seed);
    const auto message = from_hex(v.message);
    const BytesView view{message->data(), message->size()};
    const auto kp = ed25519_keypair_from_seed(seed);
    EXPECT_EQ(hex_of({kp.public_key.bytes.data(), 32}), v.pub);
    EXPECT_EQ(kp.public_key.bytes, oracle::public_key(seed));
    const auto sig = ed25519_sign(kp.private_key, view);
    EXPECT_EQ(hex_of({sig.bytes.data(), 64}), v.sig);
    EXPECT_EQ(sig.bytes, oracle::sign(seed, view));
    EXPECT_TRUE(ed25519_verify(kp.public_key, view, sig));
    EXPECT_TRUE(oracle::verify(kp.public_key.bytes, view, sig.bytes));
  }
}

TEST(Ed25519Oracle, ScalarMultiplicationAgreesOnRandomScalarsAndPoints) {
  Rng rng(25519);
  for (int trial = 0; trial < 24; ++trial) {
    const auto [enc, point] = random_point(rng);
    Encoding scalar = random_bytes32(rng);  // full 256 bits, unreduced
    if (trial % 4 == 0) scalar = kOrderL;   // isolates the torsion component
    EXPECT_EQ(curve::ge_compressed(curve::ge_scalar_mult(scalar.data(), point)),
              oracle_mult(scalar, enc))
        << "trial " << trial;

    // Fixed-base table, both below and above 2^255.
    scalar[31] = static_cast<std::uint8_t>(trial % 2 == 0 ? scalar[31] & 0x7f : scalar[31] | 0x80);
    EXPECT_EQ(curve::ge_compressed(curve::ge_scalar_mult_base(scalar.data())),
              oracle::ge_compressed(oracle::ge_scalar_mult(scalar.data(), oracle::ge_base())))
        << "trial " << trial;
  }
}

TEST(Ed25519Oracle, MultiScalarMultiplicationMatchesSumOfProducts) {
  Rng rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t terms = 1 + rng.uniform(6);
    std::vector<curve::Scalar> scalars;
    std::vector<curve::GroupElement> points;
    oracle::Point expected = oracle::ge_identity();
    for (std::size_t i = 0; i < terms; ++i) {
      const auto [enc, point] = random_point(rng);
      Encoding scalar = random_bytes32(rng);
      if (i % 2 == 1) std::fill(scalar.begin() + 16, scalar.end(), 0);  // 128-bit, like z_i
      curve::Scalar s;
      std::memcpy(s.v, scalar.data(), 32);
      scalars.push_back(s);
      points.push_back(point);
      expected = oracle::ge_add(
          expected, oracle::ge_scalar_mult(scalar.data(), *oracle::ge_decompress(enc.data())));
    }
    Encoding base_scalar = random_bytes32(rng);
    base_scalar[31] &= 0x0f;  // a reduced-size scalar, as the batch equation uses
    curve::Scalar b;
    std::memcpy(b.v, base_scalar.data(), 32);
    expected = oracle::ge_add(expected,
                              oracle::ge_scalar_mult(base_scalar.data(), oracle::ge_base()));
    EXPECT_EQ(curve::ge_compressed(curve::ge_multi_scalar_mult(scalars, points, b)),
              oracle::ge_compressed(expected))
        << "trial " << trial;
  }
}

TEST(Ed25519Oracle, DecompressionAgreesOnSmallOrderAndNonCanonicalEncodings) {
  for (const Encoding& enc : small_order_and_noncanonical_encodings()) {
    const auto fast = curve::ge_decompress(enc.data());
    const auto slow = oracle::ge_decompress(enc.data());
    ASSERT_EQ(fast.has_value(), slow.has_value()) << to_hex({enc.data(), 32});
    if (!fast) continue;
    EXPECT_EQ(curve::ge_compressed(*fast), oracle::ge_compressed(*slow));
    EXPECT_TRUE(curve::ge_is_identity(curve::ge_mul_cofactor(*fast))) << to_hex({enc.data(), 32});
  }
}

TEST(Ed25519Oracle, ScalarReductionAgrees) {
  Rng rng(252);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint8_t wide[64];
    for (auto& b : wide) b = static_cast<std::uint8_t>(rng.next_u64());
    if (trial == 0) std::fill(wide, wide + 64, 0xff);
    if (trial == 1) std::fill(wide, wide + 64, 0);
    std::uint8_t fast[32];
    curve::sc_to_bytes(fast, curve::sc_from_bytes64(wide));
    EXPECT_EQ(0, std::memcmp(fast, oracle::sc_from_bytes64(wide).v, 32)) << "trial " << trial;

    const auto a = curve::sc_from_bytes64(wide);
    const auto b = curve::sc_from_bytes32(wide + 32);
    const auto c = curve::sc_from_bytes32(wide + 16);
    curve::sc_to_bytes(fast, curve::sc_mul_add(a, b, c));
    EXPECT_EQ(0, std::memcmp(fast, oracle::sc_mul_add(oracle::sc_from_bytes64(wide),
                                                      oracle::sc_from_bytes32(wide + 32),
                                                      oracle::sc_from_bytes32(wide + 16))
                                       .v,
                             32))
        << "trial " << trial;
  }
}

namespace {

// A signature by `seed` over `message`, produced against the public key
// encoding `key` and nonce point encoding `r` (which may carry torsion),
// with s recomputed for the resulting challenge.
Ed25519Signature sign_against(const std::array<std::uint8_t, 32>& seed, const Encoding& key,
                              const Encoding& r_enc, const curve::Scalar& r,
                              const std::string& message) {
  const auto h = Sha512::hash({seed.data(), seed.size()});
  std::uint8_t clamped[32];
  std::copy(h.data(), h.data() + 32, clamped);
  clamped[0] &= 0xf8;
  clamped[31] &= 0x7f;
  clamped[31] |= 0x40;
  Sha512 k_hash;
  k_hash.update({r_enc.data(), 32});
  k_hash.update({key.data(), 32});
  k_hash.update(as_bytes_view(message));
  const auto k = curve::sc_from_bytes64(k_hash.finish().data());
  Ed25519Signature sig;
  std::copy(r_enc.begin(), r_enc.end(), sig.bytes.begin());
  curve::sc_to_bytes(sig.bytes.data() + 32, curve::sc_mul_add(k, curve::sc_from_bytes32(clamped), r));
  return sig;
}

// Adversarial (key, message, signature) triples whose verdicts matter for
// consensus: valid, torsion-mangled R and A, small-order keys and nonces,
// non-canonical s and point encodings, and single bit flips.
struct AdversarialCase {
  Ed25519PublicKey key;
  std::string message;
  Ed25519Signature signature;
  std::string label;
};

std::vector<AdversarialCase> adversarial_cases(Rng& rng) {
  std::vector<AdversarialCase> out;
  const auto torsion = small_order_and_noncanonical_encodings();
  for (int trial = 0; trial < 24; ++trial) {
    const auto seed = random_bytes32(rng);
    const auto kp = ed25519_keypair_from_seed(seed);
    const std::string message = "adversarial-" + std::to_string(trial);
    int variant = 0;
    const auto add = [&](const Ed25519PublicKey& key, const Ed25519Signature& signature) {
      std::string label = "case ";
      label += std::to_string(variant++);
      label += " of trial ";
      label += std::to_string(trial);
      out.push_back({key, message, signature, std::move(label)});
    };
    const auto honest = ed25519_sign(kp.private_key, as_bytes_view(message));
    add(kp.public_key, honest);

    // R + T and A + T for a small-order T, with s recomputed.
    const Encoding& t_enc = torsion[2 * (trial % 8)];
    const auto t = curve::ge_decompress(t_enc.data());
    const auto r_point = curve::ge_decompress(honest.bytes.data());
    const auto a_point = curve::ge_decompress(kp.public_key.bytes.data());
    const auto h = Sha512::hash({seed.data(), seed.size()});
    Sha512 r_hash;
    r_hash.update({h.data() + 32, 32});
    r_hash.update(as_bytes_view(message));
    const auto r = curve::sc_from_bytes64(r_hash.finish().data());
    Encoding honest_r;
    std::copy(honest.bytes.begin(), honest.bytes.begin() + 32, honest_r.begin());
    const Encoding mangled_r = curve::ge_compressed(curve::ge_add(*r_point, *t));
    const Encoding mangled_a = curve::ge_compressed(curve::ge_add(*a_point, *t));
    add(kp.public_key, sign_against(seed, kp.public_key.bytes, mangled_r, r, message));
    add(Ed25519PublicKey{mangled_a}, sign_against(seed, mangled_a, honest_r, r, message));

    // A small-order key or nonce outright.
    add(Ed25519PublicKey{t_enc}, honest);
    Ed25519Signature small_r = honest;
    std::copy(t_enc.begin(), t_enc.end(), small_r.bytes.begin());
    add(kp.public_key, small_r);

    // Non-canonical s (s + L, and s = L) and a non-canonical R encoding.
    Ed25519Signature s_plus_l = honest;
    unsigned carry = 0;
    for (int i = 0; i < 32; ++i) {
      const unsigned sum = s_plus_l.bytes[32 + i] + kOrderL[i] + carry;
      s_plus_l.bytes[32 + i] = static_cast<std::uint8_t>(sum);
      carry = sum >> 8;
    }
    add(kp.public_key, s_plus_l);
    Ed25519Signature s_is_l = honest;
    std::copy(kOrderL.begin(), kOrderL.end(), s_is_l.bytes.begin() + 32);
    add(kp.public_key, s_is_l);
    Ed25519Signature noncanonical_r = honest;
    const Encoding& bad = torsion[16 + 2 * (trial % 19)];
    std::copy(bad.begin(), bad.end(), noncanonical_r.bytes.begin());
    add(kp.public_key, noncanonical_r);

    // One flipped bit anywhere in the signature.
    Ed25519Signature flipped = honest;
    flipped.bytes[rng.uniform(64)] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
    add(kp.public_key, flipped);
  }
  return out;
}

}  // namespace

TEST(Ed25519Oracle, VerdictsAgreeOnAdversarialSignatures) {
  Rng rng(77);
  const auto cases = adversarial_cases(rng);
  std::vector<Ed25519BatchItem> items;
  std::vector<std::uint8_t> expected;
  for (const auto& c : cases) {
    const BytesView message = as_bytes_view(c.message);
    const bool verdict = oracle::verify(c.key.bytes, message, c.signature.bytes);
    EXPECT_EQ(ed25519_verify(c.key, message, c.signature), verdict) << c.label;
    items.push_back({c.key, message, c.signature});
    expected.push_back(verdict ? 1 : 0);
  }
  // Honest, torsion-mangled-R and torsion-mangled-A signatures all pass the
  // cofactored check; the set is not trivially all-reject.
  EXPECT_GE(std::count(expected.begin(), expected.end(), 1), 3 * 24);
  // The batch paths agree with the per-item oracle too.
  EXPECT_EQ(ed25519_verify_each(items), expected);
  EXPECT_EQ(ed25519_verify_batch(items),
            std::all_of(expected.begin(), expected.end(), [](std::uint8_t ok) { return ok; }));
}

TEST(Ed25519Oracle, BatchWithOneBadSignatureAtEveryPosition) {
  std::vector<SignedMessage> signed_messages;
  for (int i = 0; i < 16; ++i) {
    signed_messages.push_back(
        make_signed(static_cast<std::uint8_t>(i % 5 + 1), "slot-" + std::to_string(i)));
  }
  const auto good = as_items(signed_messages);
  ASSERT_TRUE(ed25519_verify_batch(good));
  for (std::size_t bad = 0; bad < good.size(); ++bad) {
    auto items = good;
    items[bad].signature.bytes[(bad * 7) % 64] ^= 0x10;
    ASSERT_FALSE(oracle::verify(items[bad].key.bytes, items[bad].message,
                                items[bad].signature.bytes));
    EXPECT_FALSE(ed25519_verify_batch(items)) << "bad item " << bad;
    const auto each = ed25519_verify_each(items);
    for (std::size_t i = 0; i < each.size(); ++i) {
      EXPECT_EQ(each[i] != 0, i != bad) << "bad item " << bad << ", item " << i;
    }
  }
}
}  // namespace
}  // namespace mahimahi::crypto
