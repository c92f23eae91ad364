#include "crypto/ed25519.h"

#include <algorithm>
#include <cstring>

#include "crypto/curve25519.h"
#include "crypto/sha512.h"

namespace mahimahi::crypto {

namespace {

using curve::ge_compress;
using curve::ge_decompress;
using curve::ge_is_identity;
using curve::ge_mul_cofactor;
using curve::ge_multi_scalar_mult;
using curve::ge_neg;
using curve::ge_scalar_mult_base;
using curve::GroupElement;
using curve::Scalar;
using curve::sc_from_bytes32;
using curve::sc_from_bytes32_strict;
using curve::sc_from_bytes64;
using curve::sc_mul_add;
using curve::sc_to_bytes;

struct ExpandedKey {
  std::uint8_t scalar[32];  // clamped a
  std::uint8_t prefix[32];
};

ExpandedKey expand_seed(const std::array<std::uint8_t, 32>& seed) {
  const auto h = Sha512::hash({seed.data(), seed.size()});
  ExpandedKey out;
  std::memcpy(out.scalar, h.data(), 32);
  std::memcpy(out.prefix, h.data() + 32, 32);
  out.scalar[0] &= 0xf8;
  out.scalar[31] &= 0x7f;
  out.scalar[31] |= 0x40;
  return out;
}

}  // namespace

Ed25519Keypair ed25519_keypair_from_seed(const std::array<std::uint8_t, 32>& seed) {
  const ExpandedKey key = expand_seed(seed);
  const auto a_point = ge_scalar_mult_base(key.scalar);
  Ed25519Keypair out;
  out.private_key.seed = seed;
  ge_compress(out.public_key.bytes.data(), a_point);
  return out;
}

Ed25519Signature ed25519_sign(const Ed25519PrivateKey& key, BytesView message) {
  const ExpandedKey expanded = expand_seed(key.seed);
  const auto a_point = ge_scalar_mult_base(expanded.scalar);
  std::uint8_t pub[32];
  ge_compress(pub, a_point);

  Sha512 h1;
  h1.update({expanded.prefix, 32});
  h1.update(message);
  const auto r_hash = h1.finish();
  const Scalar r = sc_from_bytes64(r_hash.data());

  const auto r_point = ge_scalar_mult_base(r);

  Ed25519Signature sig;
  ge_compress(sig.bytes.data(), r_point);

  Sha512 h2;
  h2.update({sig.bytes.data(), 32});
  h2.update({pub, 32});
  h2.update(message);
  const auto k_hash = h2.finish();
  const Scalar k = sc_from_bytes64(k_hash.data());

  const Scalar a = sc_from_bytes32(expanded.scalar);
  const Scalar s = sc_mul_add(k, a, r);
  sc_to_bytes(sig.bytes.data() + 32, s);
  return sig;
}

namespace {

// The RFC 8032 challenge k = H(R || A || M) reduced mod L.
Scalar challenge_scalar(const Ed25519Signature& signature, const Ed25519PublicKey& key,
                        BytesView message) {
  Sha512 h;
  h.update({signature.bytes.data(), 32});
  h.update({key.bytes.data(), key.bytes.size()});
  h.update(message);
  const auto k_hash = h.finish();
  return sc_from_bytes64(k_hash.data());
}

}  // namespace

bool ed25519_verify(const Ed25519PublicKey& key, BytesView message,
                    const Ed25519Signature& signature) {
  const auto a_point = ge_decompress(key.bytes.data());
  if (!a_point) return false;
  const auto r_point = ge_decompress(signature.bytes.data());
  if (!r_point) return false;

  const auto s = sc_from_bytes32_strict(signature.bytes.data() + 32);
  if (!s) return false;

  const Scalar k = challenge_scalar(signature, key, message);

  // Cofactored group equation (RFC 8032 §5.1.7): [8]([s]B - R - [k]A) == O.
  // Clearing the cofactor makes the verdict identical whether a signature is
  // checked alone or inside a random-linear-combination batch: any
  // small-order torsion component of R or A is annihilated in BOTH paths,
  // instead of flipping the batch verdict with the parity of a random
  // coefficient. A consensus protocol needs every honest validator to reach
  // the same verdict regardless of how its driver happened to batch.
  const GroupElement minus_a = ge_neg(*a_point);
  const GroupElement sb_minus_ka = ge_multi_scalar_mult({&k, 1}, {&minus_a, 1}, *s);
  return ge_is_identity(ge_mul_cofactor(curve::ge_sub(sb_minus_ka, *r_point)));
}

namespace {

using curve::sc_zero;

// Derives the batch coefficients z_1..z_{n-1} (z_0 is fixed to 1) by hashing
// the whole batch. Each z_i is 128 bits: half-width scalars halve the cost of
// the per-item [z_i]R_i multiplication while keeping the forgery probability
// at ~2^-128.
std::vector<Scalar> batch_coefficients(std::span<const Ed25519BatchItem> items) {
  Sha512 transcript;
  transcript.update(as_bytes_view("mahimahi.ed25519.batch.v1"));
  for (const auto& item : items) {
    transcript.update({item.key.bytes.data(), item.key.bytes.size()});
    transcript.update({item.signature.bytes.data(), item.signature.bytes.size()});
    // Hash each message down first so variable lengths cannot alias across
    // item boundaries in the transcript.
    const auto m_hash = Sha512::hash(item.message);
    transcript.update({m_hash.data(), m_hash.size()});
  }
  const auto seed = transcript.finish();

  std::vector<Scalar> z(items.size());
  if (!items.empty()) z[0] = curve::sc_one();
  for (std::size_t i = 1; i < items.size(); ++i) {
    Sha512 h;
    h.update({seed.data(), seed.size()});
    std::uint8_t index[8];
    for (int b = 0; b < 8; ++b) index[b] = static_cast<std::uint8_t>(i >> (8 * b));
    h.update({index, sizeof(index)});
    const auto digest = h.finish();
    std::uint8_t z_bytes[32] = {};
    std::memcpy(z_bytes, digest.data(), 16);  // 128-bit coefficient
    if (std::count(z_bytes, z_bytes + 16, 0) == 16) z_bytes[0] = 1;  // never zero
    z[i] = sc_from_bytes32(z_bytes);
  }
  return z;
}

}  // namespace

bool ed25519_verify_batch(std::span<const Ed25519BatchItem> items) {
  if (items.empty()) return true;
  if (items.size() == 1) {
    return ed25519_verify(items[0].key, items[0].message, items[0].signature);
  }

  const std::vector<Scalar> z = batch_coefficients(items);

  // One multi-scalar multiplication evaluates
  //   [sum z_i s_i] B + sum [z_i](-R_i) + sum_A [sum_{i: key_i = A} z_i k_i](-A)
  // over a shared doubling chain. Points are negated rather than scalars so
  // the R terms keep their 128-bit coefficients (half the wNAF digits).
  // Distinct public keys are decompressed once; committees are small, so a
  // linear scan beats hashing the 32-byte keys.
  std::vector<GroupElement> points;  // -R_i, then -A per distinct key
  points.reserve(items.size());
  std::vector<Ed25519PublicKey> keys;
  std::vector<GroupElement> key_points;
  std::vector<Scalar> key_coefficients;
  Scalar b_coefficient = sc_zero();

  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& item = items[i];

    const auto s = sc_from_bytes32_strict(item.signature.bytes.data() + 32);
    if (!s) return false;
    const auto r_point = ge_decompress(item.signature.bytes.data());
    if (!r_point) return false;
    points.push_back(ge_neg(*r_point));
    b_coefficient = sc_mul_add(z[i], *s, b_coefficient);

    const std::size_t term =
        static_cast<std::size_t>(std::find(keys.begin(), keys.end(), item.key) - keys.begin());
    if (term == keys.size()) {
      const auto a_point = ge_decompress(item.key.bytes.data());
      if (!a_point) return false;
      keys.push_back(item.key);
      key_points.push_back(ge_neg(*a_point));
      key_coefficients.push_back(sc_zero());
    }
    const Scalar k = challenge_scalar(item.signature, item.key, item.message);
    key_coefficients[term] = sc_mul_add(z[i], k, key_coefficients[term]);
  }
  points.insert(points.end(), key_points.begin(), key_points.end());
  std::vector<Scalar> scalars(z);
  scalars.insert(scalars.end(), key_coefficients.begin(), key_coefficients.end());

  // Cofactored, like ed25519_verify: torsion components never decide the
  // verdict, so batch and single verification agree deterministically.
  return ge_is_identity(ge_mul_cofactor(ge_multi_scalar_mult(scalars, points, b_coefficient)));
}

namespace {

// Binary-search the offenders: a failed batch splits in half and recurses,
// so k bad signatures cost O(k log n) batch checks instead of n single
// verifications. Without this, one Byzantine validator spraying garbage
// signatures would tax every mixed batch with a full per-item fallback —
// an adversary-controlled performance downgrade.
void verify_each_bisect(std::span<const Ed25519BatchItem> items,
                        std::span<std::uint8_t> ok) {
  if (items.empty()) return;
  if (ed25519_verify_batch(items)) {
    std::fill(ok.begin(), ok.end(), 1);
    return;
  }
  if (items.size() == 1) {
    ok[0] = 0;  // a batch of one IS the single (cofactored) verification
    return;
  }
  const std::size_t half = items.size() / 2;
  verify_each_bisect(items.first(half), ok.first(half));
  verify_each_bisect(items.subspan(half), ok.subspan(half));
}

}  // namespace

std::vector<std::uint8_t> ed25519_verify_each(std::span<const Ed25519BatchItem> items) {
  std::vector<std::uint8_t> ok(items.size(), 0);
  verify_each_bisect(items, ok);
  return ok;
}

}  // namespace mahimahi::crypto
