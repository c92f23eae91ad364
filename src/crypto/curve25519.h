// Curve25519 arithmetic shared by Ed25519 signatures (crypto/ed25519.h) and
// the threshold VRF coin (crypto/threshold_vrf.h).
//
// Three layers, each a value type with free functions:
//   * FieldElement — GF(2^255 - 19) in five 51-bit limbs (radix 2^51). Limbs
//     are reduced lazily: products carry every limb below 2^52, sums are not
//     carried at all, and only encoding (fe_to_bytes) and the comparisons
//     canonicalize;
//   * GroupElement — the twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 in
//     extended coordinates (X : Y : Z : T), with the complete addition law
//     and a dedicated doubling;
//   * Scalar — integers mod the prime group order L = 2^252 + δ, with
//     Barrett reduction.
//
// Scalar multiplication is built for verification throughput: signed-window
// (wNAF) variable-base multiplication, a precomputed radix-16 table for the
// base point B, and a Straus multi-scalar multiplication that shares one
// doubling chain across all terms (the batch verifier of Bernstein et al.,
// "High-speed high-security signatures"). It is NOT constant time: it
// authenticates blocks and coin shares in a research/simulation system, not
// secrets on a production boundary.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "common/bytes.h"

namespace mahimahi::crypto::curve {

// ---------------------------------------------------------------------------
// Field GF(2^255 - 19)
// ---------------------------------------------------------------------------

// Limbs of a field element; the arithmetic is internal to curve25519.cpp.
struct FieldElement {
  std::uint64_t v[5] = {0, 0, 0, 0, 0};
};

// ---------------------------------------------------------------------------
// Group: extended twisted Edwards coordinates, x = X/Z, y = Y/Z, T = XY/Z.
// ---------------------------------------------------------------------------

struct GroupElement {
  FieldElement x, y, z, t;
};

// Compressed encoding: 32 bytes, y with the sign of x in the top bit.
using CompressedPoint = std::array<std::uint8_t, 32>;

struct Scalar;

GroupElement ge_identity();
bool ge_is_identity(const GroupElement& p);
// Projective equality: x1 z2 == x2 z1 and y1 z2 == y2 z1.
bool ge_eq(const GroupElement& p, const GroupElement& q);
// Complete addition law (valid for all inputs including doubling).
GroupElement ge_add(const GroupElement& p, const GroupElement& q);
GroupElement ge_sub(const GroupElement& p, const GroupElement& q);
GroupElement ge_neg(const GroupElement& p);
// [s] p with s the 256-bit little-endian integer in scalar_le, NOT reduced
// mod L (it matters for points with a small-order component). Width-5 wNAF.
GroupElement ge_scalar_mult(const std::uint8_t scalar_le[32], const GroupElement& p);
// [s] B from the precomputed base-point table.
GroupElement ge_scalar_mult_base(const std::uint8_t scalar_le[32]);
// [base_scalar] B + sum_i [scalars[i]] points[i], Straus-style: one shared
// doubling chain, a width-5 wNAF table per point and a width-8 table for B.
// Scalars are used as 256-bit integers, like ge_scalar_mult.
GroupElement ge_multi_scalar_mult(std::span<const Scalar> scalars,
                                  std::span<const GroupElement> points,
                                  const Scalar& base_scalar);
void ge_compress(std::uint8_t out[32], const GroupElement& p);
CompressedPoint ge_compressed(const GroupElement& p);
// Rejects non-canonical y and non-curve points; accepts any valid point,
// including small-order ones (callers clear the cofactor where needed).
std::optional<GroupElement> ge_decompress(const std::uint8_t in[32]);
// The Ed25519 base point B (y = 4/5, even x), order L.
const GroupElement& ge_base();
// [8] p — clears the cofactor, landing in the order-L subgroup.
GroupElement ge_mul_cofactor(const GroupElement& p);

// ---------------------------------------------------------------------------
// Scalars mod L = 2^252 + 27742317777372353535851937790883648493 (prime).
// ---------------------------------------------------------------------------

struct Scalar {
  std::uint64_t v[4] = {0, 0, 0, 0};

  bool operator==(const Scalar& other) const;
};

Scalar sc_zero();
Scalar sc_one();
Scalar sc_from_u64(std::uint64_t x);
bool sc_is_zero(const Scalar& a);
Scalar sc_add(const Scalar& a, const Scalar& b);
Scalar sc_sub(const Scalar& a, const Scalar& b);
Scalar sc_neg(const Scalar& a);
Scalar sc_mul(const Scalar& a, const Scalar& b);
// a * b + c mod L.
Scalar sc_mul_add(const Scalar& a, const Scalar& b, const Scalar& c);
// Multiplicative inverse via Fermat (L is prime). Precondition: a != 0
// (returns 0 for 0, which no caller should rely on).
Scalar sc_invert(const Scalar& a);
// Reduce 64 little-endian bytes mod L (the RFC 8032 wide reduction).
Scalar sc_from_bytes64(const std::uint8_t bytes[64]);
// Reduce 32 little-endian bytes mod L.
Scalar sc_from_bytes32(const std::uint8_t bytes[32]);
// Strict decode: nullopt when the encoding is >= L (non-canonical).
std::optional<Scalar> sc_from_bytes32_strict(const std::uint8_t bytes[32]);
void sc_to_bytes(std::uint8_t out[32], const Scalar& s);
// [s] p and [s] B for a Scalar (conveniences over the raw-bytes overloads).
GroupElement ge_scalar_mult(const Scalar& s, const GroupElement& p);
GroupElement ge_scalar_mult_base(const Scalar& s);

}  // namespace mahimahi::crypto::curve
