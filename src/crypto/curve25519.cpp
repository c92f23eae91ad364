#include "crypto/curve25519.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace mahimahi::crypto::curve {

namespace {

using u128 = unsigned __int128;

constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

constexpr FieldElement kZero = {};
constexpr FieldElement kOne = {{1, 0, 0, 0, 0}};
// d = -121665/121666, 2d and sqrt(-1) = 2^((p-1)/4), in radix 2^51.
constexpr FieldElement kD = {{0x34dca135978a3, 0x1a8283b156ebd, 0x5e7a26001c029,
                              0x739c663a03cbb, 0x52036cee2b6ff}};
constexpr FieldElement kD2 = {{0x69b9426b2f159, 0x35050762add7a, 0x3cf44c0038052,
                               0x6738cc7407977, 0x2406d9dc56dff}};
constexpr FieldElement kSqrtM1 = {{0x61b274a0ea0b0, 0x0d5a5fc8f189d, 0x7ef5e9cbd0c60,
                                   0x78595a6804c9e, 0x2b8324804fc1d}};

// Limb bounds. Every operation that multiplies or subtracts leaves its
// result "carried": limbs below 2^51 + 2^18. fe_add does not carry, so a sum
// of two carried values has limbs below 2^53. fe_mul/fe_sq accept limbs up
// to 2^54 (the wide accumulators stay below 2^115), and fe_sub accepts a
// subtrahend with limbs up to 4p's (2^53 - 76), i.e. any single sum.
FieldElement fe_carry(FieldElement a) {
  std::uint64_t c;
  c = a.v[0] >> 51; a.v[0] &= kMask51; a.v[1] += c;
  c = a.v[1] >> 51; a.v[1] &= kMask51; a.v[2] += c;
  c = a.v[2] >> 51; a.v[2] &= kMask51; a.v[3] += c;
  c = a.v[3] >> 51; a.v[3] &= kMask51; a.v[4] += c;
  c = a.v[4] >> 51; a.v[4] &= kMask51; a.v[0] += 19 * c;
  return a;
}

// Carries five 128-bit column sums into a carried element; the top carry
// (below 2^64) folds back as 19 * c, computed wide so it cannot overflow.
FieldElement fe_reduce_wide(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  FieldElement r;
  t1 += static_cast<std::uint64_t>(t0 >> 51);
  r.v[0] = static_cast<std::uint64_t>(t0) & kMask51;
  t2 += static_cast<std::uint64_t>(t1 >> 51);
  r.v[1] = static_cast<std::uint64_t>(t1) & kMask51;
  t3 += static_cast<std::uint64_t>(t2 >> 51);
  r.v[2] = static_cast<std::uint64_t>(t2) & kMask51;
  t4 += static_cast<std::uint64_t>(t3 >> 51);
  r.v[3] = static_cast<std::uint64_t>(t3) & kMask51;
  const u128 top = static_cast<u128>(static_cast<std::uint64_t>(t4 >> 51)) * 19 + r.v[0];
  r.v[4] = static_cast<std::uint64_t>(t4) & kMask51;
  r.v[0] = static_cast<std::uint64_t>(top) & kMask51;
  r.v[1] += static_cast<std::uint64_t>(top >> 51);
  return r;
}

FieldElement fe_add(const FieldElement& a, const FieldElement& b) {
  return FieldElement{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3],
                       a.v[4] + b.v[4]}};
}

FieldElement fe_sub(const FieldElement& a, const FieldElement& b) {
  // a + 4p - b keeps every limb non-negative.
  constexpr std::uint64_t k4p0 = 0x1fffffffffffb4ULL;
  constexpr std::uint64_t k4p = 0x1ffffffffffffcULL;
  return fe_carry(FieldElement{{a.v[0] + k4p0 - b.v[0], a.v[1] + k4p - b.v[1],
                                a.v[2] + k4p - b.v[2], a.v[3] + k4p - b.v[3],
                                a.v[4] + k4p - b.v[4]}});
}

FieldElement fe_mul(const FieldElement& f, const FieldElement& g) {
  const std::uint64_t f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const std::uint64_t g0 = g.v[0], g1 = g.v[1], g2 = g.v[2], g3 = g.v[3], g4 = g.v[4];
  // 2^255 ≡ 19: limb products that wrap past limb 4 come back times 19.
  const std::uint64_t g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3, g4_19 = 19 * g4;
  const u128 t0 = static_cast<u128>(f0) * g0 + static_cast<u128>(f1) * g4_19 +
                  static_cast<u128>(f2) * g3_19 + static_cast<u128>(f3) * g2_19 +
                  static_cast<u128>(f4) * g1_19;
  const u128 t1 = static_cast<u128>(f0) * g1 + static_cast<u128>(f1) * g0 +
                  static_cast<u128>(f2) * g4_19 + static_cast<u128>(f3) * g3_19 +
                  static_cast<u128>(f4) * g2_19;
  const u128 t2 = static_cast<u128>(f0) * g2 + static_cast<u128>(f1) * g1 +
                  static_cast<u128>(f2) * g0 + static_cast<u128>(f3) * g4_19 +
                  static_cast<u128>(f4) * g3_19;
  const u128 t3 = static_cast<u128>(f0) * g3 + static_cast<u128>(f1) * g2 +
                  static_cast<u128>(f2) * g1 + static_cast<u128>(f3) * g0 +
                  static_cast<u128>(f4) * g4_19;
  const u128 t4 = static_cast<u128>(f0) * g4 + static_cast<u128>(f1) * g3 +
                  static_cast<u128>(f2) * g2 + static_cast<u128>(f3) * g1 +
                  static_cast<u128>(f4) * g0;
  return fe_reduce_wide(t0, t1, t2, t3, t4);
}

FieldElement fe_sq(const FieldElement& f) {
  const std::uint64_t f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const std::uint64_t d0 = 2 * f0, d1 = 2 * f1, d2 = 2 * f2, d3 = 2 * f3;
  const std::uint64_t f3_19 = 19 * f3, f4_19 = 19 * f4;
  const u128 t0 = static_cast<u128>(f0) * f0 + static_cast<u128>(d1) * f4_19 +
                  static_cast<u128>(d2) * f3_19;
  const u128 t1 = static_cast<u128>(d0) * f1 + static_cast<u128>(d2) * f4_19 +
                  static_cast<u128>(f3) * f3_19;
  const u128 t2 = static_cast<u128>(d0) * f2 + static_cast<u128>(f1) * f1 +
                  static_cast<u128>(d3) * f4_19;
  const u128 t3 = static_cast<u128>(d0) * f3 + static_cast<u128>(d1) * f2 +
                  static_cast<u128>(f4) * f4_19;
  const u128 t4 = static_cast<u128>(d0) * f4 + static_cast<u128>(d1) * f3 +
                  static_cast<u128>(f2) * f2;
  return fe_reduce_wide(t0, t1, t2, t3, t4);
}

FieldElement fe_neg(const FieldElement& a) { return fe_sub(kZero, a); }

// Little-endian decode of the low 255 bits; bit 255 is ignored.
FieldElement fe_from_bytes(const std::uint8_t bytes[32]) {
  std::uint64_t w[4];
  std::memcpy(w, bytes, 32);  // little-endian host
  return FieldElement{{w[0] & kMask51, ((w[0] >> 51) | (w[1] << 13)) & kMask51,
                       ((w[1] >> 38) | (w[2] << 26)) & kMask51,
                       ((w[2] >> 25) | (w[3] << 39)) & kMask51, (w[3] >> 12) & kMask51}};
}

// Canonical (< p) little-endian encoding.
void fe_to_bytes(std::uint8_t out[32], const FieldElement& a) {
  // After one carry the value h is below 2p. q = floor((h + 19) / 2^255) is
  // 1 exactly when h >= p; h - q p = h + 19 q - q 2^255 is then canonical.
  FieldElement t = fe_carry(a);
  std::uint64_t q = (t.v[0] + 19) >> 51;
  q = (t.v[1] + q) >> 51;
  q = (t.v[2] + q) >> 51;
  q = (t.v[3] + q) >> 51;
  q = (t.v[4] + q) >> 51;
  t.v[0] += 19 * q;
  std::uint64_t c;
  c = t.v[0] >> 51; t.v[0] &= kMask51; t.v[1] += c;
  c = t.v[1] >> 51; t.v[1] &= kMask51; t.v[2] += c;
  c = t.v[2] >> 51; t.v[2] &= kMask51; t.v[3] += c;
  c = t.v[3] >> 51; t.v[3] &= kMask51; t.v[4] += c;
  t.v[4] &= kMask51;  // drops q 2^255
  const std::uint64_t w[4] = {t.v[0] | (t.v[1] << 51), (t.v[1] >> 13) | (t.v[2] << 38),
                              (t.v[2] >> 26) | (t.v[3] << 25), (t.v[3] >> 39) | (t.v[4] << 12)};
  std::memcpy(out, w, 32);
}

// Comparisons and parity look at the canonical value, not the limbs.
bool fe_eq(const FieldElement& a, const FieldElement& b) {
  std::uint8_t ea[32], eb[32];
  fe_to_bytes(ea, a);
  fe_to_bytes(eb, b);
  return std::memcmp(ea, eb, 32) == 0;
}

bool fe_is_zero(const FieldElement& a) { return fe_eq(a, kZero); }

bool fe_is_odd(const FieldElement& a) {
  std::uint8_t e[32];
  fe_to_bytes(e, a);
  return (e[0] & 1) != 0;
}

// a^(2^n).
FieldElement fe_sqn(FieldElement a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

// The shared prefix of the inversion and square-root addition chains:
// returns z^(2^250 - 1) and sets z11 = z^11.
FieldElement fe_pow_2_250_1(const FieldElement& z, FieldElement& z11) {
  const FieldElement z2 = fe_sq(z);
  const FieldElement z9 = fe_mul(fe_sqn(z2, 2), z);
  z11 = fe_mul(z9, z2);
  const FieldElement z_5_0 = fe_mul(fe_sq(z11), z9);           // 2^5 - 1
  const FieldElement z_10_0 = fe_mul(fe_sqn(z_5_0, 5), z_5_0);  // 2^10 - 1
  const FieldElement z_20_0 = fe_mul(fe_sqn(z_10_0, 10), z_10_0);
  const FieldElement z_40_0 = fe_mul(fe_sqn(z_20_0, 20), z_20_0);
  const FieldElement z_50_0 = fe_mul(fe_sqn(z_40_0, 10), z_10_0);
  const FieldElement z_100_0 = fe_mul(fe_sqn(z_50_0, 50), z_50_0);
  const FieldElement z_200_0 = fe_mul(fe_sqn(z_100_0, 100), z_100_0);
  return fe_mul(fe_sqn(z_200_0, 50), z_50_0);  // 2^250 - 1
}

// z^((p-5)/8) = z^(2^252 - 3), the exponent of the square-root candidate.
FieldElement fe_pow22523(const FieldElement& z) {
  FieldElement z11;
  return fe_mul(fe_sqn(fe_pow_2_250_1(z, z11), 2), z);
}

FieldElement fe_invert(const FieldElement& a) {
  // a^(p-2) = a^(2^255 - 21) = (a^(2^250 - 1))^(2^5) * a^11.
  FieldElement a11;
  return fe_mul(fe_sqn(fe_pow_2_250_1(a, a11), 5), a11);
}

// ---------------------------------------------------------------------------
// Internal point representations (the ref10 family):
//   * P2     — projective (X : Y : Z), enough to double;
//   * P1P1   — "completed" ((X : Z), (Y : T)), what add and double produce;
//   * Cached — (Y + X, Y - X, Z, 2dT), an addend prepared once;
//   * Precomp — affine (y + x, y - x, 2dxy), a table entry with Z = 1.
// ---------------------------------------------------------------------------

struct P2 {
  FieldElement x, y, z;
};

struct P1P1 {
  FieldElement x, y, z, t;
};

struct Cached {
  FieldElement y_plus_x, y_minus_x, z, t2d;
};

struct Precomp {
  FieldElement y_plus_x, y_minus_x, xy2d;
};

P2 p1p1_to_p2(const P1P1& r) {
  return P2{fe_mul(r.x, r.t), fe_mul(r.y, r.z), fe_mul(r.z, r.t)};
}

GroupElement p1p1_to_p3(const P1P1& r) {
  return GroupElement{fe_mul(r.x, r.t), fe_mul(r.y, r.z), fe_mul(r.z, r.t),
                      fe_mul(r.x, r.y)};
}

Cached to_cached(const GroupElement& p) {
  return Cached{fe_add(p.y, p.x), fe_sub(p.y, p.x), p.z, fe_mul(p.t, kD2)};
}

// dbl-2008-hwcd for a = -1; T is not needed on input.
P1P1 dbl(const P2& p) {
  const FieldElement xx = fe_sq(p.x);
  const FieldElement yy = fe_sq(p.y);
  const FieldElement zz = fe_sq(p.z);
  const FieldElement sum_sq = fe_sq(fe_add(p.x, p.y));
  P1P1 r;
  r.y = fe_add(yy, xx);
  r.z = fe_sub(yy, xx);
  r.x = fe_sub(sum_sq, r.y);
  r.t = fe_sub(fe_add(zz, zz), r.z);
  return r;
}

// add-2008-hwcd-3 (unified, complete for Ed25519): p + q, or p - q when
// `negate` (the negated addend swaps Y+X with Y-X and flips 2dT).
P1P1 add(const GroupElement& p, const Cached& q, bool negate = false) {
  const FieldElement a = fe_mul(fe_add(p.y, p.x), negate ? q.y_minus_x : q.y_plus_x);
  const FieldElement b = fe_mul(fe_sub(p.y, p.x), negate ? q.y_plus_x : q.y_minus_x);
  const FieldElement c = fe_mul(q.t2d, p.t);
  const FieldElement zz = fe_mul(p.z, q.z);
  const FieldElement d = fe_add(zz, zz);
  P1P1 r;
  r.x = fe_sub(a, b);
  r.y = fe_add(a, b);
  r.z = negate ? fe_sub(d, c) : fe_add(d, c);
  r.t = negate ? fe_add(d, c) : fe_sub(d, c);
  return r;
}

// Mixed addition with an affine table entry (Z2 = 1 saves a multiplication).
P1P1 madd(const GroupElement& p, const Precomp& q, bool negate = false) {
  const FieldElement a = fe_mul(fe_add(p.y, p.x), negate ? q.y_minus_x : q.y_plus_x);
  const FieldElement b = fe_mul(fe_sub(p.y, p.x), negate ? q.y_plus_x : q.y_minus_x);
  const FieldElement c = fe_mul(q.xy2d, p.t);
  const FieldElement d = fe_add(p.z, p.z);
  P1P1 r;
  r.x = fe_sub(a, b);
  r.y = fe_add(a, b);
  r.z = negate ? fe_sub(d, c) : fe_add(d, c);
  r.t = negate ? fe_add(d, c) : fe_sub(d, c);
  return r;
}

GroupElement ge_double(const GroupElement& p) { return p1p1_to_p3(dbl(P2{p.x, p.y, p.z})); }

// Normalizes points to affine table entries with one shared inversion
// (Montgomery's trick).
std::vector<Precomp> to_precomp(const std::vector<GroupElement>& points) {
  std::vector<FieldElement> prefix(points.size());
  FieldElement acc = kOne;
  for (std::size_t i = 0; i < points.size(); ++i) {
    prefix[i] = acc;
    acc = fe_mul(acc, points[i].z);
  }
  FieldElement inv = fe_invert(acc);
  std::vector<Precomp> out(points.size());
  for (std::size_t i = points.size(); i-- > 0;) {
    const FieldElement z_inv = fe_mul(inv, prefix[i]);
    inv = fe_mul(inv, points[i].z);
    const FieldElement x = fe_mul(points[i].x, z_inv);
    const FieldElement y = fe_mul(points[i].y, z_inv);
    out[i] = Precomp{fe_carry(fe_add(y, x)), fe_sub(y, x), fe_mul(fe_mul(x, y), kD2)};
  }
  return out;
}

// Base-point tables, built once on first use:
//   * radix[j][k] = (k + 1) * 256^j * B for the signed radix-16 fixed-base
//     multiplication (32 x 8 entries);
//   * odd[k] = (2k + 1) * B for the width-8 wNAF term of the multi-scalar
//     multiplication (64 entries).
struct BaseTables {
  Precomp radix[32][8];
  Precomp odd[64];
};

const BaseTables& base_tables() {
  static const BaseTables tables = [] {
    std::vector<GroupElement> points;
    points.reserve(32 * 8 + 64);
    GroupElement row_base = ge_base();
    for (int j = 0; j < 32; ++j) {
      GroupElement multiple = row_base;
      for (int k = 0; k < 8; ++k) {
        points.push_back(multiple);
        multiple = ge_add(multiple, row_base);
      }
      for (int i = 0; i < 8; ++i) row_base = ge_double(row_base);
    }
    const GroupElement two_b = ge_double(ge_base());
    GroupElement odd = ge_base();
    for (int k = 0; k < 64; ++k) {
      points.push_back(odd);
      odd = ge_add(odd, two_b);
    }
    const std::vector<Precomp> precomp = to_precomp(points);
    BaseTables out;
    for (int j = 0; j < 32; ++j) {
      for (int k = 0; k < 8; ++k) out.radix[j][k] = precomp[j * 8 + k];
    }
    for (int k = 0; k < 64; ++k) out.odd[k] = precomp[32 * 8 + k];
    return out;
  }();
  return tables;
}

// Width-w non-adjacent form of a 256-bit integer: odd digits in
// (-2^(w-1), 2^(w-1)), at least w - 1 zeros after each. 257 positions hold
// any 256-bit input, including one with the top bit set. Returns the index
// of the highest nonzero digit, or -1 for zero.
using Naf = std::array<std::int8_t, 257>;

int wnaf(Naf& naf, const Scalar& s, int w) {
  naf.fill(0);
  const std::uint64_t x[5] = {s.v[0], s.v[1], s.v[2], s.v[3], 0};
  const std::uint64_t width = std::uint64_t{1} << w;
  const std::uint64_t window_mask = width - 1;
  int top = -1;
  std::uint64_t carry = 0;
  int pos = 0;
  while (pos < 257) {
    const int limb = pos / 64;
    const int bit = pos % 64;
    std::uint64_t bits = x[limb] >> bit;
    // Never reads past x[4]: limb 4 is reached only at pos 256, bit 0.
    if (bit > 64 - w) bits |= x[limb + 1] << (64 - bit);
    const std::uint64_t window = carry + (bits & window_mask);
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    if (window < width / 2) {
      carry = 0;
      naf[pos] = static_cast<std::int8_t>(window);
    } else {
      carry = 1;
      naf[pos] = static_cast<std::int8_t>(static_cast<int>(window) - static_cast<int>(width));
    }
    top = pos;
    pos += w;
  }
  return top;
}

Scalar scalar_bits(const std::uint8_t bytes[32]) {
  Scalar s;
  std::memcpy(s.v, bytes, 32);  // little-endian host
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Group
// ---------------------------------------------------------------------------

GroupElement ge_identity() { return GroupElement{kZero, kOne, kOne, kZero}; }

bool ge_is_identity(const GroupElement& p) {
  // x/z == 0 and y/z == 1  ⟺  x == 0 and y == z.
  return fe_is_zero(p.x) && fe_eq(p.y, p.z);
}

bool ge_eq(const GroupElement& p, const GroupElement& q) {
  return fe_eq(fe_mul(p.x, q.z), fe_mul(q.x, p.z)) &&
         fe_eq(fe_mul(p.y, q.z), fe_mul(q.y, p.z));
}

GroupElement ge_add(const GroupElement& p, const GroupElement& q) {
  return p1p1_to_p3(add(p, to_cached(q)));
}

GroupElement ge_sub(const GroupElement& p, const GroupElement& q) {
  return p1p1_to_p3(add(p, to_cached(q), /*negate=*/true));
}

GroupElement ge_neg(const GroupElement& p) {
  return GroupElement{fe_neg(p.x), p.y, p.z, fe_neg(p.t)};
}

GroupElement ge_multi_scalar_mult(std::span<const Scalar> scalars,
                                  std::span<const GroupElement> points,
                                  const Scalar& base_scalar) {
  assert(scalars.size() == points.size());
  struct Term {
    Naf naf;
    Cached odd[8];  // (2k + 1) P
  };
  std::vector<Term> terms(points.size());
  int top = -1;
  for (std::size_t i = 0; i < points.size(); ++i) {
    Term& term = terms[i];
    top = std::max(top, wnaf(term.naf, scalars[i], 5));
    const Cached two_p = to_cached(ge_double(points[i]));
    GroupElement multiple = points[i];
    term.odd[0] = to_cached(multiple);
    for (int k = 1; k < 8; ++k) {
      multiple = p1p1_to_p3(add(multiple, two_p));
      term.odd[k] = to_cached(multiple);
    }
  }
  Naf base_naf;
  top = std::max(top, wnaf(base_naf, base_scalar, 8));
  const Precomp* base_odd = sc_is_zero(base_scalar) ? nullptr : base_tables().odd;

  // One doubling chain from the highest digit down; every term adds its
  // digit at its position. r stays projective between steps.
  P1P1 r{kZero, kOne, kOne, kOne};  // the identity, "completed"
  for (int pos = top; pos >= 0; --pos) {
    r = dbl(p1p1_to_p2(r));
    for (const Term& term : terms) {
      const int digit = term.naf[pos];
      if (digit == 0) continue;
      r = add(p1p1_to_p3(r), term.odd[std::abs(digit) / 2], digit < 0);
    }
    const int digit = base_naf[pos];
    if (digit != 0) r = madd(p1p1_to_p3(r), base_odd[std::abs(digit) / 2], digit < 0);
  }
  return p1p1_to_p3(r);
}

GroupElement ge_scalar_mult(const std::uint8_t scalar_le[32], const GroupElement& p) {
  const Scalar s = scalar_bits(scalar_le);
  return ge_multi_scalar_mult({&s, 1}, {&p, 1}, Scalar{});
}

GroupElement ge_scalar_mult_base(const std::uint8_t scalar_le[32]) {
  // Signed radix 16 needs the top digit to absorb the final carry, which
  // holds for every input below 2^255 (reduced scalars, clamped keys).
  if (scalar_le[31] > 127) return ge_multi_scalar_mult({}, {}, scalar_bits(scalar_le));
  std::int8_t e[64];
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(scalar_le[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(scalar_le[i] >> 4);
  }
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    const int digit = e[i] + carry;
    carry = (digit + 8) >> 4;
    e[i] = static_cast<std::int8_t>(digit - (carry << 4));
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);  // now every e[i] is in [-8, 8]

  // sum_i e[i] 16^i B, with 16^(2j) B = 256^j B from row j of the table:
  // the odd digits first, then times 16, then the even digits.
  const BaseTables& tables = base_tables();
  GroupElement h = ge_identity();
  auto accumulate = [&](int parity) {
    for (int i = parity; i < 64; i += 2) {
      if (e[i] == 0) continue;
      h = p1p1_to_p3(madd(h, tables.radix[i / 2][std::abs(e[i]) - 1], e[i] < 0));
    }
  };
  accumulate(1);
  P1P1 r = dbl(P2{h.x, h.y, h.z});
  for (int i = 0; i < 3; ++i) r = dbl(p1p1_to_p2(r));
  h = p1p1_to_p3(r);
  accumulate(0);
  return h;
}

void ge_compress(std::uint8_t out[32], const GroupElement& p) {
  const FieldElement z_inv = fe_invert(p.z);
  const FieldElement x = fe_mul(p.x, z_inv);
  const FieldElement y = fe_mul(p.y, z_inv);
  fe_to_bytes(out, y);
  if (fe_is_odd(x)) out[31] |= 0x80;
}

CompressedPoint ge_compressed(const GroupElement& p) {
  CompressedPoint out;
  ge_compress(out.data(), p);
  return out;
}

std::optional<GroupElement> ge_decompress(const std::uint8_t in[32]) {
  const bool sign = (in[31] & 0x80) != 0;
  // Non-canonical y: y >= p, i.e. the low 255 bits are in [2^255 - 19, 2^255).
  if ((in[31] & 0x7f) == 0x7f && in[0] >= 0xed &&
      std::all_of(in + 1, in + 31, [](std::uint8_t b) { return b == 0xff; })) {
    return std::nullopt;
  }
  const FieldElement y = fe_from_bytes(in);

  // x^2 = (y^2 - 1) / (d y^2 + 1)
  const FieldElement y2 = fe_sq(y);
  const FieldElement u = fe_sub(y2, kOne);
  const FieldElement v = fe_carry(fe_add(fe_mul(kD, y2), kOne));

  // Candidate root: x = u * v^3 * (u * v^7)^((p-5)/8).
  const FieldElement v3 = fe_mul(fe_sq(v), v);
  const FieldElement v7 = fe_mul(fe_sq(v3), v);
  FieldElement x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));

  const FieldElement vx2 = fe_mul(v, fe_sq(x));
  if (fe_eq(vx2, u)) {
    // x is a root.
  } else if (fe_eq(vx2, fe_neg(u))) {
    x = fe_mul(x, kSqrtM1);
  } else {
    return std::nullopt;  // not a curve point
  }

  if (fe_is_zero(x) && sign) return std::nullopt;  // -0 is not a valid encoding
  if (fe_is_odd(x) != sign) x = fe_neg(x);

  GroupElement out;
  out.x = x;
  out.y = y;
  out.z = kOne;
  out.t = fe_mul(x, y);
  return out;
}

const GroupElement& ge_base() {
  static const GroupElement b = [] {
    // y = 4/5, sign bit 0.
    const FieldElement four = {{4, 0, 0, 0, 0}};
    const FieldElement five = {{5, 0, 0, 0, 0}};
    const FieldElement y = fe_mul(four, fe_invert(five));
    std::uint8_t enc[32];
    fe_to_bytes(enc, y);
    const auto decoded = ge_decompress(enc);
    if (!decoded) std::abort();  // unreachable: 4/5 is a valid y coordinate
    return *decoded;
  }();
  return b;
}

GroupElement ge_mul_cofactor(const GroupElement& p) {
  P1P1 r = dbl(P2{p.x, p.y, p.z});
  r = dbl(p1p1_to_p2(r));
  return p1p1_to_p3(dbl(p1p1_to_p2(r)));
}

// ---------------------------------------------------------------------------
// Scalars
// ---------------------------------------------------------------------------

namespace {

// L and the Barrett constant mu = floor(2^512 / L), little-endian limbs.
constexpr std::uint64_t kL[5] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0ULL,
                                 0x1000000000000000ULL, 0ULL};
constexpr std::uint64_t kMu[5] = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL,
                                  0xffffffffffffffebULL, 0xffffffffffffffffULL, 0xfULL};

bool gte_l(const std::uint64_t r[5]) {
  for (int i = 4; i >= 0; --i) {
    if (r[i] != kL[i]) return r[i] > kL[i];
  }
  return true;
}

// r -= b over five limbs, modulo 2^320.
void sub5(std::uint64_t r[5], const std::uint64_t b[5]) {
  std::uint64_t borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 cur = static_cast<u128>(r[i]) - b[i] - borrow;
    r[i] = static_cast<std::uint64_t>(cur);
    borrow = static_cast<std::uint64_t>(cur >> 64) & 1;
  }
}

// Barrett reduction of a 512-bit value (HAC 14.42 with b = 2^64, k = 4):
// q = floor(floor(x / b^3) * mu / b^5) undershoots floor(x / L) by at most
// 2, so r = x - q L lands in [0, 3L) and at most two subtractions finish.
Scalar sc_reduce512(const std::uint64_t x[8]) {
  std::uint64_t q2[10] = {};
  for (int i = 0; i < 5; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 5; ++j) {
      const u128 cur = static_cast<u128>(x[3 + i]) * kMu[j] + q2[i + j] + carry;
      q2[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    q2[i + 5] = carry;
  }
  const std::uint64_t* q3 = q2 + 5;
  // q3 L mod 2^320.
  std::uint64_t ql[5] = {};
  for (int i = 0; i < 5; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; i + j < 5; ++j) {
      const u128 cur = static_cast<u128>(q3[i]) * kL[j] + ql[i + j] + carry;
      ql[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
  }
  std::uint64_t r[5] = {x[0], x[1], x[2], x[3], x[4]};
  sub5(r, ql);
  while (gte_l(r)) sub5(r, kL);
  return Scalar{{r[0], r[1], r[2], r[3]}};
}

}  // namespace

bool Scalar::operator==(const Scalar& other) const {
  return std::memcmp(v, other.v, sizeof(v)) == 0;
}

Scalar sc_zero() { return Scalar{}; }
Scalar sc_one() { return Scalar{{1, 0, 0, 0}}; }

Scalar sc_from_u64(std::uint64_t x) { return Scalar{{x, 0, 0, 0}}; }

bool sc_is_zero(const Scalar& a) { return a == Scalar{}; }

Scalar sc_add(const Scalar& a, const Scalar& b) {
  // Inputs are < L < 2^253, so the sum is < 2^254: no carry out, and at most
  // one subtraction of L is needed.
  std::uint64_t r[5] = {};
  std::uint64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(a.v[i]) + b.v[i] + carry;
    r[i] = static_cast<std::uint64_t>(cur);
    carry = static_cast<std::uint64_t>(cur >> 64);
  }
  if (gte_l(r)) sub5(r, kL);
  return Scalar{{r[0], r[1], r[2], r[3]}};
}

Scalar sc_sub(const Scalar& a, const Scalar& b) { return sc_add(a, sc_neg(b)); }

Scalar sc_neg(const Scalar& a) {
  if (sc_is_zero(a)) return a;
  std::uint64_t r[5] = {kL[0], kL[1], kL[2], kL[3], kL[4]};
  const std::uint64_t b[5] = {a.v[0], a.v[1], a.v[2], a.v[3], 0};
  sub5(r, b);
  return Scalar{{r[0], r[1], r[2], r[3]}};
}

Scalar sc_mul(const Scalar& a, const Scalar& b) { return sc_mul_add(a, b, Scalar{}); }

Scalar sc_mul_add(const Scalar& a, const Scalar& b, const Scalar& c) {
  // a*b + c as a 512-bit value, then reduce.
  std::uint64_t z[8] = {};
  for (int i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = static_cast<u128>(a.v[i]) * b.v[j] + z[i + j] + carry;
      z[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    z[i + 4] = carry;
  }
  std::uint64_t carry = 0;
  for (int i = 0; i < 8; ++i) {
    const u128 cur = static_cast<u128>(z[i]) + (i < 4 ? c.v[i] : 0) + carry;
    z[i] = static_cast<std::uint64_t>(cur);
    carry = static_cast<std::uint64_t>(cur >> 64);
  }
  return sc_reduce512(z);
}

Scalar sc_invert(const Scalar& a) {
  // Fermat: a^(L-2). L - 2 differs from L only in the low limb.
  static constexpr std::uint64_t kExp[4] = {0x5812631a5cf5d3ebULL, 0x14def9dea2f79cd6ULL,
                                            0ULL, 0x1000000000000000ULL};
  Scalar result = sc_one();
  bool started = false;
  for (int limb = 3; limb >= 0; --limb) {
    for (int bit = 63; bit >= 0; --bit) {
      if (started) result = sc_mul(result, result);
      if ((kExp[limb] >> bit) & 1) {
        result = sc_mul(result, a);
        started = true;
      }
    }
  }
  return result;
}

Scalar sc_from_bytes64(const std::uint8_t bytes[64]) {
  std::uint64_t x[8];
  std::memcpy(x, bytes, 64);
  return sc_reduce512(x);
}

Scalar sc_from_bytes32(const std::uint8_t bytes[32]) {
  std::uint64_t x[8] = {};
  std::memcpy(x, bytes, 32);
  return sc_reduce512(x);
}

std::optional<Scalar> sc_from_bytes32_strict(const std::uint8_t bytes[32]) {
  std::uint64_t r[5] = {};
  std::memcpy(r, bytes, 32);
  if (gte_l(r)) return std::nullopt;
  return Scalar{{r[0], r[1], r[2], r[3]}};
}

void sc_to_bytes(std::uint8_t out[32], const Scalar& s) { std::memcpy(out, s.v, 32); }

GroupElement ge_scalar_mult(const Scalar& s, const GroupElement& p) {
  std::uint8_t bytes[32];
  sc_to_bytes(bytes, s);
  return ge_scalar_mult(bytes, p);
}

GroupElement ge_scalar_mult_base(const Scalar& s) {
  std::uint8_t bytes[32];
  sc_to_bytes(bytes, s);
  return ge_scalar_mult_base(bytes);
}

}  // namespace mahimahi::crypto::curve
