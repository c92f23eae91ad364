// Test-only reference implementation of the curve25519 / Ed25519 arithmetic:
// the straightforward code the library used before its fast rewrite —
// four 64-bit limbs kept canonical after every operation, the complete
// addition law for doubling too, MSB-first double-and-add scalar
// multiplication and bit-by-bit scalar reduction. It is slow and simple on
// purpose: the differential tests check that the fast library agrees with it
// on accept/reject, on every encoded point and on every signature byte.
#pragma once

#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/bytes.h"
#include "crypto/sha512.h"

namespace mahimahi::crypto::oracle {

// --- Field GF(2^255 - 19), canonical 4 x 64-bit limbs ------------------------

struct Fe {
  std::uint64_t v[4] = {0, 0, 0, 0};
};

constexpr Fe kP = {{0xffffffffffffffedULL, 0xffffffffffffffffULL, 0xffffffffffffffffULL,
                    0x7fffffffffffffffULL}};
constexpr Fe kZero = {};
constexpr Fe kOne = {{1, 0, 0, 0}};

inline bool fe_gte(const Fe& a, const Fe& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.v[i] != b.v[i]) return a.v[i] > b.v[i];
  }
  return true;
}

inline Fe raw_sub(const Fe& a, const Fe& b) {
  Fe out;
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 cur = static_cast<unsigned __int128>(a.v[i]) - b.v[i] - borrow;
    out.v[i] = static_cast<std::uint64_t>(cur);
    borrow = (cur >> 64) & 1;
  }
  return out;
}

inline Fe raw_add(const Fe& a, const Fe& b, std::uint64_t& carry_out) {
  Fe out;
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 cur = static_cast<unsigned __int128>(a.v[i]) + b.v[i] + carry;
    out.v[i] = static_cast<std::uint64_t>(cur);
    carry = cur >> 64;
  }
  carry_out = static_cast<std::uint64_t>(carry);
  return out;
}

inline Fe fe_canonicalize(Fe a, std::uint64_t carry) {
  while (carry != 0) {  // 2^256 ≡ 38 (mod p)
    const Fe c38 = {{carry * 38, 0, 0, 0}};
    a = raw_add(a, c38, carry);
  }
  while (fe_gte(a, kP)) a = raw_sub(a, kP);
  return a;
}

inline bool fe_eq(const Fe& a, const Fe& b) { return std::memcmp(a.v, b.v, 32) == 0; }
inline bool fe_is_zero(const Fe& a) { return fe_eq(a, kZero); }
inline bool fe_is_odd(const Fe& a) { return (a.v[0] & 1) != 0; }

inline Fe fe_add(const Fe& a, const Fe& b) {
  std::uint64_t carry;
  const Fe out = raw_add(a, b, carry);
  return fe_canonicalize(out, carry);
}

inline Fe fe_sub(const Fe& a, const Fe& b) {
  if (fe_gte(a, b)) return raw_sub(a, b);
  std::uint64_t carry;
  return raw_sub(raw_add(a, kP, carry), b);
}

inline Fe fe_neg(const Fe& a) { return fe_sub(kZero, a); }

inline Fe fe_mul(const Fe& a, const Fe& b) {
  std::uint64_t z[8] = {};
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(a.v[i]) * b.v[j] + z[i + j] + carry;
      z[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    z[i + 4] = static_cast<std::uint64_t>(carry);
  }
  std::uint64_t r[5] = {z[0], z[1], z[2], z[3], 0};
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 cur = static_cast<unsigned __int128>(z[4 + i]) * 38 + r[i] + carry;
    r[i] = static_cast<std::uint64_t>(cur);
    carry = cur >> 64;
  }
  r[4] = static_cast<std::uint64_t>(carry);
  std::uint64_t c2;
  const Fe fold = {{r[4] * 38, 0, 0, 0}};
  const Fe out = raw_add(Fe{{r[0], r[1], r[2], r[3]}}, fold, c2);
  return fe_canonicalize(out, c2);
}

inline Fe fe_pow(const Fe& a, const std::uint64_t e[4]) {
  Fe result = kOne;
  bool started = false;
  for (int limb = 3; limb >= 0; --limb) {
    for (int bit = 63; bit >= 0; --bit) {
      if (started) result = fe_mul(result, result);
      if ((e[limb] >> bit) & 1) {
        result = fe_mul(result, a);
        started = true;
      }
    }
  }
  return result;
}

inline Fe fe_invert(const Fe& a) {
  static constexpr std::uint64_t kExp[4] = {0xffffffffffffffebULL, 0xffffffffffffffffULL,
                                            0xffffffffffffffffULL, 0x7fffffffffffffffULL};
  return fe_pow(a, kExp);
}

struct CurveConstants {
  Fe d, two_d, sqrt_m1;
};

inline const CurveConstants& constants() {
  static const CurveConstants c = [] {
    CurveConstants out;
    out.d = fe_mul(fe_neg(Fe{{121665, 0, 0, 0}}), fe_invert(Fe{{121666, 0, 0, 0}}));
    out.two_d = fe_add(out.d, out.d);
    static constexpr std::uint64_t kExp[4] = {0xfffffffffffffffbULL, 0xffffffffffffffffULL,
                                              0xffffffffffffffffULL, 0x1fffffffffffffffULL};
    out.sqrt_m1 = fe_pow(Fe{{2, 0, 0, 0}}, kExp);
    return out;
  }();
  return c;
}

// --- Group: extended coordinates, complete addition, double-and-add ----------

struct Point {
  Fe x, y, z, t;
};

inline Point ge_identity() { return Point{kZero, kOne, kOne, kZero}; }

inline bool ge_is_identity(const Point& p) { return fe_is_zero(p.x) && fe_eq(p.y, p.z); }

inline Point ge_add(const Point& p, const Point& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
  const Fe b = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
  const Fe c = fe_mul(fe_mul(p.t, constants().two_d), q.t);
  const Fe d = fe_mul(fe_add(p.z, p.z), q.z);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

inline Point ge_neg(const Point& p) { return Point{fe_neg(p.x), p.y, p.z, fe_neg(p.t)}; }

inline Point ge_sub(const Point& p, const Point& q) { return ge_add(p, ge_neg(q)); }

inline Point ge_scalar_mult(const std::uint8_t scalar_le[32], const Point& p) {
  Point result = ge_identity();
  bool started = false;
  for (int byte = 31; byte >= 0; --byte) {
    for (int bit = 7; bit >= 0; --bit) {
      if (started) result = ge_add(result, result);
      if ((scalar_le[byte] >> bit) & 1) {
        result = ge_add(result, p);
        started = true;
      }
    }
  }
  return result;
}

inline Point ge_mul_cofactor(const Point& p) {
  Point r = ge_add(p, p);
  r = ge_add(r, r);
  return ge_add(r, r);
}

inline std::array<std::uint8_t, 32> ge_compressed(const Point& p) {
  const Fe z_inv = fe_invert(p.z);
  const Fe x = fe_mul(p.x, z_inv);
  const Fe y = fe_mul(p.y, z_inv);
  std::array<std::uint8_t, 32> out;
  std::memcpy(out.data(), y.v, 32);
  if (fe_is_odd(x)) out[31] |= 0x80;
  return out;
}

inline std::optional<Point> ge_decompress(const std::uint8_t in[32]) {
  Fe y;
  std::memcpy(y.v, in, 32);
  const bool sign = (y.v[3] >> 63) != 0;
  y.v[3] &= 0x7fffffffffffffffULL;
  if (fe_gte(y, kP)) return std::nullopt;  // non-canonical y

  const Fe y2 = fe_mul(y, y);
  const Fe u = fe_sub(y2, kOne);
  const Fe v = fe_add(fe_mul(constants().d, y2), kOne);
  const Fe v3 = fe_mul(fe_mul(v, v), v);
  const Fe v7 = fe_mul(fe_mul(v3, v3), v);
  static constexpr std::uint64_t kExp[4] = {0xfffffffffffffffdULL, 0xffffffffffffffffULL,
                                            0xffffffffffffffffULL, 0x0fffffffffffffffULL};
  Fe x = fe_mul(fe_mul(u, v3), fe_pow(fe_mul(u, v7), kExp));
  const Fe vx2 = fe_mul(v, fe_mul(x, x));
  if (fe_eq(vx2, u)) {
  } else if (fe_eq(vx2, fe_neg(u))) {
    x = fe_mul(x, constants().sqrt_m1);
  } else {
    return std::nullopt;
  }
  if (fe_is_zero(x) && sign) return std::nullopt;
  if (fe_is_odd(x) != sign) x = fe_neg(x);
  return Point{x, y, kOne, fe_mul(x, y)};
}

inline const Point& ge_base() {
  static const Point b = [] {
    const Fe y = fe_mul(Fe{{4, 0, 0, 0}}, fe_invert(Fe{{5, 0, 0, 0}}));
    std::uint8_t enc[32];
    std::memcpy(enc, y.v, 32);
    const auto decoded = ge_decompress(enc);
    if (!decoded) std::abort();
    return *decoded;
  }();
  return b;
}

// --- Scalars mod L, bit-by-bit reduction -------------------------------------

struct Sc {
  std::uint64_t v[4] = {0, 0, 0, 0};
};

constexpr std::uint64_t kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0ULL,
                                 0x1000000000000000ULL};

inline bool sc_gte_l(const Sc& a) {
  for (int i = 3; i >= 0; --i) {
    if (a.v[i] != kL[i]) return a.v[i] > kL[i];
  }
  return true;
}

inline Sc sc_sub_l(const Sc& a) {
  Sc out;
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 cur = static_cast<unsigned __int128>(a.v[i]) - kL[i] - borrow;
    out.v[i] = static_cast<std::uint64_t>(cur);
    borrow = (cur >> 64) & 1;
  }
  return out;
}

inline Sc sc_reduce512(const std::uint64_t x[8]) {
  Sc r;
  for (int bit = 511; bit >= 0; --bit) {
    std::uint64_t carry = (x[bit / 64] >> (bit % 64)) & 1;
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t top = r.v[i] >> 63;
      r.v[i] = (r.v[i] << 1) | carry;
      carry = top;
    }
    if (sc_gte_l(r)) r = sc_sub_l(r);
  }
  return r;
}

inline Sc sc_from_bytes64(const std::uint8_t bytes[64]) {
  std::uint64_t x[8];
  std::memcpy(x, bytes, 64);
  return sc_reduce512(x);
}

inline Sc sc_from_bytes32(const std::uint8_t bytes[32]) {
  std::uint64_t x[8] = {};
  std::memcpy(x, bytes, 32);
  return sc_reduce512(x);
}

inline Sc sc_mul_add(const Sc& a, const Sc& b, const Sc& c) {
  std::uint64_t z[8] = {};
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(a.v[i]) * b.v[j] + z[i + j] + carry;
      z[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    z[i + 4] = static_cast<std::uint64_t>(carry);
  }
  unsigned __int128 carry = 0;
  for (int i = 0; i < 8; ++i) {
    const unsigned __int128 cur = static_cast<unsigned __int128>(z[i]) + (i < 4 ? c.v[i] : 0) + carry;
    z[i] = static_cast<std::uint64_t>(cur);
    carry = cur >> 64;
  }
  return sc_reduce512(z);
}

// --- Ed25519 (RFC 8032, cofactored verification) ------------------------------

struct ExpandedKey {
  std::uint8_t scalar[32];
  std::uint8_t prefix[32];
};

inline ExpandedKey expand_seed(const std::array<std::uint8_t, 32>& seed) {
  const auto h = Sha512::hash({seed.data(), seed.size()});
  ExpandedKey out;
  std::memcpy(out.scalar, h.data(), 32);
  std::memcpy(out.prefix, h.data() + 32, 32);
  out.scalar[0] &= 0xf8;
  out.scalar[31] &= 0x7f;
  out.scalar[31] |= 0x40;
  return out;
}

inline std::array<std::uint8_t, 32> public_key(const std::array<std::uint8_t, 32>& seed) {
  return ge_compressed(ge_scalar_mult(expand_seed(seed).scalar, ge_base()));
}

inline std::array<std::uint8_t, 64> sign(const std::array<std::uint8_t, 32>& seed,
                                         BytesView message) {
  const ExpandedKey key = expand_seed(seed);
  const auto pub = public_key(seed);
  Sha512 h1;
  h1.update({key.prefix, 32});
  h1.update(message);
  const Sc r = sc_from_bytes64(h1.finish().data());
  std::uint8_t r_bytes[32];
  std::memcpy(r_bytes, r.v, 32);
  const auto r_enc = ge_compressed(ge_scalar_mult(r_bytes, ge_base()));
  Sha512 h2;
  h2.update({r_enc.data(), 32});
  h2.update({pub.data(), 32});
  h2.update(message);
  const Sc k = sc_from_bytes64(h2.finish().data());
  const Sc s = sc_mul_add(k, sc_from_bytes32(key.scalar), r);
  std::array<std::uint8_t, 64> sig;
  std::memcpy(sig.data(), r_enc.data(), 32);
  std::memcpy(sig.data() + 32, s.v, 32);
  return sig;
}

// [8]([s]B - R - [k]A) == O, rejecting s >= L and undecodable points.
inline bool verify(const std::array<std::uint8_t, 32>& key, BytesView message,
                   const std::array<std::uint8_t, 64>& sig) {
  const auto a = ge_decompress(key.data());
  if (!a) return false;
  const auto r = ge_decompress(sig.data());
  if (!r) return false;
  Sc s;
  std::memcpy(s.v, sig.data() + 32, 32);
  if (sc_gte_l(s)) return false;
  Sha512 h;
  h.update({sig.data(), 32});
  h.update({key.data(), 32});
  h.update(message);
  const Sc k = sc_from_bytes64(h.finish().data());
  std::uint8_t k_bytes[32];
  std::memcpy(k_bytes, k.v, 32);
  const Point sb = ge_scalar_mult(sig.data() + 32, ge_base());
  const Point ka = ge_scalar_mult(k_bytes, ge_neg(*a));
  return ge_is_identity(ge_mul_cofactor(ge_sub(ge_add(sb, ka), *r)));
}

}  // namespace mahimahi::crypto::oracle
