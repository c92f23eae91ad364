#include "crypto/dleq.h"

#include <cstring>

#include "crypto/sha512.h"

namespace mahimahi::crypto {

namespace {

using curve::ge_compressed;
using curve::ge_multi_scalar_mult;
using curve::ge_neg;
using curve::ge_scalar_mult;
using curve::GroupElement;
using curve::Scalar;
using curve::sc_from_bytes32_strict;
using curve::sc_from_bytes64;
using curve::sc_mul_add;
using curve::sc_to_bytes;
using curve::sc_zero;

constexpr char kChallengeDomain[] = "mahimahi.dleq.challenge.v1";
constexpr char kNonceDomain[] = "mahimahi.dleq.nonce.v1";

void absorb_point(Sha512& h, const GroupElement& p) {
  const auto enc = ge_compressed(p);
  h.update({enc.data(), enc.size()});
}

// c = H(domain ‖ context ‖ G ‖ H ‖ P ‖ S ‖ A ‖ B) mod L.
Scalar challenge(const GroupElement& g, const GroupElement& h_point,
                 const GroupElement& p, const GroupElement& s, const GroupElement& a,
                 const GroupElement& b, BytesView context) {
  Sha512 h;
  h.update({reinterpret_cast<const std::uint8_t*>(kChallengeDomain),
            sizeof(kChallengeDomain) - 1});
  h.update(context);
  absorb_point(h, g);
  absorb_point(h, h_point);
  absorb_point(h, p);
  absorb_point(h, s);
  absorb_point(h, a);
  absorb_point(h, b);
  return sc_from_bytes64(h.finish().data());
}

}  // namespace

std::array<std::uint8_t, DleqProof::kWireBytes> DleqProof::to_bytes() const {
  std::array<std::uint8_t, kWireBytes> out;
  sc_to_bytes(out.data(), c);
  sc_to_bytes(out.data() + 32, z);
  return out;
}

std::optional<DleqProof> DleqProof::from_bytes(
    const std::array<std::uint8_t, kWireBytes>& bytes) {
  const auto c = sc_from_bytes32_strict(bytes.data());
  const auto z = sc_from_bytes32_strict(bytes.data() + 32);
  if (!c || !z) return std::nullopt;
  return DleqProof{*c, *z};
}

DleqProof dleq_prove(const Scalar& x, const GroupElement& g, const GroupElement& h,
                     const GroupElement& p, const GroupElement& s, BytesView context) {
  // Deterministic nonce k = H(domain ‖ x ‖ context ‖ H ‖ S) mod L.
  Sha512 nonce_hash;
  nonce_hash.update({reinterpret_cast<const std::uint8_t*>(kNonceDomain),
                     sizeof(kNonceDomain) - 1});
  std::uint8_t x_bytes[32];
  sc_to_bytes(x_bytes, x);
  nonce_hash.update({x_bytes, 32});
  nonce_hash.update(context);
  absorb_point(nonce_hash, h);
  absorb_point(nonce_hash, s);
  const Scalar k = sc_from_bytes64(nonce_hash.finish().data());

  const GroupElement a = ge_scalar_mult(k, g);
  const GroupElement b = ge_scalar_mult(k, h);

  DleqProof proof;
  proof.c = challenge(g, h, p, s, a, b, context);
  proof.z = sc_mul_add(proof.c, x, k);  // z = k + c·x
  return proof;
}

bool dleq_verify(const DleqProof& proof, const GroupElement& g, const GroupElement& h,
                 const GroupElement& p, const GroupElement& s, BytesView context) {
  // A = [z]G - [c]P, B = [z]H - [c]S; accept iff c == H(..., A, B). Each is
  // one two-term multi-scalar multiplication over the negated second point.
  const Scalar scalars[2] = {proof.z, proof.c};
  const GroupElement a_terms[2] = {g, ge_neg(p)};
  const GroupElement b_terms[2] = {h, ge_neg(s)};
  const GroupElement a = ge_multi_scalar_mult(scalars, a_terms, sc_zero());
  const GroupElement b = ge_multi_scalar_mult(scalars, b_terms, sc_zero());
  return challenge(g, h, p, s, a, b, context) == proof.c;
}

}  // namespace mahimahi::crypto
