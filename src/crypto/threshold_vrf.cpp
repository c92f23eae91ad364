#include "crypto/threshold_vrf.h"

#include <cstring>
#include <stdexcept>

#include "crypto/sha512.h"

namespace mahimahi::crypto {

namespace {

using curve::ge_compressed;
using curve::ge_decompress;
using curve::ge_is_identity;
using curve::ge_mul_cofactor;
using curve::ge_multi_scalar_mult;
using curve::ge_scalar_mult;
using curve::ge_scalar_mult_base;
using curve::GroupElement;
using curve::Scalar;
using curve::sc_from_bytes64;
using curve::sc_from_u64;
using curve::sc_invert;
using curve::sc_is_zero;
using curve::sc_mul;
using curve::sc_mul_add;
using curve::sc_sub;

constexpr char kHashToPointDomain[] = "mahimahi.vrf.h2p.v1";
constexpr char kDealerDomain[] = "mahimahi.vrf.dealer.v1";
constexpr char kOutputDomain[] = "mahimahi.vrf.output.v1";
constexpr char kShareContext[] = "mahimahi.vrf.share.v1";

BytesView domain(const char* literal, std::size_t sizeof_literal) {
  return {reinterpret_cast<const std::uint8_t*>(literal), sizeof_literal - 1};
}

// Lagrange coefficient at zero for index set `xs` (1-based share indices),
// for the element at position `i`: λ_i = Π_{j≠i} x_j / (x_j − x_i) mod L.
Scalar lagrange_at_zero(std::span<const std::uint32_t> xs, std::size_t i) {
  Scalar num = curve::sc_one();
  Scalar den = curve::sc_one();
  const Scalar xi = sc_from_u64(xs[i]);
  for (std::size_t j = 0; j < xs.size(); ++j) {
    if (j == i) continue;
    const Scalar xj = sc_from_u64(xs[j]);
    num = sc_mul(num, xj);
    den = sc_mul(den, sc_sub(xj, xi));
  }
  return sc_mul(num, sc_invert(den));
}

VrfOutput output_from_point(const GroupElement& point) {
  VrfOutput out;
  out.point = ge_compressed(point);
  Sha512 h;
  h.update(domain(kOutputDomain, sizeof(kOutputDomain)));
  h.update({out.point.data(), out.point.size()});
  const auto wide = h.finish();
  std::memcpy(out.digest.bytes.data(), wide.data(), out.digest.bytes.size());
  return out;
}

}  // namespace

GroupElement vrf_hash_to_point(BytesView input) {
  // Try-and-increment: hash (domain ‖ input ‖ counter), interpret the first
  // 32 bytes as a compressed point, clear the cofactor. Succeeds for ~half
  // of all counters; the loop bound is unreachable in practice.
  for (std::uint32_t counter = 0; counter < 1000; ++counter) {
    Sha512 h;
    h.update(domain(kHashToPointDomain, sizeof(kHashToPointDomain)));
    h.update(input);
    std::uint8_t ctr_bytes[4];
    std::memcpy(ctr_bytes, &counter, 4);
    h.update({ctr_bytes, 4});
    const auto candidate = h.finish();
    const auto point = ge_decompress(candidate.data());
    if (!point) continue;
    const GroupElement cleared = ge_mul_cofactor(*point);
    // Small-order candidates collapse to the identity; skip them so the
    // result generates the full order-L subgroup.
    if (ge_is_identity(cleared)) continue;
    return cleared;
  }
  throw std::logic_error("vrf_hash_to_point: no curve point found (unreachable)");
}

Bytes VrfShare::to_bytes() const {
  Bytes out(kWireBytes);
  std::memcpy(out.data(), &author, 4);
  std::memcpy(out.data() + 4, sigma.data(), sigma.size());
  const auto proof_bytes = proof.to_bytes();
  std::memcpy(out.data() + 4 + 32, proof_bytes.data(), proof_bytes.size());
  return out;
}

std::optional<VrfShare> VrfShare::from_bytes(BytesView data) {
  if (data.size() != kWireBytes) return std::nullopt;
  VrfShare share;
  std::memcpy(&share.author, data.data(), 4);
  std::memcpy(share.sigma.data(), data.data() + 4, 32);
  std::array<std::uint8_t, DleqProof::kWireBytes> proof_bytes;
  std::memcpy(proof_bytes.data(), data.data() + 4 + 32, proof_bytes.size());
  const auto proof = DleqProof::from_bytes(proof_bytes);
  if (!proof) return std::nullopt;
  share.proof = *proof;
  return share;
}

std::uint64_t VrfOutput::value() const {
  std::uint64_t v;
  std::memcpy(&v, digest.bytes.data(), sizeof(v));
  return v;
}

ThresholdVrfPublic::ThresholdVrfPublic(std::uint32_t n, std::uint32_t f,
                                       curve::CompressedPoint group_key,
                                       std::vector<curve::CompressedPoint> share_keys)
    : n_(n), f_(f), group_key_(group_key), share_keys_(std::move(share_keys)) {
  if (share_keys_.size() != n_) {
    throw std::invalid_argument("ThresholdVrfPublic: share key count != n");
  }
  if (n_ < 3 * f_ + 1) {
    throw std::invalid_argument("ThresholdVrfPublic: n < 3f+1");
  }
}

bool ThresholdVrfPublic::verify_share(BytesView input, const VrfShare& share) const {
  if (share.author >= n_) return false;
  const auto sigma = ge_decompress(share.sigma.data());
  if (!sigma) return false;
  const auto pk = ge_decompress(share_keys_[share.author].data());
  if (!pk) return false;
  const GroupElement h = vrf_hash_to_point(input);
  return dleq_verify(share.proof, curve::ge_base(), h, *pk, *sigma,
                     domain(kShareContext, sizeof(kShareContext)));
}

std::optional<VrfOutput> ThresholdVrfPublic::combine(
    BytesView input, std::span<const VrfShare> shares) const {
  // Collect the first `threshold()` distinct-author valid shares.
  std::vector<std::uint32_t> xs;          // 1-based Shamir indices
  std::vector<GroupElement> sigmas;
  std::vector<bool> seen(n_, false);
  for (const VrfShare& share : shares) {
    if (share.author >= n_ || seen[share.author]) continue;
    if (!verify_share(input, share)) continue;
    seen[share.author] = true;
    xs.push_back(share.author + 1);
    sigmas.push_back(*ge_decompress(share.sigma.data()));
    if (xs.size() == threshold()) break;
  }
  if (xs.size() < threshold()) return std::nullopt;

  // σ = Σ [λ_i] σ_i — interpolation of [p(x)]·H(input) at x = 0, as one
  // multi-scalar multiplication.
  std::vector<Scalar> lambdas(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) lambdas[i] = lagrange_at_zero(xs, i);
  return output_from_point(ge_multi_scalar_mult(lambdas, sigmas, curve::sc_zero()));
}

ThresholdVrfSetup threshold_vrf_deal(std::uint32_t n, std::uint32_t f,
                                     const Digest& seed) {
  if (n == 0 || n < 3 * f + 1) {
    throw std::invalid_argument("threshold_vrf_deal: need n >= max(1, 3f+1)");
  }
  // Polynomial p of degree 2f: coefficients derived from the seed.
  const std::uint32_t degree = 2 * f;
  std::vector<Scalar> coeffs(degree + 1);
  for (std::uint32_t j = 0; j <= degree; ++j) {
    Sha512 h;
    h.update(domain(kDealerDomain, sizeof(kDealerDomain)));
    h.update(seed.view());
    std::uint8_t j_bytes[4];
    std::memcpy(j_bytes, &j, 4);
    h.update({j_bytes, 4});
    coeffs[j] = sc_from_bytes64(h.finish().data());
    // A zero coefficient is astronomically unlikely but would weaken the
    // sharing (degree drop); nudge deterministically.
    if (sc_is_zero(coeffs[j])) coeffs[j] = curve::sc_one();
  }

  ThresholdVrfSetup setup{
      .public_state = ThresholdVrfPublic(
          n, f, ge_compressed(ge_scalar_mult_base(coeffs[0])),
          std::vector<curve::CompressedPoint>(n)),
      .secret_shares = std::vector<Scalar>(n),
      .master_secret = coeffs[0],
  };

  // sk_i = p(i+1) by Horner; PK_i = [sk_i] B.
  std::vector<curve::CompressedPoint> share_keys(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Scalar x = sc_from_u64(i + 1);
    Scalar acc = coeffs[degree];
    for (int j = static_cast<int>(degree) - 1; j >= 0; --j) {
      acc = sc_mul_add(acc, x, coeffs[j]);
    }
    setup.secret_shares[i] = acc;
    share_keys[i] = ge_compressed(ge_scalar_mult_base(acc));
  }
  setup.public_state = ThresholdVrfPublic(
      n, f, ge_compressed(ge_scalar_mult_base(coeffs[0])),
      std::move(share_keys));
  return setup;
}

VrfShare threshold_vrf_share(std::uint32_t author, const Scalar& sk, BytesView input) {
  const GroupElement h = vrf_hash_to_point(input);
  const GroupElement sigma = ge_scalar_mult(sk, h);
  const GroupElement pk = ge_scalar_mult_base(sk);
  VrfShare share;
  share.author = author;
  share.sigma = ge_compressed(sigma);
  share.proof = dleq_prove(sk, curve::ge_base(), h, pk, sigma,
                           domain(kShareContext, sizeof(kShareContext)));
  return share;
}

VrfOutput threshold_vrf_eval(const Scalar& master_secret, BytesView input) {
  return output_from_point(ge_scalar_mult(master_secret, vrf_hash_to_point(input)));
}

}  // namespace mahimahi::crypto
