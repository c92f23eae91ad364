// Threshold verifiable random function — the production-grade instantiation
// of the paper's global perfect coin (§2.1, §2.3).
//
// The paper constructs the coin from an adaptively-secure threshold signature
// scheme with an asynchronous DKG [1,2,20,21,30]. This module implements the
// pairing-free equivalent over the Ed25519 group:
//
//   * a dealer (standing in for the DKG) Shamir-shares a
//     master secret a₀ with a degree-2f polynomial, so any 2f+1 shares
//     reconstruct and any 2f collude-and-learn-nothing;
//   * validator i's coin share for input m is σ_i = [sk_i]·H(m), where H is
//     hash-to-curve, accompanied by a Chaum-Pedersen DLEQ proof binding σ_i
//     to the public share-key PK_i = [sk_i]·B — shares are individually
//     verifiable, exactly the property footnote 5 of the paper requires;
//   * any 2f+1 valid shares combine via Lagrange interpolation in the
//     exponent to σ = [a₀]·H(m); the coin value is a hash of σ.
//
// Every validator reconstructs the same σ regardless of which 2f+1 shares it
// used, the output is unpredictable without 2f+1 shares, and shares reveal
// nothing about other inputs' outputs — the "global perfect coin" contract.
//
// The protocol simulation defaults to the cheaper keyed-hash coin
// (crypto/coin.h) because its 32-byte shares ride inside blocks; this module
// is the drop-in for deployments that need real unpredictability.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "crypto/curve25519.h"
#include "crypto/digest.h"
#include "crypto/dleq.h"

namespace mahimahi::crypto {

// Deterministic hash-to-curve (try-and-increment over compressed encodings,
// cofactor cleared). Never returns the identity. Exposed for tests.
curve::GroupElement vrf_hash_to_point(BytesView input);

// One validator's contribution to the VRF evaluation of some input.
struct VrfShare {
  std::uint32_t author = 0;
  curve::CompressedPoint sigma{};  // [sk_author] H(input)
  DleqProof proof;

  static constexpr std::size_t kWireBytes = 4 + 32 + DleqProof::kWireBytes;
  Bytes to_bytes() const;
  // Structural decode only (canonical scalars, size); cryptographic validity
  // is checked by ThresholdVrfPublic::verify_share.
  static std::optional<VrfShare> from_bytes(BytesView data);

  bool operator==(const VrfShare&) const = default;
};

// The combined evaluation: a group element plus its hash, which is the
// protocol-visible random value.
struct VrfOutput {
  curve::CompressedPoint point{};
  Digest digest;  // H(point): uniform 32 bytes

  // The leader-election seed: first 8 bytes of the digest, little-endian.
  std::uint64_t value() const;

  bool operator==(const VrfOutput&) const = default;
};

// Public verification state: share keys and the group key. Copyable; every
// validator (and any external verifier) holds one.
class ThresholdVrfPublic {
 public:
  ThresholdVrfPublic(std::uint32_t n, std::uint32_t f,
                     curve::CompressedPoint group_key,
                     std::vector<curve::CompressedPoint> share_keys);

  std::uint32_t n() const { return n_; }
  std::uint32_t f() const { return f_; }
  // Shares needed to combine: 2f+1.
  std::uint32_t threshold() const { return 2 * f_ + 1; }

  const curve::CompressedPoint& group_key() const { return group_key_; }
  const curve::CompressedPoint& share_key(std::uint32_t author) const {
    return share_keys_[author];
  }

  // Checks the DLEQ proof of `share` against share_key(share.author) for
  // `input`. False for unknown authors, off-curve points, or bad proofs.
  bool verify_share(BytesView input, const VrfShare& share) const;

  // Combines shares into the VRF output for `input`. Invalid shares and
  // duplicate authors are ignored; returns nullopt if fewer than 2f+1
  // distinct valid shares remain. Any qualifying subset yields the same
  // output (Lagrange interpolation of a degree-2f polynomial).
  std::optional<VrfOutput> combine(BytesView input,
                                   std::span<const VrfShare> shares) const;

 private:
  std::uint32_t n_;
  std::uint32_t f_;
  curve::CompressedPoint group_key_;
  std::vector<curve::CompressedPoint> share_keys_;
};

// Dealer output: public state plus each validator's secret share. The dealer
// is trusted setup standing in for the paper's asynchronous DKG.
struct ThresholdVrfSetup {
  ThresholdVrfPublic public_state;
  std::vector<curve::Scalar> secret_shares;  // secret_shares[i] belongs to validator i
  // The master secret a₀ — retained for tests (oracle evaluation); a real
  // deployment's DKG never materializes it anywhere.
  curve::Scalar master_secret;
};

// Deterministically deals an (n, f) setup from `seed` (polynomial degree 2f,
// threshold 2f+1). Requires n >= 3f+1 and n >= 1.
ThresholdVrfSetup threshold_vrf_deal(std::uint32_t n, std::uint32_t f,
                                     const Digest& seed);

// Validator `author`'s share for `input` under its secret share `sk`.
VrfShare threshold_vrf_share(std::uint32_t author, const curve::Scalar& sk,
                             BytesView input);

// Oracle evaluation from the master secret (tests / beacons only).
VrfOutput threshold_vrf_eval(const curve::Scalar& master_secret, BytesView input);

}  // namespace mahimahi::crypto
