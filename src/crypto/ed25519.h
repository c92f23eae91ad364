// Ed25519 (RFC 8032) signatures, implemented from scratch over the
// curve arithmetic of crypto/curve25519.h: signing uses its fixed-base
// table, verification one Straus multi-scalar multiplication per signature
// or per batch.
//
// Signing is deterministic (RFC 8032), so signatures depend only on the key
// and the message. The implementation is NOT constant time; it authenticates
// blocks in a research/simulation system, not secrets on a production
// boundary.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"

namespace mahimahi::crypto {

struct Ed25519PublicKey {
  std::array<std::uint8_t, 32> bytes{};
  auto operator<=>(const Ed25519PublicKey&) const = default;
};

struct Ed25519PrivateKey {
  std::array<std::uint8_t, 32> seed{};
};

struct Ed25519Signature {
  std::array<std::uint8_t, 64> bytes{};
  auto operator<=>(const Ed25519Signature&) const = default;
};

struct Ed25519Keypair {
  Ed25519PrivateKey private_key;
  Ed25519PublicKey public_key;
};

// Deterministic: the keypair is a pure function of the 32-byte seed.
Ed25519Keypair ed25519_keypair_from_seed(const std::array<std::uint8_t, 32>& seed);

Ed25519Signature ed25519_sign(const Ed25519PrivateKey& key, BytesView message);

// Strict-ish verification: rejects non-canonical scalars (s >= L) and points
// that fail decompression. Uses the COFACTORED group equation
// [8]([s]B - R - [k]A) == O (RFC 8032 §5.1.7), so the verdict is identical
// to the batch path below on every input — including adversarial signatures
// with small-order torsion components, which a cofactorless check would
// accept or reject depending on how the driver happened to batch them.
bool ed25519_verify(const Ed25519PublicKey& key, BytesView message,
                    const Ed25519Signature& signature);

// --- Batch verification -----------------------------------------------------
//
// Amortized verification of many signatures at once via a random linear
// combination: accept iff
//
//     [sum z_i s_i] B  ==  sum [z_i] R_i  +  sum_A [sum_{i: key_i = A} z_i k_i] A
//
// with independent 128-bit coefficients z_i (z_0 = 1), evaluated as ONE
// multi-scalar multiplication that shares a single doubling chain. Savings
// over per-item verification:
//   * the fixed-base term collapses to one table term per batch (instead of
//     one [s]B per signature);
//   * the public-key terms collapse to one term per DISTINCT key — in a DAG
//     committee a 64-block batch spans only n authors;
//   * the per-item [z_i]R_i terms use half-width (128-bit) scalars, so they
//     join the doubling chain only for its last 128 steps.
// Decompression of repeated public keys is also cached across the batch.
//
// The z_i are derived by hashing the whole batch (Fiat-Shamir style): the
// signatures are fixed before the coefficients are known, so a batch that
// passes implies every member passes ed25519_verify except with probability
// ~2^-128. Both paths check the COFACTORED equation, which is what makes
// that equivalence hold in both directions: cofactor clearing annihilates
// small-order torsion components before the random coefficients touch them,
// so the remaining defects live in the prime-order subgroup where a nonzero
// z_i-weighted sum vanishes only with ~2^-128 probability. A failed batch
// does not say WHICH item is bad — callers fall back to per-item
// verification.

struct Ed25519BatchItem {
  Ed25519PublicKey key;
  BytesView message;  // must stay alive for the duration of the call
  Ed25519Signature signature;
};

// True iff every item verifies (w.h.p.; see above). Empty batches verify.
bool ed25519_verify_batch(std::span<const Ed25519BatchItem> items);

// Per-item verdicts: one batch check first; on failure the batch bisects
// recursively, so k offenders cost O(k log n) sub-batch checks rather than
// n single verifications. The result always agrees with ed25519_verify item
// by item (modulo the 2^-128 soundness error of the accept path).
std::vector<std::uint8_t> ed25519_verify_each(std::span<const Ed25519BatchItem> items);

}  // namespace mahimahi::crypto
