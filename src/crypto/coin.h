// Global perfect coin (simulated threshold scheme).
//
// The paper constructs the coin from an adaptively-secure threshold signature
// with asynchronous DKG (§2.1). This repository substitutes a keyed-hash
// scheme that preserves every property the protocol observes:
//
//   * each validator contributes one share per round, carried in its block;
//   * any 2f+1 valid shares from distinct validators reconstruct the coin;
//   * every validator reconstructs the same value;
//   * shares are individually verifiable.
//
// What it does NOT provide is cryptographic unpredictability against a party
// holding the setup seed (all validators can precompute future coins). Our
// in-repo adversaries never exploit this.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "crypto/digest.h"

namespace mahimahi::crypto {

using CoinShare = Digest;

class ThresholdCoin {
 public:
  // All validators construct the coin from the same epoch seed (standing in
  // for the DKG transcript) and learn their own share key. `n` validators,
  // tolerating `f` faults; reconstruction threshold is 2f+1.
  ThresholdCoin(std::uint32_t n, std::uint32_t f, const Digest& epoch_seed);

  std::uint32_t n() const { return n_; }
  std::uint32_t threshold() const { return 2 * f_ + 1; }

  // The share validator `author` embeds in its round-`round` block.
  CoinShare share(std::uint32_t author, std::uint64_t round) const;

  // Verifies that `share` is author's valid share for `round`.
  bool verify_share(std::uint32_t author, std::uint64_t round,
                    const CoinShare& share) const;

  // Batched share verification: one verdict per query, identical to calling
  // verify_share per query. Amortizes the per-author key derivation across
  // the batch — a block batch from an n-validator committee re-derives each
  // author's share key once instead of once per block.
  struct ShareQuery {
    std::uint32_t author;
    std::uint64_t round;
    CoinShare share;
  };
  std::vector<std::uint8_t> verify_shares(std::span<const ShareQuery> queries) const;

  // Reconstructs the coin for `round` from shares. Input pairs are
  // (author, share); invalid or duplicate-author shares are ignored. Returns
  // nullopt if fewer than 2f+1 distinct valid shares remain.
  std::optional<std::uint64_t> combine(
      std::uint64_t round,
      std::span<const std::pair<std::uint32_t, CoinShare>> shares) const;

  // The reconstructed value (only meaningful once combine() would succeed;
  // exposed for tests and for the simulator's oracle mode).
  std::uint64_t value(std::uint64_t round) const;

 private:
  Digest share_key(std::uint32_t author) const;

  std::uint32_t n_;
  std::uint32_t f_;
  Digest epoch_seed_;
};

}  // namespace mahimahi::crypto
