// Block validity rules (§2.3), staged for the ingestion pipeline.
//
// A block is valid if: (1) the signature is valid and the author is in the
// validator set; (2) parent references are distinct, point strictly to
// earlier rounds, and include at least 2f+1 distinct authors from round R-1;
// (3) the coin share is valid. The remaining rule — "the causal history has
// been downloaded and validated" — is enforced by the synchronizer before a
// block is admitted to the DAG, not here.
//
// Validation is split into two stages so drivers can pipeline them:
//   * the STRUCTURAL stage (validate_block_structure) is pure integer work —
//     author range, round, parent shape — and costs nanoseconds;
//   * the CRYPTO stage (validate_block_crypto) pays for coin-share and
//     ed25519 verification, the dominant per-block CPU cost on ingestion,
//     and is batchable across blocks (validate_blocks_crypto) to amortize
//     point decompression and fixed-base scalar multiplication.
// validate_block composes both for callers that ingest one block at a time.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "types/block.h"
#include "types/committee.h"

namespace mahimahi {

enum class BlockValidity {
  kValid,
  kUnknownAuthor,
  kBadSignature,
  kBadCoinShare,
  kGenesisFromNetwork,   // round-0 blocks are never accepted off the wire
  kDuplicateParents,
  kParentFromFuture,     // parent.round >= block.round
  kParentUnknownAuthor,
  kInsufficientParentQuorum,  // fewer than 2f+1 distinct authors at R-1
};

std::string to_string(BlockValidity validity);

struct ValidationOptions {
  // Signature verification can be skipped (the simulator's fast path). The
  // block screen (validator/ingest.h) consults a digest-keyed verification
  // cache (validator/verifier_cache.h) before paying for ed25519, when one is
  // configured (ValidatorConfig::signature_cache).
  bool verify_signature = true;
  bool verify_coin_share = true;
};

// Stage 1: structural checks only — no crypto, and no allocation for parent
// lists up to 128 refs in committees up to 256. Rules are checked per parent,
// in parent order (author, round, duplicate digest), then the R-1 quorum; the
// first failure is the verdict. Returns kValid when the block's shape is
// acceptable.
BlockValidity validate_block_structure(const Block& block, const Committee& committee);

// Stage 2: coin-share and signature verification, assuming the structural
// stage already passed (author is in range).
BlockValidity validate_block_crypto(const Block& block, const Committee& committee,
                                    const ValidationOptions& options = {});

// Stage 2, batched: one verdict per block, identical to calling
// validate_block_crypto per block. Coin shares verify through the coin's
// batch API; signatures verify as a single random-linear-combination batch
// with per-item fallback on failure (crypto/ed25519.h).
std::vector<BlockValidity> validate_blocks_crypto(std::span<const BlockPtr> blocks,
                                                  const Committee& committee,
                                                  const ValidationOptions& options = {});

// Both stages in order: structure first, crypto only if the shape passes.
BlockValidity validate_block(const Block& block, const Committee& committee,
                             const ValidationOptions& options = {});

}  // namespace mahimahi
