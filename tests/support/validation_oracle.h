// Test-only reference for the structural block rules: the library's
// validate_block_structure before it checked parents in place — a heap set of
// digests for duplicates and a heap set of round-(R-1) authors for the
// quorum. The differential tests check the allocation-free code against it
// verdict for verdict.
#pragma once

#include <unordered_set>

#include "types/validation.h"

namespace mahimahi::oracle {

inline BlockValidity validate_block_structure(const Block& block,
                                              const Committee& committee) {
  if (!committee.contains(block.author())) return BlockValidity::kUnknownAuthor;
  if (block.round() == 0) return BlockValidity::kGenesisFromNetwork;

  std::unordered_set<Digest, DigestHasher> seen;
  std::unordered_set<ValidatorId> previous_round_authors;
  for (const auto& parent : block.parents()) {
    if (!committee.contains(parent.author)) return BlockValidity::kParentUnknownAuthor;
    if (parent.round >= block.round()) return BlockValidity::kParentFromFuture;
    if (!seen.insert(parent.digest).second) return BlockValidity::kDuplicateParents;
    if (parent.round == block.round() - 1) previous_round_authors.insert(parent.author);
  }
  if (previous_round_authors.size() < committee.quorum_threshold()) {
    return BlockValidity::kInsufficientParentQuorum;
  }
  return BlockValidity::kValid;
}

}  // namespace mahimahi::oracle
