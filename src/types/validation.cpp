#include "types/validation.h"

#include <algorithm>
#include <array>
#include <limits>

namespace mahimahi {

std::string to_string(BlockValidity validity) {
  switch (validity) {
    case BlockValidity::kValid: return "valid";
    case BlockValidity::kUnknownAuthor: return "unknown author";
    case BlockValidity::kBadSignature: return "bad signature";
    case BlockValidity::kBadCoinShare: return "bad coin share";
    case BlockValidity::kGenesisFromNetwork: return "genesis block from network";
    case BlockValidity::kDuplicateParents: return "duplicate parent references";
    case BlockValidity::kParentFromFuture: return "parent from same or future round";
    case BlockValidity::kParentUnknownAuthor: return "parent by unknown author";
    case BlockValidity::kInsufficientParentQuorum: return "fewer than 2f+1 parents at R-1";
  }
  return "?";
}

namespace {

// A scratch array of `size` copies of `fill`: on the stack up to N elements,
// on the heap only beyond (a parent list above N / 2 refs, or a committee
// above 64 * N members).
template <typename T, std::size_t N>
class Scratch {
 public:
  Scratch(std::size_t size, T fill) {
    if (size > N) heap_.resize(size);
    data_ = size > N ? heap_.data() : inline_.data();
    std::fill_n(data_, size, fill);
  }
  Scratch(const Scratch&) = delete;  // data_ may point into this object
  Scratch& operator=(const Scratch&) = delete;
  T& operator[](std::size_t i) { return data_[i]; }

 private:
  std::array<T, N> inline_;  // only the first `size` elements are written
  std::vector<T> heap_;
  T* data_ = nullptr;
};

}  // namespace

BlockValidity validate_block_structure(const Block& block, const Committee& committee) {
  if (!committee.contains(block.author())) return BlockValidity::kUnknownAuthor;
  if (block.round() == 0) return BlockValidity::kGenesisFromNetwork;

  // Distinct round-(R-1) authors: one bit per committee member.
  Scratch<std::uint64_t, 4> authors((committee.size() + 63) / 64, 0);
  std::uint32_t previous_round_authors = 0;
  // Earlier parents by digest: an open-addressed table of parent indices at
  // most half full, probed from the digest's leading bytes (digests are
  // uniform). Parent order is untouched: Algorithm 3's DFS depends on it.
  const auto& parents = block.parents();
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  std::size_t capacity = 16;
  while (capacity < 2 * parents.size()) capacity *= 2;
  Scratch<std::uint32_t, 256> seen(capacity, kEmpty);

  for (std::uint32_t i = 0; i < parents.size(); ++i) {
    const BlockRef& parent = parents[i];
    if (!committee.contains(parent.author)) return BlockValidity::kParentUnknownAuthor;
    if (parent.round >= block.round()) return BlockValidity::kParentFromFuture;
    std::size_t probe = DigestHasher{}(parent.digest) & (capacity - 1);
    for (; seen[probe] != kEmpty; probe = (probe + 1) & (capacity - 1)) {
      if (parents[seen[probe]].digest == parent.digest) {
        return BlockValidity::kDuplicateParents;
      }
    }
    seen[probe] = i;
    if (parent.round == block.round() - 1) {
      const std::uint64_t bit = std::uint64_t{1} << (parent.author % 64);
      if ((authors[parent.author / 64] & bit) == 0) ++previous_round_authors;
      authors[parent.author / 64] |= bit;
    }
  }
  if (previous_round_authors < committee.quorum_threshold()) {
    return BlockValidity::kInsufficientParentQuorum;
  }
  return BlockValidity::kValid;
}

BlockValidity validate_block_crypto(const Block& block, const Committee& committee,
                                    const ValidationOptions& options) {
  if (options.verify_coin_share &&
      !committee.coin().verify_share(block.author(), block.round(), block.coin_share())) {
    return BlockValidity::kBadCoinShare;
  }

  if (options.verify_signature &&
      !crypto::ed25519_verify(committee.public_key(block.author()),
                              block.digest().view(), block.signature())) {
    return BlockValidity::kBadSignature;
  }

  return BlockValidity::kValid;
}

std::vector<BlockValidity> validate_blocks_crypto(std::span<const BlockPtr> blocks,
                                                  const Committee& committee,
                                                  const ValidationOptions& options) {
  std::vector<BlockValidity> verdicts(blocks.size(), BlockValidity::kValid);
  if (blocks.empty()) return verdicts;

  if (options.verify_coin_share) {
    std::vector<crypto::ThresholdCoin::ShareQuery> queries;
    queries.reserve(blocks.size());
    for (const auto& block : blocks) {
      queries.push_back({block->author(), block->round(), block->coin_share()});
    }
    const auto ok = committee.coin().verify_shares(queries);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (!ok[i]) verdicts[i] = BlockValidity::kBadCoinShare;
    }
  }

  if (options.verify_signature) {
    // Only blocks that survived the coin stage reach the signature batch;
    // indices map batch positions back to block positions.
    std::vector<crypto::Ed25519BatchItem> items;
    std::vector<std::size_t> indices;
    items.reserve(blocks.size());
    indices.reserve(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (verdicts[i] != BlockValidity::kValid) continue;
      items.push_back({committee.public_key(blocks[i]->author()),
                       blocks[i]->digest().view(), blocks[i]->signature()});
      indices.push_back(i);
    }
    const auto ok = crypto::ed25519_verify_each(items);
    for (std::size_t j = 0; j < indices.size(); ++j) {
      if (!ok[j]) verdicts[indices[j]] = BlockValidity::kBadSignature;
    }
  }

  return verdicts;
}

BlockValidity validate_block(const Block& block, const Committee& committee,
                             const ValidationOptions& options) {
  const BlockValidity structural = validate_block_structure(block, committee);
  if (structural != BlockValidity::kValid) return structural;
  return validate_block_crypto(block, committee, options);
}

}  // namespace mahimahi
