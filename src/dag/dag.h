// The local DAG: every valid block a validator knows, indexed by digest and
// by (round, author) slot (§2.3).
//
// Invariants maintained by the inserter (the validator's synchronizer):
//   * a block is only inserted after its entire causal history is present
//     ("causal completeness") and it passed validation;
//   * genesis blocks (round 0) are constructed locally at creation.
//
// Equivocation is first-class: a Byzantine author may have several blocks in
// the same (round, author) slot; `slot()` returns all of them.
#pragma once

#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "types/block.h"
#include "types/committee.h"

namespace mahimahi {

class Dag {
 public:
  // Constructs the DAG holding the committee's genesis blocks (round 0).
  explicit Dag(const Committee& committee);

  std::uint32_t committee_size() const { return n_; }

  bool contains(const Digest& digest) const { return by_digest_.contains(digest); }
  bool contains(const BlockRef& ref) const { return contains(ref.digest); }

  // nullptr when absent.
  BlockPtr get(const Digest& digest) const;
  BlockPtr get(const BlockRef& ref) const { return get(ref.digest); }

  // All known blocks by `author` at `round` (empty / one / several under
  // equivocation).
  const std::vector<BlockPtr>& slot(Round round, ValidatorId author) const;

  // Every block at `round`, all authors, equivocations included.
  std::vector<BlockPtr> blocks_at(Round round) const;

  // Visits each block at `round`; return false from the visitor to stop.
  void for_each_at(Round round, const std::function<bool(const BlockPtr&)>& visit) const;

  // Number of distinct authors with at least one block at `round` (the
  // quorum measure used for round advancement and coin opening).
  std::uint32_t distinct_authors_at(Round round) const;

  // Highest round with at least one block (0 at genesis).
  Round highest_round() const { return highest_round_; }

  std::size_t block_count() const { return by_digest_.size(); }
  // Sum of Block::wire_bytes() over the live window (maintained at insert
  // and prune): what the DAG itself keeps resident.
  std::uint64_t wire_bytes() const { return wire_bytes_; }

  // True if every parent reference of `block` is present.
  bool parents_present(const Block& block) const;

  // Inserts a block whose parents are all present. Returns false (no-op) for
  // duplicates. Precondition failure (missing parent) throws
  // std::logic_error: it indicates a synchronizer bug, not bad input.
  bool insert(BlockPtr block);

  // Is `old_ref` in the causal history of `from` (inclusive of `from`)?
  // Breadth-first over parents, pruned by round.
  bool is_link(const BlockRef& old_ref, const Block& from) const;

  // Drops all blocks with round < `round`. The caller must only prune
  // history that is already delivered (or will never be queried).
  void prune_below(Round round);
  Round pruned_below() const { return pruned_below_; }

 private:
  struct RoundSlots {
    std::vector<std::vector<BlockPtr>> by_author;  // size n
    std::uint32_t distinct_authors = 0;
  };

  std::uint32_t n_;
  std::unordered_map<Digest, BlockPtr, DigestHasher> by_digest_;
  std::map<Round, RoundSlots> rounds_;
  Round highest_round_ = 0;
  Round pruned_below_ = 0;
  std::uint64_t wire_bytes_ = 0;
  std::vector<BlockPtr> empty_;
};

}  // namespace mahimahi
