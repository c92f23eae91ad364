// Causal-completeness enforcement (§2.3, Lemma 8).
//
// Honest validators only admit a block to the DAG once its entire causal
// history is present and valid. Blocks whose parents are missing wait in a
// bounded buffer while the missing ancestors are fetched from the sender
// (who, having referenced them, must hold them).
#pragma once

#include <unordered_map>
#include <vector>

#include "dag/dag.h"
#include "types/block.h"

namespace mahimahi {

class Synchronizer {
 public:
  Synchronizer(Dag& dag, std::size_t max_pending) : dag_(dag), max_pending_(max_pending) {}

  struct Outcome {
    // Blocks inserted into the DAG by this step (the argument block and any
    // pending blocks it unblocked), in insertion order.
    std::vector<BlockPtr> inserted;
    // Parents that are still unknown and should be fetched.
    std::vector<BlockRef> missing;
  };

  // Offers a structurally valid block. Inserts it (and cascades) when every
  // parent resolves in the DAG cell its ref names; otherwise parks it and
  // reports what is missing. A parent resolves only in the cell its ref
  // names: a block whose ref names a digest the DAG holds in another cell
  // (at offer) or that arrives in another cell (at the cascade) is dropped
  // and counted in rejected().
  Outcome offer(BlockPtr block);

  // Blocks dropped so far for a parent ref whose labels lie.
  std::uint64_t rejected() const { return rejected_; }

  bool is_pending(const Digest& digest) const { return pending_.contains(digest); }
  std::size_t pending_count() const { return pending_.size(); }

  // Refs currently being waited for (for retry logic).
  std::vector<BlockRef> outstanding() const;
  // Does some parked block still wait for the parent with this digest?
  bool is_missing(const Digest& digest) const { return missing_refs_.contains(digest); }

  // GC: missing refs below `round` count as satisfied (their blocks can
  // never be delivered — see Dag::parents_present), so pending blocks
  // waiting only on them unblock and insert; returns the blocks inserted.
  // Each waiter is judged by the round its own ref names, never by another
  // waiter's labels for the same digest.
  // Pending blocks that are themselves below `round` are dropped as stale.
  std::vector<BlockPtr> prune_below(Round round);

 private:
  void insert_and_cascade(BlockPtr block, std::vector<BlockPtr>& inserted);

  Dag& dag_;
  std::size_t max_pending_;

  struct Pending {
    BlockPtr block;
    std::size_t missing_count = 0;
  };
  // A pending block waiting on a parent, with the cell its ref names.
  struct Waiter {
    Digest dependent;
    Round round;
    ValidatorId author;
  };
  std::unordered_map<Digest, Pending, DigestHasher> pending_;
  // missing parent digest -> the pending blocks waiting on it.
  std::unordered_map<Digest, std::vector<Waiter>, DigestHasher> waiters_;
  // The refs of missing parents (for outstanding()).
  std::unordered_map<Digest, BlockRef, DigestHasher> missing_refs_;
  std::uint64_t rejected_ = 0;
};

}  // namespace mahimahi
