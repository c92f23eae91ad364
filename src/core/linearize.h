// Shared sub-DAG linearization (Algorithm 3, LinearizeSubDags).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/decision.h"
#include "dag/dag.h"

namespace mahimahi {

// One committer's delivered marks: a flag per DAG block, indexed by its
// Dag::Loc and kept per round, so dropping a round drops its flags.
class DeliveredMap {
 public:
  // Marks the block at `loc` delivered; false when it already was. Rounds
  // below the pruned horizon count as delivered.
  bool mark(Dag::Loc loc) {
    if (loc.round < pruned_below_) return false;
    const std::size_t offset = loc.round - pruned_below_;
    if (offset >= rounds_.size()) rounds_.resize(offset + 1);
    std::vector<std::uint8_t>& flags = rounds_[offset];
    if (flags.size() <= loc.index) flags.resize(loc.index + 1);
    if (flags[loc.index] != 0) return false;
    flags[loc.index] = 1;
    return true;
  }

  // Every mark at or above `min_round`, sorted (checkpoints encode it, and
  // two captures of one cut must be byte-identical).
  std::vector<std::pair<Digest, Round>> snapshot(const Dag& dag, Round min_round) const;

  // Forgets the marks below `round` (pair with Dag::prune_below).
  void prune_below(Round round);
  // Forgets every mark; the pruned horizon stays.
  void clear() { rounds_.clear(); }

 private:
  Round pruned_below_ = 0;
  // rounds_[r - pruned_below_]: one flag per entry of round r's DAG cells.
  std::vector<std::vector<std::uint8_t>> rounds_;
};

// Collects the not-yet-delivered causal history of `leader` (inclusive),
// orders it deterministically and causally — by (round, author, digest);
// parents always precede children because parent rounds are strictly lower —
// marks it delivered, and updates the stats counters. Parents resolve through
// their DAG cells.
//
// `min_round` is the deterministic GC cut (CommitterOptions::gc_depth):
// blocks with round < min_round are excluded from delivery and not
// traversed. 0 delivers the full history.
CommittedSubDag linearize_sub_dag(const Dag& dag, SlotId slot, BlockPtr leader,
                                  DeliveredMap& delivered, CommitStats& stats,
                                  Round min_round = 0);

}  // namespace mahimahi
