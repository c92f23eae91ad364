#include "core/linearize.h"

#include <algorithm>

namespace mahimahi {

std::vector<std::pair<Digest, Round>> DeliveredMap::snapshot(const Dag& dag,
                                                             Round min_round) const {
  std::vector<std::pair<Digest, Round>> out;
  const Round from = std::max({min_round, dag.pruned_below(), pruned_below_});
  for (Round round = from; round - pruned_below_ < rounds_.size(); ++round) {
    const auto& flags = rounds_[round - pruned_below_];
    for (std::uint32_t index = 0; index < flags.size(); ++index) {
      if (flags[index] != 0) out.emplace_back(dag.at({round, index})->digest(), round);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void DeliveredMap::prune_below(Round round) {
  if (round <= pruned_below_) return;
  const std::size_t dropped = std::min<std::size_t>(round - pruned_below_, rounds_.size());
  rounds_.erase(rounds_.begin(), rounds_.begin() + static_cast<std::ptrdiff_t>(dropped));
  pruned_below_ = round;
}

CommittedSubDag linearize_sub_dag(const Dag& dag, SlotId slot, BlockPtr leader,
                                  DeliveredMap& delivered, CommitStats& stats,
                                  Round min_round) {
  CommittedSubDag sub_dag;
  sub_dag.slot = slot;
  sub_dag.leader = leader;
  if (const auto loc = dag.locate(leader->ref())) delivered.mark(*loc);

  // The sub-DAG doubles as the work list: every block in it is delivered now,
  // and its parents are marked as they are found.
  sub_dag.blocks.push_back(std::move(leader));
  for (std::size_t i = 0; i < sub_dag.blocks.size(); ++i) {
    const Block& current = *sub_dag.blocks[i];
    for (const auto& parent : current.parents()) {
      // The GC cut: references below min_round are deterministically
      // excluded, whether or not the local DAG still holds them.
      if (parent.round < min_round) continue;
      const auto loc = dag.locate(parent);
      if (!loc || !delivered.mark(*loc)) continue;
      sub_dag.blocks.push_back(dag.at(*loc));
    }
  }

  std::sort(sub_dag.blocks.begin(), sub_dag.blocks.end(),
            [](const BlockPtr& a, const BlockPtr& b) {
              if (a->round() != b->round()) return a->round() < b->round();
              if (a->author() != b->author()) return a->author() < b->author();
              return a->digest() < b->digest();
            });

  for (const BlockPtr& block : sub_dag.blocks) {
    ++stats.delivered_blocks;
    stats.delivered_transactions += block->transaction_count();
  }
  return sub_dag;
}

}  // namespace mahimahi
