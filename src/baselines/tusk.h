// Tusk commit rule (Danezis et al., EuroSys '22) — the certified-DAG
// baseline of the paper's evaluation (§5).
//
// Tusk runs over a *certified* DAG: every vertex is reliably broadcast,
// which costs 3 message delays per round but rules out equivocation. Waves
// are 2 rounds: an even.. rather, propose round r (stride 2) and a support
// round r+1. The common coin revealed with round r+1 retroactively elects
// one leader for round r; the leader commits directly when f+1 distinct
// round-(r+1) authors reference its block as a parent. Undecided leaders are
// resolved recursively from the next committed leader by causal reachability
// (commit if reachable, skip otherwise).
//
// The 3-delay certification itself is a transport property, simulated by the
// harness's certified-dissemination mode (sim/harness.h); this class only
// implements the commit rule. The simulator runs Tusk with honest
// validators, mirroring the paper's evaluation (crash faults only).
#pragma once

#include <map>
#include <optional>

#include "core/committer_base.h"
#include "core/linearize.h"
#include "dag/dag.h"
#include "types/committee.h"

namespace mahimahi {

struct TuskOptions {
  Round first_slot_round = 1;
  Round wave_stride = 2;  // propose rounds 1, 3, 5, ...
};

class TuskCommitter : public CommitterBase {
 public:
  TuskCommitter(const Dag& dag, const Committee& committee, TuskOptions options = {});

  std::vector<CommittedSubDag> try_commit() override;
  const CommitStats& stats() const override { return stats_; }
  SlotId next_pending_slot() const override { return next_pending_; }
  const std::vector<DecidedSlot>& decided_sequence() const override {
    return decided_log_;
  }
  void prune_below(Round) override {}  // no memoized state

  // Leader of the wave proposing at `slot.round`; nullopt until 2f+1
  // distinct support-round blocks opened the coin.
  std::optional<ValidatorId> slot_leader(SlotId slot) const;

 private:
  Round support_round(Round propose_round) const { return propose_round + 1; }
  SlotDecision evaluate(SlotId slot, const std::map<SlotId, SlotDecision>& later);

  const Dag& dag_;
  const Committee& committee_;
  TuskOptions options_;

  SlotId next_pending_;
  std::vector<DecidedSlot> decided_log_;
  DeliveredMap delivered_;
  CommitStats stats_;
};

// ValidatorConfig::committer_factory adapter.
inline auto tusk_committer_factory(TuskOptions options = {}) {
  return [options](const Dag& dag, const Committee& committee) {
    return std::make_unique<TuskCommitter>(dag, committee, options);
  };
}

}  // namespace mahimahi
