// Abstract commit rule.
//
// The validator core drives any DAG commit rule through this interface: the
// Mahi-Mahi committer (core/committer.h, also configurable into the Cordial
// Miners shape) and the Tusk baseline (baselines/tusk.h).
#pragma once

#include <memory>
#include <vector>

#include "core/decision.h"

namespace mahimahi {

class CommitterBase {
 public:
  virtual ~CommitterBase() = default;

  // Classify pending slots and return newly committed sub-DAGs in commit
  // order. Idempotent; called after DAG insertions.
  virtual std::vector<CommittedSubDag> try_commit() = 0;

  virtual const CommitStats& stats() const = 0;
  virtual SlotId next_pending_slot() const = 0;
  virtual const std::vector<DecidedSlot>& decided_sequence() const = 0;
  virtual void prune_below(Round round) = 0;

  // Memoized vote traversals the rule keeps resident (retention gauge).
  virtual std::size_t vote_memo_entries() const { return 0; }
};

}  // namespace mahimahi
