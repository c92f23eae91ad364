// The Mahi-Mahi committer: leader slots, decision rules and linearization
// (§3, Algorithms 1-3).
//
// One committer instance is owned by each validator and evaluated against its
// local DAG. The committer is deterministic: two validators whose DAGs agree
// on the relevant sub-graph produce the same commit sequence (Appendix C,
// Lemmas 5-7).
//
// Note on Algorithm 2, line 25: the paper's pseudocode returns skip for the
// whole slot upon finding one skippable equivocation, yet the Appendix B
// walkthrough classifies equivocation L5b as skip and still commits its
// sibling L'5b in the same slot. We implement the semantics of the worked
// example and of the Appendix C proofs: per-block classification, where the
// slot commits the (unique, Lemma 2) certified block if one exists, and is
// skipped only when every potential block for the slot is provably dead —
// every *seen* candidate has 2f+1 distinct-author non-votes, and 2f+1
// distinct vote-round authors are present (which kills every *unseen*
// candidate: a vote for an unseen block would place that block in our DAG by
// causal completeness).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/committer_base.h"
#include "core/decision.h"
#include "core/linearize.h"
#include "core/options.h"
#include "core/vote_index.h"
#include "dag/dag.h"
#include "types/committee.h"

namespace mahimahi {

class Committer : public CommitterBase {
 public:
  Committer(const Dag& dag, const Committee& committee, CommitterOptions options);

  // Algorithm 1, ExtendCommitSequence: classify as many pending slots as the
  // current DAG allows, consume the decided prefix in slot order, and return
  // the newly committed sub-DAGs (deterministic causal order, leader last).
  // Idempotent: call after every DAG insertion (or batch of insertions).
  std::vector<CommittedSubDag> try_commit() override;

  // --- Checkpoint support ---------------------------------------------------
  //
  // Delivered marks at or above `min_round`, for a checkpoint cut at that
  // horizon. Marks below it are never consulted again (linearize's min_round
  // cut excludes sub-horizon parents first), so the snapshot stays bounded.
  std::vector<std::pair<Digest, Round>> delivered_snapshot(Round min_round) const;

  // Installs a checkpointed consumption state: replaces the decided log,
  // repositions the head, seeds the delivered marks, and recomputes the
  // commit/skip stats from the log (delivered byte/tx counters restart at
  // zero — they are local diagnostics, not agreed state). Entries must be in
  // slot order. Pair with Dag::prune_below(horizon) + insert of the
  // checkpoint's DAG suffix.
  void restore(std::vector<DecidedSlot> decided, SlotId head,
               const std::vector<std::pair<Digest, Round>>& delivered);

  const CommitterOptions& options() const { return options_; }
  const CommitStats& stats() const override { return stats_; }

  // The first slot not yet consumed (commit latency head-of-line marker).
  SlotId next_pending_slot() const override { return next_pending_; }

  // All consumed slot decisions, in slot order.
  const std::vector<DecidedSlot>& decided_sequence() const override {
    return decided_log_;
  }

  // The validator assigned to `slot` once the coin for its wave opened
  // (2f+1 distinct certify-round shares in the DAG); nullopt before that.
  std::optional<ValidatorId> slot_leader(SlotId slot) const;

  // Evaluates every pending slot against the current DAG without consuming
  // anything. Exposed for tests and the probability benches.
  std::map<SlotId, SlotDecision> evaluate_all();

  // Forget delivered marks below `round` (pair with Dag::prune_below).
  void prune_below(Round round) override;

  std::size_t vote_memo_entries() const override { return votes_.size(); }

 private:
  // The two halves of try_commit(). scan() classifies pending slots against
  // the current DAG and returns the decided consecutive prefix starting at
  // next_pending_slot() without consuming it; every returned decision is
  // final. apply() consumes that prefix in slot order: extends the decided
  // log, advances the head and linearizes the committed sub-DAGs.
  std::vector<SlotDecision> scan();
  std::vector<CommittedSubDag> apply(const std::vector<SlotDecision>& decisions);

  SlotId successor(SlotId slot) const;
  // Highest propose round whose wave could possibly be evaluated now.
  Round highest_propose_round() const;

  // The decision rules. `later` holds decisions for all slots after `slot`
  // in the current pass (used by the indirect rule's anchor search).
  SlotDecision evaluate(SlotId slot, const std::map<SlotId, SlotDecision>& later);
  bool supported(const Block& candidate, Round vote_round, Round certify_round);
  bool skipped(const Block& candidate, ValidatorId leader, Round propose_round,
               Round vote_round);

  const Dag& dag_;
  const Committee& committee_;
  CommitterOptions options_;
  VoteIndex votes_;

  SlotId next_pending_;
  std::map<SlotId, SlotDecision> final_;  // decided (= final) slots >= next_pending_
  std::vector<DecidedSlot> decided_log_;
  DeliveredMap delivered_;
  CommitStats stats_;
};

}  // namespace mahimahi
