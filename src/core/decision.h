// Slot decisions and commit outputs (§3.1, §3.2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "types/block.h"
#include "types/ids.h"

namespace mahimahi {

// State of a leader slot: undecided until classified commit or skip (§3.1).
// Transient: it carries one evaluation from Committer::scan() to apply().
// What outlives the apply is the DecidedSlot below.
struct SlotDecision {
  enum class Kind { kUndecided, kCommit, kSkip };
  // How the decision was reached; kept for stats and the ablation benches.
  enum class Via { kNone, kDirect, kIndirect };

  SlotId slot;
  ValidatorId leader = 0;   // meaningful once the coin opened
  Kind kind = Kind::kUndecided;
  Via via = Via::kNone;
  BlockPtr block;           // the committed block, when kind == kCommit
  // Final decisions never change as the DAG grows; non-final ones are
  // re-evaluated on the next pass.
  bool final_decision = false;

  static SlotDecision undecided(SlotId slot) {
    SlotDecision d;
    d.slot = slot;
    return d;
  }
};

// One consumed slot of the decided log: the slot's identity and outcome,
// never the leader block itself. The log grows with every slot, so holding
// blocks here would pin every committed leader (payload included) past the
// GC horizon. The same record is what checkpoints, delta links and the
// cut-certificate hasher encode.
struct DecidedSlot {
  SlotId slot;
  ValidatorId leader = 0;
  SlotDecision::Kind kind = SlotDecision::Kind::kUndecided;
  SlotDecision::Via via = SlotDecision::Via::kNone;
  BlockRef ref;  // the committed block's identity; meaningful for commits

  static DecidedSlot of(const SlotDecision& decision) {
    return {decision.slot, decision.leader, decision.kind, decision.via,
            decision.block != nullptr ? decision.block->ref() : BlockRef{}};
  }

  std::string to_string() const;
};

// Do two decided slots agree on the observable outcome — same slot, same
// classification and, for commits, the same block? `via` is deliberately
// ignored: a slot may legitimately be decided directly in one view and
// indirectly in another (Lemma 7); only the outcome is agreement-critical.
// Checkpoint delta checks and the retention tests compare decided logs with
// this.
inline bool same_outcome(const DecidedSlot& a, const DecidedSlot& b) {
  if (a.slot != b.slot || a.kind != b.kind) return false;
  return a.kind != SlotDecision::Kind::kCommit || a.ref.digest == b.ref.digest;
}

// A committed leader slot together with the newly delivered portion of its
// causal history, in deterministic causal order (leader block last).
struct CommittedSubDag {
  SlotId slot;
  BlockPtr leader;
  std::vector<BlockPtr> blocks;  // includes `leader` as the last element

  std::uint64_t transaction_count() const {
    std::uint64_t total = 0;
    for (const auto& b : blocks) total += b->transaction_count();
    return total;
  }
};

struct CommitStats {
  std::uint64_t direct_commits = 0;
  std::uint64_t indirect_commits = 0;
  std::uint64_t direct_skips = 0;
  std::uint64_t indirect_skips = 0;
  std::uint64_t delivered_blocks = 0;
  std::uint64_t delivered_transactions = 0;

  std::uint64_t committed_slots() const { return direct_commits + indirect_commits; }
  std::uint64_t skipped_slots() const { return direct_skips + indirect_skips; }
};

}  // namespace mahimahi
