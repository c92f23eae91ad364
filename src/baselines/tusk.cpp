#include "baselines/tusk.h"

#include "core/linearize.h"

namespace mahimahi {

TuskCommitter::TuskCommitter(const Dag& dag, const Committee& committee,
                             TuskOptions options)
    : dag_(dag), committee_(committee), options_(options) {
  next_pending_ = SlotId{options_.first_slot_round, 0};
}

std::optional<ValidatorId> TuskCommitter::slot_leader(SlotId slot) const {
  const Round reveal = support_round(slot.round);
  if (dag_.distinct_authors_at(reveal) < committee_.quorum_threshold()) {
    return std::nullopt;
  }
  return static_cast<ValidatorId>(committee_.coin().value(reveal) % committee_.size());
}

SlotDecision TuskCommitter::evaluate(SlotId slot,
                                     const std::map<SlotId, SlotDecision>& later) {
  SlotDecision decision = SlotDecision::undecided(slot);
  const auto leader = slot_leader(slot);
  if (!leader.has_value()) return decision;
  decision.leader = *leader;

  // The certified DAG holds at most one block per slot (no equivocation).
  const auto& candidates = dag_.slot(slot.round, *leader);
  const BlockPtr block = candidates.empty() ? nullptr : candidates.front();

  if (block != nullptr) {
    // Direct rule: f+1 distinct support-round authors reference the leader
    // block as a parent.
    std::uint32_t supporting_authors = 0;
    for (ValidatorId a = 0; a < committee_.size(); ++a) {
      for (const BlockPtr& support : dag_.slot(support_round(slot.round), a)) {
        bool references = false;
        for (const auto& parent : support->parents()) {
          if (parent.digest == block->digest()) {
            references = true;
            break;
          }
        }
        if (references) {
          ++supporting_authors;
          break;
        }
      }
    }
    if (supporting_authors >= committee_.validity_threshold()) {
      decision.kind = SlotDecision::Kind::kCommit;
      decision.via = SlotDecision::Via::kDirect;
      decision.block = block;
      decision.final_decision = true;
      return decision;
    }
  }

  // Recursive rule: resolve from the next committed leader. The anchor is
  // the earliest later slot that is not skipped.
  const SlotDecision* anchor = nullptr;
  for (auto it = later.lower_bound(SlotId{slot.round + 1, 0}); it != later.end(); ++it) {
    if (it->second.kind != SlotDecision::Kind::kSkip) {
      anchor = &it->second;
      break;
    }
  }
  if (anchor == nullptr || anchor->kind == SlotDecision::Kind::kUndecided) {
    return decision;
  }
  if (block != nullptr && dag_.is_link(block->ref(), *anchor->block)) {
    decision.kind = SlotDecision::Kind::kCommit;
    decision.via = SlotDecision::Via::kIndirect;
    decision.block = block;
  } else {
    decision.kind = SlotDecision::Kind::kSkip;
    decision.via = SlotDecision::Via::kIndirect;
  }
  decision.final_decision = true;
  return decision;
}

std::vector<CommittedSubDag> TuskCommitter::try_commit() {
  // Evaluate pending slots, newest first (the recursive rule consults later
  // decisions), then consume the decided prefix.
  std::map<SlotId, SlotDecision> pass;
  const Round highest = dag_.highest_round();
  if (highest >= options_.first_slot_round) {
    const Round aligned =
        highest - (highest - options_.first_slot_round) % options_.wave_stride;
    for (Round r = aligned;; r -= options_.wave_stride) {
      const SlotId slot{r, 0};
      if (!(slot < next_pending_)) pass.emplace(slot, evaluate(slot, pass));
      if (r < next_pending_.round + options_.wave_stride) break;
      if (r < options_.wave_stride) break;
    }
  }

  std::vector<CommittedSubDag> out;
  for (SlotId slot = next_pending_;; slot.round += options_.wave_stride) {
    const auto it = pass.find(slot);
    if (it == pass.end()) break;
    const SlotDecision& decision = it->second;
    if (decision.kind == SlotDecision::Kind::kUndecided) break;
    decided_log_.push_back(DecidedSlot::of(decision));
    if (decision.kind == SlotDecision::Kind::kCommit) {
      decision.via == SlotDecision::Via::kDirect ? ++stats_.direct_commits
                                                 : ++stats_.indirect_commits;
      out.push_back(linearize_sub_dag(dag_, slot, decision.block, delivered_, stats_));
    } else {
      decision.via == SlotDecision::Via::kDirect ? ++stats_.direct_skips
                                                 : ++stats_.indirect_skips;
    }
    next_pending_ = SlotId{slot.round + options_.wave_stride, 0};
  }
  return out;
}

}  // namespace mahimahi
