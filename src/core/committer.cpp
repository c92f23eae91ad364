#include "core/committer.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/linearize.h"

namespace mahimahi {

std::string DecidedSlot::to_string() const {
  using Kind = SlotDecision::Kind;
  using Via = SlotDecision::Via;
  std::string out = slot.to_string() + "=";
  switch (kind) {
    case Kind::kUndecided: out += "undecided"; break;
    case Kind::kCommit: out += "commit(" + ref.to_string() + ")"; break;
    case Kind::kSkip: out += "skip"; break;
  }
  if (via == Via::kDirect) out += "/direct";
  if (via == Via::kIndirect) out += "/indirect";
  return out;
}

Committer::Committer(const Dag& dag, const Committee& committee,
                     CommitterOptions options)
    : dag_(dag), committee_(committee), options_(options), votes_(dag) {
  if (!options_.valid()) throw std::invalid_argument("invalid CommitterOptions");
  if (options_.leaders_per_round > committee_.size()) {
    // A validator may lead at most one slot per round; otherwise one block
    // could occupy two slots and be delivered twice.
    throw std::invalid_argument("leaders_per_round exceeds committee size");
  }
  next_pending_ = SlotId{options_.first_slot_round, 0};
}

SlotId Committer::successor(SlotId slot) const {
  if (slot.leader_offset + 1 < options_.leaders_per_round) {
    return SlotId{slot.round, slot.leader_offset + 1};
  }
  return SlotId{slot.round + options_.wave_stride, 0};
}

Round Committer::highest_propose_round() const {
  const Round highest = dag_.highest_round();
  if (highest < options_.first_slot_round) return 0;  // no slots exist yet
  const Round offset = (highest - options_.first_slot_round) % options_.wave_stride;
  return highest - offset;
}

std::optional<ValidatorId> Committer::slot_leader(SlotId slot) const {
  const Round certify = options_.certify_round(slot.round);
  // The coin for a wave opens once 2f+1 distinct authors contributed their
  // certify-round shares (§3.2 step 1); shares travel inside blocks, so this
  // is a condition on the DAG.
  if (dag_.distinct_authors_at(certify) < committee_.quorum_threshold()) {
    return std::nullopt;
  }
  const std::uint64_t coin = committee_.coin().value(certify);
  return static_cast<ValidatorId>((coin + slot.leader_offset) % committee_.size());
}

bool Committer::supported(const Block& candidate, Round vote_round,
                          Round certify_round) {
  // Direct commit evidence: 2f+1 distinct certify-round authors each holding
  // a certificate block over `candidate` (§3.2 step 2).
  const std::uint32_t quorum = committee_.quorum_threshold();
  std::uint32_t certifying_authors = 0;
  for (ValidatorId a = 0; a < committee_.size(); ++a) {
    for (const BlockPtr& cert : dag_.slot(certify_round, a)) {
      if (votes_.is_cert(*cert, candidate, vote_round, quorum)) {
        ++certifying_authors;
        break;  // one certificate per author suffices
      }
    }
    if (certifying_authors >= quorum) return true;
  }
  return false;
}

bool Committer::skipped(const Block& candidate, ValidatorId leader,
                        Round propose_round, Round vote_round) {
  // Direct skip evidence for one candidate: 2f+1 distinct vote-round authors
  // with a block that does not vote for it. Such a candidate can never
  // gather a certificate (Lemma 3's quorum intersection).
  const std::uint32_t quorum = committee_.quorum_threshold();
  std::uint32_t non_voting_authors = 0;
  for (ValidatorId a = 0; a < committee_.size(); ++a) {
    for (const BlockPtr& vote : dag_.slot(vote_round, a)) {
      if (votes_.voted(*vote, leader, propose_round) != candidate.digest()) {
        ++non_voting_authors;
        break;
      }
    }
    if (non_voting_authors >= quorum) return true;
  }
  return false;
}

SlotDecision Committer::evaluate(SlotId slot,
                                 const std::map<SlotId, SlotDecision>& later) {
  SlotDecision decision = SlotDecision::undecided(slot);

  const auto leader = slot_leader(slot);
  if (!leader.has_value()) return decision;  // coin not yet reconstructible
  decision.leader = *leader;

  const Round vote_round = options_.vote_round(slot.round);
  const Round certify_round = options_.certify_round(slot.round);
  const auto& candidates = dag_.slot(slot.round, *leader);

  // --- Direct decision rule (§3.2 step 2). ---
  for (const BlockPtr& candidate : candidates) {
    if (supported(*candidate, vote_round, certify_round)) {
      decision.kind = SlotDecision::Kind::kCommit;
      decision.via = SlotDecision::Via::kDirect;
      decision.block = candidate;
      decision.final_decision = true;
      return decision;
    }
  }
  if (options_.direct_skip &&
      dag_.distinct_authors_at(vote_round) >= committee_.quorum_threshold()) {
    bool all_candidates_dead = true;
    for (const BlockPtr& candidate : candidates) {
      if (!skipped(*candidate, *leader, slot.round, vote_round)) {
        all_candidates_dead = false;
        break;
      }
    }
    if (all_candidates_dead) {
      decision.kind = SlotDecision::Kind::kSkip;
      decision.via = SlotDecision::Via::kDirect;
      decision.final_decision = true;
      return decision;
    }
  }

  // --- Indirect decision rule (§3.2 step 3). ---
  // Anchor: the earliest slot of a later wave (round > certify round, i.e.
  // round >= propose + wave_length) that is not skipped.
  const SlotDecision* anchor = nullptr;
  for (auto it = later.lower_bound(SlotId{slot.round + options_.wave_length, 0});
       it != later.end(); ++it) {
    if (it->second.kind != SlotDecision::Kind::kSkip) {
      anchor = &it->second;
      break;
    }
  }
  if (anchor == nullptr || anchor->kind == SlotDecision::Kind::kUndecided) {
    return decision;  // undecided, for now
  }

  assert(anchor->kind == SlotDecision::Kind::kCommit);
  // Commit iff the anchor's causal history contains a certificate over a
  // candidate (at most one candidate can be certified, Lemma 2).
  for (const BlockPtr& candidate : candidates) {
    bool linked_certificate = false;
    dag_.for_each_at(certify_round, [&](const BlockPtr& cert) {
      if (votes_.is_cert(*cert, *candidate, vote_round, committee_.quorum_threshold()) &&
          dag_.is_link(cert->ref(), *anchor->block)) {
        linked_certificate = true;
        return false;
      }
      return true;
    });
    if (linked_certificate) {
      decision.kind = SlotDecision::Kind::kCommit;
      decision.via = SlotDecision::Via::kIndirect;
      decision.block = candidate;
      decision.final_decision = true;
      return decision;
    }
  }
  decision.kind = SlotDecision::Kind::kSkip;
  decision.via = SlotDecision::Via::kIndirect;
  decision.final_decision = true;
  return decision;
}

std::map<SlotId, SlotDecision> Committer::evaluate_all() {
  std::map<SlotId, SlotDecision> pass;
  const Round highest = highest_propose_round();
  if (highest == 0) return pass;

  // Descending over pending propose rounds; within a round, descending over
  // leader offsets (Algorithm 1, TryDecide). Later slots are evaluated first
  // so the indirect rule can consult them.
  for (Round r = highest;; r -= options_.wave_stride) {
    for (std::uint32_t offset = options_.leaders_per_round; offset-- > 0;) {
      const SlotId slot{r, offset};
      if (slot < next_pending_) continue;
      if (const auto it = final_.find(slot); it != final_.end()) {
        pass.emplace(slot, it->second);
        continue;
      }
      SlotDecision decision = evaluate(slot, pass);
      if (decision.final_decision) final_.emplace(slot, decision);
      pass.emplace(slot, std::move(decision));
    }
    if (r < next_pending_.round + options_.wave_stride) break;  // reached the head
    if (r < options_.wave_stride) break;                        // underflow guard
  }
  return pass;
}

std::vector<SlotDecision> Committer::scan() {
  std::vector<SlotDecision> out;
  const auto pass = evaluate_all();

  // The decided prefix in slot order, stopping at the first undecided slot
  // (Algorithm 1, ExtendCommitSequence). Consumption is apply()'s job.
  for (SlotId slot = next_pending_;; slot = successor(slot)) {
    const auto it = pass.find(slot);
    if (it == pass.end()) break;  // beyond the evaluated range
    if (it->second.kind == SlotDecision::Kind::kUndecided) break;
    out.push_back(it->second);
  }
  return out;
}

std::vector<CommittedSubDag> Committer::apply(
    const std::vector<SlotDecision>& decisions) {
  std::vector<CommittedSubDag> out;
  for (const SlotDecision& decision : decisions) {
    assert(decision.slot == next_pending_ && decision.final_decision);

    decided_log_.push_back(DecidedSlot::of(decision));
    if (decision.kind == SlotDecision::Kind::kCommit) {
      decision.via == SlotDecision::Via::kDirect ? ++stats_.direct_commits
                                                 : ++stats_.indirect_commits;
      const Round leader_round = decision.block->round();
      const Round min_round = options_.gc_depth > 0 && leader_round > options_.gc_depth
                                  ? leader_round - options_.gc_depth
                                  : 0;
      out.push_back(linearize_sub_dag(dag_, decision.slot, decision.block, delivered_,
                                      stats_, min_round));
    } else {
      decision.via == SlotDecision::Via::kDirect ? ++stats_.direct_skips
                                                 : ++stats_.indirect_skips;
    }
    final_.erase(decision.slot);
    next_pending_ = successor(decision.slot);
  }
  // Every later traversal targets a slot round at or above the head
  // (supported, skipped and the indirect rule only evaluate pending slots),
  // so the memo below it is dead, with or without GC.
  if (!decisions.empty()) votes_.evict_below(next_pending_.round);
  return out;
}

std::vector<std::pair<Digest, Round>> Committer::delivered_snapshot(
    Round min_round) const {
  return delivered_.snapshot(dag_, min_round);
}

void Committer::restore(std::vector<DecidedSlot> decided, SlotId head,
                        const std::vector<std::pair<Digest, Round>>& delivered) {
  decided_log_ = std::move(decided);
  next_pending_ = head;
  // Memoized evaluations predate the installed DAG; drop them rather than
  // reason about which survive (they are a cache, re-deriving is cheap).
  final_.clear();
  votes_.evict_below(head.round);  // the vote memo stays valid at and above it
  // install_checkpoint inserts the checkpoint's DAG suffix first, so every
  // delivered digest it lists names a block the DAG holds.
  delivered_.clear();
  for (const auto& [digest, round] : delivered) {
    if (const BlockPtr block = dag_.get(digest)) delivered_.mark(*dag_.locate(block->ref()));
  }
  stats_ = {};
  for (const DecidedSlot& decision : decided_log_) {
    if (decision.kind == SlotDecision::Kind::kCommit) {
      decision.via == SlotDecision::Via::kDirect ? ++stats_.direct_commits
                                                 : ++stats_.indirect_commits;
    } else if (decision.kind == SlotDecision::Kind::kSkip) {
      decision.via == SlotDecision::Via::kDirect ? ++stats_.direct_skips
                                                 : ++stats_.indirect_skips;
    }
  }
}

std::vector<CommittedSubDag> Committer::try_commit() { return apply(scan()); }

void Committer::prune_below(Round round) {
  // The vote memo needs nothing here: apply() evicts it below the head, and
  // the GC horizon never passes the head. Delivered marks below the GC cut
  // are never consulted again (linearize skips sub-cut parents first).
  delivered_.prune_below(round);
}

}  // namespace mahimahi
