// Vote interpretation over the uncertified DAG (Algorithm 3).
//
// A block `v` votes for leader block `b` at (author, round) if `b` is the
// FIRST block authored by (author, round) encountered in the ordered
// depth-first traversal of v's causal references (Observation 1: this makes
// "vote" single-valued per voter even under equivocation). The traversal is
// a pure function of block content, so results are memoized per
// (block, author, round). Parents resolve through their DAG cells, and the
// memo is keyed by the resolved block's address: a memoized block is in the
// DAG, and stays there while its target round is live (evict_below). The
// traversal is iterative (explicit frame stack): a root far above the target
// round walks a chain as deep as the rounds between them, and at
// gc_depth = 0 no pruning bounds that chain.
//
// The memo is one table per target round, so evict_below() drops whole
// rounds in time proportional to the entries it frees.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dag/dag.h"

namespace mahimahi {

class VoteIndex {
 public:
  explicit VoteIndex(const Dag& dag) : dag_(dag) {}

  // Algorithm 3 VotedBlock: the digest of the first (author, round) block
  // encountered in the ordered DFS from `from` (exclusive of `from` itself);
  // nullopt if none is reachable. `from` votes for a leader block iff this
  // is the leader's digest (IsVote).
  std::optional<Digest> voted(const Block& from, ValidatorId author, Round round);

  // Algorithm 3 IsCert: `cert` carries >= 2f+1 distinct-author vote-round
  // parents that vote for `leader`. Quorums count distinct authors (not raw
  // blocks), which is what the Appendix C quorum-intersection arguments rely
  // on under equivocation.
  bool is_cert(const Block& cert, const Block& leader, Round vote_round,
               std::uint32_t quorum);

  // Drops the memoized traversals that target a round below `round`.
  // Callers keep evicting at least up to the DAG's pruning horizon, so a kept
  // entry names only live blocks (its address is never reused under it).
  void evict_below(Round round);

  // Memoized traversals currently held.
  std::size_t size() const;

 private:
  struct Key {
    const Block* from;
    ValidatorId author;
    bool operator==(const Key&) const = default;
  };
  struct KeyHasher {
    std::size_t operator()(const Key& k) const {
      const auto h = reinterpret_cast<std::uintptr_t>(k.from) >> 4;
      return static_cast<std::size_t>((h ^ (std::uint64_t{k.author} << 40)) *
                                      0x9e3779b97f4a7c15ULL);
    }
  };
  using Table = std::unordered_map<Key, std::optional<Digest>, KeyHasher>;

  const Dag& dag_;
  std::map<Round, Table> memo_;  // keyed by the traversal's target round
  std::vector<bool> voters_;     // is_cert scratch, one bit per committee member
};

}  // namespace mahimahi
