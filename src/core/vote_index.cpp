#include "core/vote_index.h"

namespace mahimahi {

std::optional<Digest> VoteIndex::voted(const Block& from, ValidatorId author,
                                       Round round) {
  // Algorithm 3, VotedBlock: the target round must be strictly below the
  // traversal root; otherwise nothing can be found.
  if (round >= from.round()) return std::nullopt;

  Table& memo = memo_[round];
  if (const auto it = memo.find(Key{&from, author}); it != memo.end()) {
    return it->second;
  }

  // Iterative ordered depth-first traversal with an explicit frame stack
  // (see the header for why). Raw Block pointers are safe while the owning
  // DAG is not mutated, which the single-threaded-use contract of the
  // committer guarantees.
  struct Frame {
    const Block* block;
    std::size_t next_parent = 0;
    std::optional<Digest> result;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{.block = &from, .next_parent = 0, .result = std::nullopt});
  std::optional<Digest> propagated;
  bool child_returned = false;

  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (child_returned) {
      child_returned = false;
      if (propagated.has_value()) frame.result = propagated;
    }

    bool descended = false;
    while (!frame.result.has_value() &&
           frame.next_parent < frame.block->parents().size()) {
      const BlockRef& parent = frame.block->parents()[frame.next_parent++];
      if (parent.round < round) continue;  // cannot contain the target
      if (parent.round == round) {
        if (parent.author != author) continue;  // its parents are older still
        frame.result = parent.digest;
        break;
      }
      const Block* parent_block = dag_.resolve(parent);
      if (parent_block == nullptr) continue;  // pruned history; treated as absent
      if (const auto it = memo.find(Key{parent_block, author}); it != memo.end()) {
        if (it->second.has_value()) frame.result = it->second;
        continue;
      }
      stack.push_back(Frame{.block = parent_block, .next_parent = 0, .result = std::nullopt});
      descended = true;
      break;
    }
    if (descended) continue;

    // Frame exhausted (or found the target): memoize and propagate upward.
    memo.emplace(Key{frame.block, author}, frame.result);
    propagated = frame.result;
    child_returned = true;
    stack.pop_back();
  }
  return propagated;
}

bool VoteIndex::is_cert(const Block& cert, const Block& leader, Round vote_round,
                        std::uint32_t quorum) {
  const Table& memo = memo_[leader.round()];
  voters_.assign(dag_.committee_size(), false);
  std::uint32_t voting_authors = 0;
  for (const auto& parent : cert.parents()) {
    if (parent.round != vote_round || voters_[parent.author]) continue;
    const Block* vote = dag_.resolve(parent);
    if (vote == nullptr) continue;
    std::optional<Digest> target;
    if (const auto it = memo.find(Key{vote, leader.author()}); it != memo.end()) {
      target = it->second;
    } else {
      target = voted(*vote, leader.author(), leader.round());
    }
    if (target != leader.digest()) continue;
    voters_[parent.author] = true;
    if (++voting_authors >= quorum) return true;
  }
  return voting_authors >= quorum;
}

void VoteIndex::evict_below(Round round) {
  memo_.erase(memo_.begin(), memo_.lower_bound(round));
}

std::size_t VoteIndex::size() const {
  std::size_t entries = 0;
  for (const auto& [round, table] : memo_) entries += table.size();
  return entries;
}

}  // namespace mahimahi
