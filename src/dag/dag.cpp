#include "dag/dag.h"

#include <deque>
#include <stdexcept>
#include <unordered_set>

namespace mahimahi {

Dag::Dag(const Committee& committee) : n_(committee.size()) {
  for (ValidatorId v = 0; v < n_; ++v) {
    insert(std::make_shared<const Block>(Block::genesis(v, committee.coin())));
  }
}

BlockPtr Dag::get(const Digest& digest) const {
  const auto it = by_digest_.find(digest);
  return it == by_digest_.end() ? nullptr : it->second;
}

const std::vector<BlockPtr>& Dag::slot(Round round, ValidatorId author) const {
  const auto it = rounds_.find(round);
  if (it == rounds_.end() || author >= n_) return empty_;
  return it->second.by_author[author];
}

std::vector<BlockPtr> Dag::blocks_at(Round round) const {
  std::vector<BlockPtr> out;
  const auto it = rounds_.find(round);
  if (it == rounds_.end()) return out;
  for (const auto& cell : it->second.by_author) {
    out.insert(out.end(), cell.begin(), cell.end());
  }
  return out;
}

void Dag::for_each_at(Round round,
                      const std::function<bool(const BlockPtr&)>& visit) const {
  const auto it = rounds_.find(round);
  if (it == rounds_.end()) return;
  for (const auto& cell : it->second.by_author) {
    for (const auto& block : cell) {
      if (!visit(block)) return;
    }
  }
}

std::uint32_t Dag::distinct_authors_at(Round round) const {
  const auto it = rounds_.find(round);
  return it == rounds_.end() ? 0 : it->second.distinct_authors;
}

bool Dag::parents_present(const Block& block) const {
  for (const auto& parent : block.parents()) {
    // References below the GC horizon count as satisfied: the deterministic
    // delivery cut (CommitterOptions::gc_depth) guarantees no future leader
    // will deliver them, so their absence cannot affect the commit sequence.
    if (parent.round < pruned_below_) continue;
    if (!contains(parent.digest)) return false;
  }
  return true;
}

bool Dag::insert(BlockPtr block) {
  if (by_digest_.contains(block->digest())) return false;
  if (!parents_present(*block)) {
    throw std::logic_error("Dag::insert: missing parent (synchronizer bug)");
  }
  auto [it, created] = rounds_.try_emplace(block->round());
  if (created) it->second.by_author.resize(n_);
  auto& cell = it->second.by_author.at(block->author());
  if (cell.empty()) ++it->second.distinct_authors;
  cell.push_back(block);
  if (block->round() > highest_round_) highest_round_ = block->round();
  wire_bytes_ += block->wire_bytes();
  by_digest_.emplace(block->digest(), std::move(block));
  return true;
}

bool Dag::is_link(const BlockRef& old_ref, const Block& from) const {
  if (from.round() < old_ref.round) return false;
  if (from.digest() == old_ref.digest) return true;
  std::unordered_set<Digest, DigestHasher> visited;
  std::deque<const Block*> frontier;
  frontier.push_back(&from);
  while (!frontier.empty()) {
    const Block* current = frontier.front();
    frontier.pop_front();
    for (const auto& parent : current->parents()) {
      if (parent.round < old_ref.round) continue;
      if (parent.digest == old_ref.digest) return true;
      if (!visited.insert(parent.digest).second) continue;
      if (const BlockPtr next = get(parent.digest)) frontier.push_back(next.get());
    }
  }
  return false;
}

void Dag::prune_below(Round round) {
  if (round <= pruned_below_) return;
  for (auto it = rounds_.begin(); it != rounds_.end() && it->first < round;) {
    for (const auto& cell : it->second.by_author) {
      for (const auto& block : cell) {
        by_digest_.erase(block->digest());
        wire_bytes_ -= block->wire_bytes();
      }
    }
    it = rounds_.erase(it);
  }
  pruned_below_ = round;
}

}  // namespace mahimahi
