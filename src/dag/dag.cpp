#include "dag/dag.h"

#include <stdexcept>

namespace mahimahi {

Dag::Dag(const Committee& committee) : n_(committee.size()) {
  for (ValidatorId v = 0; v < n_; ++v) {
    insert(std::make_shared<const Block>(Block::genesis(v, committee.coin())));
  }
}

bool Dag::contains(const Digest& digest) const {
  ++digest_probes_;
  return by_digest_.contains(digest);
}

BlockPtr Dag::get(const Digest& digest) const {
  ++digest_probes_;
  const auto it = by_digest_.find(digest);
  return it == by_digest_.end() ? nullptr : it->second;
}

Dag::Cell Dag::slot(Round round, ValidatorId author) const {
  const RoundCells* cells = round_at(round);
  if (cells == nullptr || author >= n_) return {};
  return {&cells->entries, author};
}

std::vector<BlockPtr> Dag::blocks_at(Round round) const {
  std::vector<BlockPtr> out;
  for_each_at(round, [&out](const BlockPtr& block) {
    out.push_back(block);
    return true;
  });
  return out;
}

void Dag::for_each_at(Round round,
                      const std::function<bool(const BlockPtr&)>& visit) const {
  for (ValidatorId author = 0; author < n_; ++author) {
    for (const BlockPtr& block : slot(round, author)) {
      if (!visit(block)) return;
    }
  }
}

bool Dag::parents_present(const Block& block) const {
  for (const auto& parent : block.parents()) {
    if (parent.round < pruned_below_) continue;
    if (find(parent) == nullptr) return false;
  }
  return true;
}

bool Dag::insert(BlockPtr block) {
  if (block->round() < pruned_below_ || contains(block->ref())) return false;
  if (!parents_present(*block)) {
    throw std::logic_error("Dag::insert: missing parent (synchronizer bug)");
  }
  return insert_resolved(std::move(block));
}

bool Dag::insert_resolved(BlockPtr block) {
  const Round round = block->round();
  if (round < pruned_below_) return false;
  if (block->author() >= n_) throw std::logic_error("Dag::insert: unknown author");
  while (window_.size() <= round - pruned_below_) window_.emplace_back(n_);
  RoundCells& cells = window_[round - pruned_below_];

  std::uint32_t tail = block->author();
  Entry* cell = &cells.entries[tail];
  if (cell->block == nullptr) {
    ++cells.distinct_authors;
  } else {
    for (;;) {
      if (cells.entries[tail].digest == block->digest()) return false;  // duplicate
      if (cells.entries[tail].next_twin == kNone) break;
      tail = cells.entries[tail].next_twin;
    }
    // A twin: appended after the cells, chained from the cell's last block.
    const auto twin = static_cast<std::uint32_t>(cells.entries.size());
    cells.entries.emplace_back();
    cells.entries[tail].next_twin = twin;
    cell = &cells.entries[twin];
  }
  cell->digest = block->digest();
  cell->block = block;

  if (round > highest_round_) highest_round_ = round;
  wire_bytes_ += block->wire_bytes();
  ++digest_probes_;
  by_digest_.emplace(block->digest(), std::move(block));
  return true;
}

bool Dag::is_link(const BlockRef& old_ref, const Block& from) const {
  if (from.round() < old_ref.round) return false;
  if (from.digest() == old_ref.digest) return true;
  if (++visit_epoch_ == 0) {
    // The stamp wrapped: clear every stale mark once.
    for (const RoundCells& cells : window_) {
      for (const Entry& entry : cells.entries) entry.visit = 0;
    }
    visit_epoch_ = 1;
  }
  std::vector<const Block*> frontier{&from};
  while (!frontier.empty()) {
    const Block* current = frontier.back();
    frontier.pop_back();
    for (const auto& parent : current->parents()) {
      if (parent.round < old_ref.round) continue;
      if (parent.digest == old_ref.digest) return true;
      const Entry* entry = find(parent);
      if (entry == nullptr || entry->visit == visit_epoch_) continue;
      entry->visit = visit_epoch_;
      frontier.push_back(entry->block.get());
    }
  }
  return false;
}

void Dag::prune_below(Round round) {
  if (round <= pruned_below_) return;
  while (!window_.empty() && pruned_below_ < round) {
    for (const Entry& entry : window_.front().entries) {
      if (entry.block == nullptr) continue;
      by_digest_.erase(entry.digest);
      wire_bytes_ -= entry.block->wire_bytes();
    }
    window_.pop_front();
    ++pruned_below_;
  }
  pruned_below_ = round;
}

}  // namespace mahimahi
