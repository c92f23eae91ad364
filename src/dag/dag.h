// The local DAG: every valid block a validator knows (§2.3), stored as a
// dense per-round arena.
//
// Layout. Rounds live in a window indexed by `round - pruned_below()`. Each
// round holds one cell per author: entry `a` of the round is the first block
// author `a` produced there (empty when none arrived). Equivocation is
// first-class: a Byzantine author's further blocks for the same (round,
// author) are twins, appended after the n cells and chained from their
// author's cell in insertion order; `slot()` walks that chain.
//
// Ref resolution. A BlockRef names its cell, so `resolve(ref)` is a window
// index, a cell index and an in-place digest compare along a chain that is one
// entry long unless the author equivocated. Every parent walk of the protocol
// (the synchronizer's completeness check, IsLink, VotedBlock/IsCert and
// LinearizeSubDags) resolves parents this way and hashes nothing. The digest
// index (digest -> block) is kept only at ingress: one insertion per block,
// fetch serving by digest, and the synchronizer's miss path below.
// `digest_probes()` counts its lookups and insertions.
//
// Lying labels. A ref resolves only to a block in the cell it names. A block
// whose parent ref names a digest the DAG holds in a different cell has
// relabelled that parent (to forge the 2f+1 distinct-author rule of
// types/validation.h, say) and is rejected by the synchronizer; it is never
// inserted.
//
// Delivered flags are not stored here: several committers may read one DAG
// (ablations, tests comparing rules), so each keeps its own flags, indexed by
// the DAG's `Loc` and dropped with their round (core/linearize.h).
//
// Invariants maintained by the inserter (the validator's synchronizer):
//   * a block is only inserted after its entire causal history is present
//     ("causal completeness"), each parent in the cell its ref names, and it
//     passed validation;
//   * genesis blocks (round 0) are constructed locally at creation.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "types/block.h"
#include "types/committee.h"

namespace mahimahi {

class Dag {
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  struct Entry {
    Digest digest;  // copy of block->digest(): resolution compares in place
    BlockPtr block;  // null: the author's cell is empty
    std::uint32_t next_twin = kNone;  // the cell's next block, insertion order
    mutable std::uint32_t visit = 0;  // is_link's traversal stamp
  };
  struct RoundCells {
    explicit RoundCells(std::uint32_t n) : entries(n) {}
    std::vector<Entry> entries;  // [0, n): cells by author; [n, ...): twins
    std::uint32_t distinct_authors = 0;
  };

 public:
  // Constructs the DAG holding the committee's genesis blocks (round 0).
  explicit Dag(const Committee& committee);

  std::uint32_t committee_size() const { return n_; }

  // Where a block lives: its round, and its entry there (the author for the
  // first block of a cell, n + k for a cell's later twins). Stable while the
  // round is in the window.
  struct Loc {
    Round round = 0;
    std::uint32_t index = 0;
  };

  // The blocks of one (round, author) cell, in insertion order (empty / one /
  // several under equivocation). A view: valid until the round is pruned.
  class Cell {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = BlockPtr;
      using difference_type = std::ptrdiff_t;
      using pointer = const BlockPtr*;
      using reference = const BlockPtr&;
      iterator() = default;
      iterator(const std::vector<Entry>* entries, std::uint32_t index)
          : entries_(entries), index_(index) {}
      reference operator*() const { return (*entries_)[index_].block; }
      iterator& operator++() {
        index_ = (*entries_)[index_].next_twin;
        return *this;
      }
      bool operator==(const iterator& other) const { return index_ == other.index_; }

     private:
      const std::vector<Entry>* entries_ = nullptr;
      std::uint32_t index_ = kNone;
    };

    Cell() = default;
    Cell(const std::vector<Entry>* entries, std::uint32_t head)
        : entries_(entries), head_(head) {}
    iterator begin() const { return {entries_, empty() ? kNone : head_}; }
    iterator end() const { return {entries_, kNone}; }
    bool empty() const { return entries_ == nullptr || (*entries_)[head_].block == nullptr; }
    std::size_t size() const { return static_cast<std::size_t>(std::distance(begin(), end())); }
    const BlockPtr& front() const { return *begin(); }
    const BlockPtr& operator[](std::size_t k) const { return *std::next(begin(), k); }

   private:
    const std::vector<Entry>* entries_ = nullptr;
    std::uint32_t head_ = 0;
  };

  // Resolution through the cell `ref` names (no hashing). A ref whose
  // labels lie, or whose block is absent or pruned, does not resolve.
  std::optional<Loc> locate(const BlockRef& ref) const {
    const RoundCells* cells = round_at(ref.round);
    const std::uint32_t index = cells == nullptr ? kNone : index_in(*cells, ref);
    if (index == kNone) return std::nullopt;
    return Loc{ref.round, index};
  }
  // The block at a Loc that locate() returned (its round still live).
  const BlockPtr& at(Loc loc) const { return round_at(loc.round)->entries[loc.index].block; }
  // nullptr when `ref` does not resolve.
  const Block* resolve(const BlockRef& ref) const {
    const Entry* entry = find(ref);
    return entry == nullptr ? nullptr : entry->block.get();
  }
  bool contains(const BlockRef& ref) const { return find(ref) != nullptr; }
  BlockPtr get(const BlockRef& ref) const {
    const Entry* entry = find(ref);
    return entry == nullptr ? nullptr : entry->block;
  }

  // Through the digest index (one counted probe each): ingress only.
  bool contains(const Digest& digest) const;
  BlockPtr get(const Digest& digest) const;  // nullptr when absent

  // Lookups and insertions on the digest index so far.
  std::uint64_t digest_probes() const { return digest_probes_; }

  Cell slot(Round round, ValidatorId author) const;

  // Every block at `round`, all authors, equivocations included.
  std::vector<BlockPtr> blocks_at(Round round) const;

  // Visits each block at `round`; return false from the visitor to stop.
  void for_each_at(Round round, const std::function<bool(const BlockPtr&)>& visit) const;

  // Number of distinct authors with at least one block at `round` (the
  // quorum measure used for round advancement and coin opening).
  std::uint32_t distinct_authors_at(Round round) const {
    const RoundCells* cells = round_at(round);
    return cells == nullptr ? 0 : cells->distinct_authors;
  }

  // Highest round with at least one block (0 at genesis).
  Round highest_round() const { return highest_round_; }

  std::size_t block_count() const { return by_digest_.size(); }
  // Sum of Block::wire_bytes() over the live window (maintained at insert
  // and prune): what the DAG itself keeps resident.
  std::uint64_t wire_bytes() const { return wire_bytes_; }

  // True if every parent reference of `block` at or above the pruned horizon
  // resolves in its cell. References below the horizon count as satisfied:
  // the deterministic delivery cut (CommitterOptions::gc_depth) guarantees no
  // future leader delivers them, so their absence cannot affect the commit
  // sequence.
  bool parents_present(const Block& block) const;

  // Inserts a block whose parents are all present (parents_present).
  // Returns false (no-op) for duplicates and for blocks below the pruned
  // horizon. A missing parent throws std::logic_error: it indicates a caller
  // bug, not bad input.
  bool insert(BlockPtr block);
  // As insert(), for a caller that has just resolved every parent itself (the
  // synchronizer, WAL replay behind its parents_present gate): the parents
  // are not checked a second time.
  bool insert_resolved(BlockPtr block);

  // Is `old_ref` in the causal history of `from` (inclusive of `from`)?
  // A traversal over parents, pruned by round.
  bool is_link(const BlockRef& old_ref, const Block& from) const;

  // Drops all blocks with round < `round`. The caller must only prune
  // history that is already delivered (or will never be queried).
  void prune_below(Round round);
  Round pruned_below() const { return pruned_below_; }

 private:
  const RoundCells* round_at(Round round) const {
    if (round < pruned_below_ || round - pruned_below_ >= window_.size()) return nullptr;
    return &window_[round - pruned_below_];
  }
  // The entry of `cells` that `ref` names, or kNone.
  std::uint32_t index_in(const RoundCells& cells, const BlockRef& ref) const {
    if (ref.author >= n_) return kNone;
    for (std::uint32_t i = ref.author; i != kNone; i = cells.entries[i].next_twin) {
      const Entry& entry = cells.entries[i];
      if (std::memcmp(entry.digest.bytes.data(), ref.digest.bytes.data(),
                      ref.digest.bytes.size()) == 0 &&
          entry.block != nullptr) {
        return i;
      }
    }
    return kNone;
  }
  const Entry* find(const BlockRef& ref) const {
    const RoundCells* cells = round_at(ref.round);
    if (cells == nullptr) return nullptr;
    const std::uint32_t index = index_in(*cells, ref);
    return index == kNone ? nullptr : &cells->entries[index];
  }

  std::uint32_t n_;
  std::deque<RoundCells> window_;  // window_[i] holds round pruned_below_ + i
  std::unordered_map<Digest, BlockPtr, DigestHasher> by_digest_;
  mutable std::uint64_t digest_probes_ = 0;
  mutable std::uint32_t visit_epoch_ = 0;
  Round highest_round_ = 0;
  Round pruned_below_ = 0;
  std::uint64_t wire_bytes_ = 0;
};

}  // namespace mahimahi
