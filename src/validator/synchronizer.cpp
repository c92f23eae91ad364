#include "validator/synchronizer.h"

#include "common/log.h"

namespace mahimahi {

Synchronizer::Outcome Synchronizer::offer(BlockPtr block) {
  Outcome outcome;
  const Digest digest = block->digest();
  // Below the GC horizon a block is stale: the DAG window holds no such round.
  if (block->round() < dag_.pruned_below()) return outcome;
  if (dag_.contains(block->ref()) || pending_.contains(digest)) return outcome;

  // Resolve each parent through the cell its ref names. References below the
  // DAG's GC horizon are satisfied by definition (they can never be
  // delivered; see Dag::parents_present) and are not fetched.
  std::vector<BlockRef> unknown;
  for (const auto& parent : block->parents()) {
    if (parent.round < dag_.pruned_below() || dag_.contains(parent)) continue;
    // A miss. If the DAG holds the digest in another cell, the ref's
    // (round, author) labels lie about the parent.
    if (dag_.contains(parent.digest)) {
      ++rejected_;
      return outcome;
    }
    unknown.push_back(parent);
  }

  if (unknown.empty()) {
    insert_and_cascade(std::move(block), outcome.inserted);
    return outcome;
  }

  if (pending_.size() >= max_pending_) {
    // Bounded buffer: drop the offer; the block will be re-fetched later if
    // it matters (it stays referenced by descendants).
    MM_LOG(kWarn) << "synchronizer pending buffer full; dropping block";
    return outcome;
  }

  Pending entry;
  entry.block = std::move(block);
  entry.missing_count = unknown.size();
  pending_.emplace(digest, std::move(entry));
  for (const auto& parent : unknown) {
    auto& waiting = waiters_[parent.digest];
    waiting.push_back(Waiter{digest, parent.round, parent.author});
    // Report each missing parent once per offer; the caller de-duplicates
    // in-flight fetches.
    if (waiting.size() == 1 || !missing_refs_.contains(parent.digest)) {
      missing_refs_.emplace(parent.digest, parent);
    }
    // A parent might itself be pending (known but not insertable); only ask
    // the network for parents we have never seen.
    if (!pending_.contains(parent.digest)) outcome.missing.push_back(parent);
  }
  return outcome;
}

void Synchronizer::insert_and_cascade(BlockPtr block, std::vector<BlockPtr>& inserted) {
  dag_.insert_resolved(block);
  inserted.push_back(block);

  // Iteratively resolve waiters (a stack, to avoid recursion). Each entry is
  // a block just inserted; the DAG keeps it alive.
  std::vector<const Block*> ready{block.get()};
  while (!ready.empty()) {
    const Block* arrived = ready.back();
    ready.pop_back();
    missing_refs_.erase(arrived->digest());
    const auto it = waiters_.find(arrived->digest());
    if (it == waiters_.end()) continue;
    const std::vector<Waiter> dependents = std::move(it->second);
    waiters_.erase(it);
    for (const Waiter& waiter : dependents) {
      const auto pending_it = pending_.find(waiter.dependent);
      if (pending_it == pending_.end()) continue;
      if (waiter.round != arrived->round() || waiter.author != arrived->author()) {
        // The dependent named this parent's digest under another cell.
        pending_.erase(pending_it);
        ++rejected_;
        continue;
      }
      if (--pending_it->second.missing_count == 0) {
        BlockPtr unblocked = std::move(pending_it->second.block);
        pending_.erase(pending_it);
        dag_.insert_resolved(unblocked);
        ready.push_back(unblocked.get());
        inserted.push_back(std::move(unblocked));
      }
    }
  }
}

std::vector<BlockPtr> Synchronizer::prune_below(Round round) {
  std::vector<BlockPtr> inserted;

  // Drop pending blocks that are themselves below the horizon.
  std::vector<Digest> stale;
  for (const auto& [digest, entry] : pending_) {
    if (entry.block->round() < round) stale.push_back(digest);
  }
  for (const Digest& digest : stale) pending_.erase(digest);

  // A missing ref below the horizon is satisfied by definition. Each waiter
  // is judged by the round its own ref names: waiters on one digest may
  // disagree (a lying ref), and a waiter whose ref names a round at or above
  // the horizon keeps waiting for the block itself.
  std::vector<Digest> missing;
  missing.reserve(missing_refs_.size());
  for (const auto& [digest, ref] : missing_refs_) missing.push_back(digest);
  for (const Digest& digest : missing) {
    const auto it = waiters_.find(digest);
    if (it == waiters_.end()) continue;
    std::vector<Waiter> satisfied;
    std::vector<Waiter> waiting;
    for (const Waiter& waiter : it->second) {
      (waiter.round < round ? satisfied : waiting).push_back(waiter);
    }
    if (satisfied.empty()) continue;
    if (waiting.empty()) {
      waiters_.erase(it);
      missing_refs_.erase(digest);
    } else {
      const Waiter& next = waiting.front();
      missing_refs_[digest] = BlockRef{next.round, next.author, digest};
      it->second = std::move(waiting);
    }
    for (const Waiter& waiter : satisfied) {
      const auto pending_it = pending_.find(waiter.dependent);
      if (pending_it == pending_.end()) continue;
      if (--pending_it->second.missing_count == 0) {
        BlockPtr unblocked = std::move(pending_it->second.block);
        pending_.erase(pending_it);
        insert_and_cascade(std::move(unblocked), inserted);
      }
    }
  }
  return inserted;
}

std::vector<BlockRef> Synchronizer::outstanding() const {
  std::vector<BlockRef> out;
  out.reserve(missing_refs_.size());
  for (const auto& [digest, ref] : missing_refs_) {
    if (!dag_.contains(ref) && !pending_.contains(digest)) out.push_back(ref);
  }
  return out;
}

}  // namespace mahimahi
