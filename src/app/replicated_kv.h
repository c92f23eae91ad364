// Replicated key-value application: the bridge from consensus output
// (CommittedSubDag stream) to the deterministic state machine.
//
// The paper's client model (§2.3) resubmits a transaction to a different
// validator if it does not finalize quickly, so the same command may appear
// in two committed blocks. The application layer provides exactly-once
// execution by deduplicating on the batch's content identity in committed
// order — a deterministic function of the committed sequence, so all
// validators still agree on the resulting state.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "app/kv_store.h"
#include "core/decision.h"
#include "types/transaction.h"

namespace mahimahi::app {

// Content identity of a batch: H(id, payload digest). Two submissions of the
// same command batch (client resubmission to a different validator) collide
// here; distinct commands never do (up to hash collisions). A committed
// batch carries its payload digest (types/transaction.h), so the payload is
// not hashed again; a bare batch is hashed here. Identities are never
// persisted: the dedup sets live in memory only, WAL replay rebuilds them
// and exec::SerialExecutor clears its set on a checkpoint install, so
// changing this derivation needs no migration. Shared with the parallel
// executor (exec/) so both apply paths deduplicate identically.
Digest batch_identity(const TxBatch& batch);

class ReplicatedKv {
 public:
  // Applies every KV command carried by `subdag`'s blocks, in the sub-DAG's
  // deterministic causal order. Non-KV (benchmark filler) batches are
  // skipped. Returns the number of commands applied.
  std::uint64_t apply_subdag(const CommittedSubDag& subdag);

  const KvStore& store() const { return store_; }
  Digest state_digest() const { return store_.state_digest(); }
  std::uint64_t commands_applied() const { return commands_applied_; }
  std::uint64_t batches_deduplicated() const { return batches_deduplicated_; }
  std::uint64_t malformed_batches() const { return malformed_batches_; }

 private:
  KvStore store_;
  std::unordered_set<Digest, DigestHasher> executed_batches_;
  std::uint64_t commands_applied_ = 0;
  std::uint64_t batches_deduplicated_ = 0;
  std::uint64_t malformed_batches_ = 0;
};

}  // namespace mahimahi::app
