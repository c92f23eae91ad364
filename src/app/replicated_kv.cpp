#include "app/replicated_kv.h"

#include "crypto/blake2b.h"
#include "serde/serde.h"

namespace mahimahi::app {

Digest batch_identity(const TxBatch& batch) {
  const Digest payload_digest =
      batch.payload_digest ? *batch.payload_digest : TxBatch::hash_payload(batch.payload);
  serde::Writer w(8 + 32);
  w.u64(batch.id);
  w.digest(payload_digest);
  return crypto::Blake2b::hash256({w.data().data(), w.data().size()});
}

std::uint64_t ReplicatedKv::apply_subdag(const CommittedSubDag& subdag) {
  std::uint64_t applied = 0;
  for (const BlockPtr& block : subdag.blocks) {
    for (const TxBatch& batch : block->batches()) {
      if (batch.payload.empty()) continue;  // benchmark filler carries no commands
      if (!executed_batches_.insert(batch_identity(batch)).second) {
        ++batches_deduplicated_;
        continue;
      }
      try {
        for (const KvCommand& cmd : decode_kv_payload({batch.payload.data(),
                                                        batch.payload.size()})) {
          store_.apply(cmd);
          ++applied;
        }
      } catch (const serde::SerdeError&) {
        // A Byzantine client can submit garbage; it must not poison the
        // replica. Count and continue — determinism holds because every
        // validator sees the same bytes and takes the same branch.
        ++malformed_batches_;
      }
    }
  }
  commands_applied_ += applied;
  return applied;
}

}  // namespace mahimahi::app
