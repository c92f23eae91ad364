// Sharded transaction mempool with admission control and fair draining.
//
// Replaces the single-FIFO mempool that lived behind the validator core: that
// queue was touched only from the loop thread, so client submission
// serialized behind consensus I/O. Here the pool is N lock-striped shards —
// submission from any thread takes one shard mutex, never the loop thread's
// time — mirroring the Narwhal-style separation of transaction ingestion from
// the DAG layer that Mysticeti and Bullshark lean on.
//
// Sharding key: the CLIENT, not the batch. A batch's id carries the
// submitting client in its upper 32 bits (the simulator packs
// origin-validator and client index there; real deployments assign each
// client stream an id range), so one client's batches always land in one
// shard and per-client FIFO order survives sharding. Different clients spread
// across shards and contend on different mutexes.
//
// Admission control (the front door, applied per batch, first failure wins):
//   1. duplicate rejection — a digest set per shard of the batches currently
//      resident; the digest covers id + shape + payload digest but NOT the
//      client submit timestamp, so a client retrying the same batch dedups,
//   2. per-client byte quota — one client cannot squeeze the others out,
//   3. per-shard batch-count cap — bounds queue memory,
//   4. global byte cap — bounds pool memory across all shards.
// Every verdict is reported back to the caller (AdmitResult) so drivers can
// signal explicit backpressure to clients instead of silently dropping.
//
// Draining (the proposal path, loop thread) is round-robin across non-empty
// shards, one batch per visit, under per-drain batch/byte budgets; the cursor
// persists across drains so no shard is starved even when another always has
// traffic. Given a fixed shard state and cursor, the drain sequence is
// deterministic — block proposal stays reproducible.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/digest.h"
#include "types/transaction.h"

namespace mahimahi {

struct MempoolConfig {
  // Lock stripes. Clamped to >= 1; keep it a small power of two.
  std::size_t shards = 4;
  // Global byte cap across all shards (admission check 4).
  std::uint64_t max_pool_bytes = 512ull * 1024 * 1024;
  // Resident-byte quota per client key (admission check 2).
  std::uint64_t max_client_bytes = 128ull * 1024 * 1024;
  // Batch-count cap per shard (admission check 3).
  std::size_t max_shard_batches = 262'144;
};

// Admission verdicts, ordered by check sequence. Everything except kAccepted
// is explicit backpressure: the batch was NOT taken and the caller should
// tell the client to retry later (or, for kDuplicate, that it already got in).
enum class AdmitResult : std::uint8_t {
  kAccepted = 0,
  kDuplicate,     // identical batch already resident in the pool
  kClientQuota,   // this client's resident bytes would exceed the quota
  kShardFull,     // the client's shard is at its batch-count cap
  kPoolFull,      // the global byte cap would be exceeded
};

const char* to_string(AdmitResult result);
inline bool admitted(AdmitResult result) { return result == AdmitResult::kAccepted; }

// Cumulative admission counters (monotone; read with relaxed ordering).
struct MempoolStats {
  std::uint64_t accepted = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t client_quota = 0;
  std::uint64_t shard_full = 0;
  std::uint64_t pool_full = 0;

  std::uint64_t rejected() const {
    return duplicate + client_quota + shard_full + pool_full;
  }
};

class ShardedMempool {
 public:
  // Batch ids carry the client identity in their upper bits; the low 32 bits
  // are the client's own sequence number.
  static constexpr std::uint32_t kClientKeyShift = 32;

  static std::uint64_t client_key(const TxBatch& batch) {
    return batch.id >> kClientKeyShift;
  }

  // Content digest used for duplicate rejection: H(id, count, tx_bytes,
  // payload_digest). Deliberately excludes `submitted_at`: a client retry
  // re-stamps the batch but is still the same submission.
  static Digest batch_digest(const TxBatch& batch, const Digest& payload_digest);

  explicit ShardedMempool(MempoolConfig config = {});

  ShardedMempool(const ShardedMempool&) = delete;
  ShardedMempool& operator=(const ShardedMempool&) = delete;

  // Shard a client key maps to. Stable for the lifetime of the pool.
  std::size_t shard_for(std::uint64_t client_key) const;

  // Thread-safe admission. Hashes the payload once (TxBatch::hash_payload)
  // and stores the result as the batch's payload_digest, replacing whatever
  // the caller set: the block built from a drained batch commits to that
  // digest without hashing the payload again. On kAccepted the batch is
  // owned by the pool; every other verdict leaves the pool unchanged.
  AdmitResult submit(TxBatch batch);

  // Convenience: admit a burst, returning one verdict per batch (in order).
  std::vector<AdmitResult> submit_all(std::vector<TxBatch> batches);

  // Drains up to max_batches / max_bytes worth of batches, round-robin
  // across non-empty shards (one batch per shard per pass), resuming at the
  // cursor left by the previous drain. Per-client FIFO order is preserved
  // (a client lives in exactly one shard).
  //
  // Carry-over semantics (kept from the FIFO mempool): the FIRST batch of a
  // drain is taken even when it alone exceeds max_bytes — a batch larger
  // than the block byte budget must still be proposable, or it would wedge
  // its shard forever. Every subsequent batch respects the remaining budget;
  // the first one that would overflow it ends the drain.
  //
  // Drained batches carry the payload_digest computed at admission.
  //
  // Thread-safe, but intended to be called from the proposal path only.
  std::vector<TxBatch> drain(std::size_t max_batches, std::uint64_t max_bytes);

  bool empty() const { return size() == 0; }
  std::size_t size() const { return total_batches_.load(std::memory_order_relaxed); }
  std::uint64_t bytes() const { return total_bytes_.load(std::memory_order_relaxed); }
  std::size_t shard_count() const { return shards_.size(); }
  // Batches resident in one shard (for tests and load introspection).
  std::size_t shard_size(std::size_t shard) const;

  const MempoolConfig& config() const { return config_; }
  MempoolStats stats() const;

 private:
  // A queued batch plus its admission digest, kept so the drain path can
  // maintain the resident set without re-hashing on the loop thread.
  struct Entry {
    TxBatch batch;
    Digest digest;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::deque<Entry> queue;
    // Digests of the batches currently in `queue` (duplicate rejection).
    std::unordered_set<Digest, DigestHasher> resident;
    // Resident bytes per client key (quota enforcement). Entries are erased
    // when they reach zero so the map tracks only active clients.
    std::unordered_map<std::uint64_t, std::uint64_t> client_bytes;
  };

  MempoolConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;  // unique_ptr: mutex is immovable

  std::atomic<std::uint64_t> total_bytes_{0};
  std::atomic<std::size_t> total_batches_{0};

  // Serializes drains and guards the fairness cursor. Submissions never take
  // this mutex.
  std::mutex drain_mutex_;
  std::size_t cursor_ = 0;  // guarded by drain_mutex_

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> duplicate_{0};
  std::atomic<std::uint64_t> client_quota_{0};
  std::atomic<std::uint64_t> shard_full_{0};
  std::atomic<std::uint64_t> pool_full_{0};
};

}  // namespace mahimahi
