#include "mempool/mempool.h"

#include <algorithm>

#include "crypto/blake2b.h"

namespace mahimahi {

const char* to_string(AdmitResult result) {
  switch (result) {
    case AdmitResult::kAccepted: return "accepted";
    case AdmitResult::kDuplicate: return "duplicate";
    case AdmitResult::kClientQuota: return "client-quota";
    case AdmitResult::kShardFull: return "shard-full";
    case AdmitResult::kPoolFull: return "pool-full";
  }
  return "?";
}

Digest ShardedMempool::batch_digest(const TxBatch& batch, const Digest& payload_digest) {
  std::uint8_t preimage[16 + 32];
  for (int i = 0; i < 8; ++i) {
    preimage[i] = static_cast<std::uint8_t>(batch.id >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    preimage[8 + i] = static_cast<std::uint8_t>(batch.count >> (8 * i));
    preimage[12 + i] = static_cast<std::uint8_t>(batch.tx_bytes >> (8 * i));
  }
  std::copy(payload_digest.bytes.begin(), payload_digest.bytes.end(), preimage + 16);
  return crypto::Blake2b::hash256({preimage, sizeof(preimage)});
}

ShardedMempool::ShardedMempool(MempoolConfig config) : config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::size_t ShardedMempool::shard_for(std::uint64_t client_key) const {
  // Fibonacci hashing: client keys are often small consecutive integers
  // (validator-id × client-index packs), which modulo alone would map to
  // consecutive shards but a committee-aligned stride would alias.
  return static_cast<std::size_t>((client_key * 0x9e3779b97f4a7c15ull) >> 32) %
         shards_.size();
}

AdmitResult ShardedMempool::submit(TxBatch batch) {
  const std::uint64_t batch_bytes = batch.wire_bytes();
  const std::uint64_t client = client_key(batch);
  batch.payload_digest = TxBatch::hash_payload(batch.payload);
  const Digest digest = batch_digest(batch, *batch.payload_digest);
  Shard& shard = *shards_[shard_for(client)];

  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.resident.contains(digest)) {
      duplicate_.fetch_add(1, std::memory_order_relaxed);
      return AdmitResult::kDuplicate;
    }
    const std::uint64_t client_resident = [&] {
      const auto it = shard.client_bytes.find(client);
      return it == shard.client_bytes.end() ? 0ull : it->second;
    }();
    if (client_resident + batch_bytes > config_.max_client_bytes) {
      client_quota_.fetch_add(1, std::memory_order_relaxed);
      return AdmitResult::kClientQuota;
    }
    if (shard.queue.size() >= config_.max_shard_batches) {
      shard_full_.fetch_add(1, std::memory_order_relaxed);
      return AdmitResult::kShardFull;
    }
    // Global cap: reserve optimistically, roll back on overflow. The
    // reservation happens under the shard lock only for accounting clarity;
    // the atomic itself is what makes the cap pool-wide.
    const std::uint64_t prior = total_bytes_.fetch_add(batch_bytes,
                                                       std::memory_order_relaxed);
    if (prior + batch_bytes > config_.max_pool_bytes) {
      total_bytes_.fetch_sub(batch_bytes, std::memory_order_relaxed);
      pool_full_.fetch_add(1, std::memory_order_relaxed);
      return AdmitResult::kPoolFull;
    }

    shard.resident.insert(digest);
    shard.client_bytes[client] = client_resident + batch_bytes;
    shard.queue.push_back(Entry{std::move(batch), digest});
    // Inside the critical section: a drain popping this batch must never
    // see its decrement land before our increment (size() would wrap).
    total_batches_.fetch_add(1, std::memory_order_relaxed);
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  return AdmitResult::kAccepted;
}

std::vector<AdmitResult> ShardedMempool::submit_all(std::vector<TxBatch> batches) {
  std::vector<AdmitResult> results;
  results.reserve(batches.size());
  for (auto& batch : batches) results.push_back(submit(std::move(batch)));
  return results;
}

std::vector<TxBatch> ShardedMempool::drain(std::size_t max_batches,
                                           std::uint64_t max_bytes) {
  std::lock_guard<std::mutex> drain_lock(drain_mutex_);
  std::vector<TxBatch> out;
  std::uint64_t taken_bytes = 0;
  // One batch per non-empty shard per pass; a full lap of empty shards (or a
  // budget hit) ends the drain. The cursor is left at the first shard NOT
  // drained from, so it gets first service next time — no shard starves
  // behind a perpetually busy neighbour.
  std::size_t shard_index = cursor_ % shards_.size();
  std::size_t empty_streak = 0;
  while (out.size() < max_batches && empty_streak < shards_.size()) {
    Shard& shard = *shards_[shard_index];
    bool took = false;
    bool budget_hit = false;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (!shard.queue.empty()) {
        const std::uint64_t batch_bytes = shard.queue.front().batch.wire_bytes();
        // Carry-over: only the drain's first batch may exceed max_bytes
        // (see header). Anything later that would overflow ends the drain.
        if (!out.empty() && taken_bytes + batch_bytes > max_bytes) {
          budget_hit = true;
        } else {
          Entry entry = std::move(shard.queue.front());
          shard.queue.pop_front();
          shard.resident.erase(entry.digest);
          TxBatch batch = std::move(entry.batch);
          const std::uint64_t client = client_key(batch);
          const auto it = shard.client_bytes.find(client);
          if (it != shard.client_bytes.end()) {
            it->second -= batch_bytes;
            if (it->second == 0) shard.client_bytes.erase(it);
          }
          taken_bytes += batch_bytes;
          out.push_back(std::move(batch));
          total_bytes_.fetch_sub(batch_bytes, std::memory_order_relaxed);
          total_batches_.fetch_sub(1, std::memory_order_relaxed);
          took = true;
        }
      }
    }
    if (budget_hit) break;
    if (took) {
      empty_streak = 0;
    } else {
      ++empty_streak;
    }
    shard_index = (shard_index + 1) % shards_.size();
  }
  cursor_ = shard_index;
  return out;
}

std::size_t ShardedMempool::shard_size(std::size_t shard) const {
  std::lock_guard<std::mutex> lock(shards_[shard]->mutex);
  return shards_[shard]->queue.size();
}

MempoolStats ShardedMempool::stats() const {
  MempoolStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.duplicate = duplicate_.load(std::memory_order_relaxed);
  stats.client_quota = client_quota_.load(std::memory_order_relaxed);
  stats.shard_full = shard_full_.load(std::memory_order_relaxed);
  stats.pool_full = pool_full_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mahimahi
