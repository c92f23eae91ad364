// Digest-keyed signature-verification cache.
//
// A block reaches a validator several times — broadcast by its author,
// relayed in fetch responses, replayed after reconnects — and ed25519
// verification is the most expensive per-block CPU cost (see
// bench_micro_crypto). Since the signature covers the digest and the digest
// is recomputed from the received bytes on deserialization, "this digest
// verified once" is a stable fact: later copies with the same digest need no
// second verification.
//
// Bounded FIFO: the cache holds at most `capacity` digests and evicts the
// oldest. Internally locked: a cache may be shared across validator cores in
// one process (the simulator, in-memory test clusters) and, in the TCP
// runtime, consulted by the verify workers off the loop thread. The
// check-then-insert sequence is deliberately not atomic — the worst case is
// one redundant verification, never a missed one.
//
// Security note: only *successful* verifications are cached. A negative
// cache would let an attacker poison a digest before the honest author's
// block arrives; failures are rare (they cost the sender a dropped frame)
// and may stay slow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_set>

#include "crypto/digest.h"

namespace mahimahi {

class VerifierCache {
 public:
  explicit VerifierCache(std::size_t capacity = 1 << 16) : capacity_(capacity) {}

  // Has this digest's signature already been verified?
  bool contains(const Digest& digest) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.contains(digest);
  }

  // Locked lookup-and-count in one acquisition: returns true and counts a
  // hit when present, else counts a miss. The crypto stage's single entry
  // point into the cache (one lock per block, and the counter
  // always matches the lookup that actually happened).
  bool check_and_count(const Digest& digest) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.contains(digest)) {
      ++hits_;
      return true;
    }
    ++misses_;
    return false;
  }

  // Records a successful verification; evicts the oldest entry when full.
  void insert(const Digest& digest) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!index_.insert(digest).second) return;  // already cached
    order_.push_back(digest);
    if (order_.size() > capacity_) {
      index_.erase(order_.front());
      order_.pop_front();
    }
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return order_.size();
  }
  std::size_t capacity() const { return capacity_; }

  // Instrumentation for tests and benches.
  std::uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }
  std::uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
  }

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<Digest> order_;
  std::unordered_set<Digest, DigestHasher> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace mahimahi
