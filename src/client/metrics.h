// Benchmark metrics: weighted latency distribution and throughput window.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/time.h"

namespace mahimahi {

// Per-stage counters of the block screen (validator/ingest.h): structural
// validation, then crypto verification. screen_blocks counts one batch into
// its ScreenedBatch, and the core adds every admitted batch to its totals,
// whichever thread screened it. The acceptance counters track where each
// accepted block's signature decision came from, not raw cycles; with
// verify_signature disabled, accepted blocks increment neither.
struct IngestStats {
  std::uint64_t structurally_rejected = 0;  // failed the cheap structural stage
  std::uint64_t crypto_rejected = 0;        // bad signature or coin share
  std::uint64_t cache_hits = 0;             // verifier-cache hit skipped ed25519
  std::uint64_t verified = 0;               // paid full crypto verification
};

// Collects (latency, weight) samples; weight = transactions represented by
// the sample (a committed TxBatch contributes its count).
class LatencyRecorder {
 public:
  void record(TimeMicros latency, std::uint64_t weight) {
    if (weight == 0) return;
    samples_.push_back({latency, weight});
    sorted_ = false;
    total_weight_ += weight;
    weighted_sum_ += static_cast<double>(latency) * static_cast<double>(weight);
  }

  std::uint64_t count() const { return total_weight_; }
  bool empty() const { return samples_.empty(); }

  double mean_seconds() const {
    return total_weight_ == 0 ? 0.0 : weighted_sum_ / total_weight_ / kMicrosPerSecond;
  }

  // Weighted percentile, p in [0, 100]. Sorts lazily: the first percentile
  // query after a batch of record()s pays one sort; further queries (benches
  // report p50/p90/p99/p999 in a row) walk the already-sorted samples.
  double percentile_seconds(double p) const {
    if (samples_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end(),
                [](const Sample& a, const Sample& b) { return a.latency < b.latency; });
      sorted_ = true;
    }
    const double target = total_weight_ * p / 100.0;
    std::uint64_t cumulative = 0;
    for (const auto& sample : samples_) {
      cumulative += sample.weight;
      if (static_cast<double>(cumulative) >= target) {
        return to_seconds(sample.latency);
      }
    }
    return to_seconds(samples_.back().latency);
  }

 private:
  struct Sample {
    TimeMicros latency;
    std::uint64_t weight;
  };
  // record() appends and clears sorted_; percentile_seconds() sorts in place
  // at most once per dirty batch. Mutable: sorting does not change the
  // distribution, so the cache is logically const.
  mutable std::vector<Sample> samples_;
  mutable bool sorted_ = false;
  std::uint64_t total_weight_ = 0;
  double weighted_sum_ = 0.0;
};

}  // namespace mahimahi
