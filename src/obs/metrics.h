// Unified metrics registry: named counters, gauges, and log2-scale latency
// histograms shared by every thread of a validator.
//
// Design constraints, in order:
//
//   * The hot path is one relaxed atomic add. Counters and histograms stripe
//     their cells across kMetricShards cache-line-padded shards indexed by a
//     per-thread stripe id, so the loop thread, the worker pool, and the
//     WAL writer never contend on the same line. There is no lock anywhere on
//     the write path.
//   * Reads merge. value()/snapshot() sum the shards; they are approximate
//     under concurrent writes (each cell is read atomically, the sum is not a
//     consistent cut) — exactly the semantics a scraper wants.
//   * Histograms are fixed-bucket log2 scale: bucket i counts values v with
//     std::bit_width(v) == i, i.e. bucket 0 holds v == 0 and bucket i >= 1
//     holds v in [2^(i-1), 2^i). Upper bounds are exact integers (2^i - 1),
//     merging two snapshots is element-wise addition, and recording is a
//     bit_width + two relaxed adds. Values are opaque integers; by convention
//     latency histograms record microseconds.
//   * Metrics are created once at setup time through the Registry (mutex on
//     the name map, never on the hot path) and referenced by stable pointer
//     thereafter. Callback metrics bridge pre-existing bespoke atomics
//     (io-plane stats, mempool stats, WAL counters) into the same scrape
//     without migrating their storage.
//
// dump() produces a MetricsSnapshot — plain copyable data, sorted by name —
// consumed by the exporters (obs/export.h), the sim harness (deterministic:
// sim stamps use sim time), and benches.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mahimahi::obs {

// Power of two; 16 stripes is enough that the handful of threads a validator
// runs (loop, 2-4 pool workers, WAL writer, exec merge thread) rarely
// share a stripe, at 1 KiB per counter.
inline constexpr std::size_t kMetricShards = 16;

// Buckets 0..39 cover 0 .. 2^39-1; microsecond latencies above ~6.4 days
// saturate into the last bucket.
inline constexpr std::size_t kHistogramBuckets = 40;

namespace detail {

// Stable per-thread stripe index in [0, kMetricShards).
std::size_t shard_index();

struct alignas(64) ShardCell {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace detail

// Monotonic counter. add() is one relaxed fetch_add on this thread's stripe.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    cells_[detail::shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& cell : cells_) total += cell.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  std::array<detail::ShardCell, kMetricShards> cells_;
};

// Point-in-time signed value. set() is a single atomic store (last writer
// wins — gauges are not sharded because "set" does not commute); update_max()
// ratchets upward, for high-water marks like the worst loop stall.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void update_max(std::int64_t v) {
    std::int64_t seen = value_.load(std::memory_order_relaxed);
    while (v > seen && !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Merged, plain-data view of one histogram. buckets[i] counts recorded values
// with bit_width == i (see bucket_upper_bound). Copyable; merge() is
// element-wise addition, so per-validator snapshots aggregate to a fleet view.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t sum = 0;  // sum of value*weight, for mean()

  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (std::uint64_t b : buckets) total += b;
    return total;
  }
  void merge(const HistogramSnapshot& other) {
    for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
    sum += other.sum;
  }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
  }
  // Upper bound of the bucket holding the p-th percentile (p in [0,1]); the
  // true value is <= this. Chosen semantics, pinned by test_obs:
  //   * Empty histogram: 0 for every p (there is nothing to rank; callers
  //     must check count() if they need to distinguish "empty" from "fast").
  //   * Mass only in bucket 0 (all samples were 0, e.g. sub-microsecond
  //     latencies): 0 for every p — bucket 0's upper bound is exactly 0.
  //   * p <= 0 returns the first non-empty bucket's bound; p >= 1 returns
  //     the last non-empty bucket's bound (p100 of a single-sample histogram
  //     is that sample's bucket bound, never the histogram's max range).
  std::uint64_t percentile(double p) const;
};

// Inclusive upper bound of bucket i: 0, 1, 3, 7, 15, ... (2^i - 1).
constexpr std::uint64_t bucket_upper_bound(std::size_t i) {
  return i == 0 ? 0 : (i >= 64 ? ~0ull : (1ull << i) - 1);
}

// Fixed-bucket log2 histogram. record() costs a bit_width and two relaxed
// adds on this thread's stripe; weight folds in multiplicity (e.g. a finality
// sample weighted by the batch's transaction count) without a loop.
class Histogram {
 public:
  void record(std::int64_t value, std::uint64_t weight = 1) {
    if (weight == 0) return;
    const std::uint64_t v = value < 0 ? 0 : static_cast<std::uint64_t>(value);
    Shard& shard = shards_[detail::shard_index()];
    shard.buckets[bucket_of(v)].fetch_add(weight, std::memory_order_relaxed);
    shard.sum.fetch_add(v * weight, std::memory_order_relaxed);
  }
  static std::size_t bucket_of(std::uint64_t v) {
    const std::size_t w = static_cast<std::size_t>(std::bit_width(v));
    return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
  }
  HistogramSnapshot snapshot() const {
    HistogramSnapshot out;
    for (const Shard& shard : shards_) {
      for (std::size_t i = 0; i < kHistogramBuckets; ++i)
        out.buckets[i] += shard.buckets[i].load(std::memory_order_relaxed);
      out.sum += shard.sum.load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

// Plain-data dump of a whole registry, sorted by metric name (std::map order
// — deterministic, which the exporter golden tests rely on).
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    // kCounter: value is the count. kGauge: gauge_value. kHistogram: histogram.
    std::uint64_t value = 0;
    std::int64_t gauge_value = 0;
    HistogramSnapshot histogram;
  };
  std::string labels;  // e.g. `validator="3"`, rendered into every line
  std::vector<Entry> entries;

  const Entry* find(std::string_view name) const;
  // Convenience thin reads; 0 / empty when the metric is absent.
  std::uint64_t counter_value(std::string_view name) const;
  std::int64_t gauge_value(std::string_view name) const;
  HistogramSnapshot histogram(std::string_view name) const;
};

// Owner of all metrics for one validator (or one sim run). Creation takes a
// mutex and returns a stable reference; re-requesting a name returns the same
// object (kind must match — a kind clash is a programming error and throws).
class Registry {
 public:
  // labels: Prometheus label pairs without braces, e.g. `validator="3"`.
  explicit Registry(std::string labels = "");
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, const std::string& help = "");

  // Callback metrics: evaluated at dump() time on the dumping thread. They
  // bridge existing bespoke counters (io-plane atomics, mempool stats, WAL
  // introspection) into the scrape as thin reads; fn must stay valid for the
  // registry's lifetime. counter_fn renders as a Prometheus counter (the
  // callback must be monotonic), gauge_fn as a gauge.
  void counter_fn(const std::string& name, std::function<std::uint64_t()> fn,
                  const std::string& help = "");
  void gauge_fn(const std::string& name, std::function<std::int64_t()> fn,
                const std::string& help = "");

  // Merged snapshot of every metric, sorted by name. Callback metrics are
  // invoked here — dump from a thread that may touch their backing state.
  MetricsSnapshot dump() const;

  const std::string& labels() const { return labels_; }

 private:
  struct Metric {
    MetricKind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<std::uint64_t()> counter_callback;
    std::function<std::int64_t()> gauge_callback;
  };
  Metric& emplace(const std::string& name, MetricKind kind, const std::string& help);

  std::string labels_;
  mutable std::mutex mutex_;
  std::map<std::string, Metric> metrics_;
};

}  // namespace mahimahi::obs
