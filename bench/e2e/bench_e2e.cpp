// bench_e2e: the repository's end-to-end and per-layer benchmark driver.
//
// Runs ONE named workload per process and measures it from the outside only:
// it times its own calls into public functions (NodeRuntime::submit, the
// commit handler, app_state_digest(), SimHarness construction and run()) and
// reads public counters (metrics_registry().dump(), mempool_stats(),
// execution_stats(), SimResult). Nothing under src/ knows it exists.
//
// Workloads (README.md next to this file has the rationale and the sizing):
//   tcp-opaque-100k     4 NodeRuntimes over loopback TCP, default runtime
//                       config, MM-5 with 2 leaders, 100k tx/s of 512-byte
//                       opaque transactions. No WAL, no execution.
//   tcp-kv-durable-20k  The same committee at 20k tx/s of declared-key KV
//                       commands: execution, fsync group-commit WAL and
//                       certified checkpoint delta chains.
//   sim-wan-50          SimHarness, MM-4 with 2 leaders, n = 50, WAN latency,
//                       200k tx/s. Latency is virtual time.
//   sim-async-50        SimHarness, MM-5, n = 50, 16 crashed (= f), a burst
//                       delay adversary, virtual window of 2x --seconds.
// Each sim workload runs two same-seed simulations side by side.
//
// TCP load is open loop from one generator thread (this process's main
// thread): one batch per validator every 10 ms, each stamped with the time it
// was DUE, so a stall charges its wait to every batch queued behind it.
//
// Usage:
//   bench_e2e --workload NAME --seed N [--seconds S] [--scale F]
//             [--work-dir DIR] [--trace FILE]
//
//   --seconds  measured window: wall seconds on tcp-*, virtual on sim-*
//              (default 30)
//   --scale    multiplies warmup, window and drain deadline (0.1 = smoke)
//   --work-dir where the durable workload keeps its WAL directories
//   --trace    keep spans in memory and write them, with 1 Hz registry
//              scrapes, to FILE as JSON at exit
//
// Output: one `name value unit` line per metric, then one JSON line holding
// the correctness verdict, attempted/failed counts and every metric. Exit 0
// when every correctness check passed, 1 when one failed (the metrics are
// then invalid), 2 on a usage or environment error.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "client/kv_batches.h"
#include "client/metrics.h"
#include "net/node_runtime.h"
#include "sim/harness.h"

using namespace mahimahi;
namespace fs = std::filesystem;

namespace {

// --- Measurement helpers ------------------------------------------------------

TimeMicros cpu_micros(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<TimeMicros>(ts.tv_sec) * kMicrosPerSecond + ts.tv_nsec / 1000;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

void sleep_until_micros(TimeMicros when) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::microseconds(when)));
}

// Exact tx-weighted latency samples. A log2 registry bucket is a factor-2
// step and cannot resolve a 10% bound, so every percentile the benchmark
// reports comes from these.
struct LatencySamples {
  LatencyRecorder recorder;
  std::vector<TimeMicros> values;  // unweighted, for the beyond-p99 count

  void add(TimeMicros latency, std::uint64_t weight) {
    recorder.record(latency, weight);
    values.push_back(latency);
  }
  double percentile_ms(double p) const { return recorder.percentile_seconds(p) * 1e3; }
  double percentile_us(double p) const { return recorder.percentile_seconds(p) * 1e6; }
  double mean_us() const { return recorder.mean_seconds() * 1e6; }
  std::uint64_t beyond(double p) const {
    const auto cut = static_cast<TimeMicros>(std::llround(recorder.percentile_seconds(p) * 1e6));
    return static_cast<std::uint64_t>(
        std::count_if(values.begin(), values.end(), [cut](TimeMicros v) { return v > cut; }));
  }
};

// --- Report -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void end_to_end(std::string name, double value, std::string unit) {
    e2e_.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layer_.push_back({std::move(name), value, std::move(unit)});
  }
  void info(std::string name, double value, std::string unit) {
    info_.push_back({std::move(name), value, std::move(unit)});
  }
  void check(std::string name, bool ok) {
    if (!ok) std::fprintf(stderr, "bench_e2e: correctness check FAILED: %s\n", name.c_str());
    checks_.emplace_back(std::move(name), ok);
  }
  void flag(std::string name) { flags_.push_back(std::move(name)); }
  void set_counts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  bool correct() const {
    return !checks_.empty() &&
           std::all_of(checks_.begin(), checks_.end(), [](const auto& c) { return c.second; });
  }

  void print(const std::string& workload, std::uint64_t seed,
             const std::string& trace_path) const {
    for (const auto* group : {&e2e_, &layer_, &info_}) {
      for (const Metric& m : *group) {
        std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      }
    }
    std::printf("attempted %llu\nfailed %llu\n", static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    std::string json = "{\"workload\": \"" + workload + "\", \"seed\": " +
                       std::to_string(seed) + ", \"correct\": " +
                       (correct() ? "true" : "false") + ", \"checks\": {";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      json += (i ? ", \"" : "\"") + checks_[i].first + "\": " +
              (checks_[i].second ? "true" : "false");
    }
    json += "}, \"attempted\": " + std::to_string(attempted_) +
            ", \"failed\": " + std::to_string(failed_) + ", \"flags\": [";
    for (std::size_t i = 0; i < flags_.size(); ++i) {
      json += (i ? ", \"" : "\"") + flags_[i] + "\"";
    }
    json += "], \"end_to_end\": " + object(e2e_) + ", \"per_layer\": " + object(layer_) +
            ", \"info\": " + object(info_) + ", \"trace_file\": \"" + trace_path + "\"}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  static std::string number(double value) {
    if (!std::isfinite(value)) return "0";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
  }
  static std::string object(const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
             number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return out + "}";
  }

  std::vector<Metric> e2e_, layer_, info_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::string> flags_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- Tracing ------------------------------------------------------------------

struct Span {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;   // 0 = root
  std::uint64_t request;  // batch id; 0 when the span serves no single batch
  TimeMicros start;
  TimeMicros end;
  int validator;          // -1 = the bench process itself
};

// The spans of ONE recording thread. Ids carry the buffer's tag in the top
// bits, so buffers on different threads never need a shared counter.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint64_t tag) : next_id_(tag << 48) {}
  std::uint64_t add(const char* name, std::uint64_t parent, std::uint64_t request,
                    TimeMicros start, TimeMicros end, int validator) {
    const std::uint64_t id = ++next_id_;
    spans_.push_back({name, id, parent, request, start, end, validator});
    return id;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

// One 1 Hz registry scrape of one validator: counters and gauges by value,
// histograms as count and sum (their exact mean; never a log2 percentile).
struct Scrape {
  struct Value {
    std::string name;
    std::int64_t value;  // histograms: count
    std::uint64_t sum;   // histograms only
  };
  TimeMicros at;
  int validator;
  std::vector<Value> values;
};

Scrape reduce(const obs::MetricsSnapshot& snapshot, TimeMicros at, int validator) {
  Scrape scrape{at, validator, {}};
  for (const auto& entry : snapshot.entries) {
    switch (entry.kind) {
      case obs::MetricKind::kCounter:
        scrape.values.push_back({entry.name, static_cast<std::int64_t>(entry.value), 0});
        break;
      case obs::MetricKind::kGauge:
        scrape.values.push_back({entry.name, entry.gauge_value, 0});
        break;
      case obs::MetricKind::kHistogram:
        scrape.values.push_back({entry.name,
                                 static_cast<std::int64_t>(entry.histogram.count()),
                                 entry.histogram.sum});
        break;
    }
  }
  return scrape;
}

bool write_trace(const std::string& path, const std::string& workload, std::uint64_t seed,
                 TimeMicros origin, const std::vector<const SpanBuffer*>& buffers,
                 const std::vector<Scrape>& scrapes) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %llu, \"time_unit\": \"us\",\n\"spans\": [",
               workload.c_str(), static_cast<unsigned long long>(seed));
  bool first = true;
  for (const SpanBuffer* buffer : buffers) {
    for (const Span& s : buffer->spans()) {
      std::fprintf(out,
                   "%s\n{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                   "\"start\": %lld, \"end\": %lld, \"validator\": %d}",
                   first ? "" : ",", s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start - origin),
                   static_cast<long long>(s.end - origin), s.validator);
      first = false;
    }
  }
  std::fprintf(out, "],\n\"scrapes\": [");
  first = true;
  for (const Scrape& scrape : scrapes) {
    std::fprintf(out, "%s\n{\"at\": %lld, \"validator\": %d, \"metrics\": {", first ? "" : ",",
                 static_cast<long long>(scrape.at - origin), scrape.validator);
    for (std::size_t i = 0; i < scrape.values.size(); ++i) {
      const Scrape::Value& v = scrape.values[i];
      std::fprintf(out, "%s\"%s\": [%lld, %llu]", i ? ", " : "", v.name.c_str(),
                   static_cast<long long>(v.value), static_cast<unsigned long long>(v.sum));
    }
    std::fprintf(out, "}}");
    first = false;
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

// --- Options ------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  double scale = 1;
  std::string work_dir = "e2e-work";
  std::string trace_path;  // empty = untraced

  bool tracing() const { return !trace_path.empty(); }
  TimeMicros scaled(double s) const { return static_cast<TimeMicros>(s * scale * 1e6); }
};

// --- TCP committee workloads ----------------------------------------------------

constexpr ValidatorId kValidators = 4;
constexpr TimeMicros kTick = 10 * kMicrosPerMilli;
constexpr int kOriginShift = 40;
constexpr std::uint64_t kSequenceMask = (1ull << kOriginShift) - 1;
// Committees stood up per run; setup_s is their median.
constexpr int kTcpSetups = 5;
// Private keys per validator in the KV workload.
constexpr std::uint64_t kKvPrivateKeys = 4096;
// Round pacing floor of both TCP workloads. At 10 ms the processing share of
// a round is large enough that the round rate follows the host's speed
// (73-84 rounds/s across runs on a shared VM), and with it p50 (+-4%), p99 and
// CPU per tx; at 20 ms rounds are floor-paced (41.4-41.9 rounds/s).
constexpr TimeMicros kRoundDelay = 20 * kMicrosPerMilli;

struct TcpShape {
  bool kv;  // KV commands + execution + fsync WAL + certified checkpoints
  std::uint32_t tx_per_batch;
};

// Bench-side record of what one validator committed, written only on that
// validator's loop thread (the commit handler) and read by the main thread
// after stop() joined it — except the atomics, which the main thread polls
// while the committee runs.
struct OriginLog {
  OriginLog(std::size_t ticks, std::size_t window_first, std::size_t window_end,
            std::uint64_t span_tag)
      : committed_at(ticks, 0),
        window_first(window_first),
        window_end(window_end),
        spans(span_tag) {}

  std::vector<TimeMicros> committed_at;  // by tick; 0 = not committed at origin yet
  std::size_t window_first;
  std::size_t window_end;
  std::uint64_t duplicates = 0;          // origin batches committed twice
  std::uint64_t unknown = 0;             // origin batches no generator tick made
  std::vector<std::pair<SlotId, Digest>> slots;  // committed (slot, leader digest)
  SpanBuffer spans;
  bool tracing = false;
  std::atomic<bool> committed_any{false};
  std::atomic<std::uint64_t> window_committed{0};
  std::atomic<std::uint64_t> batches_committed{0};  // every origin
};

void on_commit(OriginLog& log, ValidatorId v, const CommittedSubDag& sub_dag) {
  const TimeMicros now = steady_now_micros();
  log.slots.emplace_back(sub_dag.slot, sub_dag.leader->digest());
  const TimeMicros created = sub_dag.leader->created_at();
  const std::uint64_t parent =
      log.tracing ? log.spans.add("core.commit", 0, 0, created > 0 ? created : now, now,
                                  static_cast<int>(v))
                  : 0;
  std::uint64_t batches = 0;
  for (const BlockPtr& block : sub_dag.blocks) {
    batches += block->batches().size();
    for (const TxBatch& batch : block->batches()) {
      if ((batch.id >> kOriginShift) != v) continue;
      const std::uint64_t sequence = batch.id & kSequenceMask;
      if (sequence == 0 || sequence > log.committed_at.size()) {
        ++log.unknown;
        continue;
      }
      const std::size_t tick = sequence - 1;
      if (log.committed_at[tick] != 0) {
        ++log.duplicates;
        continue;
      }
      log.committed_at[tick] = now;
      if (tick >= log.window_first && tick < log.window_end) {
        log.window_committed.fetch_add(1, std::memory_order_relaxed);
      }
      if (log.tracing) {
        log.spans.add("core.commit.batch", parent, batch.id, batch.submitted_at, now,
                      static_cast<int>(v));
      }
    }
  }
  log.batches_committed.fetch_add(batches, std::memory_order_relaxed);
  log.committed_any.store(true, std::memory_order_release);
}

// One running committee plus the bench-side logs its commit handlers write.
// Member order is teardown order in reverse: nodes stop before the logs their
// handlers write and the committee they reference are destroyed.
struct Cluster {
  Cluster() : setup(Committee::make_test(kValidators)) {}
  Committee::TestSetup setup;
  std::vector<std::unique_ptr<OriginLog>> logs;
  std::vector<std::unique_ptr<net::NodeRuntime>> nodes;
  std::string wal_root;  // empty = no persistence

  ~Cluster() {
    for (auto& node : nodes) node->stop();
    nodes.clear();
    if (!wal_root.empty()) {
      std::error_code ignored;
      fs::remove_all(wal_root, ignored);
    }
  }
};

std::unique_ptr<Cluster> start_cluster(const TcpShape& shape, std::size_t ticks,
                                       std::size_t window_first, std::size_t window_end,
                                       const std::string& wal_root, bool tracing) {
  auto cluster = std::make_unique<Cluster>();
  // Pre-claim ephemeral ports: every node needs the full mesh upfront.
  std::vector<net::NodeAddress> addresses(kValidators);
  {
    net::EventLoop probe_loop;
    std::vector<std::unique_ptr<net::TcpListener>> probes;
    for (ValidatorId v = 0; v < kValidators; ++v) {
      probes.push_back(
          std::make_unique<net::TcpListener>(probe_loop, 0, [](net::TcpConnectionPtr) {}));
      addresses[v].port = probes.back()->port();
    }
  }
  if (shape.kv) {
    cluster->wal_root = wal_root;
    fs::remove_all(wal_root);
    fs::create_directories(wal_root);
  }
  for (ValidatorId v = 0; v < kValidators; ++v) {
    cluster->logs.push_back(
        std::make_unique<OriginLog>(ticks, window_first, window_end, 1 + v));
    cluster->logs.back()->tracing = tracing;
    net::NodeRuntimeConfig config;
    config.validator.id = v;
    config.validator.committer = mahi_mahi_5(2);
    config.validator.committer.gc_depth = 50;
    config.validator.min_round_delay = kRoundDelay;
    if (shape.kv) {
      config.validator.execute_app = true;
      config.validator.execution_threads = 1;
      config.validator.wal_group_commit = true;
      config.validator.wal_fsync = true;
      config.validator.checkpoint_interval = 50;
      config.wal_path = wal_root + "/v" + std::to_string(v);
    }
    config.peers = addresses;
    auto node = std::make_unique<net::NodeRuntime>(cluster->setup.committee,
                                                   cluster->setup.keypairs[v].private_key,
                                                   config);
    node->set_commit_handler([log = cluster->logs.back().get(), v](const CommittedSubDag& s) {
      on_commit(*log, v, s);
    });
    cluster->nodes.push_back(std::move(node));
  }
  for (auto& node : cluster->nodes) node->start();
  return cluster;
}

bool wait_for_first_commits(const Cluster& cluster, TimeMicros deadline) {
  for (;;) {
    bool all = true;
    for (const auto& log : cluster.logs) {
      all = all && log->committed_any.load(std::memory_order_acquire);
    }
    if (all) return true;
    if (steady_now_micros() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Commit agreement: every pair of validators' committed (slot, leader digest)
// sequences is prefix-related.
bool prefixes_agree(const std::vector<std::vector<std::pair<SlotId, Digest>>>& sequences) {
  for (std::size_t a = 0; a < sequences.size(); ++a) {
    for (std::size_t b = a + 1; b < sequences.size(); ++b) {
      const std::size_t common = std::min(sequences[a].size(), sequences[b].size());
      for (std::size_t i = 0; i < common; ++i) {
        if (sequences[a][i].first != sequences[b][i].first ||
            !(sequences[a][i].second == sequences[b][i].second)) {
          return false;
        }
      }
    }
  }
  return true;
}

// Registry dumps of every validator at one instant, with the CPU clocks the
// window's cpu_us_per_tx is computed from.
struct Snapshot {
  TimeMicros process_cpu = 0;
  TimeMicros generator_cpu = 0;
  std::vector<obs::MetricsSnapshot> registries;
};

// Scrapes every validator's registry once per second on its own thread, so
// the scrape cost counts against the process and not the generator.
class Scraper {
 public:
  Scraper(const Cluster& cluster, bool enabled) : running_(enabled) {
    if (enabled) thread_ = std::thread([this, &cluster] { loop(cluster); });
  }
  ~Scraper() { finish(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  // Stops and joins the thread; returns what it scraped.
  std::vector<Scrape> finish() {
    running_.store(false);
    if (thread_.joinable()) thread_.join();
    return std::move(scrapes_);
  }

 private:
  void loop(const Cluster& cluster) {
    TimeMicros next = steady_now_micros();
    while (running_.load()) {
      for (std::size_t v = 0; v < cluster.nodes.size(); ++v) {
        scrapes_.push_back(reduce(cluster.nodes[v]->metrics_registry().dump(),
                                  steady_now_micros(), static_cast<int>(v)));
      }
      next += seconds(1);
      while (running_.load() && steady_now_micros() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
  }

  std::atomic<bool> running_;
  std::vector<Scrape> scrapes_;  // touched by the thread until finish() joins it
  std::thread thread_;
};

Snapshot take_snapshot(const Cluster& cluster) {
  Snapshot snap;
  snap.process_cpu = cpu_micros(CLOCK_PROCESS_CPUTIME_ID);
  snap.generator_cpu = cpu_micros(CLOCK_THREAD_CPUTIME_ID);
  for (const auto& node : cluster.nodes) snap.registries.push_back(node->metrics_registry().dump());
  return snap;
}

// Window deltas of registry metrics, summed over the committee.
struct WindowDelta {
  const Snapshot& begin;
  const Snapshot& end;

  double counter(std::string_view name) const {
    double total = 0;
    for (std::size_t v = 0; v < end.registries.size(); ++v) {
      total += static_cast<double>(end.registries[v].counter_value(name)) -
               static_cast<double>(begin.registries[v].counter_value(name));
    }
    return total;
  }
  double gauge(std::string_view name) const {
    double total = 0;
    for (std::size_t v = 0; v < end.registries.size(); ++v) {
      total += static_cast<double>(end.registries[v].gauge_value(name) -
                                   begin.registries[v].gauge_value(name));
    }
    return total;
  }
  // Exact window mean (sum / count) of a histogram across the committee.
  double mean(std::string_view name) const {
    double sum = 0;
    double count = 0;
    for (std::size_t v = 0; v < end.registries.size(); ++v) {
      const obs::HistogramSnapshot a = begin.registries[v].histogram(name);
      const obs::HistogramSnapshot b = end.registries[v].histogram(name);
      sum += static_cast<double>(b.sum) - static_cast<double>(a.sum);
      count += static_cast<double>(b.count()) - static_cast<double>(a.count());
    }
    return ratio(sum, count);
  }
};

TxBatch make_batch(const TcpShape& shape, ValidatorId v, std::size_t tick, TimeMicros due,
                   Rng& rng) {
  const std::uint64_t sequence = tick + 1;
  if (shape.kv) {
    // synth_kv_batch's shape (25% of commands on 4 shared hot keys, 16-byte
    // values, every tenth command a delete) over a BOUNDED private keyspace.
    // Its ever-new private keys would grow the replicated state without
    // bound, and with it every checkpoint cut's loop-thread work: the tail
    // would then measure run length instead of the code.
    std::string private_prefix = "s";
    private_prefix += std::to_string(v);
    private_prefix += '/';
    std::vector<app::KvCommand> commands;
    for (std::uint32_t i = 0; i < shape.tx_per_batch; ++i) {
      const bool hot = rng.uniform(100) < 25;
      std::string key = hot ? "hot/" : private_prefix;
      key += std::to_string(rng.uniform(hot ? 4 : kKvPrivateKeys));
      if (i % 10 == 9) {
        commands.push_back(app::KvCommand::del(std::move(key)));
      } else {
        std::string value(16, 'v');
        value[0] = static_cast<char>('a' + sequence % 26);
        commands.push_back(app::KvCommand::put(std::move(key), std::move(value)));
      }
    }
    return client::make_kv_batch((static_cast<std::uint64_t>(v) << kOriginShift) | sequence,
                                 commands, due);
  }
  TxBatch batch;
  batch.id = (static_cast<std::uint64_t>(v) << kOriginShift) | sequence;
  batch.submitted_at = due;
  batch.count = shape.tx_per_batch;
  batch.tx_bytes = 512;
  batch.payload.resize(static_cast<std::size_t>(batch.count) * batch.tx_bytes);
  for (std::size_t i = 0; i < batch.payload.size(); i += 8) {
    const std::uint64_t word = rng.next_u64();
    std::memcpy(batch.payload.data() + i, &word, std::min<std::size_t>(8, batch.payload.size() - i));
  }
  return batch;
}

int run_tcp(const Options& options, const TcpShape& shape, Report& report) {
  const TimeMicros origin = steady_now_micros();
  const auto warm_ticks = static_cast<std::size_t>(options.scaled(3) / kTick);
  const auto window_ticks =
      static_cast<std::size_t>(std::max<TimeMicros>(options.scaled(options.seconds) / kTick, 1));
  const std::size_t ticks = warm_ticks + window_ticks;
  const TimeMicros drain_limit = std::max(options.scaled(5), seconds(1));
  const std::string wal_root =
      (fs::absolute(options.work_dir) / ("wal-" + std::to_string(::getpid()))).string();

  // Setup: stand the committee up several times; each setup runs from
  // construction to the first committed sub-DAG at every validator. The last
  // one stays up and carries the load.
  SpanBuffer bench_spans(0);
  std::vector<double> setups;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kTcpSetups; ++i) {
    cluster.reset();
    const TimeMicros begin = steady_now_micros();
    cluster = start_cluster(shape, ticks, warm_ticks, ticks, wal_root, options.tracing());
    if (!wait_for_first_commits(*cluster, begin + seconds(30))) {
      std::fprintf(stderr, "bench_e2e: committee did not commit within 30 s of setup\n");
      return 2;
    }
    const TimeMicros end = steady_now_micros();
    setups.push_back(to_seconds(end - begin));
    if (options.tracing()) bench_spans.add("setup", 0, 0, begin, end, -1);
  }
  Cluster& c = *cluster;

  // 1 Hz registry scrapes (traced runs only), on their own thread so their
  // cost counts against the process, not the generator.
  Scraper scraper(c, options.tracing());

  // Open-loop generator: batches for tick k are built ahead, then submitted
  // at their due time; lateness is measured at the submit.
  Rng rng(options.seed);
  LatencySamples submit_us;
  LatencySamples late_us;
  const TimeMicros load_start = steady_now_micros() + millis(20);
  Snapshot window_begin;
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    const TimeMicros due = load_start + static_cast<TimeMicros>(tick) * kTick;
    std::vector<TxBatch> batches;
    for (ValidatorId v = 0; v < kValidators; ++v) {
      batches.push_back(make_batch(shape, v, tick, due, rng));
    }
    sleep_until_micros(due);
    if (tick >= warm_ticks) late_us.add(steady_now_micros() - due, 1);
    for (ValidatorId v = 0; v < kValidators; ++v) {
      const std::uint64_t id = batches[v].id;
      const TimeMicros before = steady_now_micros();
      c.nodes[v]->submit({std::move(batches[v])});
      const TimeMicros after = steady_now_micros();
      if (tick >= warm_ticks) submit_us.add(after - before, 1);
      if (options.tracing()) bench_spans.add("mempool.submit", 0, id, before, after, -1);
    }
    if (tick == warm_ticks) window_begin = take_snapshot(c);
  }
  const TimeMicros window_start = load_start + static_cast<TimeMicros>(warm_ticks) * kTick;
  const TimeMicros window_stop = load_start + static_cast<TimeMicros>(ticks) * kTick;
  sleep_until_micros(window_stop);
  const Snapshot window_end = take_snapshot(c);
  if (options.tracing()) bench_spans.add("load.window", 0, 0, window_start, window_stop, -1);

  // Drain: wait for every window batch to commit at its origin, and every
  // batch at every validator, so the state digests below cover one prefix.
  const std::uint64_t window_batches = static_cast<std::uint64_t>(window_ticks) * kValidators;
  const std::uint64_t all_batches = static_cast<std::uint64_t>(ticks) * kValidators;
  const TimeMicros drain_deadline = window_stop + drain_limit;
  bool everywhere = false;
  for (;;) {
    std::uint64_t committed = 0;
    everywhere = true;
    for (const auto& log : c.logs) {
      committed += log->window_committed.load();
      everywhere = everywhere && log->batches_committed.load() >= all_batches;
    }
    if ((committed >= window_batches && everywhere) || steady_now_micros() > drain_deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Execution drain + state agreement: app_state_digest() blocks until every
  // enqueued commit retired. Later sub-DAGs carry no batches, so validators
  // that committed every batch must hold the same state.
  std::vector<Digest> digests;
  std::vector<double> drain_ms;
  std::uint64_t access_violations = 0;
  std::uint64_t rejected = 0;
  double certs = 0;
  for (ValidatorId v = 0; v < kValidators; ++v) {
    const TimeMicros before = steady_now_micros();
    digests.push_back(c.nodes[v]->app_state_digest());
    const TimeMicros after = steady_now_micros();
    drain_ms.push_back(static_cast<double>(after - before) / 1e3);
    if (options.tracing()) bench_spans.add("exec.drain", 0, 0, before, after, static_cast<int>(v));
    access_violations += c.nodes[v]->execution_stats().access_violations;
    rejected += c.nodes[v]->mempool_stats().rejected();
    certs += static_cast<double>(c.nodes[v]->checkpoint_certs());
  }
  const std::vector<Scrape> scrapes = scraper.finish();
  for (auto& node : c.nodes) node->stop();

  // Everything below reads the logs after stop() joined the loop threads.
  LatencySamples finality;
  double committed_in_window = 0;
  std::uint64_t uncommitted = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t unknown = 0;
  std::vector<std::vector<std::pair<SlotId, Digest>>> sequences;
  for (const auto& log : c.logs) {
    for (std::size_t tick = 0; tick < ticks; ++tick) {
      const TimeMicros at = log->committed_at[tick];
      const TimeMicros due = load_start + static_cast<TimeMicros>(tick) * kTick;
      if (at >= window_start && at < window_stop) committed_in_window += shape.tx_per_batch;
      if (tick < warm_ticks) continue;
      if (at == 0) {
        ++uncommitted;
      } else {
        finality.add(at - due, shape.tx_per_batch);
      }
    }
    duplicates += log->duplicates;
    unknown += log->unknown;
    sequences.push_back(log->slots);
  }

  report.check("committed_prefix_agreement", prefixes_agree(sequences));
  report.check("window_batches_commit_once_at_origin", duplicates == 0 && unknown == 0);
  report.check("window_batches_committed", finality.recorder.count() > 0);
  if (everywhere) {
    report.check("app_state_digests_equal",
                 std::all_of(digests.begin(), digests.end(),
                             [&](const Digest& d) { return d == digests.front(); }));
  } else {
    // A validator still lacks batches at the drain deadline (a backlog, which
    // failed_pct counts): the digests cover different prefixes.
    report.flag("state_digests_not_comparable");
  }
  if (shape.kv) {
    report.check("no_access_violations", access_violations == 0);
    report.check("certified_cut_exists", certs >= 1);
  }

  const double window_s = to_seconds(window_stop - window_start);
  const double cpu_us =
      static_cast<double>((window_end.process_cpu - window_begin.process_cpu) -
                          (window_end.generator_cpu - window_begin.generator_cpu));
  // A window batch the mempool rejected never commits at its origin, so
  // `uncommitted` already counts it; `rejected` covers the whole run, warmup
  // included, and is reported on its own.
  const std::uint64_t failed = uncommitted;
  const double gen_late_p99_ms = late_us.percentile_ms(99);
  if (gen_late_p99_ms > to_seconds(kTick) * 1e3) report.flag("generator_late");
  report.set_counts(window_batches, failed);

  report.end_to_end("finality_p50_ms", finality.percentile_ms(50), "ms");
  report.end_to_end("finality_p99_ms", finality.percentile_ms(99), "ms");
  report.end_to_end("committed_tps", committed_in_window / window_s, "tx/s");
  report.end_to_end("cpu_us_per_tx", ratio(cpu_us, committed_in_window), "us");
  report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
  report.end_to_end("setup_s", median(setups), "s");
  report.end_to_end("delivered_pct",
                    100.0 * (1.0 - ratio(static_cast<double>(failed),
                                         static_cast<double>(window_batches))),
                    "%");

  const WindowDelta delta{window_begin, window_end};
  const double blocks = delta.counter("mm_committed_blocks_total");
  report.layer("mempool.submit_us_mean", submit_us.mean_us(), "us");
  report.layer("mempool.submit_us_p99", submit_us.percentile_us(99), "us");
  report.layer("mempool.rejected", static_cast<double>(rejected), "count");
  report.layer("net.syscalls_per_block",
               ratio(delta.counter("mm_io_submit_syscalls_total") +
                         delta.counter("mm_loop_wait_syscalls_total"),
                     blocks),
               "count");
  report.layer("net.bytes_sent_per_block", ratio(delta.counter("mm_io_bytes_sent_total"), blocks),
               "B");
  report.layer("net.loop_busy_us_per_block",
               ratio(delta.counter("mm_loop_busy_micros_total"), blocks), "us");
  report.layer("ingest.decode_us", delta.mean("mm_stage_decode_micros"), "us");
  report.layer("ingest.crypto_verify_us", delta.mean("mm_stage_crypto_verify_micros"), "us");
  report.layer("ingest.insert_queue_us", delta.mean("mm_stage_insert_queue_micros"), "us");
  report.layer("ingest.dropped_frames",
               delta.counter("mm_verify_frames_dropped_total") +
                   delta.counter("mm_decode_errors_total"),
               "count");
  report.layer("dag.insert_us", delta.mean("mm_stage_dag_insert_micros"), "us");
  report.layer("core.commit_wait_us", delta.mean("mm_stage_commit_wait_micros"), "us");
  report.layer("core.rounds_per_s", delta.gauge("mm_highest_round") / kValidators / window_s,
               "1/s");
  // The commit-rule outcome counters are only reachable through SimResult.
  for (const char* name : {"core.direct_commits", "core.indirect_commits", "core.direct_skips",
                           "core.indirect_skips", "sim.fetch_requests"}) {
    report.layer(name, 0, "count");
  }
  report.layer("wal.durable_us", delta.mean("mm_stage_wal_durable_micros"), "us");
  report.layer("wal.flush_us_per_group",
               ratio(delta.counter("mm_wal_flush_micros_total"),
                     delta.counter("mm_wal_groups_flushed_total")),
               "us");
  report.layer("wal.syscalls_per_block", ratio(delta.counter("mm_wal_flush_syscalls_total"), blocks),
               "count");
  report.layer("exec.execute_us", delta.mean("mm_stage_execute_micros"), "us");
  report.layer("exec.early_delivery_pct",
               100.0 * ratio(delta.counter("mm_exec_early_deliveries_total"),
                             delta.counter("mm_exec_batches_executed_total")),
               "%");
  report.layer("exec.delivery_finality_mean_ms", delta.mean("mm_finality_micros") / 1e3, "ms");
  report.layer("exec.drain_ms", *std::max_element(drain_ms.begin(), drain_ms.end()), "ms");
  report.layer("checkpoint.cuts", delta.counter("mm_checkpoints_written_total"), "count");
  report.layer("checkpoint.delta_cuts", delta.counter("mm_checkpoint_delta_cuts_total"), "count");
  report.layer("checkpoint.certs", delta.counter("mm_checkpoint_certs_total"), "count");
  report.layer("sim.cpu_s_per_virtual_s", 0, "s/s");
  report.layer("gen.late_p99_ms", gen_late_p99_ms, "ms");
  report.layer("obs.traced_cpu_us_per_tx",
               options.tracing() ? ratio(cpu_us, committed_in_window) : 0, "us");

  report.info("failed_pct",
              100.0 * ratio(static_cast<double>(failed), static_cast<double>(window_batches)),
              "%");
  report.info("mempool_rejected_batches", static_cast<double>(rejected), "count");
  report.info("uncommitted_window_batches", static_cast<double>(uncommitted), "count");
  report.info("finality_samples", static_cast<double>(finality.values.size()), "count");
  report.info("batches_beyond_p99", static_cast<double>(finality.beyond(99)), "count");
  report.info("offered_tps",
              static_cast<double>(window_batches) * shape.tx_per_batch / window_s, "tx/s");
  report.info("generator_cpu_s",
              to_seconds(window_end.generator_cpu - window_begin.generator_cpu), "s");

  if (options.tracing()) {
    std::vector<const SpanBuffer*> buffers{&bench_spans};
    for (const auto& log : c.logs) buffers.push_back(&log->spans);
    if (!write_trace(options.trace_path, options.workload, options.seed, origin, buffers,
                     scrapes)) {
      std::fprintf(stderr, "bench_e2e: cannot write trace %s\n", options.trace_path.c_str());
      return 2;
    }
  }
  return 0;
}

// --- Simulator workloads ------------------------------------------------------

// Harness constructions per run (setup_s is their median) and same-seed
// runs of the first kSimRuns of them, side by side on their own threads
// (cpu_us_per_tx is the median of their thread CPU times). A run is
// deterministic for its seed, so the two runs must report identical results;
// side by side they cost the wall time of one. Their CPU times agree to
// about 1%: what moves a sim's CPU time is the host over minutes, which
// neither more runs nor a longer window averages out.
// The remaining constructions are spaced out while the runs execute: a 15 ms
// construction otherwise times whatever the host does in that instant.
constexpr int kSimConstructions = 25;
constexpr int kSimRuns = 2;
constexpr TimeMicros kSimSetupSpacing = 400 * kMicrosPerMilli;

sim::SimConfig sim_config(const Options& options, bool async) {
  sim::SimConfig config;
  config.n = 50;
  config.leaders_per_round = 2;
  config.wan = true;
  config.load_tps = 200'000;
  config.verify_crypto = false;
  config.record_sequences = true;
  config.seed = options.seed;
  config.warmup = options.scaled(5);
  // The async tail is set by the adversary's 3 s burst period, so its window
  // spans twenty periods at the default --seconds; its 34 live validators
  // simulate about seven virtual seconds per wall second, sim-wan-50's fifty
  // about one.
  config.duration =
      config.warmup + options.scaled(async ? 2 * options.seconds : options.seconds);
  if (async) {
    config.protocol = sim::Protocol::kMahiMahi5;
    config.crashed = 16;
    config.adversary =
        std::make_shared<sim::BurstDelayAdversary>(seconds(3), millis(1200), millis(800));
  } else {
    config.protocol = sim::Protocol::kMahiMahi4;
  }
  return config;
}

// Everything a run reports in virtual time; equal seeds must reproduce it
// exactly.
bool same_virtual_result(const sim::SimResult& a, const sim::SimResult& b) {
  return a.p50_latency_s == b.p50_latency_s && a.p99_latency_s == b.p99_latency_s &&
         a.committed_tps == b.committed_tps && a.latency_samples == b.latency_samples &&
         a.max_round == b.max_round && a.fetch_requests == b.fetch_requests &&
         a.commit_stats.direct_commits == b.commit_stats.direct_commits &&
         a.commit_stats.direct_skips == b.commit_stats.direct_skips &&
         a.commit_stats.indirect_commits == b.commit_stats.indirect_commits &&
         a.commit_stats.indirect_skips == b.commit_stats.indirect_skips &&
         a.sequences == b.sequences;
}

int run_sim(const Options& options, bool async, Report& report) {
  const TimeMicros origin = steady_now_micros();
  const sim::SimConfig config = sim_config(options, async);
  SpanBuffer bench_spans(0);

  std::vector<double> setups;
  const auto construct = [&] {
    const TimeMicros begin = steady_now_micros();
    auto harness = std::make_unique<sim::SimHarness>(config);
    const TimeMicros end = steady_now_micros();
    setups.push_back(to_seconds(end - begin));
    if (options.tracing()) bench_spans.add("setup", 0, 0, begin, end, -1);
    return harness;
  };
  std::vector<std::unique_ptr<sim::SimHarness>> harnesses;
  for (int r = 0; r < kSimRuns; ++r) harnesses.push_back(construct());

  struct SimRun {
    sim::SimResult result;
    double cpu_us = 0;
    TimeMicros begin = 0;
    TimeMicros end = 0;
    std::exception_ptr error;
  };
  std::vector<SimRun> runs(kSimRuns);
  {
    std::vector<std::jthread> threads;  // joined at scope exit, on throw too
    for (int r = 0; r < kSimRuns; ++r) {
      threads.emplace_back([&harnesses, &runs, r] {
        SimRun& run = runs[r];
        try {
          run.begin = steady_now_micros();
          const TimeMicros cpu_before = cpu_micros(CLOCK_THREAD_CPUTIME_ID);
          run.result = harnesses[r]->run();
          run.cpu_us = static_cast<double>(cpu_micros(CLOCK_THREAD_CPUTIME_ID) - cpu_before);
          run.end = steady_now_micros();
        } catch (...) {
          run.error = std::current_exception();
        }
      });
    }
    for (int i = kSimRuns; i < kSimConstructions; ++i) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<TimeMicros>(kSimSetupSpacing * options.scale)));
      construct();
    }
  }
  std::vector<double> cpu_runs;
  std::vector<double> wall_runs;
  bool deterministic = true;
  for (const SimRun& run : runs) {
    if (run.error) std::rethrow_exception(run.error);
    cpu_runs.push_back(run.cpu_us);
    wall_runs.push_back(to_seconds(run.end - run.begin));
    deterministic = deterministic && same_virtual_result(runs.front().result, run.result);
    if (options.tracing()) bench_spans.add("sim.run", 0, 0, run.begin, run.end, -1);
  }
  const sim::SimResult& result = runs.front().result;
  const double cpu_us = median(cpu_runs);

  // Live validators' delivered sequences must be prefix-related.
  bool agree = true;
  const std::uint32_t live = config.n - config.crashed;
  for (std::uint32_t a = 0; a < live && agree; ++a) {
    for (std::uint32_t b = a + 1; b < live && agree; ++b) {
      const auto& x = result.sequences[a];
      const auto& y = result.sequences[b];
      agree = std::equal(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(std::min(x.size(), y.size())),
                         y.begin());
    }
  }
  report.check("same_seed_runs_identical", deterministic);
  report.check("no_equivocation_cells", result.equivocation_cells == 0);
  report.check("live_sequences_prefix_agreement", agree);
  report.check("window_transactions_committed", result.latency_samples > 0);

  const double window_s = to_seconds(config.duration - config.warmup);
  const double duration_s = to_seconds(config.duration);
  const double committed = result.committed_tps * window_s;
  // A sim run observes no failed transaction: SimResult counts admission
  // rejects at validator 0's pool only, in batches, and the run stops at the
  // window's end without a drain. A lost transaction shows in committed_tps.
  const auto attempted = static_cast<std::uint64_t>(std::llround(result.submitted_tps * window_s));
  report.set_counts(attempted, 0);

  report.end_to_end("finality_p50_ms", result.p50_latency_s * 1e3, "ms");
  report.end_to_end("finality_p99_ms", result.p99_latency_s * 1e3, "ms");
  report.end_to_end("committed_tps", result.committed_tps, "tx/s");
  report.end_to_end("cpu_us_per_tx", ratio(cpu_us, committed), "us");
  report.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
  report.end_to_end("setup_s", median(setups), "s");
  report.end_to_end("delivered_pct", 100.0, "%");

  // Whole-run registry means: the sim's registry is stamped in virtual time.
  const obs::MetricsSnapshot& m = result.metrics;
  const auto mean = [&m](std::string_view name) { return m.histogram(name).mean(); };
  for (const char* name : {"mempool.submit_us_mean", "mempool.submit_us_p99"}) {
    report.layer(name, 0, "us");
  }
  report.layer("mempool.rejected", static_cast<double>(result.mempool_rejected), "count");
  report.layer("net.syscalls_per_block", 0, "count");
  report.layer("net.bytes_sent_per_block", 0, "B");
  report.layer("net.loop_busy_us_per_block", 0, "us");
  report.layer("ingest.decode_us", mean("mm_stage_decode_micros"), "us");
  report.layer("ingest.crypto_verify_us", mean("mm_stage_crypto_verify_micros"), "us");
  report.layer("ingest.insert_queue_us", mean("mm_stage_insert_queue_micros"), "us");
  report.layer("ingest.dropped_frames", 0, "count");
  report.layer("dag.insert_us", mean("mm_stage_dag_insert_micros"), "us");
  report.layer("core.commit_wait_us", mean("mm_stage_commit_wait_micros"), "us");
  report.layer("core.rounds_per_s", static_cast<double>(result.max_round) / duration_s, "1/s");
  report.layer("core.direct_commits", static_cast<double>(result.commit_stats.direct_commits),
               "count");
  report.layer("core.indirect_commits", static_cast<double>(result.commit_stats.indirect_commits),
               "count");
  report.layer("core.direct_skips", static_cast<double>(result.commit_stats.direct_skips),
               "count");
  report.layer("core.indirect_skips", static_cast<double>(result.commit_stats.indirect_skips),
               "count");
  report.layer("sim.fetch_requests", static_cast<double>(result.fetch_requests), "count");
  report.layer("wal.durable_us", mean("mm_stage_wal_durable_micros"), "us");
  report.layer("wal.flush_us_per_group", 0, "us");
  report.layer("wal.syscalls_per_block", 0, "count");
  report.layer("exec.execute_us", mean("mm_stage_execute_micros"), "us");
  report.layer("exec.early_delivery_pct", 0, "%");
  report.layer("exec.delivery_finality_mean_ms", mean("mm_finality_micros") / 1e3, "ms");
  report.layer("exec.drain_ms", 0, "ms");
  report.layer("checkpoint.cuts", static_cast<double>(result.checkpoints_written), "count");
  report.layer("checkpoint.delta_cuts", static_cast<double>(result.checkpoint_delta_cuts),
               "count");
  report.layer("checkpoint.certs", static_cast<double>(result.checkpoint_certs_formed), "count");
  report.layer("sim.cpu_s_per_virtual_s", cpu_us / 1e6 / duration_s, "s/s");
  report.layer("gen.late_p99_ms", 0, "ms");
  report.layer("obs.traced_cpu_us_per_tx", options.tracing() ? ratio(cpu_us, committed) : 0,
               "us");

  report.info("failed_pct", 0, "%");
  report.info("finality_samples", static_cast<double>(result.latency_samples), "count");
  report.info("offered_tps", result.submitted_tps, "tx/s");
  report.info("run_wall_s", median(wall_runs), "s");

  if (options.tracing() &&
      !write_trace(options.trace_path, options.workload, options.seed, origin, {&bench_spans},
                   {})) {
    std::fprintf(stderr, "bench_e2e: cannot write trace %s\n", options.trace_path.c_str());
    return 2;
  }
  return 0;
}

// --- Main -----------------------------------------------------------------------

constexpr const char* kWorkloads[] = {"tcp-opaque-100k", "tcp-kv-durable-20k", "sim-wan-50",
                                      "sim-async-50"};

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload NAME --seed N [--seconds S] [--scale F]\n"
               "                 [--work-dir DIR] [--trace FILE]\n"
               "workloads: tcp-opaque-100k tcp-kv-durable-20k sim-wan-50 sim-async-50\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--scale") {
      options.scale = std::stod(value);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace") {
      options.trace_path = value;
    } else {
      return false;
    }
  }
  return options.seconds > 0 && options.scale > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    if (!parse(argc, argv, options)) return usage("bad arguments");
  } catch (const std::exception&) {
    return usage("bad number");
  }
  const bool known = std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                                 [&](const char* w) { return options.workload == w; });
  if (!known) return usage("unknown workload");

  Report report;
  int status = 0;
  try {
    if (options.workload == "tcp-opaque-100k") {
      status = run_tcp(options, TcpShape{false, 250}, report);
    } else if (options.workload == "tcp-kv-durable-20k") {
      status = run_tcp(options, TcpShape{true, 50}, report);
    } else {
      status = run_sim(options, options.workload == "sim-async-50", report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
  if (status != 0) return status;
  report.print(options.workload, options.seed, options.trace_path);
  return report.correct() ? 0 : 1;
}
