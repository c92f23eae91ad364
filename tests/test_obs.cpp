// Observability layer tests: histogram bucket math, cross-thread shard
// merging, registry + callback metrics, exporter golden output, lifecycle
// tracer semantics (commit-wait spans, finality weighting, FIFO eviction),
// the loop-stall watchdog, the lazily-sorted LatencyRecorder, structured log
// context, and deterministic sim-time spans end to end.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "client/metrics.h"
#include "common/log.h"
#include "core/commit_trace.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "sim/harness.h"
#include "types/block.h"
#include "validator/validator.h"

namespace mahimahi {
namespace {

using obs::bucket_upper_bound;
using obs::Histogram;
using obs::HistogramSnapshot;
using obs::kHistogramBuckets;

TEST(ObsHistogram, BucketBoundaries) {
  // bucket_of is bit_width: bucket 0 holds only 0, bucket i >= 1 holds
  // [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  for (std::size_t i = 1; i < kHistogramBuckets - 1; ++i) {
    // Both edges of every bucket land in it; the upper bound is inclusive.
    EXPECT_EQ(Histogram::bucket_of(1ull << (i - 1)), i) << i;
    EXPECT_EQ(Histogram::bucket_of(bucket_upper_bound(i)), i) << i;
  }
  // Values past the last bucket's range saturate into it.
  EXPECT_EQ(Histogram::bucket_of(~0ull), kHistogramBuckets - 1);
  EXPECT_EQ(bucket_upper_bound(0), 0u);
  EXPECT_EQ(bucket_upper_bound(1), 1u);
  EXPECT_EQ(bucket_upper_bound(4), 15u);
}

TEST(ObsHistogram, RecordWeightAndNegativeClamp) {
  Histogram h;
  h.record(5, 3);    // bucket 3, weight 3
  h.record(-17);     // clamps to 0 -> bucket 0
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count(), 4u);
  EXPECT_EQ(snap.buckets[3], 3u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.sum, 15u);
  EXPECT_DOUBLE_EQ(snap.mean(), 15.0 / 4.0);
}

TEST(ObsHistogram, PercentileWalksCumulative) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(10);   // bucket 4, ub 15
  for (int i = 0; i < 10; ++i) h.record(100);  // bucket 7, ub 127
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.percentile(0.50), 15u);
  EXPECT_EQ(snap.percentile(0.90), 15u);
  EXPECT_EQ(snap.percentile(0.95), 127u);
  EXPECT_EQ(snap.percentile(1.0), 127u);
  EXPECT_EQ(HistogramSnapshot{}.percentile(0.5), 0u);
}

TEST(ObsHistogram, PercentileEdgeCases) {
  // The pinned semantics documented on HistogramSnapshot::percentile.
  // Empty: 0 for every p, extremes included.
  EXPECT_EQ(HistogramSnapshot{}.percentile(0.0), 0u);
  EXPECT_EQ(HistogramSnapshot{}.percentile(1.0), 0u);
  // All mass in bucket 0 (every sample was 0): 0 for every p — not the
  // histogram's max range and not a sentinel.
  Histogram zeros;
  for (int i = 0; i < 100; ++i) zeros.record(0);
  const HistogramSnapshot zero_snap = zeros.snapshot();
  EXPECT_EQ(zero_snap.percentile(0.0), 0u);
  EXPECT_EQ(zero_snap.percentile(0.5), 0u);
  EXPECT_EQ(zero_snap.percentile(1.0), 0u);
  // A single sample is every percentile; p100 is its bucket bound (1000 ->
  // bucket 10, ub 1023), never the last populated bucket's theoretical max.
  Histogram one;
  one.record(1000);
  const HistogramSnapshot one_snap = one.snapshot();
  const std::uint64_t bound = bucket_upper_bound(Histogram::bucket_of(1000));
  EXPECT_EQ(bound, 1023u);
  EXPECT_EQ(one_snap.percentile(0.0), bound);
  EXPECT_EQ(one_snap.percentile(0.5), bound);
  EXPECT_EQ(one_snap.percentile(1.0), bound);
  // Out-of-range p clamps to the extremes rather than reading garbage.
  Histogram two;
  two.record(1);
  two.record(1000);
  EXPECT_EQ(two.snapshot().percentile(-0.5), 1u);
  EXPECT_EQ(two.snapshot().percentile(7.0), 1023u);
}

TEST(ObsHistogram, MergeIsElementwiseAddition) {
  Histogram a, b;
  a.record(3);
  b.record(3);
  b.record(1000, 2);
  HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count(), 4u);
  EXPECT_EQ(merged.buckets[2], 2u);
  EXPECT_EQ(merged.sum, 3u + 3u + 2000u);
}

TEST(ObsRegistry, CrossThreadShardMerge) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("c");
  obs::Histogram& histogram = registry.histogram("h");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.add();
        histogram.record(i % 64);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Every shard's contribution survives the merge, whatever stripe each
  // thread landed on.
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram.snapshot().count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsRegistry, SameNameReturnsSameMetricKindClashThrows) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("x");
  obs::Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(registry.gauge("x"), std::logic_error);
}

TEST(ObsRegistry, GaugeSemantics) {
  obs::Registry registry;
  obs::Gauge& gauge = registry.gauge("g");
  gauge.set(-5);
  EXPECT_EQ(gauge.value(), -5);
  gauge.add(15);
  EXPECT_EQ(gauge.value(), 10);
  gauge.update_max(7);  // lower: no effect
  EXPECT_EQ(gauge.value(), 10);
  gauge.update_max(42);
  EXPECT_EQ(gauge.value(), 42);
}

TEST(ObsRegistry, CallbackMetricsEvaluateAtDump) {
  obs::Registry registry;
  std::uint64_t source = 7;
  registry.counter_fn("bridged_total", [&] { return source; });
  registry.gauge_fn("bridged_gauge", [&] { return static_cast<std::int64_t>(-3); });
  source = 9;  // dump must see the value at dump time, not registration time
  const obs::MetricsSnapshot snap = registry.dump();
  EXPECT_EQ(snap.counter_value("bridged_total"), 9u);
  EXPECT_EQ(snap.gauge_value("bridged_gauge"), -3);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(ObsExport, PrometheusGolden) {
  obs::Registry registry("validator=\"3\"");
  registry.counter("mm_b_total", "A counter").add(5);
  registry.gauge("mm_c_gauge").set(-2);
  obs::Histogram& h = registry.histogram("mm_a_micros", "A histogram");
  h.record(0);
  h.record(3, 2);
  const std::string text = obs::render_prometheus(registry.dump());
  // std::map order: mm_a_micros, mm_b_total, mm_c_gauge. Buckets trim after
  // the last non-empty one (bucket 2, ub 3), then +Inf.
  const std::string expected =
      "# HELP mm_a_micros A histogram\n"
      "# TYPE mm_a_micros histogram\n"
      "mm_a_micros_bucket{validator=\"3\",le=\"0\"} 1\n"
      "mm_a_micros_bucket{validator=\"3\",le=\"1\"} 1\n"
      "mm_a_micros_bucket{validator=\"3\",le=\"3\"} 3\n"
      "mm_a_micros_bucket{validator=\"3\",le=\"+Inf\"} 3\n"
      "mm_a_micros_sum{validator=\"3\"} 6\n"
      "mm_a_micros_count{validator=\"3\"} 3\n"
      "# HELP mm_b_total A counter\n"
      "# TYPE mm_b_total counter\n"
      "mm_b_total{validator=\"3\"} 5\n"
      "# TYPE mm_c_gauge gauge\n"
      "mm_c_gauge{validator=\"3\"} -2\n";
  EXPECT_EQ(text, expected);
}

TEST(ObsExport, PrometheusNoLabels) {
  obs::Registry registry;
  registry.counter("plain_total").add(1);
  EXPECT_EQ(obs::render_prometheus(registry.dump()),
            "# TYPE plain_total counter\nplain_total 1\n");
}

TEST(ObsExport, JsonGolden) {
  obs::Registry registry("validator=\"3\"");
  registry.counter("mm_b_total").add(5);
  registry.gauge("mm_c_gauge").set(-2);
  obs::Histogram& h = registry.histogram("mm_a_micros");
  h.record(0);
  h.record(3, 2);
  const std::string expected =
      "{\"labels\":\"validator=\\\"3\\\"\","
      "\"counters\":{\"mm_b_total\":5},"
      "\"gauges\":{\"mm_c_gauge\":-2},"
      "\"histograms\":{\"mm_a_micros\":{\"count\":3,\"sum\":6,"
      "\"buckets\":[[0,1],[3,2]]}}}";
  EXPECT_EQ(obs::render_json(registry.dump()), expected);
}

// ----- Lifecycle tracer ------------------------------------------------------

class ObsTracerTest : public ::testing::Test {
 protected:
  ObsTracerTest() : setup_(Committee::make_test(4)) {}

  BlockPtr make_block(ValidatorId author, std::uint64_t marker,
                      TimeMicros submitted_at = 0, std::uint32_t count = 1) {
    std::vector<BlockRef> refs;
    for (ValidatorId v = 0; v < 4; ++v) {
      refs.push_back(Block::genesis(v, setup_.committee.coin()).ref());
    }
    TxBatch batch;
    batch.id = marker;
    batch.submitted_at = submitted_at;
    batch.count = count;
    return std::make_shared<const Block>(
        Block::make(author, 1, refs, {batch},
                    setup_.committee.coin().share(author, 1),
                    setup_.keypairs[author].private_key));
  }

  CommittedSubDag make_sub_dag(std::vector<BlockPtr> blocks) {
    CommittedSubDag sub_dag;
    sub_dag.slot = SlotId{1, 0};
    sub_dag.leader = blocks.back();
    sub_dag.blocks = std::move(blocks);
    return sub_dag;
  }

  Committee::TestSetup setup_;
};

TEST_F(ObsTracerTest, CommitWaitAndFinalitySpans) {
  obs::Registry registry;
  obs::LifecycleTracer tracer(registry);
  BlockPtr block = make_block(0, 1, /*submitted_at=*/100, /*count=*/10);
  tracer.block_inserted(block->digest(), 1'000);
  tracer.sub_dag_committed(make_sub_dag({block}), 5'000);

  const obs::MetricsSnapshot snap = registry.dump();
  const HistogramSnapshot wait = snap.histogram("mm_stage_commit_wait_micros");
  EXPECT_EQ(wait.count(), 1u);
  EXPECT_EQ(wait.sum, 4'000u);  // 5000 - 1000
  // Finality weighted by the batch's transaction count.
  const HistogramSnapshot finality = snap.histogram("mm_finality_micros");
  EXPECT_EQ(finality.count(), 10u);
  EXPECT_EQ(finality.sum, 10u * 4'900u);  // 5000 - 100 each
  EXPECT_EQ(tracer.nonmonotonic(), 0u);
  EXPECT_EQ(snap.counter_value("mm_trace_nonmonotonic_total"), 0u);
}

TEST_F(ObsTracerTest, UnstampedBatchesSkipFinality) {
  obs::Registry registry;
  obs::LifecycleTracer tracer(registry);
  // submitted_at == 0: drivers that do not stamp (the TCP runtime's wire
  // path) must not pollute finality with bogus epoch-start deltas.
  tracer.sub_dag_committed(make_sub_dag({make_block(0, 1, 0)}), 5'000);
  const obs::MetricsSnapshot snap = registry.dump();
  EXPECT_EQ(snap.histogram("mm_finality_micros").count(), 0u);
  EXPECT_EQ(snap.counter_value("mm_trace_finality_unstamped_total"), 1u);
}

TEST_F(ObsTracerTest, NonMonotonicStampsClampAndCount) {
  obs::Registry registry;
  obs::LifecycleTracer tracer(registry);
  tracer.record_stage(obs::Stage::kDecode, -5);
  EXPECT_EQ(tracer.nonmonotonic(), 1u);
  const HistogramSnapshot decode =
      registry.dump().histogram("mm_stage_decode_micros");
  EXPECT_EQ(decode.count(), 1u);
  EXPECT_EQ(decode.buckets[0], 1u);  // clamped to 0
  // A commit stamped before the batch's submit stamp clamps too.
  BlockPtr block = make_block(0, 2, /*submitted_at=*/9'000);
  tracer.sub_dag_committed(make_sub_dag({block}), 5'000);
  EXPECT_GE(tracer.nonmonotonic(), 2u);
}

TEST_F(ObsTracerTest, CommittedWithoutInsertStampIsSkipped) {
  obs::Registry registry;
  obs::LifecycleTracer tracer(registry);
  // No block_inserted call: commit-wait has no opening stamp and records
  // nothing (re-delivered or recovered blocks).
  tracer.sub_dag_committed(make_sub_dag({make_block(0, 3)}), 5'000);
  EXPECT_EQ(registry.dump().histogram("mm_stage_commit_wait_micros").count(), 0u);
}

TEST(ObsTracerEviction, InsertTableIsFifoBounded) {
  obs::Registry registry;
  obs::LifecycleTracer tracer(registry);
  // Synthetic digests: the table must cap at 2^16 without leaking.
  for (std::uint32_t i = 0; i < (1u << 16) + 100; ++i) {
    Digest d{};
    std::memcpy(d.bytes.data(), &i, sizeof(i));
    tracer.block_inserted(d, i);
  }
  // The oldest 100 aged out; a commit touching one of them records nothing.
  SUCCEED();
}

// ----- Watchdog --------------------------------------------------------------

TEST(ObsWatchdog, StallsPastBudgetCountAndRatchet) {
  obs::Registry registry;
  obs::LoopWatchdogOptions options;
  options.stall_budget = 100;
  options.warn_interval = 1'000'000;
  obs::LoopWatchdog watchdog(registry, options, "test");
  watchdog.observe_tick(50, 1'000);   // under budget
  watchdog.observe_tick(500, 2'000);  // stall
  watchdog.observe_tick(300, 3'000);  // stall, smaller
  EXPECT_EQ(watchdog.stalls(), 2u);
  const obs::MetricsSnapshot snap = registry.dump();
  EXPECT_EQ(snap.counter_value("mm_loop_stalls_total"), 2u);
  EXPECT_EQ(snap.gauge_value("mm_loop_max_stall_micros"), 500);
  EXPECT_EQ(snap.histogram("mm_loop_tick_busy_micros").count(), 3u);
}

// ----- LatencyRecorder (lazy sort) -------------------------------------------

TEST(LatencyRecorderTest, PercentilesResortAfterNewSamples) {
  LatencyRecorder recorder;
  recorder.record(3'000'000, 1);
  recorder.record(1'000'000, 1);
  recorder.record(2'000'000, 1);
  // First read sorts lazily.
  EXPECT_DOUBLE_EQ(recorder.percentile_seconds(50), 2.0);
  EXPECT_DOUBLE_EQ(recorder.percentile_seconds(100), 3.0);
  // A new out-of-order sample must invalidate the cached sort.
  recorder.record(500'000, 1);
  EXPECT_DOUBLE_EQ(recorder.percentile_seconds(25), 0.5);
  EXPECT_DOUBLE_EQ(recorder.percentile_seconds(50), 1.0);
  EXPECT_EQ(recorder.count(), 4u);
  // Weighted samples count per transaction.
  LatencyRecorder weighted;
  weighted.record(1'000'000, 9);
  weighted.record(2'000'000, 1);
  EXPECT_DOUBLE_EQ(weighted.percentile_seconds(50), 1.0);
  EXPECT_DOUBLE_EQ(weighted.percentile_seconds(95), 2.0);
}

// ----- Structured log context ------------------------------------------------

TEST(LogContext, FormatLinePrependsContext) {
  set_log_context("");
  EXPECT_EQ(detail::format_line(LogLevel::kWarn, "plain"), "[WARN ] plain");
  set_log_context("v3/wal");
  EXPECT_EQ(detail::format_line(LogLevel::kInfo, "hello"), "[INFO ] [v3/wal] hello");
  set_log_context("");
}

// ----- Deterministic sim-time spans ------------------------------------------

TEST(ObsSimSpans, MonotonicAndDeterministic) {
  sim::SimConfig config;
  config.n = 4;
  config.wan = false;
  config.load_tps = 500;
  config.duration = seconds(8);
  config.warmup = seconds(2);
  config.seed = 7;
  const sim::SimResult a = sim::run_simulation(config);
  // Virtual-time stamps can never run backwards, and every committed batch
  // carries a sim submit stamp, so finality is populated and exact.
  EXPECT_EQ(a.metrics.counter_value("mm_trace_nonmonotonic_total"), 0u);
  EXPECT_GT(a.metrics.histogram("mm_finality_micros").count(), 0u);
  EXPECT_GT(a.metrics.histogram("mm_stage_commit_wait_micros").count(), 0u);
  EXPECT_EQ(a.metrics.counter_value("mm_committed_transactions_total"),
            static_cast<std::uint64_t>(a.committed_tps * 6.0 + 0.5));
  // Same config, same seed: the whole dump is reproducible byte for byte.
  const sim::SimResult b = sim::run_simulation(config);
  EXPECT_EQ(obs::render_json(a.metrics), obs::render_json(b.metrics));
}

// ----- Flight recorder -------------------------------------------------------

TEST(FlightRecorder, RecordSnapshotAndPayloads) {
  obs::FlightRecorder recorder;
  recorder.label_thread("loop");
  recorder.record(obs::FlightEventType::kFrameRx, 100, /*a=*/3, /*b=*/4096);
  recorder.record(obs::FlightEventType::kBlockInsert, 250, /*a=*/1, /*b=*/17);
  recorder.record(obs::FlightEventType::kCommit, 900, /*a=*/2, /*b=*/20);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, obs::FlightEventType::kFrameRx);
  EXPECT_EQ(events[0].at, 100);
  EXPECT_EQ(events[0].a, 3u);
  EXPECT_EQ(events[0].b, 4096u);
  EXPECT_EQ(events[0].label, "loop");
  EXPECT_EQ(events[2].type, obs::FlightEventType::kCommit);
  EXPECT_EQ(recorder.ring_count(), 1u);
  EXPECT_EQ(obs::flight_event_name(events[2].type), "commit");
}

TEST(FlightRecorder, UnlabelledThreadRecordsWithAnEmptyLabel) {
  // A thread that records without label_thread() registers its ring with an
  // empty label (a view with a null data pointer), which must never reach
  // memcpy.
  obs::FlightRecorder recorder;
  std::thread([&recorder] {
    recorder.record(obs::FlightEventType::kFrameTx, 7, /*a=*/1, /*b=*/2);
  }).join();
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at, 7);
  EXPECT_TRUE(events[0].label.empty());
  EXPECT_EQ(recorder.ring_count(), 1u);
}

TEST(FlightRecorder, WrapKeepsTheNewestEvents) {
  obs::FlightRecorder recorder(obs::FlightRecorder::Options{8});
  for (std::uint64_t i = 0; i < 20; ++i) {
    recorder.record(obs::FlightEventType::kFrameTx, static_cast<TimeMicros>(i), i);
  }
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The ring holds exactly the last capacity events; older ones are gone.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 12u + i);
  }
}

TEST(FlightRecorder, BinaryRoundtripMatchesSnapshot) {
  obs::FlightRecorder recorder;
  recorder.label_thread("wal");
  recorder.record(obs::FlightEventType::kWalFlush, 10, 5, 1024);
  recorder.record(obs::FlightEventType::kCheckpointCut, 20, 40, 2);
  const Bytes dump = recorder.snapshot_binary();
  const auto decoded = obs::FlightRecorder::decode({dump.data(), dump.size()});
  const auto live = recorder.snapshot();
  ASSERT_EQ(decoded.size(), live.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].at, live[i].at);
    EXPECT_EQ(decoded[i].type, live[i].type);
    EXPECT_EQ(decoded[i].a, live[i].a);
    EXPECT_EQ(decoded[i].b, live[i].b);
    EXPECT_EQ(decoded[i].label, live[i].label);
    EXPECT_EQ(decoded[i].thread_tag, live[i].thread_tag);
  }
  // Malformed input throws instead of misrendering.
  const Bytes junk = {'N', 'O', 'P', 'E'};
  EXPECT_THROW(obs::FlightRecorder::decode({junk.data(), junk.size()}),
               std::runtime_error);
  EXPECT_THROW(obs::FlightRecorder::decode({dump.data(), dump.size() - 3}),
               std::runtime_error);
}

TEST(FlightRecorder, PerThreadRingsMergeChronologically) {
  obs::FlightRecorder recorder;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      recorder.label_thread("worker" + std::to_string(t));
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        recorder.record(obs::FlightEventType::kBlockAdmit,
                        static_cast<TimeMicros>(i * kThreads + t),
                        static_cast<std::uint64_t>(t), i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto events = recorder.snapshot();
  EXPECT_EQ(events.size(), kThreads * kPerThread);
  EXPECT_EQ(recorder.ring_count(), static_cast<std::size_t>(kThreads));
  // Merged view is chronological across rings, and every ring kept its label.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].at, events[i].at);
  }
  for (const auto& event : events) {
    EXPECT_EQ(event.label, "worker" + std::to_string(event.a));
  }
}

TEST(FlightRecorder, DumpFileRendersWithScript) {
  obs::FlightRecorder recorder;
  recorder.label_thread("loop");
  recorder.record(obs::FlightEventType::kFrameRx, 1000, 2, 512);
  recorder.record(obs::FlightEventType::kCommit, 2000, 1, 30);
  recorder.record(obs::FlightEventType::kStall, 3000, 9000, 500);
  const std::string path = ::testing::TempDir() + "flightrec-test.bin";
  ASSERT_TRUE(recorder.dump_to_file(path));
  // The file round-trips through the in-process decoder...
  std::ifstream in(path, std::ios::binary);
  const Bytes data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(obs::FlightRecorder::decode({data.data(), data.size()}).size(), 3u);
  // ...and through the renderer script, which must exit 0 on a good dump.
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  const std::filesystem::path script =
      std::filesystem::path(__FILE__).parent_path().parent_path() / "scripts" /
      "render_flightrec.py";
  const std::string rendered = ::testing::TempDir() + "flightrec-test.txt";
  const std::string command =
      "python3 " + script.string() + " " + path + " > " + rendered + " 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0);
  std::ifstream text(rendered);
  const std::string output((std::istreambuf_iterator<char>(text)),
                           std::istreambuf_iterator<char>());
  EXPECT_NE(output.find("frame_rx"), std::string::npos);
  EXPECT_NE(output.find("stall"), std::string::npos);
  EXPECT_NE(output.find("loop"), std::string::npos);
}

// ----- Commit forensics ------------------------------------------------------

using CommitForensicsTest = ObsTracerTest;

TEST_F(CommitForensicsTest, ClosingArrivalAttribution) {
  CommitForensics forensics;
  BlockPtr early = make_block(0, 1);
  BlockPtr late = make_block(1, 2);
  BlockPtr leader = make_block(2, 3);
  forensics.block_arrived(early->digest(), 1'000);
  forensics.block_arrived(late->digest(), 5'000);
  forensics.block_arrived(leader->digest(), 3'000);
  // Re-delivery must not move the stamp: the first arrival is the real one.
  forensics.block_arrived(late->digest(), 9'999);

  const CommitTrace& trace =
      forensics.on_committed(make_sub_dag({early, late, leader}), 6'000);
  EXPECT_EQ(trace.slot.round, 1u);
  EXPECT_EQ(trace.leader_author, 2u);
  EXPECT_EQ(trace.blocks, 3u);
  EXPECT_EQ(trace.first_arrival, 1'000);
  ASSERT_EQ(trace.arrivals.size(), 3u);
  EXPECT_EQ(trace.arrivals[0].offset_micros, 0);
  EXPECT_EQ(trace.arrivals[1].offset_micros, 4'000);
  EXPECT_EQ(trace.arrivals[2].offset_micros, 2'000);
  // Straggler attribution: author 1's block arrived last and closed the wave.
  EXPECT_EQ(trace.closing_author, 1u);
  EXPECT_EQ(trace.closing_offset_micros, 4'000);
  EXPECT_FALSE(trace.arrivals[0].closed_wave);
  EXPECT_TRUE(trace.arrivals[1].closed_wave);
  EXPECT_FALSE(trace.arrivals[2].closed_wave);
}

TEST_F(CommitForensicsTest, TiesResolveToTheCausallyLatestBlock) {
  CommitForensics forensics;
  BlockPtr first = make_block(0, 1);
  BlockPtr leader = make_block(1, 2);
  // Same batch, same stamp (one verify drain delivered both): the causally
  // later block — the leader, last in the sub-DAG order — closed the wave.
  forensics.block_arrived(first->digest(), 2'000);
  forensics.block_arrived(leader->digest(), 2'000);
  const CommitTrace& trace =
      forensics.on_committed(make_sub_dag({first, leader}), 3'000);
  EXPECT_EQ(trace.closing_author, 1u);
  EXPECT_TRUE(trace.arrivals[1].closed_wave);
}

TEST_F(CommitForensicsTest, UnstampedBlocksAndAsyncResolution) {
  CommitForensics forensics;
  BlockPtr stamped = make_block(0, 1);
  BlockPtr recovered = make_block(1, 2);  // e.g. WAL replay: never stamped
  forensics.block_arrived(stamped->digest(), 4'000);
  CommitTrace& trace =
      forensics.on_committed(make_sub_dag({recovered, stamped}), 5'000);
  EXPECT_FALSE(trace.arrivals[0].stamped);
  EXPECT_TRUE(trace.arrivals[1].stamped);
  EXPECT_EQ(trace.closing_author, 0u);  // only stamped arrivals attribute

  trace.durable_pending = true;
  trace.execute_pending = true;
  forensics.durable_ack(5'400);
  EXPECT_EQ(forensics.traces().back().durable_micros, 400);
  EXPECT_FALSE(forensics.traces().back().durable_pending);
  // execute_done matches on slot, resolves once.
  forensics.execute_done(SlotId{9, 9}, 6'000);  // wrong slot: no effect
  EXPECT_TRUE(forensics.traces().back().execute_pending);
  forensics.execute_done(trace.slot, 6'500);
  EXPECT_EQ(forensics.traces().back().execute_micros, 1'500);
  EXPECT_FALSE(forensics.traces().back().execute_pending);
}

TEST_F(CommitForensicsTest, BoundedBuffersAndDeterministicJson) {
  CommitForensics forensics(CommitForensics::Options{.trace_capacity = 2});
  BlockPtr a = make_block(0, 1);
  forensics.block_arrived(a->digest(), 100);
  for (int i = 0; i < 3; ++i) {
    forensics.on_committed(make_sub_dag({a}), 200 + i);
  }
  EXPECT_EQ(forensics.traces().size(), 2u);  // oldest aged out
  EXPECT_EQ(forensics.traces().front().committed_at, 201);

  // Identical inputs render identical JSON (the sim determinism contract),
  // and the rendering carries the attribution fields.
  CommitForensics x, y;
  for (CommitForensics* f : {&x, &y}) {
    f->block_arrived(a->digest(), 100);
    f->on_committed(make_sub_dag({a}), 250);
  }
  EXPECT_EQ(x.to_json(), y.to_json());
  EXPECT_NE(x.to_json().find("\"closing\""), std::string::npos);
  EXPECT_NE(x.to_json().find("\"closed_wave\":true"), std::string::npos);
  EXPECT_EQ(commit_traces_json({}), "{\"traces\":[]}");
}

// ----- Sim commit forensics (virtual time, deterministic) --------------------

TEST(ObsSimForensics, TracesAreDeterministicAndAttributed) {
  sim::SimConfig config;
  config.n = 4;
  config.wan = false;
  config.load_tps = 500;
  config.duration = seconds(6);
  config.warmup = seconds(1);
  config.seed = 21;
  const sim::SimResult a = sim::run_simulation(config);
  ASSERT_FALSE(a.commit_traces.empty());
  std::size_t stamped_traces = 0;
  for (const CommitTrace& trace : a.commit_traces) {
    EXPECT_GT(trace.blocks, 0u);
    ASSERT_EQ(trace.arrivals.size(), trace.blocks);
    // Genesis blocks predate the run (never inserted via actions) and stay
    // unstamped; among stamped arrivals exactly one closed the wave, at the
    // largest offset, and the commit follows every arrival in virtual time.
    std::size_t stamped = 0;
    std::size_t closed = 0;
    TimeMicros max_offset = 0;
    for (const auto& arrival : trace.arrivals) {
      if (!arrival.stamped) {
        EXPECT_FALSE(arrival.closed_wave);
        continue;
      }
      ++stamped;
      if (arrival.closed_wave) ++closed;
      max_offset = std::max(max_offset, arrival.offset_micros);
    }
    if (stamped > 0) {
      ++stamped_traces;
      EXPECT_EQ(closed, 1u);
      EXPECT_EQ(trace.closing_offset_micros, max_offset);
      EXPECT_GE(trace.committed_at, trace.first_arrival);
    } else {
      EXPECT_EQ(closed, 0u);
    }
  }
  // The steady-state commits are all attributable.
  EXPECT_GT(stamped_traces, a.commit_traces.size() / 2);
  // Byte-identical across identical seeded runs: straggler attribution is a
  // pure function of (config, seed).
  const sim::SimResult b = sim::run_simulation(config);
  EXPECT_EQ(commit_traces_json(a.commit_traces), commit_traces_json(b.commit_traces));
  // And the sim twin of the runtime's rx-lag histogram is populated.
  EXPECT_GT(a.metrics.histogram("mm_peer_rx_lag_micros").count(), 0u);
}

}  // namespace
}  // namespace mahimahi
