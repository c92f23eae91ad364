// Observability hot-path microbenchmarks: what a metric record costs on the
// consensus data path.
//
// The contract the registry makes with the pipeline (src/obs/metrics.h) is
// that instrumentation is one relaxed atomic add — cheap enough to stamp
// every block, every frame, every commit without showing up in the latency
// figures. CI holds that contract with an absolute gate:
//
//     check_bench.py bench_obs.json --max-ns BM_ObsCounterAdd 50 \
//                                   --max-ns BM_ObsHistogramRecord 50 \
//                                   --max-ns BM_ObsSpanStamp 50 \
//                                   --max-ns BM_FlightRecorderEvent 50
//
// A registry change that puts a lock, a hash lookup, or a shared cache line
// on the record path fails the push.
//
// Machine-readable output: pass --benchmark_format=json (CI does).
#include <benchmark/benchmark.h>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace mahimahi;

// One counter hammered from N threads. With per-thread stripes the 8-thread
// rate should track the 1-thread rate; a collapsed (shared-cell) registry
// shows up as an 8x per-op slowdown from cache-line ping-pong.
obs::Registry* g_registry = nullptr;
obs::Counter* g_counter = nullptr;

void BM_ObsCounterAdd(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_registry = new obs::Registry();
    g_counter = &g_registry->counter("bench_counter");
  }
  for (auto _ : state) {
    g_counter->add(1);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    benchmark::DoNotOptimize(g_counter->value());
    delete g_registry;
    g_registry = nullptr;
  }
}
BENCHMARK(BM_ObsCounterAdd)->Threads(1)->Threads(8)->UseRealTime();

// Histogram record: bit_width + two relaxed adds. The value sweep covers the
// bucket range so the bench is not branch-predicting one bucket.
void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Registry registry;
  obs::Histogram& histogram = registry.histogram("bench_histogram");
  std::int64_t value = 0;
  for (auto _ : state) {
    histogram.record(value, 1);
    value = (value * 2 + 1) & 0xfffff;  // 0, 1, 3, ... sweeps the buckets
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(histogram.snapshot().sum);
}
BENCHMARK(BM_ObsHistogramRecord);

// A full lifecycle span stamp as the pipeline issues it: the tracer's bounds
// check plus the stage histogram record. This is what every handoff in
// NodePipeline::perform / NodeRuntime::verify_frames pays per block.
void BM_ObsSpanStamp(benchmark::State& state) {
  obs::Registry registry;
  obs::LifecycleTracer tracer(registry);
  TimeMicros delta = 0;
  for (auto _ : state) {
    tracer.record_stage(obs::Stage::kDagInsert, delta, 1);
    delta = (delta + 37) & 0xffff;
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(tracer.nonmonotonic());
}
BENCHMARK(BM_ObsSpanStamp);

// A flight-recorder event stamp: one relaxed fetch_add on the thread's own
// ring head, three relaxed stores, one release store. The recorder is always
// on — every frame, block, and commit pays this — so CI gates it at 50 ns
// like the other hot-path stamps. Uses the caller-timestamp overload (the
// pipeline's: handoffs already hold a stamp); the steady-clock read in
// record_now is the driver's cost, not the recorder's.
obs::FlightRecorder* g_recorder = nullptr;

void BM_FlightRecorderEvent(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_recorder = new obs::FlightRecorder();
  }
  TimeMicros at = 0;
  std::uint64_t a = static_cast<std::uint64_t>(state.thread_index());
  for (auto _ : state) {
    g_recorder->record(obs::FlightEventType::kBlockInsert, at, a, at);
    ++at;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    benchmark::DoNotOptimize(g_recorder->ring_count());
    delete g_recorder;
    g_recorder = nullptr;
  }
}
BENCHMARK(BM_FlightRecorderEvent)->Threads(1)->Threads(8)->UseRealTime();

// Scrape cost for context (not gated): a dump of a registry sized like a
// real validator's (~40 metrics incl. per-stage histograms). Scrapes run
// off the hot path on the loop thread, so milliseconds would be a problem,
// microseconds are fine.
void BM_ObsRegistryDump(benchmark::State& state) {
  obs::Registry registry("validator=\"0\"");
  obs::LifecycleTracer tracer(registry);
  for (int i = 0; i < 20; ++i) {
    registry.counter("bench_counter_" + std::to_string(i)).add(1);
  }
  for (int i = 0; i < 6; ++i) {
    registry.histogram("bench_histogram_" + std::to_string(i)).record(i * 100);
  }
  tracer.record_stage(obs::Stage::kDecode, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.dump());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsRegistryDump);

}  // namespace

BENCHMARK_MAIN();
