// Execution microbenchmarks: serial vs conflict-aware parallel apply of
// committed KV batches across a conflict-rate sweep.
//
// The question the sweep answers is the one the scheduler exists for: how
// much of the serial apply cost can wave-parallel decode + effect
// preparation reclaim, and how does that win decay as batches start to
// fight over the shared hot keyspace?
//
//   BM_ExecApplySerial/conflict:{0,25,75,100}    SerialExecutor::apply_subdag
//                                                over the same commit stream —
//                                                the WAL-replay path.
//   BM_ExecApplyParallel/conflict:{0,25,75,100}  ExecutionEngine (worker pool
//                                                + merge thread), execute() +
//                                                drain() of the same stream.
//
//   BM_KvStoreApply                              app::KvStore::apply over the
//                                                e2e KV command shape (below):
//                                                NsPerCommand, the merge
//                                                thread's per-command cost.
//   BM_KvStoreCut                                state_digest + delta_bytes +
//                                                clear_delta_window on that
//                                                keyspace after one cut
//                                                window: MicrosPerCut.
//
// The store series use the tcp-kv-durable-20k shape: 4 validators' private
// keyspaces of 4,096 keys each plus 4 hot keys, 25% of commands on a hot
// key, every tenth command a Delete, 16-byte values.
//
// The ExecApply series report MicrosPerBatch — wall micros per committed
// batch for the whole stream (manual timing: batch/block construction,
// engine and thread spawn are outside the clock). At conflict:0 every batch lands in
// wave 0 and the parallel engine must win; at conflict:100 every wave holds
// one batch and parallel degenerates to serial plus handoff overhead — the
// honest cost of the machinery.
//
// The parallel series (and the CI gate comparing it against serial at 0%
// conflicts) registers only when the host has ≥ 2 hardware threads: on a
// 1-core runner a worker pool cannot win and the comparison would measure
// scheduler thrash, not the subsystem. check_bench.py --compare skips with
// a note when the parallel entries are absent.
//
// Machine-readable output: --benchmark_format=json (CI runs this through
// scripts/run_benches.py, uploads bench_execution.json, and gates it:
//
//   check_bench.py bench_execution.json
//     --expect BM_ExecApplySerial
//     --compare MicrosPerBatch 'BM_ExecApplySerial/conflict:0' \
//                              'BM_ExecApplyParallel/conflict:0'
//
// — self-failing if parallel ever loses to serial on a disjoint workload).
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/kv_batches.h"
#include "exec/engine.h"
#include "sim/dag_builder.h"

namespace {

using namespace mahimahi;

constexpr std::size_t kSubdags = 8;
constexpr std::size_t kBatchesPerSubdag = 8;
constexpr std::uint32_t kCommandsPerBatch = 16;
constexpr std::size_t kTotalBatches = kSubdags * kBatchesPerSubdag;

// One commit stream's worth of sub-DAGs at the given conflict rate. Batch
// ids fold in `generation` so successive benchmark iterations never collide
// in the executor's dedup horizon — a reused id would be deduplicated and
// the iteration would measure a no-op.
std::vector<CommittedSubDag> build_stream(std::uint32_t conflict_percent,
                                          std::uint64_t generation,
                                          DagBuilder& builder,
                                          const std::vector<BlockRef>& genesis,
                                          Round& next_round) {
  client::KvWorkload workload;
  workload.conflict_percent = conflict_percent;
  workload.hot_keys = 4;
  workload.commands_per_batch = kCommandsPerBatch;
  workload.value_bytes = 64;
  Rng rng(0x5EED0000 + conflict_percent * 1000 + generation);

  std::vector<CommittedSubDag> stream;
  stream.reserve(kSubdags);
  std::uint64_t sequence = generation * kTotalBatches;
  for (std::size_t s = 0; s < kSubdags; ++s) {
    std::vector<TxBatch> batches;
    batches.reserve(kBatchesPerSubdag);
    for (std::size_t b = 0; b < kBatchesPerSubdag; ++b) {
      // Distinct streams per batch position: private keys never collide
      // across batches, so conflict_percent alone controls conflicts.
      batches.push_back(client::synth_kv_batch(workload, b, ++sequence, rng));
    }
    const Round round = next_round++;
    CommittedSubDag subdag;
    subdag.slot = SlotId{round, 0};
    std::vector<BlockPtr> blocks;
    blocks.push_back(
        builder.add_block(0, round, genesis,
                          {batches.begin(), batches.begin() + kBatchesPerSubdag / 2}));
    blocks.push_back(
        builder.add_block(1, round, genesis,
                          {batches.begin() + kBatchesPerSubdag / 2, batches.end()}));
    subdag.leader = blocks.back();
    subdag.blocks = std::move(blocks);
    stream.push_back(std::move(subdag));
  }
  return stream;
}

// Shared builder state per series: block signing is the expensive part of
// stream construction, and it happens outside the manual clock.
struct StreamSource {
  DagBuilder builder{4};
  std::vector<BlockRef> genesis;
  Round next_round = 1;
  std::uint64_t generation = 0;

  StreamSource() {
    for (const auto& g : builder.dag().blocks_at(0)) genesis.push_back(g->ref());
  }

  std::vector<CommittedSubDag> next(std::uint32_t conflict_percent) {
    return build_stream(conflict_percent, generation++, builder, genesis, next_round);
  }
};

void finish(benchmark::State& state, double elapsed_seconds) {
  const double batches =
      static_cast<double>(state.iterations()) * static_cast<double>(kTotalBatches);
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * kTotalBatches * kCommandsPerBatch));
  state.counters["MicrosPerBatch"] =
      benchmark::Counter(batches > 0 ? elapsed_seconds * 1e6 / batches : 0);
}

void BM_ExecApplySerial(benchmark::State& state) {
  const auto conflict = static_cast<std::uint32_t>(state.range(0));
  StreamSource source;
  double elapsed = 0;
  for (auto _ : state) {
    const std::vector<CommittedSubDag> stream = source.next(conflict);
    exec::SerialExecutor executor;
    const auto start = std::chrono::steady_clock::now();
    for (const CommittedSubDag& subdag : stream) executor.apply_subdag(subdag);
    Digest digest = executor.state_digest();
    benchmark::DoNotOptimize(digest);
    const std::chrono::duration<double> delta =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(delta.count());
    elapsed += delta.count();
  }
  finish(state, elapsed);
}

void BM_ExecApplyParallel(benchmark::State& state) {
  const auto conflict = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  StreamSource source;
  double elapsed = 0;
  for (auto _ : state) {
    const std::vector<CommittedSubDag> stream = source.next(conflict);
    // Fresh engine per iteration (thread spawn outside the clock): the dedup
    // horizon and store must start empty, like the serial baseline's.
    auto engine =
        std::make_unique<exec::ExecutionEngine>(exec::ExecutionEngine::Options{threads});
    const auto start = std::chrono::steady_clock::now();
    for (const CommittedSubDag& subdag : stream) engine->execute(subdag, 0);
    Digest digest = engine->state_digest();  // drains
    benchmark::DoNotOptimize(digest);
    const std::chrono::duration<double> delta =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(delta.count());
    elapsed += delta.count();
  }
  finish(state, elapsed);
}

// The tcp-kv-durable-20k command stream (bench/e2e/bench_e2e.cpp make_batch)
// over all four validators' keyspaces, drawn up front so the clock sees
// only the store.
constexpr std::uint32_t kKvStreams = 4;
constexpr std::uint32_t kKvPrivateKeys = 4096;
constexpr std::size_t kKvCommands = 1 << 16;
// Commands between two checkpoint cuts: about one second of the workload.
constexpr std::size_t kKvCutWindow = 20000;

std::vector<app::KvCommand> kv_store_stream(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<app::KvCommand> commands;
  commands.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const bool hot = rng.uniform(100) < 25;
    std::string key =
        hot ? "hot/" : "s" + std::to_string(rng.uniform(kKvStreams)) + "/";
    key += std::to_string(rng.uniform(hot ? 4 : kKvPrivateKeys));
    if (i % 10 == 9) {
      commands.push_back(app::KvCommand::del(std::move(key)));
    } else {
      std::string value(16, 'v');
      value[0] = static_cast<char>('a' + i % 26);
      commands.push_back(app::KvCommand::put(std::move(key), std::move(value)));
    }
  }
  return commands;
}

void BM_KvStoreApply(benchmark::State& state) {
  const std::vector<app::KvCommand> stream = kv_store_stream(kKvCommands, 0x5EED41);
  // Steady state: the keyspace is populated before the clock starts, and
  // every iteration ends with the cut that closes its delta window.
  app::KvStore store;
  for (const app::KvCommand& command : stream) store.apply(command);
  store.clear_delta_window();
  double elapsed = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    for (const app::KvCommand& command : stream) store.apply(command);
    const std::chrono::duration<double> delta =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(delta.count());
    elapsed += delta.count();
    store.clear_delta_window();
  }
  const double commands =
      static_cast<double>(state.iterations()) * static_cast<double>(kKvCommands);
  state.SetItemsProcessed(static_cast<std::int64_t>(commands));
  state.counters["NsPerCommand"] =
      benchmark::Counter(commands > 0 ? elapsed * 1e9 / commands : 0);
}

void BM_KvStoreCut(benchmark::State& state) {
  const std::vector<app::KvCommand> stream = kv_store_stream(kKvCommands, 0x5EED41);
  app::KvStore store;
  for (const app::KvCommand& command : stream) store.apply(command);
  store.clear_delta_window();
  std::size_t next = 0;
  double elapsed = 0;
  for (auto _ : state) {
    // One cut window of commands, outside the clock.
    for (std::size_t i = 0; i < kKvCutWindow; ++i) {
      store.apply(stream[next]);
      next = (next + 1) % stream.size();
    }
    const auto start = std::chrono::steady_clock::now();
    Digest digest = store.state_digest();
    Bytes delta = store.delta_bytes();
    store.clear_delta_window();
    benchmark::DoNotOptimize(digest);
    benchmark::DoNotOptimize(delta);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(took.count());
    elapsed += took.count();
  }
  const double cuts = static_cast<double>(state.iterations());
  state.counters["MicrosPerCut"] = benchmark::Counter(cuts > 0 ? elapsed * 1e6 / cuts : 0);
}

void register_benches() {
  benchmark::RegisterBenchmark("BM_KvStoreApply", BM_KvStoreApply)->UseManualTime();
  benchmark::RegisterBenchmark("BM_KvStoreCut", BM_KvStoreCut)->UseManualTime();

  auto* serial = benchmark::RegisterBenchmark("BM_ExecApplySerial", BM_ExecApplySerial);
  serial->ArgName("conflict")->UseManualTime();
  for (int conflict : {0, 25, 75, 100}) serial->Arg(conflict);

  // A worker pool on a 1-core host measures scheduler thrash, not the
  // subsystem; the CI compare gate self-skips when these are absent.
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores >= 2) {
    const int threads = static_cast<int>(std::min(cores - 1, 4u));
    auto* parallel =
        benchmark::RegisterBenchmark("BM_ExecApplyParallel", BM_ExecApplyParallel);
    parallel->ArgNames({"conflict", "threads"})->UseManualTime();
    for (int conflict : {0, 25, 75, 100}) parallel->Args({conflict, threads});
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
