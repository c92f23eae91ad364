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
// Both series report MicrosPerBatch — wall micros per committed batch for
// the whole stream (manual timing: batch/block construction, engine and
// thread spawn are outside the clock). At conflict:0 every batch lands in
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

void register_benches() {
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
