// Commit-path microbenchmark: loop-thread time per commit batch.
//
// Every delivered batch pays the commit rule on the event-loop thread —
// Committer::try_commit, the candidate-wave scan plus linearization, inside
// ValidatorCore::on_blocks — so its cost bounds end-to-end latency under
// load. BM_CommitBatchSerial replays one seeded DAG round by round and times
// only the try_commit calls (manual time).
//
// Machine-readable output: pass --benchmark_format=json (CI uploads
// bench_committer.json and gates it with scripts/check_bench.py).
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <memory>

#include "core/committer.h"
#include "sim/dag_builder.h"

namespace {

using namespace mahimahi;

constexpr Round kRounds = 64;

struct GlobalDag {
  std::unique_ptr<DagBuilder> builder;
  std::vector<std::vector<BlockPtr>> per_round;  // insertion batches, causal order
};

// One signed random-network DAG per committee size, built once and replayed
// by every benchmark (signing 64 rounds of blocks dominates setup otherwise).
const GlobalDag& global_dag(std::uint32_t n) {
  static std::map<std::uint32_t, GlobalDag> cache;
  GlobalDag& entry = cache[n];
  if (entry.builder == nullptr) {
    entry.builder = std::make_unique<DagBuilder>(n, /*seed=*/7);
    Rng rng(12345);
    for (Round r = 1; r <= kRounds; ++r) {
      entry.per_round.push_back(entry.builder->add_random_network_round(r, rng));
    }
  }
  return entry;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Each ingested batch runs the full commit rule inline — what
// ValidatorCore::on_blocks stage 4 costs the loop thread.
void BM_CommitBatchSerial(benchmark::State& state) {
  const GlobalDag& global = global_dag(static_cast<std::uint32_t>(state.range(0)));
  const CommitterOptions options = mahi_mahi_5(2);
  std::uint64_t slots = 0;
  for (auto _ : state) {
    Dag live(global.builder->committee());
    Committer committer(live, global.builder->committee(), options);
    double loop_seconds = 0;
    for (const auto& batch : global.per_round) {
      for (const auto& block : batch) live.insert(block);
      const auto start = std::chrono::steady_clock::now();
      const auto sub_dags = committer.try_commit();
      loop_seconds += seconds_since(start);
      slots += sub_dags.size();
    }
    state.SetIterationTime(loop_seconds);
  }
  state.SetItemsProcessed(state.iterations() * kRounds);  // commit batches
  state.counters["slots_per_replay"] =
      static_cast<double>(slots) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_CommitBatchSerial)->ArgName("n")->Arg(4)->Arg(10)->UseManualTime();

}  // namespace

BENCHMARK_MAIN();
