// Deterministic garbage collection (CommitterOptions::gc_depth).
//
// GC must never change what is agreed, only what is retained:
//   * the delivery cut is deterministic — a committed leader at round R
//     delivers only history with round >= R - gc_depth, so validators with
//     different pruning states (or none) produce identical sequences as
//     long as they share gc_depth;
//   * pruning below the consumed-slot head minus gc_depth bounds the DAG's
//     memory without perturbing later decisions;
//   * the synchronizer treats sub-horizon parents as satisfied, so blocks
//     arriving after a GC pass still insert;
//   * full-cluster simulations with GC hold agreement and throughput while
//     keeping per-validator block counts flat.
#include <gtest/gtest.h>

#include <set>

#include "core/committer.h"
#include "sim/dag_builder.h"
#include "sim/harness.h"

namespace mahimahi {
namespace {

// Feeds `builder`'s DAG round by round into a fresh Dag + Committer,
// optionally pruning to the GC horizon after every consumption step.
// Returns the delivered sequence.
std::vector<BlockRef> run_incremental(const DagBuilder& builder,
                                      const CommitterOptions& options,
                                      bool prune) {
  Dag dag(builder.committee());
  Committer committer(dag, builder.committee(), options);
  std::vector<BlockRef> delivered;
  for (Round r = 1; r <= builder.dag().highest_round(); ++r) {
    for (const auto& block : builder.dag().blocks_at(r)) dag.insert(block);
    for (const auto& sub_dag : committer.try_commit()) {
      for (const auto& block : sub_dag.blocks) delivered.push_back(block->ref());
    }
    if (prune && options.gc_depth > 0) {
      const Round head = committer.next_pending_slot().round;
      if (head > options.gc_depth) {
        const Round horizon = head - options.gc_depth;
        dag.prune_below(horizon);
        committer.prune_below(horizon);
      }
    }
  }
  return delivered;
}

TEST(Gc, PrunedAndUnprunedValidatorsDeliverIdentically) {
  DagBuilder builder(4, 7);
  Rng rng(3);
  for (Round r = 1; r <= 40; ++r) builder.add_random_network_round(r, rng);

  CommitterOptions options = mahi_mahi_5(2);
  options.gc_depth = 8;

  const auto pruned = run_incremental(builder, options, /*prune=*/true);
  const auto unpruned = run_incremental(builder, options, /*prune=*/false);
  ASSERT_FALSE(pruned.empty());
  EXPECT_EQ(pruned, unpruned);
}

TEST(Gc, DeliveryCutExcludesAncientBlocksDeterministically) {
  // An orphan chain block referenced only far in the future: with gc_depth
  // it is excluded from delivery by every validator; without gc_depth it is
  // delivered late. Both behaviours are deterministic.
  DagBuilder builder(4, 7);
  std::vector<BlockRef> genesis;
  for (const auto& block : builder.dag().blocks_at(0)) genesis.push_back(block->ref());

  // Round 1: all four propose; v0's block will be referenced only at round 12.
  const BlockPtr late_referenced = builder.add_block(0, 1, genesis);
  std::vector<BlockPtr> previous;
  for (ValidatorId v = 1; v < 4; ++v) previous.push_back(builder.add_block(v, 1, genesis));

  // Rounds 2..11: only validators 1..3 keep proposing (v0 is silent).
  for (Round r = 2; r <= 11; ++r) {
    std::vector<BlockPtr> next;
    for (ValidatorId v = 1; v < 4; ++v) next.push_back(builder.add_block_from(v, r, previous));
    previous = std::move(next);
  }
  // Round 12: v1 references the ancient round-1 block of v0.
  std::vector<BlockPtr> with_ancient = previous;
  with_ancient.push_back(late_referenced);
  builder.add_block_from(1, 12, with_ancient);
  builder.add_block_from(2, 12, previous);
  builder.add_block_from(3, 12, previous);
  previous = {builder.dag().slot(12, 1).front(), builder.dag().slot(12, 2).front(),
              builder.dag().slot(12, 3).front()};
  for (Round r = 13; r <= 24; ++r) {
    std::vector<BlockPtr> next;
    for (ValidatorId v = 1; v < 4; ++v) next.push_back(builder.add_block_from(v, r, previous));
    previous = std::move(next);
  }

  const auto delivered_with = [&](Round gc_depth) {
    CommitterOptions options = mahi_mahi_5(1);
    options.gc_depth = gc_depth;
    Committer committer(builder.dag(), builder.committee(), options);
    std::set<Digest> out;
    for (const auto& sub_dag : committer.try_commit()) {
      for (const auto& block : sub_dag.blocks) out.insert(block->digest());
    }
    return out;
  };

  // Unbounded history: the ancient block is eventually delivered.
  EXPECT_TRUE(delivered_with(0).contains(late_referenced->digest()));
  // gc_depth 6: a round-12+ leader cannot deliver a round-1 block.
  EXPECT_FALSE(delivered_with(6).contains(late_referenced->digest()));
}

TEST(Gc, DagPruneDropsRoundsAndExemptsOldParents) {
  DagBuilder builder(4, 7);
  builder.build_fully_connected(10);
  Dag dag(builder.committee());
  for (Round r = 1; r <= 10; ++r) {
    for (const auto& block : builder.dag().blocks_at(r)) dag.insert(block);
  }

  const std::size_t before = dag.block_count();
  dag.prune_below(6);
  EXPECT_LT(dag.block_count(), before);
  EXPECT_EQ(dag.pruned_below(), 6u);
  EXPECT_TRUE(dag.blocks_at(3).empty());

  // A new round-11 block referencing (pruned) round-5 parents inserts via
  // the exemption: sub-horizon refs count as satisfied.
  std::vector<BlockRef> parents;
  for (const auto& block : builder.dag().blocks_at(10)) parents.push_back(block->ref());
  parents.push_back(builder.dag().blocks_at(5).front()->ref());
  const BlockPtr with_old_parent = builder.add_block(0, 11, parents);
  EXPECT_TRUE(dag.parents_present(*with_old_parent));
  EXPECT_TRUE(dag.insert(with_old_parent));
}

TEST(Gc, SimulatedClusterStaysBoundedAndConsistent) {
  sim::SimConfig config;
  config.protocol = sim::Protocol::kMahiMahi5;
  config.n = 4;
  config.wan = false;
  config.uniform_latency = millis(20);
  config.load_tps = 1'000;
  config.duration = seconds(20);
  config.warmup = seconds(2);
  config.record_sequences = true;
  config.seed = 13;
  CommitterOptions options = mahi_mahi_5(2);
  options.gc_depth = 16;
  config.committer_override = options;

  const sim::SimResult result = sim::run_simulation(config);

  // Agreement and liveness are unaffected.
  EXPECT_GT(result.committed_tps, config.load_tps * 0.5) << result.to_string();
  for (std::size_t i = 0; i < result.sequences.size(); ++i) {
    for (std::size_t j = i + 1; j < result.sequences.size(); ++j) {
      const std::size_t common =
          std::min(result.sequences[i].size(), result.sequences[j].size());
      for (std::size_t k = 0; k < common; ++k) {
        ASSERT_EQ(result.sequences[i][k], result.sequences[j][k])
            << "divergence at " << k;
      }
    }
  }

  // Memory bound: the retained DAG holds roughly gc_depth + pipeline-depth
  // rounds of n blocks, far below the ~150+ rounds such a run produces.
  EXPECT_GT(result.max_round, 60u);
  EXPECT_LT(result.total_blocks, static_cast<std::uint64_t>(config.n) * 60);
}

TEST(Gc, UnboundedRunRetainsEverything) {
  sim::SimConfig config;
  config.protocol = sim::Protocol::kMahiMahi5;
  config.n = 4;
  config.wan = false;
  config.uniform_latency = millis(20);
  config.load_tps = 500;
  config.duration = seconds(12);
  config.warmup = seconds(2);
  config.seed = 13;
  CommitterOptions options = mahi_mahi_5(config.leaders_per_round);
  options.gc_depth = 0;
  config.committer_override = options;

  const sim::SimResult result = sim::run_simulation(config);
  // Without GC the DAG holds every round produced so far.
  EXPECT_GE(result.total_blocks,
            static_cast<std::uint64_t>(result.max_round) * (config.n - 1));
}

// The simulator runs the node's GC by default: the same results as an
// unbounded run of the same seed, from a DAG bounded by the GC window
// instead of by run length.
TEST(Gc, SimDefaultRunsNodeGcWithUnboundedResults) {
  sim::SimConfig config;
  config.protocol = sim::Protocol::kMahiMahi5;
  config.n = 10;
  config.wan = true;
  config.load_tps = 2'000;
  config.duration = seconds(20);
  config.warmup = seconds(2);
  config.record_sequences = true;
  config.seed = 7;
  const sim::SimResult pruned = sim::run_simulation(config);

  CommitterOptions unbounded = mahi_mahi_5(config.leaders_per_round);
  unbounded.gc_depth = 0;
  config.committer_override = unbounded;
  const sim::SimResult full = sim::run_simulation(config);

  EXPECT_EQ(pruned.p50_latency_s, full.p50_latency_s);
  EXPECT_EQ(pruned.p99_latency_s, full.p99_latency_s);
  EXPECT_EQ(pruned.committed_tps, full.committed_tps);
  EXPECT_EQ(pruned.commit_stats.direct_commits, full.commit_stats.direct_commits);
  EXPECT_EQ(pruned.commit_stats.indirect_commits, full.commit_stats.indirect_commits);
  EXPECT_EQ(pruned.commit_stats.direct_skips, full.commit_stats.direct_skips);
  EXPECT_EQ(pruned.commit_stats.indirect_skips, full.commit_stats.indirect_skips);
  EXPECT_EQ(pruned.commit_stats.delivered_blocks, full.commit_stats.delivered_blocks);
  EXPECT_EQ(pruned.commit_stats.delivered_transactions,
            full.commit_stats.delivered_transactions);
  EXPECT_EQ(pruned.sequences, full.sequences);
  EXPECT_GT(full.commit_stats.delivered_blocks, 0u);

  EXPECT_LE(pruned.total_blocks,
            static_cast<std::uint64_t>(config.n) * (kDefaultGcDepth + 10))
      << pruned.to_string();
  EXPECT_GE(full.total_blocks, static_cast<std::uint64_t>(full.max_round) * (config.n - 1))
      << full.to_string();
}

TEST(Gc, RestartWithGcReplaysCleanly) {
  // Crash/restart with GC active: the WAL may contain blocks whose parents
  // were admitted via the GC exemption; replay must skip those instead of
  // crashing, and the cluster must stay consistent.
  sim::SimConfig config;
  config.protocol = sim::Protocol::kMahiMahi5;
  config.n = 4;
  config.wan = false;
  config.uniform_latency = millis(20);
  config.load_tps = 1'000;
  config.duration = seconds(16);
  config.warmup = seconds(2);
  config.record_sequences = true;
  config.seed = 29;
  CommitterOptions options = mahi_mahi_5(2);
  options.gc_depth = 12;
  config.committer_override = options;
  config.restarts.push_back({.id = 1, .crash_at = seconds(6), .restart_at = seconds(9)});

  const sim::SimResult result = sim::run_simulation(config);
  EXPECT_EQ(result.equivocation_cells, 0u);
  EXPECT_GT(result.committed_tps, config.load_tps * 0.4) << result.to_string();
  for (std::size_t i = 0; i < result.sequences.size(); ++i) {
    for (std::size_t j = i + 1; j < result.sequences.size(); ++j) {
      const std::size_t common =
          std::min(result.sequences[i].size(), result.sequences[j].size());
      for (std::size_t k = 0; k < common; ++k) {
        ASSERT_EQ(result.sequences[i][k], result.sequences[j][k])
            << "divergence at " << k;
      }
    }
  }
}

}  // namespace
}  // namespace mahimahi
