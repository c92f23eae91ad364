// End-to-end integration tests: full protocol runs through the discrete-
// event simulator, across all four protocol variants, with faults.
#include <gtest/gtest.h>

#include "sim/harness.h"

namespace mahimahi::sim {
namespace {

SimConfig base_config(Protocol protocol, std::uint32_t n) {
  SimConfig config;
  config.protocol = protocol;
  config.n = n;
  config.wan = false;  // uniform 50ms links keep small tests fast & predictable
  config.uniform_latency = millis(25);
  config.load_tps = 1'000;
  config.duration = seconds(10);
  config.warmup = seconds(3);
  config.record_sequences = true;
  config.seed = 7;
  return config;
}

void expect_prefix_consistent(const SimResult& result, const std::string& label) {
  const auto& sequences = result.sequences;
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    for (std::size_t j = i + 1; j < sequences.size(); ++j) {
      const std::size_t common = std::min(sequences[i].size(), sequences[j].size());
      for (std::size_t k = 0; k < common; ++k) {
        ASSERT_EQ(sequences[i][k], sequences[j][k])
            << label << ": validators " << i << " and " << j << " diverge at " << k;
      }
    }
  }
}

class ProtocolRun : public ::testing::TestWithParam<Protocol> {};

TEST_P(ProtocolRun, CommitsTransactionsWithAgreement) {
  const auto config = base_config(GetParam(), 4);
  const SimResult result = run_simulation(config);

  EXPECT_GT(result.committed_tps, config.load_tps * 0.5)
      << to_string(GetParam()) << ": " << result.to_string();
  EXPECT_GT(result.latency_samples, 100u);
  EXPECT_GT(result.avg_latency_s, 0.0);
  EXPECT_LT(result.avg_latency_s, 5.0) << result.to_string();
  EXPECT_GT(result.max_round, 20u);
  expect_prefix_consistent(result, to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolRun,
                         ::testing::Values(Protocol::kMahiMahi5, Protocol::kMahiMahi4,
                                           Protocol::kCordialMiners, Protocol::kTusk),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           std::string name = to_string(info.param);
                           std::erase(name, '-');
                           return name;
                         });

TEST(SimIntegration, DeterministicGivenSeed) {
  const auto config = base_config(Protocol::kMahiMahi5, 4);
  const SimResult a = run_simulation(config);
  const SimResult b = run_simulation(config);
  EXPECT_EQ(a.committed_tps, b.committed_tps);
  EXPECT_EQ(a.avg_latency_s, b.avg_latency_s);
  EXPECT_EQ(a.max_round, b.max_round);
  EXPECT_EQ(a.sequences, b.sequences);
}

TEST(SimIntegration, DeterministicWithIncrementalCheckpointsAndCerts) {
  // The incremental-checkpoint machinery (delta cuts, cert-share collection
  // events, withholding filters) adds scheduled events but must add zero
  // nondeterminism: two identical seeded runs produce identical metrics,
  // sequences included. The checkpoint model needs GC on (committer
  // override with a gc_depth) and a cut interval.
  auto config = base_config(Protocol::kMahiMahi5, 4);
  CommitterOptions options = mahi_mahi_5(2);
  options.gc_depth = 10;
  config.committer_override = options;
  config.checkpoint_interval = 5;
  config.cert_withholding = {3};  // one withheld signer: quorum still forms

  const SimResult a = run_simulation(config);
  const SimResult b = run_simulation(config);
  EXPECT_GT(a.checkpoints_written, 0u);
  EXPECT_GT(a.checkpoint_delta_cuts, 0u);
  EXPECT_GT(a.checkpoint_certs_formed, 0u);
  EXPECT_EQ(a.committed_tps, b.committed_tps);
  EXPECT_EQ(a.avg_latency_s, b.avg_latency_s);
  EXPECT_EQ(a.max_round, b.max_round);
  EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
  EXPECT_EQ(a.checkpoint_delta_cuts, b.checkpoint_delta_cuts);
  EXPECT_EQ(a.checkpoint_certs_formed, b.checkpoint_certs_formed);
  EXPECT_EQ(a.sequences, b.sequences);
}

TEST(SimIntegration, GroupCommitWithoutLogActsSynchronously) {
  // wal_group_commit with no log at all (no wal_dir, no restarts): there is
  // nothing to make durable, so durability acks complete synchronously —
  // the NullWal contract — and the run is bit-identical to the baseline.
  // This is the deadlock guard: if the ack were deferred, every proposal
  // broadcast would wait forever and nothing would commit.
  const auto baseline_config = base_config(Protocol::kMahiMahi5, 4);
  auto config = baseline_config;
  config.wal_group_commit = true;
  config.wal_flush_interval = millis(2);
  const SimResult baseline = run_simulation(baseline_config);
  const SimResult grouped = run_simulation(config);
  EXPECT_GT(grouped.committed_tps, baseline_config.load_tps * 0.5);
  EXPECT_EQ(grouped.sequences, baseline.sequences);
  EXPECT_EQ(grouped.committed_tps, baseline.committed_tps);
  EXPECT_EQ(grouped.avg_latency_s, baseline.avg_latency_s);
  EXPECT_EQ(grouped.wal_groups_flushed, 0u);  // no log → no groups
}

TEST(SimIntegration, GroupCommitWithMemLogIsDeterministicAndAgrees) {
  // With a log (the in-memory one restarts use), group commit stages records
  // and defers own-block broadcasts behind a flush event. The flush latency
  // shifts timing, but the run stays deterministic and agreement holds.
  auto config = base_config(Protocol::kMahiMahi5, 4);
  config.wal_group_commit = true;
  config.wal_flush_interval = millis(2);
  config.restarts.push_back({.id = 2, .crash_at = seconds(4), .restart_at = seconds(6)});
  const SimResult a = run_simulation(config);
  const SimResult b = run_simulation(config);
  EXPECT_EQ(a.sequences, b.sequences);
  EXPECT_EQ(a.committed_tps, b.committed_tps);
  EXPECT_GT(a.wal_groups_flushed, 0u);
  EXPECT_GT(a.committed_tps, config.load_tps * 0.5) << a.to_string();
  EXPECT_EQ(a.equivocation_cells, 0u);
  expect_prefix_consistent(a, "group-commit mem log");
}

TEST(SimIntegration, SeedChangesSchedule) {
  auto config = base_config(Protocol::kMahiMahi5, 4);
  const SimResult a = run_simulation(config);
  config.seed = 8;
  const SimResult b = run_simulation(config);
  // Different arrival timings; latencies will not be bit-identical.
  EXPECT_NE(a.avg_latency_s, b.avg_latency_s);
}

TEST(SimIntegration, SurvivesCrashFaults) {
  auto config = base_config(Protocol::kMahiMahi5, 10);
  config.crashed = 3;  // the maximum for n = 10
  config.load_tps = 2'000;
  const SimResult result = run_simulation(config);
  EXPECT_GT(result.committed_tps, config.load_tps * 0.4) << result.to_string();
  // Crashed validators' slots are skipped directly, not via anchors.
  EXPECT_GT(result.commit_stats.direct_skips, 0u);
  expect_prefix_consistent(result, "crash");
  // Validator 0's slot gauges, mirrored by its pipeline after every step,
  // read the commit rule's own counts.
  const auto gauge = [&](const char* name) {
    return static_cast<std::uint64_t>(result.metrics.gauge_value(name));
  };
  EXPECT_EQ(gauge("mm_slot_direct_commits"), result.commit_stats.direct_commits);
  EXPECT_EQ(gauge("mm_slot_indirect_commits"), result.commit_stats.indirect_commits);
  EXPECT_EQ(gauge("mm_slot_direct_skips"), result.commit_stats.direct_skips);
  EXPECT_EQ(gauge("mm_slot_indirect_skips"), result.commit_stats.indirect_skips);
}

TEST(SimIntegration, CordialMinersSkipsLateUnderCrashFaults) {
  auto config = base_config(Protocol::kCordialMiners, 10);
  config.crashed = 3;
  const SimResult result = run_simulation(config);
  EXPECT_GT(result.committed_tps, 0.0) << result.to_string();
  // No direct skip rule: faulty leaders resolve indirectly.
  EXPECT_EQ(result.commit_stats.direct_skips, 0u);
  expect_prefix_consistent(result, "cm-crash");
}

TEST(SimIntegration, ToleratesEquivocator) {
  auto config = base_config(Protocol::kMahiMahi5, 4);
  config.equivocators = 1;
  const SimResult result = run_simulation(config);
  EXPECT_GT(result.committed_tps, 0.0) << result.to_string();
  expect_prefix_consistent(result, "equivocator");
}

TEST(SimIntegration, WanGeoModelRuns) {
  auto config = base_config(Protocol::kMahiMahi5, 10);
  config.wan = true;
  config.load_tps = 5'000;
  const SimResult result = run_simulation(config);
  EXPECT_GT(result.committed_tps, config.load_tps * 0.5) << result.to_string();
  // WAN quorum formation is slower than the 25ms uniform fabric.
  EXPECT_GT(result.avg_latency_s, 0.2);
  expect_prefix_consistent(result, "wan");
}

TEST(SimIntegration, DagDigestProbesStayWithinTwoPerBlock) {
  // Parents resolve through their (round, author) cells; the DAG's digest
  // index sees only ingress: one insertion per block, plus fetch serving and
  // the synchronizer's miss path. No GC, so validator 0's DAG holds every
  // block it ever inserted.
  SimConfig config = base_config(Protocol::kMahiMahi4, 10);
  config.wan = true;
  const SimResult result = run_simulation(config);
  const std::uint64_t probes = result.metrics.counter_value("mm_dag_digest_probes_total");
  ASSERT_GT(result.total_blocks, 100u) << result.to_string();
  EXPECT_GT(result.fetch_requests, 0u) << "the run exercised no fetch path";
  EXPECT_GE(probes, result.total_blocks);
  EXPECT_LE(probes, 2 * result.total_blocks)
      << probes << " digest probes for " << result.total_blocks << " blocks";
}

TEST(SimIntegration, LatencyOrderingMatchesPaperShape) {
  // Claim C1 in miniature: Tusk > Cordial Miners > Mahi-Mahi-5 > Mahi-Mahi-4
  // in latency at equal (low) load. Small committee, WAN links.
  auto config = base_config(Protocol::kMahiMahi4, 4);
  config.wan = true;
  config.load_tps = 500;
  config.record_sequences = false;

  const double mm4 = run_simulation(config).avg_latency_s;
  config.protocol = Protocol::kMahiMahi5;
  const double mm5 = run_simulation(config).avg_latency_s;
  config.protocol = Protocol::kCordialMiners;
  const double cm = run_simulation(config).avg_latency_s;
  config.protocol = Protocol::kTusk;
  const double tusk = run_simulation(config).avg_latency_s;

  EXPECT_LT(mm4, mm5) << "C5: wave length 4 beats 5";
  EXPECT_LT(mm5, cm) << "C1: multi-leader overlapping waves beat CM";
  EXPECT_LT(cm, tusk) << "C1: uncertified DAG beats certified DAG";
}

TEST(SimIntegration, MultiClientShardedMempoolWorkload) {
  // Several client streams per validator, each its own sharded-mempool
  // client key, over a multi-shard pool: the same admission + fair-drain
  // path the TCP runtime uses. Consensus must stay consistent and no
  // admission rejects should occur at these rates.
  auto config = base_config(Protocol::kMahiMahi5, 4);
  config.clients_per_validator = 8;
  config.mempool.shards = 8;
  const SimResult result = run_simulation(config);
  EXPECT_GT(result.committed_tps, config.load_tps * 0.5) << result.to_string();
  EXPECT_EQ(result.mempool_rejected, 0u);
  expect_prefix_consistent(result, "multi-client");
}

TEST(SimIntegration, SingleClientTraceMatchesMultiClientThroughput) {
  // clients_per_validator only re-partitions the offered load across client
  // streams; aggregate throughput stays in the same band.
  auto config = base_config(Protocol::kMahiMahi5, 4);
  config.record_sequences = false;
  const SimResult one = run_simulation(config);
  config.clients_per_validator = 4;
  const SimResult four = run_simulation(config);
  EXPECT_GT(four.committed_tps, one.committed_tps * 0.8);
  EXPECT_LT(four.committed_tps, one.committed_tps * 1.2);
}

TEST(SimIntegration, MempoolQuotaShedsOverdrivenClient) {
  // A tiny per-client quota under sustained load must surface as explicit
  // admission rejects (backpressure), not a stall or a crash.
  auto config = base_config(Protocol::kMahiMahi5, 4);
  config.record_sequences = false;
  config.load_tps = 5'000;
  // ~16 KB arrives per validator per 25ms interval but proposals (drains)
  // are paced at 120ms: residency overshoots a 32 KB quota between drains,
  // so some batches must bounce while earlier ones still commit.
  config.mempool.max_client_bytes = 32'768;
  const SimResult result = run_simulation(config);
  EXPECT_GT(result.committed_tps, 0.0) << result.to_string();
  EXPECT_GT(result.mempool_rejected, 0u);
}

TEST(SimIntegration, VerifiedCryptoPathWorks) {
  // Full signature + coin-share verification on a small, short run.
  auto config = base_config(Protocol::kMahiMahi5, 4);
  config.duration = seconds(5);
  config.warmup = seconds(2);
  config.load_tps = 200;
  config.verify_crypto = true;
  const SimResult result = run_simulation(config);
  EXPECT_GT(result.committed_tps, 0.0) << result.to_string();
  expect_prefix_consistent(result, "verified");
}

}  // namespace
}  // namespace mahimahi::sim
