// Crash-recovery integration tests (§4: WAL + restart).
//
// A validator crashes mid-run, loses its in-memory state, and rejoins by
// replaying its write-ahead log. The properties under test:
//   * the restarted validator never equivocates (the WAL restored its
//     proposer round before it produced a new block);
//   * agreement holds across all validators, the restarted one included
//     (prefix-consistent delivered sequences, Lemmas 5-7);
//   * the cluster keeps committing through the outage and the restarted
//     validator catches back up (liveness).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "checkpoint/checkpoint.h"
#include "sim/harness.h"
#include "wal/segmented_wal.h"

namespace mahimahi::sim {
namespace {

std::string fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("mahi_recovery_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

SimConfig recovery_config() {
  SimConfig config;
  config.protocol = Protocol::kMahiMahi5;
  config.n = 4;
  config.wan = false;
  config.uniform_latency = millis(25);
  config.load_tps = 1'000;
  config.duration = seconds(18);
  config.warmup = seconds(2);
  config.record_sequences = true;
  config.seed = 21;
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

TEST(Recovery, RestartFromOnDiskWalRejoinsWithoutEquivocating) {
  SimConfig config = recovery_config();
  config.wal_dir = fresh_dir("filewal");
  config.restarts.push_back({.id = 2, .crash_at = seconds(6), .restart_at = seconds(9)});

  const SimResult result = run_simulation(config);

  // The WAL was actually replayed, and replay restored enough state that
  // the restarted validator produced no conflicting block for any round it
  // had already proposed.
  EXPECT_GT(result.wal_replayed_blocks, 50u);
  EXPECT_EQ(result.equivocation_cells, 0u);

  // Agreement across all four validators, including the restarted one.
  expect_prefix_consistent(result, "file-wal restart");

  // Liveness: the cluster kept committing (3 of 4 validators suffice), and
  // the restarted validator caught up to within a few waves of its peers.
  EXPECT_GT(result.committed_tps, config.load_tps * 0.5);
  ASSERT_EQ(result.sequences.size(), 4u);
  const std::size_t peer_len = result.sequences[0].size();
  EXPECT_GT(peer_len, 0u);
  EXPECT_GT(result.sequences[2].size(), peer_len / 2)
      << "restarted validator should resume delivering";
}

TEST(Recovery, RestartFromInMemoryLogMatchesOnDiskWal) {
  // Same scenario without wal_dir: the harness replays its in-memory block
  // log. Outcomes must be byte-identical to the file path (the sim is
  // deterministic and the WAL round-trip is lossless).
  SimConfig mem = recovery_config();
  mem.restarts.push_back({.id = 2, .crash_at = seconds(6), .restart_at = seconds(9)});

  SimConfig file = mem;
  file.wal_dir = fresh_dir("memvsfile");

  const SimResult mem_result = run_simulation(mem);
  const SimResult file_result = run_simulation(file);

  EXPECT_EQ(mem_result.committed_tps, file_result.committed_tps);
  EXPECT_EQ(mem_result.max_round, file_result.max_round);
  EXPECT_EQ(mem_result.wal_replayed_blocks, file_result.wal_replayed_blocks);
  ASSERT_EQ(mem_result.sequences.size(), file_result.sequences.size());
  for (std::size_t v = 0; v < mem_result.sequences.size(); ++v) {
    EXPECT_EQ(mem_result.sequences[v], file_result.sequences[v]) << "validator " << v;
  }
}

TEST(Recovery, GroupCommitRestartFromOnDiskWalPreservesTheContract) {
  // Same crash/restart scenario as above, but the WAL runs the group-commit
  // model: records land in groups behind a deferred flush, proposals
  // broadcast only after their covering flush, and the crash drops the
  // staged (non-durable) tail. The recovery contract must be intact: the
  // replayed prefix rebuilds the proposer round, nobody equivocates, and the
  // log replays cleanly (group boundaries are invisible to replay).
  SimConfig config = recovery_config();
  config.wal_dir = fresh_dir("groupwal");
  config.wal_group_commit = true;
  config.wal_flush_interval = millis(2);
  config.restarts.push_back({.id = 2, .crash_at = seconds(6), .restart_at = seconds(9)});

  const SimResult result = run_simulation(config);

  EXPECT_GT(result.wal_groups_flushed, 50u);  // groups actually formed
  EXPECT_GT(result.wal_replayed_blocks, 50u);
  EXPECT_EQ(result.equivocation_cells, 0u);
  expect_prefix_consistent(result, "group-commit file-wal restart");
  EXPECT_GT(result.committed_tps, config.load_tps * 0.5);
  ASSERT_EQ(result.sequences.size(), 4u);
  EXPECT_GT(result.sequences[2].size(), result.sequences[0].size() / 2)
      << "restarted validator should resume delivering";

  // The group-committed log is indistinguishable from an inline one at
  // replay time: every validator's file parses end to end.
  for (ValidatorId v = 0; v < config.n; ++v) {
    const auto replay = SegmentedWal::replay(
        (std::filesystem::path(config.wal_dir) / ("v" + std::to_string(v) + ".wal"))
            .string(),
        [](BlockPtr, bool) {});
    EXPECT_GT(replay.records, 0u) << "validator " << v;
    EXPECT_FALSE(replay.corrupt_tail) << "validator " << v;
  }
}

TEST(Recovery, CrashWithoutRestartIsToleratedAsFault) {
  SimConfig config = recovery_config();
  config.restarts.push_back({.id = 3, .crash_at = seconds(5), .restart_at = 0});

  const SimResult result = run_simulation(config);

  // n=4 tolerates f=1: the survivors keep committing at full load.
  EXPECT_GT(result.committed_tps, config.load_tps * 0.5);
  EXPECT_EQ(result.equivocation_cells, 0u);
  expect_prefix_consistent(result, "crash-only");

  // The dead validator's sequence froze at the crash; survivors moved on.
  EXPECT_LT(result.sequences[3].size(), result.sequences[0].size());
}

TEST(Recovery, StaggeredRestartsOfTwoValidators) {
  // Two validators fail at different times with disjoint outages. At any
  // instant at most one is down, so the cluster stays live throughout, and
  // both recoveries must preserve agreement.
  SimConfig config = recovery_config();
  config.wal_dir = fresh_dir("staggered");
  config.restarts.push_back({.id = 1, .crash_at = seconds(4), .restart_at = seconds(7)});
  config.restarts.push_back({.id = 2, .crash_at = seconds(9), .restart_at = seconds(12)});

  const SimResult result = run_simulation(config);

  EXPECT_EQ(result.equivocation_cells, 0u);
  EXPECT_GT(result.committed_tps, config.load_tps * 0.4);
  expect_prefix_consistent(result, "staggered restarts");
}

TEST(Recovery, RestartUnderWanAndHigherLoad) {
  SimConfig config = recovery_config();
  config.wan = true;
  config.n = 10;
  config.load_tps = 5'000;
  config.duration = seconds(15);
  config.wal_dir = fresh_dir("wan");
  config.restarts.push_back({.id = 4, .crash_at = seconds(5), .restart_at = seconds(8)});

  const SimResult result = run_simulation(config);

  EXPECT_EQ(result.equivocation_cells, 0u);
  EXPECT_GT(result.committed_tps, config.load_tps * 0.5);
  expect_prefix_consistent(result, "wan restart");
}

TEST(Recovery, LateJoinerCatchesUpFromPeers) {
  // A validator that crashes at t=0 (before doing anything, WAL empty) and
  // restarts at t=6 is effectively a late joiner: everything it needs must
  // come from peers through the synchronizer's fetch path, so the peers keep
  // unbounded history (with GC they prune it; see the gc_config scenarios).
  SimConfig config = recovery_config();
  CommitterOptions options = mahi_mahi_5(config.leaders_per_round);
  options.gc_depth = 0;
  config.committer_override = options;
  config.restarts.push_back({.id = 2, .crash_at = millis(1), .restart_at = seconds(6)});

  const SimResult result = run_simulation(config);

  EXPECT_EQ(result.equivocation_cells, 0u);
  expect_prefix_consistent(result, "late joiner");
  EXPECT_GT(result.committed_tps, config.load_tps * 0.5);
  // The late joiner delivers a substantial share of what its peers did.
  ASSERT_EQ(result.sequences.size(), 4u);
  EXPECT_GT(result.sequences[2].size(), result.sequences[0].size() / 2);
  // And the catch-up actually used the fetch path.
  EXPECT_GT(result.fetch_requests, 0u);
}

// --- Checkpoint & state-sync scenarios (checkpoint/) -------------------------

// Mahi-Mahi-5 with a GC horizon: peers prune, so a validator that misses
// more than ~gc_depth rounds can no longer catch up through the fetch path
// alone. The late-joiner scenarios use a tight horizon (outage >> horizon,
// forcing snapshot catch-up); the plain-restart scenarios use a deep one
// (outage < horizon, so recovery is checkpoint + suffix + live fetch and
// the delivered sequence stays one contiguous window).
SimConfig gc_config(Round gc_depth = 10) {
  SimConfig config = recovery_config();
  CommitterOptions options = mahi_mahi_5(2);
  options.gc_depth = gc_depth;
  config.committer_override = options;
  return config;
}

// The restarted/late validator's sequence restarts at its recovered
// checkpoint head, so instead of prefix equality from index 0 we check that
// it is a contiguous window of a peer's sequence.
void expect_suffix_consistent(const SimResult& result, ValidatorId joiner,
                              ValidatorId peer, const std::string& label) {
  const auto& joined = result.sequences[joiner];
  const auto& reference = result.sequences[peer];
  ASSERT_FALSE(joined.empty()) << label << ": joiner delivered nothing";
  const auto start = std::find(reference.begin(), reference.end(), joined.front());
  ASSERT_NE(start, reference.end())
      << label << ": joiner's first delivery unknown to peer " << peer;
  const std::size_t offset = static_cast<std::size_t>(start - reference.begin());
  const std::size_t common = std::min(joined.size(), reference.size() - offset);
  for (std::size_t k = 0; k < common; ++k) {
    ASSERT_EQ(joined[k], reference[offset + k])
        << label << ": diverges at suffix index " << k;
  }
}

TEST(Recovery, LateJoinerBeyondGcHorizonStallsWithoutCheckpoints) {
  // Pinned behavior this subsystem exists to fix: with GC on and no
  // checkpoints, a validator that rejoins after everyone's horizon passed
  // its knowledge keeps asking for pruned ancestors (the cores even emit
  // snapshot requests — there is just no snapshot to serve) and never
  // delivers anything again. The cluster tolerates it as a fault; the
  // joiner itself is lost.
  SimConfig config = gc_config();
  config.restarts.push_back({.id = 2, .crash_at = millis(1), .restart_at = seconds(8)});

  const SimResult result = run_simulation(config);

  EXPECT_EQ(result.checkpoints_written, 0u);
  EXPECT_EQ(result.snapshot_catchups, 0u);
  EXPECT_GT(result.checkpoint_requests, 0u) << "the joiner is stuck and asking";
  ASSERT_EQ(result.sequences.size(), 4u);
  EXPECT_TRUE(result.sequences[2].empty()) << "stalled: nothing ever delivered";
  // The other three keep the cluster healthy.
  EXPECT_GT(result.committed_tps, config.load_tps * 0.5);
  EXPECT_EQ(result.equivocation_cells, 0u);
}

TEST(Recovery, LateJoinerBeyondGcHorizonCatchesUpViaSnapshot) {
  // Same scenario with checkpointing on: the joiner's ancestry walk hits the
  // peers' horizons, the horizon notice flips it into snapshot catch-up, it
  // installs a peer checkpoint (real codec + verification over the
  // simulated link) and delivers in agreement from the checkpoint head on.
  SimConfig config = gc_config();
  config.checkpoint_interval = 5;
  config.restarts.push_back({.id = 2, .crash_at = millis(1), .restart_at = seconds(8)});

  const SimResult result = run_simulation(config);

  EXPECT_GT(result.checkpoints_written, 0u);
  EXPECT_GE(result.snapshot_catchups, 1u) << "the snapshot path must have fired";
  EXPECT_EQ(result.equivocation_cells, 0u);
  EXPECT_GT(result.committed_tps, config.load_tps * 0.5);
  ASSERT_EQ(result.sequences.size(), 4u);
  expect_suffix_consistent(result, 2, 0, "snapshot catch-up");
  // The joiner is genuinely back: it delivered a meaningful share of the
  // post-restart window, not just the installed state.
  EXPECT_GT(result.sequences[2].size(), 50u);
}

TEST(Recovery, SegmentedWalRestartRecoversFromCheckpointPlusSuffix) {
  // A mid-run crash/restart under the segmented layout: recovery installs
  // the newest on-disk checkpoint and replays only the segment suffix, and
  // the restarted validator rejoins in agreement. The on-disk footprint
  // stays bounded: retired segments are gone, at most two checkpoints kept.
  SimConfig config = gc_config(/*gc_depth=*/40);
  config.checkpoint_interval = 5;
  config.wal_dir = fresh_dir("segmented");
  config.wal_segment_bytes = 64 * 1024;  // small: force plenty of rolls
  config.restarts.push_back({.id = 2, .crash_at = seconds(6), .restart_at = seconds(9)});

  const SimResult result = run_simulation(config);

  EXPECT_GT(result.checkpoints_written, 0u);
  EXPECT_EQ(result.equivocation_cells, 0u);
  EXPECT_GT(result.committed_tps, config.load_tps * 0.5);
  ASSERT_EQ(result.sequences.size(), 4u);
  expect_suffix_consistent(result, 2, 0, "segmented restart");

  // Bounded disk: every validator's directory holds a retired-segment
  // manifest base > 0 and at most two checkpoint files.
  for (ValidatorId v = 0; v < config.n; ++v) {
    const std::string dir =
        config.wal_dir + "/v" + std::to_string(v) + ".wal";
    EXPECT_GT(SegmentedWal::read_manifest(dir), 0u) << "v" << v;
    EXPECT_LE(CheckpointStore::list(dir).size(), 2u) << "v" << v;
    // Retired segment files are actually deleted.
    const auto segments = SegmentedWal::list_segments(dir);
    ASSERT_FALSE(segments.empty()) << "v" << v;
    EXPECT_GE(segments.front(), SegmentedWal::read_manifest(dir)) << "v" << v;
  }
}

TEST(Recovery, CrashDuringCheckpointFallsBackWithoutDivergence) {
  // A slow checkpoint write (2 s) guarantees the crash lands mid-checkpoint:
  // the in-flight cut dies with the process (epoch-guarded completion, like
  // a group flush), and recovery falls back to the previous completed
  // checkpoint plus a longer segment suffix — more replay, never divergence.
  SimConfig config = gc_config(/*gc_depth=*/40);
  config.checkpoint_interval = 5;
  config.checkpoint_write_delay = seconds(2);
  config.wal_dir = fresh_dir("midckpt");
  config.wal_segment_bytes = 64 * 1024;
  config.restarts.push_back({.id = 1, .crash_at = seconds(7), .restart_at = seconds(10)});

  const SimResult result = run_simulation(config);

  EXPECT_GT(result.checkpoints_written, 0u);
  EXPECT_EQ(result.equivocation_cells, 0u);
  EXPECT_GT(result.committed_tps, config.load_tps * 0.4);
  ASSERT_EQ(result.sequences.size(), 4u);
  expect_suffix_consistent(result, 1, 0, "crash during checkpoint");
}

TEST(Recovery, DeltaChainCatchUpFormsCertsAndStaysDeterministic) {
  // Incremental checkpoints: after each base, up to max_deltas cuts
  // land as delta links (real checkpoint/delta.h codec), catch-up ships the
  // whole base+delta chain, and every completed cut collects a 2f+1
  // certificate through the real multisig path. The run must still be
  // bit-deterministic under a fixed seed — the delta/cert machinery adds
  // events but no nondeterminism.
  SimConfig config = gc_config();
  config.checkpoint_interval = 5;
  config.restarts.push_back({.id = 2, .crash_at = millis(1), .restart_at = seconds(8)});

  const SimResult result = run_simulation(config);

  EXPECT_GT(result.checkpoints_written, 0u);
  EXPECT_GT(result.checkpoint_delta_cuts, 0u) << "no cut ever landed as a delta";
  EXPECT_GT(result.checkpoint_certs_formed, 0u) << "no certificate aggregated";
  EXPECT_GE(result.snapshot_catchups, 1u) << "chain catch-up must have fired";
  EXPECT_EQ(result.equivocation_cells, 0u);
  EXPECT_GT(result.committed_tps, config.load_tps * 0.5);
  ASSERT_EQ(result.sequences.size(), 4u);
  expect_suffix_consistent(result, 2, 0, "delta-chain catch-up");

  const SimResult again = run_simulation(config);
  EXPECT_EQ(result.committed_tps, again.committed_tps);
  EXPECT_EQ(result.checkpoints_written, again.checkpoints_written);
  EXPECT_EQ(result.checkpoint_delta_cuts, again.checkpoint_delta_cuts);
  EXPECT_EQ(result.checkpoint_certs_formed, again.checkpoint_certs_formed);
  EXPECT_EQ(result.snapshot_catchups, again.snapshot_catchups);
  EXPECT_EQ(result.sequences, again.sequences);
}

TEST(Recovery, CertShareWithholdingBeyondFBlocksEveryCertificate) {
  // Byzantine share withholding: with two of four validators never
  // endorsing, at most 2 shares exist per cut — below the 2f+1 = 3
  // threshold — so no certificate ever forms. Checkpointing itself (and
  // uncertified catch-up, the legacy trust path) must keep working.
  SimConfig config = gc_config();
  config.checkpoint_interval = 5;
  config.cert_withholding = {0, 1};
  config.restarts.push_back({.id = 2, .crash_at = millis(1), .restart_at = seconds(8)});

  const SimResult result = run_simulation(config);

  EXPECT_GT(result.checkpoints_written, 0u);
  EXPECT_EQ(result.checkpoint_certs_formed, 0u)
      << "a certificate aggregated despite a blocked quorum";
  EXPECT_GE(result.snapshot_catchups, 1u);
  EXPECT_EQ(result.equivocation_cells, 0u);
  EXPECT_GT(result.committed_tps, config.load_tps * 0.5);
  ASSERT_EQ(result.sequences.size(), 4u);
  expect_suffix_consistent(result, 2, 0, "withheld-cert catch-up");
}

TEST(Recovery, SimCatchUpInstallsCertifiedChainsUnlessSharesAreWithheld) {
  // The sim runs the node's own Checkpointer and exports its counters under
  // the runtime's names, so catch-up installs split by trust root exactly as
  // on a real node. With every validator sharing, the joiner installs a
  // threshold-certified chain; with more than f withholding, no certificate
  // forms and catch-up takes the uncertified legacy path.
  SimConfig config = gc_config();
  config.checkpoint_interval = 5;
  config.restarts.push_back({.id = 2, .crash_at = millis(1), .restart_at = seconds(8)});

  const SimResult shared = run_simulation(config);
  EXPECT_GE(shared.metrics.counter_value("mm_checkpoint_certified_installs_total"), 1u);
  EXPECT_EQ(shared.metrics.counter_value("mm_checkpoint_uncertified_installs_total"), 0u);
  EXPECT_EQ(shared.metrics.counter_value("mm_checkpoint_certs_total"),
            shared.checkpoint_certs_formed);
  EXPECT_EQ(shared.equivocation_cells, 0u);

  config.cert_withholding = {0, 1};
  const SimResult withheld = run_simulation(config);
  EXPECT_GE(withheld.metrics.counter_value("mm_checkpoint_uncertified_installs_total"), 1u);
  EXPECT_EQ(withheld.metrics.counter_value("mm_checkpoint_certified_installs_total"), 0u);
  EXPECT_EQ(withheld.equivocation_cells, 0u);
}

TEST(Recovery, WalFilesArePerValidatorAndNonEmpty) {
  SimConfig config = recovery_config();
  config.duration = seconds(6);
  config.warmup = seconds(1);
  config.wal_dir = fresh_dir("files");
  config.restarts.push_back({.id = 0, .crash_at = seconds(3), .restart_at = seconds(4)});

  run_simulation(config);

  for (ValidatorId v = 0; v < config.n; ++v) {
    const auto path = std::filesystem::path(config.wal_dir) /
                      ("v" + std::to_string(v) + ".wal");
    ASSERT_TRUE(std::filesystem::is_directory(path)) << path;
    const auto first = SegmentedWal::segment_path(path.string(), 0);
    ASSERT_TRUE(std::filesystem::exists(first)) << first;
    EXPECT_GT(std::filesystem::file_size(first), 0u) << first;
  }

  // The restarted validator's log must replay cleanly end to end.
  std::uint64_t replayed = 0;
  const auto replay =
      SegmentedWal::replay((std::filesystem::path(config.wal_dir) / "v0.wal").string(),
                           [&](BlockPtr, bool) { ++replayed; });
  EXPECT_FALSE(replay.corrupt_tail);
  EXPECT_GT(replayed, 0u);
}

}  // namespace
}  // namespace mahimahi::sim
