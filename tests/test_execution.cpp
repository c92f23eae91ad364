// Tests for the conflict-aware parallel execution subsystem (exec/): wave
// partition invariants against the pairwise-conflict ground truth, dedup /
// malformed / filler / access-violation parity with app::ReplicatedKv, the
// property that parallel apply is byte-identical in state_digest() to serial
// apply across randomized conflict rates and interleavings, early-delivery
// ordering safety on the caller-runs and the threaded engine, the simulator
// running the node's engine (crash/restart recovery, execute-stage
// reporting), and a live TCP cluster running the threaded engine end to
// end.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "app/replicated_kv.h"
#include "client/kv_batches.h"
#include "common/env.h"
#include "exec/access.h"
#include "exec/engine.h"
#include "net/node_runtime.h"
#include "sim/dag_builder.h"
#include "sim/harness.h"
#include "support/local_ports.h"

namespace mahimahi::exec {
namespace {

using app::KvCommand;

TxBatch kv_batch(std::uint64_t id, const std::vector<KvCommand>& commands) {
  return client::make_kv_batch(id, commands);
}

// A batch that encodes KV commands but declares nothing (the undeclared
// path: access derived from the payload).
TxBatch undeclared_kv_batch(std::uint64_t id, const std::vector<KvCommand>& commands) {
  TxBatch batch = client::make_kv_batch(id, commands);
  batch.write_keys.clear();
  batch.read_keys.clear();
  return batch;
}

CommittedSubDag subdag_of(const std::vector<BlockPtr>& blocks) {
  CommittedSubDag subdag;
  subdag.slot = SlotId{blocks.back()->round(), 0};
  subdag.leader = blocks.back();
  subdag.blocks = blocks;
  return subdag;
}

// One-block sub-DAG carrying `batches`, rounds advancing per call so the
// builder accepts repeated use.
class SubdagFactory {
 public:
  SubdagFactory() : builder_(4) {
    for (const auto& g : builder_.dag().blocks_at(0)) {
      genesis_refs_.push_back(g->ref());
    }
  }

  CommittedSubDag make(std::vector<TxBatch> batches) {
    // Spread the batches over a couple of blocks so plans cross block
    // boundaries (committed order = block order, then batch order).
    const auto round = next_round_++;
    std::vector<BlockPtr> blocks;
    const std::size_t per_block = batches.size() <= 2 ? batches.size() : batches.size() / 2;
    std::size_t taken = 0;
    ValidatorId author = 0;
    while (taken < batches.size()) {
      const std::size_t n = std::min(per_block == 0 ? batches.size() : per_block,
                                     batches.size() - taken);
      std::vector<TxBatch> chunk(batches.begin() + taken, batches.begin() + taken + n);
      blocks.push_back(builder_.add_block(author++, round, genesis_refs_, chunk));
      taken += n;
    }
    if (blocks.empty()) {
      blocks.push_back(builder_.add_block(0, round, genesis_refs_, {}));
    }
    return subdag_of(blocks);
  }

 private:
  DagBuilder builder_;
  std::vector<BlockRef> genesis_refs_;
  Round next_round_ = 1;
};

// --------------------------------------------------------------------------
// Access sets
// --------------------------------------------------------------------------

TEST(AccessSets, DeriveDeclareAndConflict) {
  const std::vector<KvCommand> commands = {KvCommand::put("a", "1"),
                                           KvCommand::del("b"), KvCommand{}};
  const AccessSet derived = derive_kv_access(commands);
  EXPECT_EQ(derived.writes, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(derived.reads.empty());

  AccessSet declared;
  declared.writes = {"a", "b"};
  EXPECT_TRUE(declared_covers(declared, commands));
  declared.writes = {"a"};
  EXPECT_FALSE(declared_covers(declared, commands));

  AccessSet x, y;
  x.writes = {"k"};
  y.reads = {"k"};
  EXPECT_TRUE(conflicts(x, y));
  EXPECT_TRUE(conflicts(y, x));
  y = AccessSet{};
  y.writes = {"other"};
  EXPECT_FALSE(conflicts(x, y));
  AccessSet opaque;
  opaque.opaque = true;
  EXPECT_TRUE(conflicts(opaque, y));
  EXPECT_TRUE(conflicts(AccessSet{}, opaque));
}

// --------------------------------------------------------------------------
// Plan construction: wave invariants
// --------------------------------------------------------------------------

// Invariant 1: two transactions in the same wave never conflict.
// Invariant 2: every conflicting pair sits in waves ordered like the
// committed order (the earlier transaction in a strictly earlier wave).
// Plus: every transaction is placed in exactly one wave.
void expect_wave_invariants(const Plan& plan) {
  std::vector<std::uint32_t> seen(plan.txns.size(), 0);
  for (std::size_t w = 0; w < plan.waves.size(); ++w) {
    for (const std::uint32_t i : plan.waves[w]) {
      ++seen[i];
      EXPECT_EQ(plan.txns[i].wave, w);
    }
  }
  for (std::size_t i = 0; i < plan.txns.size(); ++i) {
    EXPECT_EQ(seen[i], 1u) << "txn " << i << " placed " << seen[i] << " times";
  }
  for (std::size_t i = 0; i < plan.txns.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.txns.size(); ++j) {
      if (!conflicts(plan.txns[i].access, plan.txns[j].access)) continue;
      EXPECT_LT(plan.txns[i].wave, plan.txns[j].wave)
          << "conflicting pair (" << i << ", " << j
          << ") not ordered by strictly increasing wave";
    }
  }
}

TEST(ExecutionPlan, RandomizedWaveInvariants) {
  const std::uint64_t iters = property_iters(20);
  const std::uint32_t rates[] = {0, 25, 75, 100};
  for (const std::uint32_t rate : rates) {
    for (std::uint64_t seed = 1; seed <= iters; ++seed) {
      Rng rng(seed * 977 + rate);
      client::KvWorkload workload;
      workload.conflict_percent = rate;
      workload.hot_keys = 3;
      workload.commands_per_batch = 4;
      std::vector<ExecTxn> txns;
      std::vector<TxBatch> batches;
      for (std::uint64_t i = 0; i < 12; ++i) {
        batches.push_back(client::synth_kv_batch(workload, seed, i, rng));
        if (rng.uniform(8) == 0) {
          // Conservative class: non-KV payload, declares nothing.
          TxBatch opaque;
          opaque.id = 5000 + i;
          opaque.payload = to_bytes("not a kv payload");
          batches.push_back(opaque);
        }
      }
      for (const TxBatch& batch : batches) txns.push_back(decode_batch(batch));
      std::unordered_set<Digest, DigestHasher> executed;
      const Plan plan = build_plan(std::move(txns), executed);
      expect_wave_invariants(plan);
    }
  }
}

TEST(ExecutionPlan, ConflictingBatchesKeepCommitOrderDisjointShareWaves) {
  std::vector<ExecTxn> txns;
  const auto a = kv_batch(1, {KvCommand::put("k", "1")});
  const auto b = kv_batch(2, {KvCommand::put("k", "2")});   // conflicts with a
  const auto c = kv_batch(3, {KvCommand::put("x", "3")});   // disjoint
  txns.push_back(decode_batch(a));
  txns.push_back(decode_batch(b));
  txns.push_back(decode_batch(c));
  std::unordered_set<Digest, DigestHasher> executed;
  const Plan plan = build_plan(std::move(txns), executed);
  EXPECT_EQ(plan.txns[0].wave, 0u);
  EXPECT_EQ(plan.txns[1].wave, 1u);  // same key: strictly after
  EXPECT_EQ(plan.txns[2].wave, 0u);  // disjoint: earliest wave
  EXPECT_EQ(plan.conflict_delayed, 1u);
}

TEST(ExecutionPlan, OpaqueBatchIsABarrier) {
  std::vector<ExecTxn> txns;
  txns.push_back(decode_batch(kv_batch(1, {KvCommand::put("a", "1")})));
  TxBatch opaque;
  opaque.id = 2;
  opaque.payload = to_bytes("unknown application bytes");
  txns.push_back(decode_batch(opaque));
  txns.push_back(decode_batch(kv_batch(3, {KvCommand::put("b", "2")})));
  std::unordered_set<Digest, DigestHasher> executed;
  const Plan plan = build_plan(std::move(txns), executed);
  // Barrier: after everything before it, before everything after it — even
  // though "a" and "b" are disjoint.
  EXPECT_LT(plan.txns[0].wave, plan.txns[1].wave);
  EXPECT_LT(plan.txns[1].wave, plan.txns[2].wave);
}

TEST(ExecutionPlan, SkippedBatchesRideAtFloorAndConstrainNothing) {
  std::vector<ExecTxn> txns;
  const auto original = kv_batch(1, {KvCommand::put("k", "v")});
  txns.push_back(decode_batch(original));
  txns.push_back(decode_batch(original));  // duplicate
  TxBatch filler;                          // empty payload
  filler.id = 9;
  filler.count = 10;
  txns.push_back(decode_batch(filler));
  TxBatch corrupt = kv_batch(2, {KvCommand::put("x", "y")});
  corrupt.payload.resize(corrupt.payload.size() - 1);
  corrupt.write_keys.clear();
  txns.push_back(decode_batch(corrupt));
  // A later writer of "k": must still be ordered against txn 0 only.
  txns.push_back(decode_batch(kv_batch(3, {KvCommand::put("k", "w")})));

  std::unordered_set<Digest, DigestHasher> executed;
  const Plan plan = build_plan(std::move(txns), executed);
  EXPECT_EQ(plan.txns[1].skip, Skip::kDuplicate);
  EXPECT_EQ(plan.txns[2].skip, Skip::kFiller);
  EXPECT_EQ(plan.txns[3].skip, Skip::kMalformed);
  // Skips deliver in the earliest admissible wave and carry no access set.
  EXPECT_EQ(plan.txns[1].wave, 0u);
  EXPECT_EQ(plan.txns[2].wave, 0u);
  EXPECT_EQ(plan.txns[3].wave, 0u);
  EXPECT_TRUE(plan.txns[1].access.touches_nothing());
  // The real conflict is still honoured.
  EXPECT_LT(plan.txns[0].wave, plan.txns[4].wave);
}

TEST(ExecutionPlan, AccessViolationDemotesToOpaqueButStillExecutes) {
  // Declares {a} but also writes undeclared key "b": demoted to the
  // conservative class (barrier), flagged, and still applied.
  TxBatch liar = client::make_kv_batch(
      7, {KvCommand::put("a", "1"), KvCommand::put("b", "2")});
  liar.write_keys = {"a"};

  ExecTxn txn = decode_batch(liar);
  EXPECT_TRUE(txn.access.opaque);
  EXPECT_TRUE(txn.access_violation);
  EXPECT_EQ(txn.skip, Skip::kNone);

  SubdagFactory factory;
  SerialExecutor executor;
  executor.apply_subdag(factory.make({liar}));
  EXPECT_EQ(executor.store().get("a"), "1");
  EXPECT_EQ(executor.store().get("b"), "2");
  EXPECT_EQ(executor.stats().access_violations, 1u);
  EXPECT_EQ(executor.stats().opaque, 1u);
}

// --------------------------------------------------------------------------
// Serial executor parity with ReplicatedKv
// --------------------------------------------------------------------------

TEST(SerialExecutorParity, HostileStreamMatchesReplicatedKv) {
  SubdagFactory factory;
  const auto resubmitted = kv_batch(1, {KvCommand::put("ctr", "1")});
  TxBatch corrupt = kv_batch(2, {KvCommand::put("x", "y")});
  corrupt.payload.resize(corrupt.payload.size() - 1);
  corrupt.write_keys.clear();
  TxBatch filler;
  filler.id = 3;
  filler.count = 50;
  TxBatch opaque;
  opaque.id = 4;
  opaque.payload = to_bytes("bench filler with content");

  const auto sub1 = factory.make({resubmitted, corrupt, filler,
                                  kv_batch(5, {KvCommand::put("k", "v1")})});
  const auto sub2 = factory.make({resubmitted,  // duplicate across sub-DAGs
                                  opaque, kv_batch(5, {KvCommand::put("k", "v2")}),
                                  kv_batch(1, {KvCommand::put("ctr", "2")})});

  app::ReplicatedKv replica;
  SerialExecutor executor;
  for (const auto& sub : {sub1, sub2}) {
    replica.apply_subdag(sub);
    executor.apply_subdag(sub);
  }
  EXPECT_EQ(executor.state_digest(), replica.state_digest());
  EXPECT_EQ(executor.stats().commands_applied, replica.commands_applied());
  EXPECT_EQ(executor.stats().deduplicated, replica.batches_deduplicated());
  EXPECT_EQ(executor.stats().malformed, replica.malformed_batches());
  EXPECT_EQ(executor.stats().subdags, 2u);
}

// --------------------------------------------------------------------------
// Engine: early delivery and the threaded path
// --------------------------------------------------------------------------

TEST(ExecutionEngine, WaveDeliveriesArriveInOrderWithEarlyFlags) {
  SubdagFactory factory;
  // Three writers of one key: three waves.
  const auto sub = factory.make({kv_batch(1, {KvCommand::put("k", "1")}),
                                 kv_batch(2, {KvCommand::put("k", "2")}),
                                 kv_batch(3, {KvCommand::put("k", "3")})});

  std::vector<WaveDelivery> waves;
  ExecutionEngine engine(ExecutionEngine::Options{.threads = 0},
                         [&](const WaveDelivery& wave) { waves.push_back(wave); });
  engine.execute(sub, /*enqueued_at=*/100);
  engine.drain();

  ASSERT_EQ(waves.size(), 3u);
  for (std::size_t i = 0; i < waves.size(); ++i) {
    ASSERT_EQ(waves[i].batches.size(), 1u);
    EXPECT_EQ(waves[i].batches[0].wave, i);
    EXPECT_EQ(waves[i].batches[0].early, i + 1 < waves.size());
    EXPECT_EQ(waves[i].subdag_complete, i + 1 == waves.size());
    EXPECT_EQ(waves[i].enqueued_at, 100);
  }
  const ExecStats stats = engine.stats();
  EXPECT_EQ(stats.subdags, 1u);
  EXPECT_EQ(stats.waves, 3u);
  EXPECT_EQ(stats.early_deliveries, 2u);
  EXPECT_EQ(engine.state_digest(), [&] {
    app::ReplicatedKv replica;
    replica.apply_subdag(sub);
    return replica.state_digest();
  }());
}

// One randomized sub-DAG's batches at `workload`'s conflict rate, with
// resubmissions, Byzantine garbage, filler and undeclared KV mixed in.
// `previous` carries the resubmission source across calls.
std::vector<TxBatch> random_batches(Rng& rng, const client::KvWorkload& workload,
                                    std::uint64_t seed, int sub_index, TxBatch& previous) {
  std::vector<TxBatch> batches;
  const std::uint64_t count = 3 + rng.uniform(6);
  for (std::uint64_t i = 0; i < count; ++i) {
    TxBatch batch = client::synth_kv_batch(
        workload, seed, static_cast<std::uint64_t>(sub_index) * 100 + i, rng);
    switch (rng.uniform(10)) {
      case 0:  // client resubmission
        if (!previous.payload.empty()) batch = previous;
        break;
      case 1:  // Byzantine garbage
        batch.payload.resize(batch.payload.size() / 2 + 1);
        batch.write_keys.clear();
        break;
      case 2:  // bandwidth filler
        batch.payload.clear();
        batch.write_keys.clear();
        break;
      case 3:  // undeclared KV (derived access path)
        batch.write_keys.clear();
        break;
      default:
        break;
    }
    previous = batch;
    batches.push_back(std::move(batch));
  }
  return batches;
}

// The acceptance property: parallel apply (worker pool + wave merge) is
// byte-identical in state_digest() to serial apply and to ReplicatedKv, over
// >= 100 randomized schedules spanning 0/25/75/100% conflict rates, with
// duplicates, malformed payloads, filler, and opaque batches mixed in.
TEST(ExecutionEngineProperty, ParallelApplyByteIdenticalToSerial) {
  const std::uint64_t iters = property_iters(30);
  const std::uint32_t rates[] = {0, 25, 75, 100};
  for (const std::uint32_t rate : rates) {
    for (std::uint64_t seed = 1; seed <= iters; ++seed) {
      Rng rng(seed * 7919 + rate);
      client::KvWorkload workload;
      workload.conflict_percent = rate;
      workload.hot_keys = 4;
      workload.commands_per_batch = 5;

      SubdagFactory factory;
      app::ReplicatedKv replica;
      SerialExecutor serial;
      ExecutionEngine engine(ExecutionEngine::Options{.threads = 2});

      TxBatch previous;  // resubmission source
      for (int sub_index = 0; sub_index < 3; ++sub_index) {
        const CommittedSubDag sub =
            factory.make(random_batches(rng, workload, seed, sub_index, previous));
        replica.apply_subdag(sub);
        serial.apply_subdag(sub);
        engine.execute(sub, /*enqueued_at=*/0);
      }

      const Digest parallel_digest = engine.state_digest();
      ASSERT_EQ(parallel_digest, serial.state_digest())
          << "rate=" << rate << " seed=" << seed;
      ASSERT_EQ(parallel_digest, replica.state_digest())
          << "rate=" << rate << " seed=" << seed;
      EXPECT_EQ(engine.stats().commands_applied, replica.commands_applied());
      EXPECT_EQ(engine.stats().deduplicated, replica.batches_deduplicated());
    }
  }
}

// Early-delivery safety on the caller-runs and the threaded engine: a batch
// may be delivered before its sub-DAG retires, but never while a conflicting
// plan-order predecessor in its sub-DAG is still undelivered. The handler
// checks each delivered wave against a reference plan built beside the
// engine (same dedup horizon), with the pairwise exec::conflicts() ground
// truth.
TEST(ExecutionEngineProperty, EarlyDeliveriesNeverPrecedeConflictingPredecessors) {
  const std::uint64_t iters = property_iters(30);
  const std::uint32_t rates[] = {25, 75, 100};
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    std::uint64_t early = 0;
    for (const std::uint32_t rate : rates) {
      for (std::uint64_t seed = 1; seed <= iters; ++seed) {
        Rng rng(seed * 104729 + rate);
        client::KvWorkload workload;
        workload.conflict_percent = rate;
        workload.hot_keys = 2;
        workload.commands_per_batch = 3;

        SubdagFactory factory;
        std::vector<CommittedSubDag> subs;
        std::vector<Plan> plans;  // committed order, one per sub-DAG
        std::unordered_set<Digest, DigestHasher> executed;
        TxBatch previous;
        for (int sub_index = 0; sub_index < 3; ++sub_index) {
          subs.push_back(factory.make(random_batches(rng, workload, seed, sub_index, previous)));
          plans.push_back(build_plan(decode_subdag(subs.back()), executed));
        }

        // Merge-thread state with threads > 0; read after the drain below.
        std::size_t current = 0;  // plan of the sub-DAG being delivered
        std::size_t next_wave = 0;
        std::vector<char> delivered;
        std::uint64_t violations = 0;
        std::uint64_t mismatches = 0;
        ExecutionEngine engine(ExecutionEngine::Options{.threads = threads},
                               [&](const WaveDelivery& wave) {
          if (current == plans.size()) {
            ++mismatches;
            return;
          }
          const Plan& plan = plans[current];
          if (plan.waves.empty()) {
            // An empty sub-DAG retires with one delivery carrying no batches.
            mismatches += wave.batches.empty() && wave.subdag_complete ? 0 : 1;
            ++current;
            return;
          }
          if (next_wave == 0) delivered.assign(plan.txns.size(), 0);
          const std::vector<std::uint32_t>& members = plan.waves[next_wave];
          if (wave.batches.size() != members.size()) {
            ++mismatches;
            return;
          }
          for (std::size_t pos = 0; pos < members.size(); ++pos) {
            const std::uint32_t i = members[pos];
            if (wave.batches[pos].batch_id != plan.txns[i].batch->id) ++mismatches;
            for (std::uint32_t j = 0; j < i; ++j) {
              if (!delivered[j] && conflicts(plan.txns[j].access, plan.txns[i].access)) {
                ++violations;
              }
            }
          }
          for (const std::uint32_t i : members) delivered[i] = 1;
          if (++next_wave == plan.waves.size()) {
            mismatches += wave.subdag_complete ? 0 : 1;
            ++current;
            next_wave = 0;
          }
        });
        for (const auto& sub : subs) engine.execute(sub, /*enqueued_at=*/0);
        engine.drain();
        ASSERT_EQ(mismatches, 0u) << "threads=" << threads << " rate=" << rate
                                  << " seed=" << seed;
        EXPECT_EQ(violations, 0u) << "threads=" << threads << " rate=" << rate
                                  << " seed=" << seed;
        early += engine.stats().early_deliveries;
      }
    }
    EXPECT_GT(early, 0u) << "threads=" << threads;
  }
}

TEST(ExecutionEngine, SnapshotRoundTripClearsDedupHorizon) {
  SubdagFactory factory;
  const auto batch = kv_batch(1, {KvCommand::put("a", "1")});
  ExecutionEngine engine(ExecutionEngine::Options{.threads = 0});
  engine.execute(factory.make({batch}), 0);

  const Bytes snapshot = engine.app_snapshot();
  ExecutionEngine restored(ExecutionEngine::Options{.threads = 0});
  restored.install_snapshot({snapshot.data(), snapshot.size()});
  EXPECT_EQ(restored.state_digest(), engine.state_digest());

  // The dedup horizon moved with the snapshot: a pre-cut batch re-committed
  // after an install is executed again (documented trust-horizon caveat).
  restored.execute(factory.make({batch}), 0);
  restored.drain();
  EXPECT_EQ(restored.stats().deduplicated, 0u);
  EXPECT_EQ(restored.stats().batches_executed, 1u);
}

// --------------------------------------------------------------------------
// Simulator integration
// --------------------------------------------------------------------------

sim::SimConfig exec_sim_config() {
  sim::SimConfig config;
  config.protocol = sim::Protocol::kMahiMahi5;
  config.n = 4;
  config.wan = false;
  config.uniform_latency = millis(25);
  config.load_tps = 2'000;
  config.duration = seconds(8);
  config.warmup = seconds(2);
  config.seed = 11;
  config.execute_app = true;
  config.kv_conflict_percent = 25;
  return config;
}

// A crash loses the engine; restart rebuilds it by WAL replay (serial
// inline, the recovery contract) and ends byte-identical
// to a serial re-apply of the recovered validator's own commit stream.
TEST(SimExecution, CrashRestartMidWaveRecoversStateDigest) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mm_exec_restart_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  sim::SimConfig config = exec_sim_config();
  config.wal_dir = dir.string();
  config.duration = seconds(12);
  config.kv_conflict_percent = 75;  // multi-wave plans
  config.restarts.push_back({/*id=*/2, /*crash_at=*/seconds(4),
                             /*restart_at=*/seconds(6)});
  const sim::SimResult result = sim::run_simulation(config);
  std::filesystem::remove_all(dir);

  EXPECT_GT(result.wal_replayed_blocks, 0u);
  EXPECT_GT(result.exec_waves, 0u);
  // The recovered validator (and everyone else) matches the serial reference
  // replay of its own recorded stream — snapshot base included.
  EXPECT_EQ(result.exec_serial_mismatches, 0u);
  EXPECT_NE(result.app_digests[2], Digest{});
}

// The same crash with checkpoints on: recovery installs the newest cut's app
// snapshot into the new engine before the WAL suffix replays on top of it,
// and the serial reference restarts from that snapshot (the Checkpointer's
// app_installed observer).
TEST(SimExecution, CrashRestartFromCheckpointRecoversStateDigest) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mm_exec_ckpt_restart_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  sim::SimConfig config = exec_sim_config();
  config.wal_dir = dir.string();
  config.duration = seconds(12);
  config.checkpoint_interval = 10;
  config.kv_conflict_percent = 75;
  config.restarts.push_back({/*id=*/2, /*crash_at=*/seconds(5),
                             /*restart_at=*/seconds(7)});
  const sim::SimResult result = sim::run_simulation(config);
  std::filesystem::remove_all(dir);

  EXPECT_GT(result.checkpoints_written, 0u);
  EXPECT_GT(result.wal_replayed_blocks, 0u);
  EXPECT_EQ(result.exec_serial_mismatches, 0u);
  EXPECT_NE(result.app_digests[2], Digest{});
}

// The simulator reports execution the way the TCP runtime does: validator
// 0's pipeline records the kExecute span per retired sub-DAG and resolves
// every commit trace's execute stamp (zero-length in virtual time: the
// caller-runs engine delivers at the commit instant).
TEST(SimExecution, ReportsExecuteStageLikeTheRuntime) {
  sim::SimConfig config = exec_sim_config();
  config.kv_conflict_percent = 75;
  const sim::SimResult result = sim::run_simulation(config);

  EXPECT_EQ(result.exec_serial_mismatches, 0u);
  EXPECT_GT(result.exec_early_deliveries, 0u);
  EXPECT_GT(result.metrics.histogram("mm_stage_execute_micros").count(), 0u);
  EXPECT_GT(result.metrics.histogram("mm_finality_micros").count(), 0u);
  ASSERT_FALSE(result.commit_traces.empty());
  for (const CommitTrace& trace : result.commit_traces) {
    EXPECT_FALSE(trace.execute_pending) << "slot r" << trace.slot.round;
    EXPECT_EQ(trace.execute_micros, 0);
  }
}

// --------------------------------------------------------------------------
// Live TCP cluster with the threaded engine
// --------------------------------------------------------------------------

bool wait_for(const std::function<bool()>& predicate,
              std::chrono::milliseconds deadline = std::chrono::milliseconds(15000)) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

TEST(ExecCluster, ThreadedEngineMatchesSerialReplayOfOwnCommitStream) {
  const auto setup = Committee::make_test(4);
  // Per-node commit stream recorded by the commit handler (loop thread),
  // replayed serially below as the ground truth for the engine's state.
  std::vector<std::vector<CommittedSubDag>> streams(4);
  std::vector<std::mutex> stream_mutexes(4);
  auto nodes = test::start_cluster(
      4,
      [&](std::vector<net::NodeAddress> addresses) {
        test::Cluster built;
        for (ValidatorId v = 0; v < 4; ++v) {
          net::NodeRuntimeConfig config;
          config.validator.id = v;
          config.validator.committer = mahi_mahi_5(1);
          config.validator.min_round_delay = millis(5);
          config.validator.execute_app = true;
          config.validator.execution_threads = 2;
          config.peers = addresses;
          config.tick_interval = millis(10);
          config.verify_threads = 2;
          built.push_back(std::make_unique<net::NodeRuntime>(
              setup.committee, setup.keypairs[v].private_key, config));
          built.back()->set_commit_handler([&streams, &stream_mutexes, v](
                                               const CommittedSubDag& sub_dag) {
            std::lock_guard<std::mutex> lock(stream_mutexes[v]);
            streams[v].push_back(sub_dag);
          });
        }
        return built;
      },
      4);

  // Conflicting KV load from four client streams, plus one batch submitted
  // to two validators (the resubmission path the dedup horizon exists for).
  Rng rng(99);
  client::KvWorkload workload;
  workload.conflict_percent = 50;
  workload.commands_per_batch = 6;
  std::uint64_t expected_tx = 0;
  for (ValidatorId v = 0; v < 4; ++v) {
    std::vector<TxBatch> batches;
    for (std::uint64_t i = 0; i < 8; ++i) {
      batches.push_back(client::synth_kv_batch(workload, v, i, rng,
                                               steady_now_micros()));
      expected_tx += batches.back().count;
    }
    nodes[v]->submit(std::move(batches));
  }
  const TxBatch resubmitted =
      client::synth_kv_batch(workload, /*stream=*/77, /*sequence=*/0, rng,
                             steady_now_micros());
  nodes[0]->submit({resubmitted});
  nodes[1]->submit({resubmitted});
  expected_tx += 2 * resubmitted.count;

  EXPECT_TRUE(wait_for([&] {
    for (const auto& node : nodes) {
      if (node->committed_transactions() < expected_tx) return false;
    }
    return true;
  })) << "committed: " << nodes[0]->committed_transactions() << " of "
      << expected_tx;

  for (auto& node : nodes) node->stop();

  for (ValidatorId v = 0; v < 4; ++v) {
    ASSERT_TRUE(nodes[v]->execution_active());
    // Drains the engine, so the digest covers every commit the handler saw.
    const Digest engine_digest = nodes[v]->app_state_digest();
    app::ReplicatedKv reference;
    for (const auto& sub : streams[v]) reference.apply_subdag(sub);
    EXPECT_EQ(engine_digest, reference.state_digest()) << "validator " << v;

    const ExecStats stats = nodes[v]->execution_stats();
    EXPECT_GT(stats.subdags, 0u);
    EXPECT_GT(stats.batches_executed, 0u);
    EXPECT_EQ(stats.commands_applied, reference.commands_applied());
    EXPECT_EQ(stats.deduplicated, reference.batches_deduplicated());
    EXPECT_EQ(stats.malformed, 0u);
    EXPECT_EQ(stats.access_violations, 0u);
  }
}

}  // namespace
}  // namespace mahimahi::exec
