// End-to-end discrete-event simulation of a geo-replicated deployment.
//
// Substitutes for the paper's AWS testbed (§5.1): n validators run the
// real protocol logic (real blocks, real DAG, real commit rules) over a
// simulated WAN with per-link latency sampling and sender-side bandwidth
// serialization. Each validator is the TCP runtime's own NodePipeline
// (validator/pipeline.h); the harness supplies its clock, links and faults. Open-loop clients submit 512-byte transactions at a fixed
// aggregate rate; the harness measures commit latency (submission at the
// origin validator to commit at that validator) and committed throughput,
// exactly the quantities on the axes of Figures 3-5 and 7.
//
// Protocol variants:
//   * Mahi-Mahi (wave length 5/4/3, configurable leaders per round),
//   * Cordial Miners (uncertified DAG, 1 leader per 5 rounds, no direct skip),
//   * Tusk (certified DAG: dissemination pays a 2f+1 echo round trip before
//     each block becomes referencable, and blocks carry certificate bytes).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "client/metrics.h"
#include "core/commit_trace.h"
#include "core/options.h"
#include "obs/metrics.h"
#include "sim/adversary.h"
#include "sim/event_queue.h"
#include "sim/latency.h"
#include "validator/validator.h"

namespace mahimahi::sim {

enum class Protocol { kMahiMahi5, kMahiMahi4, kMahiMahi3, kCordialMiners, kTusk };

std::string to_string(Protocol protocol);

struct SimConfig {
  Protocol protocol = Protocol::kMahiMahi5;
  std::uint32_t n = 10;
  std::uint32_t leaders_per_round = 2;  // Mahi-Mahi only

  // Faults: the last `crashed` validators never start; the first
  // `equivocators` validators propose two conflicting blocks per round.
  std::uint32_t crashed = 0;
  std::uint32_t equivocators = 0;

  // Dynamic crash/restart fault injection (in addition to the static
  // `crashed` count): validator `id` halts at `crash_at` — in-flight
  // messages to it are dropped — and, when `restart_at` is nonzero, rejoins
  // then, rebuilding its DAG and proposer round by replaying its write-ahead
  // log (§4 crash recovery). Missed blocks are re-acquired through the
  // synchronizer's fetch path.
  struct RestartSpec {
    ValidatorId id = 0;
    TimeMicros crash_at = 0;
    TimeMicros restart_at = 0;  // 0 = crash only, never restarts
  };
  std::vector<RestartSpec> restarts;

  // When non-empty, every live validator's log is a SegmentedWal in the
  // directory `{wal_dir}/v{id}.wal`, which restart replays — the real
  // on-disk recovery path, serde included. When empty, restarts replay an
  // in-memory log (MemoryWal). Use a fresh directory per run: the WAL
  // appends.
  std::string wal_dir;

  // ValidatorConfig::wal_group_commit in virtual time: the log stages
  // records and lands them as one group wal_flush_interval after the first,
  // and a crash loses the staged tail. With no log at all (empty wal_dir and
  // no restarts) there is nothing to make durable, so acks stay synchronous.
  bool wal_group_commit = false;
  TimeMicros wal_flush_interval = millis(1);

  // Checkpointing (ValidatorConfig::checkpoint_interval): every validator
  // runs the node's own validator/checkpointer.h. Nonzero cuts at canonical
  // boundary slots (cuts need GC: every protocol but Tusk runs it unless a
  // committer_override turns it off) as base+delta chains, exchanges cert
  // shares as small messages and certifies cuts at 2f+1. A cut's write
  // (with wal_dir, to its CheckpointStore) lands checkpoint_write_delay
  // later; a crash in between drops it, like a real crash during a
  // checkpoint write. Peers that ask for sub-horizon ancestors get horizon
  // notices, and a stuck validator fetches, verifies and installs a serving
  // peer's chain over the simulated links. Restarts recover from the store
  // with wal_dir; without it they replay the in-memory log and catch up by
  // snapshot.
  Round checkpoint_interval = 0;
  TimeMicros checkpoint_write_delay = millis(5);
  // Segment-roll budget of the on-disk layout (wal_dir runs); the sim uses
  // smaller segments than the runtime default so tests exercise rolls.
  std::uint64_t wal_segment_bytes = 256 * 1024;
  // Byzantine share withholders: the sim drops every kCertShare frame from
  // or to them, so they neither endorse cuts nor form certificates. With
  // more than f withholding, no certificate can reach 2f+1 and catch-up
  // takes the uncertified path.
  std::vector<std::uint32_t> cert_withholding;

  // Network. wan=false uses UniformLatency(uniform_latency).
  bool wan = true;
  TimeMicros uniform_latency = millis(50);
  double jitter_fraction = 0.08;

  // Adversarial message scheduling layered on top of the latency model
  // (see sim/adversary.h). Null = fair network.
  std::shared_ptr<Adversary> adversary;
  // Paper machines have 10 Gbps ≈ 1.25e9 B/s full duplex.
  double bandwidth_bytes_per_sec = 1.25e9;

  // Load: aggregate transactions/second across all clients, 512 B each
  // (§5.1), injected as one batch per client per client_interval.
  double load_tps = 10'000;
  std::uint32_t tx_bytes = 512;
  TimeMicros client_interval = millis(25);

  // Distinct client streams per validator. Each stream gets its own id range
  // (origin << 40 | client << 32 | seq), so it maps to its own sharded-
  // mempool client key — multi-client workloads exercise the same admission
  // and fair-drain path the TCP runtime uses. 1 reproduces the historical
  // single-stream traces bit-for-bit.
  std::uint32_t clients_per_validator = 1;

  // Sharded-mempool shape handed to every validator core (shard count,
  // quotas, capacity caps).
  MempoolConfig mempool;

  // Run control.
  TimeMicros duration = seconds(25);
  TimeMicros warmup = seconds(5);
  TimeMicros tick_interval = millis(10);
  std::uint64_t seed = 1;

  // Minimum spacing between a validator's proposals. Real validators pace
  // rounds by block building, signing, serialization and batching costs on
  // top of quorum arrival; a pure-logic simulation without this floor runs
  // rounds at raw link speed, which starves the farthest region's blocks of
  // votes at wave length 4 (see
  // docs/BENCHMARKS.md#paper-figure-benches-protocol-level-via-the-simulator).
  // 120ms approximates the paper's observed round cadence at moderate load
  // (their 10-node MM-5 latency of ~1.1s implies ~200ms effective rounds; we
  // sit on the faster side while giving the farthest region enough slack to
  // be voted for).
  TimeMicros min_round_delay = millis(120);

  // Signature/coin verification is off by default in simulation (all cores
  // share a process; crypto cost is measured by the micro benches).
  bool verify_crypto = false;

  // Mahi-Mahi committer options are derived from `protocol` and
  // `leaders_per_round`, with the node's GC depth (kDefaultGcDepth) for
  // every protocol but Tusk; override here if non-default shapes are
  // needed. The override is used as given, so it is the only way to run
  // unbounded history (gc_depth = 0).
  std::optional<CommitterOptions> committer_override;

  // Record every validator's delivered block sequence (for agreement
  // checks in tests). Off by default: the sequences grow with run length,
  // unlike the GC-bounded DAG.
  bool record_sequences = false;

  // --- Execution (exec/) ---------------------------------------------------
  //
  // Deterministic model of ValidatorConfig::execute_app: every validator owns
  // an exec::SerialExecutor fed by its commit stream. Committed sub-DAGs are
  // planned into dependency waves and applied by virtual-time wave events,
  // serialized per validator; validator 0's finality histogram
  // (mm_finality_micros) then stamps at wave-delivery time instead of commit
  // time — early waves stamp before their sub-DAG retires, the
  // early-delivery win. Injected load switches from opaque filler to real
  // encoded KV batches (client/kv_batches.h) so execution does real work.
  bool execute_app = false;
  // Virtual time between consecutive wave retirements of one sub-DAG.
  // 0 = the whole sub-DAG applies inline at the commit instant — the
  // zero-worker model: identical state, and every wave (early flags
  // included) stamps at the commit instant, so early delivery carries no
  // latency win.
  TimeMicros execution_wave_delay = 0;
  // KV workload shape (execute_app runs only): the chance a command targets
  // the shared hot keyspace instead of the stream's private keys — the
  // declared-conflict rate between concurrently committed batches.
  std::uint32_t kv_conflict_percent = 25;
  std::uint32_t kv_hot_keys = 4;
  std::uint32_t kv_value_bytes = 16;
};

struct SimResult {
  double committed_tps = 0;        // unique txs committed (origin-side) per second
  double submitted_tps = 0;        // offered load actually injected
  double avg_latency_s = 0;
  double p50_latency_s = 0;
  double p95_latency_s = 0;
  double p99_latency_s = 0;
  std::uint64_t latency_samples = 0;  // transactions measured
  Round max_round = 0;                // highest DAG round reached (validator 0)
  CommitStats commit_stats;           // validator 0's committer stats
  std::uint64_t total_blocks = 0;     // blocks in validator 0's DAG
  std::uint64_t fetch_requests = 0;   // synchronizer traffic across all nodes
  std::uint64_t wal_replayed_blocks = 0;  // blocks replayed across all restarts
  std::uint64_t wal_groups_flushed = 0;   // non-empty group flushes (group commit)
  std::uint64_t mempool_rejected = 0;     // admission rejects at validator 0's pool
  // Checkpoint counters, summed over validators (the runtime's
  // mm_checkpoint* metrics, which SimResult::metrics also carries).
  std::uint64_t checkpoints_written = 0;  // completed checkpoint cuts
  std::uint64_t snapshot_catchups = 0;    // peer checkpoints installed
  std::uint64_t checkpoint_requests = 0;  // catch-up requests sent
  std::uint64_t checkpoint_delta_cuts = 0;  // cuts landed as delta links
  // Certificates formed from 2f+1 exchanged shares, counted at every
  // validator that formed one; withholders form none.
  std::uint64_t checkpoint_certs_formed = 0;

  // Max over surviving validators of (author, round) cells holding more
  // than one block — nonzero only if some author equivocated (configured
  // equivocators, or a recovery bug re-proposing a logged round).
  std::uint64_t equivocation_cells = 0;

  // Execution model results (execute_app runs; empty/zero otherwise). Every
  // running validator's executor is force-drained at run end before its
  // digest is taken.
  std::vector<Digest> app_digests;        // per validator; down = zero digest
  std::uint64_t exec_waves = 0;           // waves applied, all validators
  std::uint64_t exec_early_deliveries = 0;  // batches delivered pre-retirement
  // Wave events that would have delivered a batch while a conflicting
  // plan-order predecessor was still unsettled. The early-delivery safety
  // invariant: must stay 0.
  std::uint64_t exec_order_violations = 0;
  // Validators whose wave-scheduled executor state diverged from a serial
  // re-apply of their own recorded commit stream (snapshot base included).
  // Must stay 0: wave scheduling is an ordering optimization, not a
  // semantics change.
  std::uint64_t exec_serial_mismatches = 0;

  // Full dump of the run's metrics registry: every counter above plus the
  // lifecycle-stage histograms (validator 0's commit-wait breakdown and the
  // transaction-weighted finality histogram, stamped in virtual time — the
  // dump is deterministic for a fixed config and seed).
  obs::MetricsSnapshot metrics;

  // Validator 0's commit forensics, one trace per committed wave with
  // straggler attribution (arrival offsets, closing block, pipeline
  // breakdown), all stamped in virtual time. commit_traces_json() of this
  // deque is byte-identical across runs with the same config and seed.
  std::deque<CommitTrace> commit_traces;

  // Per-validator delivered sequences (only if record_sequences was set).
  std::vector<std::vector<BlockRef>> sequences;

  // Validator 0's consumed slot decisions (diagnostics; filled when
  // record_sequences is set).
  std::vector<DecidedSlot> decisions;

  std::string to_string() const;
};

class SimHarness {
 public:
  explicit SimHarness(SimConfig config);
  ~SimHarness();

  SimResult run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Convenience: configure + run.
SimResult run_simulation(const SimConfig& config);

}  // namespace mahimahi::sim
