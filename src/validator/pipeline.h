// NodePipeline: one validator's node, sans-IO, and its only way in.
//
// It owns the validator's ValidatorCore, its Checkpointer, its execution
// engine (ValidatorConfig::execute_app) and, from start() on, its Wal. Both
// drivers run it — the TCP runtime (net/node_runtime.h) on its event loop,
// the simulator (sim/harness.h) per validator in virtual time — so both
// take one input path, one WAL, durability-gate, send, checkpoint, commit
// and execution path, and one recovery.
//
// One entry point per node input reads Env::now, calls the core and performs
// the result; core() is const, so no driver reaches a core input around
// them. on_blocks screens inline (validator/ingest.h); on_screened takes a
// batch a worker screened.
//
// The Env contract: a driver supplies its clock, the peer sends, the
// Checkpointer's hooks, a commit observer and a post to its own thread.
// Every entry point, perform(), Env call and durability ack runs on the
// driver's one thread; a Wal that acks elsewhere posts its acks back (the
// runtime's group-commit WAL does). Only screen_blocks and admit() may run
// on any thread, and, with execution_threads > 0, the engine's delivery
// handler calls Env::now and Env::post from its merge thread.
//
// Execution: the pipeline hands the engine each committed sub-DAG after
// Env::commit, replays recovered ones into it, gives the Checkpointer the
// engine, and records delivery in one place: finality per delivered batch,
// the kExecute span per retired sub-DAG, and the commit trace's execute
// stamp, posted through Env::post. The simulator runs the engine with zero
// threads (caller-runs), so its deliveries land at the commit instant.
//
// The dispatch order is fixed: WAL append, broadcast (behind on_durable),
// fetch requests, fetch responses, commits, horizon notices, checkpoint
// requests, then a new proposal deadline to Env::wake_at. The append comes
// first so that every durability gate of the pass covers the pass's own
// blocks: a group-commit WAL's on_durable covers only records appended
// before the call. The sends keep one order because
// the simulator draws link latencies from one seeded RNG in send order;
// reordering them changes every virtual-time result.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/commit_trace.h"
#include "exec/engine.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "validator/checkpointer.h"
#include "validator/validator.h"
#include "wal/segmented_wal.h"
#include "wal/wal.h"

namespace mahimahi {

class NodePipeline {
 public:
  struct Env {
    std::function<TimeMicros()> now;
    // One Actions::broadcast group, to every peer, once the Wal acked its
    // append. An equivocator's twins arrive as one group; the driver splits.
    std::function<void(const std::vector<BlockPtr>&)> broadcast;
    std::function<void(ValidatorId, const std::vector<BlockPtr>&)> send_blocks;
    std::function<void(ValidatorId, const std::vector<BlockRef>&)> send_fetch;
    std::function<void(ValidatorId, Round)> send_horizon;
    Checkpointer::Hooks checkpoint;
    // Per committed sub-DAG in commit order, after the pipeline's
    // bookkeeping and before the engine takes it; `trace` is its commit
    // trace (null without forensics).
    std::function<void(const CommittedSubDag&, TimeMicros committed_at, CommitTrace* trace)>
        commit;
    // Optional: per sub-DAG that recovery re-derives, without stamps.
    std::function<void(const CommittedSubDag&)> replay_commit;
    // Runs a task on the driver's thread.
    std::function<void(std::function<void()>)> post;
    // Optional: called with ValidatorCore::proposal_deadline whenever a new
    // one is set. The driver calls on_tick at that instant, so a proposal
    // the pacing floor held back fires when the floor expires, not at the
    // next input. Unset, the next input or tick proposes (the simulator).
    std::function<void(TimeMicros)> wake_at;
  };

  // Optional observers; null = unobserved. The simulator observes validator
  // 0 only: block digests are committee-global, so one table per run.
  struct Observers {
    obs::LifecycleTracer* tracer = nullptr;
    CommitForensics* forensics = nullptr;
    obs::FlightRecorder* recorder = nullptr;
    // Record CoreMetrics.
    bool core_metrics = false;
  };

  // The core's state, mirrored after every perform() for reads from any
  // thread (highest round, ingest stages' absolute counts, commit-rule slot
  // outcomes, what the core keeps resident), and the transaction bytes of
  // every own proposal.
  struct CoreMetrics {
    explicit CoreMetrics(obs::Registry& registry);
    obs::Gauge* highest_round;
    obs::Gauge* structurally_rejected;
    obs::Gauge* crypto_rejected;
    obs::Gauge* cache_hits;
    obs::Gauge* verified;
    obs::Gauge* direct_commits;
    obs::Gauge* indirect_commits;
    obs::Gauge* direct_skips;
    obs::Gauge* indirect_skips;
    obs::Gauge* dag_blocks;
    obs::Gauge* dag_payload_bytes;
    obs::Gauge* decided_log_entries;
    obs::Gauge* vote_memo_entries;
    obs::Gauge* fetch_inflight;
    obs::Counter* dag_digest_probes;
    obs::Histogram* block_payload_bytes;
  };

  // Counted in both drivers; the simulator's validators share one set, so
  // it sums them.
  struct Counters {
    explicit Counters(obs::Registry& registry);
    obs::Counter* fetch_requests;
    obs::Counter* checkpoint_requests;
    obs::Counter* replayed_blocks;
    obs::Counter* submit_rejected;
    // Per own proposal the floor held back while its quorum was ready: how
    // long after the floor released it the proposal fired.
    obs::Histogram* proposal_wake_lateness;
  };

  // `store_dir` empty = no persistence; otherwise the directory holding the
  // segmented WAL and the checkpoint store side by side.
  NodePipeline(const Committee& committee, crypto::Ed25519PrivateKey key,
               const ValidatorConfig& config, obs::Registry& registry, Env env,
               Observers observers, const std::string& store_dir);
  NodePipeline(const NodePipeline&) = delete;  // closures hold its address
  NodePipeline& operator=(const NodePipeline&) = delete;

  // Recovery, before start(), and the only WAL replay: the newest valid
  // checkpoint chain, then the log — `memory` when the driver keeps its log
  // in memory, else the segments under store_dir — through
  // ValidatorCore::recover_block, with commits to Env::replay_commit and
  // the engine.
  SegmentedWal::ReplayResult recover(const MemoryWal::Store* memory = nullptr);
  // Hands over the log perform() appends to; `segments` is the SegmentedWal
  // inside it (null without one), which checkpoint cuts roll and retire.
  void start(std::unique_ptr<Wal> wal, SegmentedWal* segments);

  // --- Inputs (the driver's thread) ----------------------------------------
  void on_blocks(std::vector<IngestBlock> items) {
    perform(core_->on_blocks(std::move(items), env_.now()));
  }
  void on_screened(ScreenedBatch batch) {
    perform(core_->on_screened(std::move(batch), env_.now()));
  }
  void on_tick() { perform(core_->on_tick(env_.now())); }
  void on_fetch_request(const std::vector<BlockRef>& refs, ValidatorId from) {
    perform(core_->on_fetch_request(refs, from, env_.now()));
  }
  void on_peer_horizon(ValidatorId peer, Round horizon) {
    perform(core_->on_peer_horizon(peer, horizon, env_.now()));
  }
  void on_mempool_ready() { perform(core_->on_mempool_ready(env_.now())); }
  void install_checkpoint(Checkpointer::VerifiedChain chain) {
    perform(checkpointer_->install(std::move(chain), env_.now()));
  }

  // Client transactions into the shared mempool's front door; rejects count
  // in mm_submit_rejected_total. Thread-safe; proposes nothing by itself:
  // the driver follows with on_mempool_ready on its own thread.
  void admit(std::vector<TxBatch> batches);

  // Performs one step's Actions, in the order above.
  void perform(Actions&& actions);

  const ValidatorCore& core() const { return *core_; }
  Checkpointer& checkpointer() { return *checkpointer_; }
  const Checkpointer& checkpointer() const { return *checkpointer_; }
  Wal& wal() { return *wal_; }
  // The execution stage; null without ValidatorConfig::execute_app. Its
  // stats() and state reads are thread-safe. A driver whose Env::post
  // target dies before the pipeline calls shutdown() on it first.
  exec::ExecutionEngine* engine() const { return engine_.get(); }
  const Counters& counters() const { return counters_; }
  // Only with Observers::core_metrics.
  const CoreMetrics& metrics() const { return *metrics_; }

 private:
  void commit(const CommittedSubDag& sub_dag);
  // The engine's delivery handler (the merge thread with threads > 0).
  void on_delivered(const exec::WaveDelivery& wave);
  void mirror_core();

  Env env_;
  Observers observers_;
  Counters counters_;
  const std::string store_dir_;
  std::unique_ptr<ValidatorCore> core_;
  // Built before the checkpointer that reads and installs its state.
  std::unique_ptr<exec::ExecutionEngine> engine_;
  // Destroyed before the core it drives.
  std::unique_ptr<Checkpointer> checkpointer_;
  std::unique_ptr<Wal> wal_;
  std::optional<CoreMetrics> metrics_;
  std::uint64_t probes_mirrored_ = 0;
  // The core's proposal deadline as of the last perform().
  std::optional<TimeMicros> proposal_deadline_;
};

}  // namespace mahimahi
