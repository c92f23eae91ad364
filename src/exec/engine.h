// Execution engine: applies committed sub-DAGs to the KV state machine on a
// worker pool, delivering finality per dependency wave.
//
// Two layers:
//
//   SerialExecutor   — the deterministic core: plan (decode + dedup + waves)
//                      and wave-ordered apply on one thread. Its public face
//                      is apply_subdag, the WAL-replay path and the
//                      simulator's run-end serial reference; the wave steps
//                      are the engine's alone. Byte-identical in
//                      state_digest() to app::ReplicatedKv over the same
//                      committed stream (property-tested).
//
//   ExecutionEngine  — the node's execution stage (validator/pipeline.h
//                      builds it), following the runtime's single-drain
//                      pattern: execute() enqueues a sub-DAG; a dedicated
//                      merge thread drains the queue in commit order. Per
//                      sub-DAG it fans the pure per-batch decode out to the
//                      worker pool, builds the plan serially, then for each
//                      wave fans out per-transaction effect preparation
//                      (workers read the quiescent store concurrently and
//                      pre-resolve each command's state-change outcome),
//                      barriers, and merges the wave's effects into the store
//                      in committed order. The merge is the only writer the
//                      store ever sees, so the result is byte-identical to
//                      serial apply by construction of the wave invariants
//                      (exec/plan.h). With zero threads the engine is
//                      caller-runs: execute() runs the same per-wave code
//                      inline, which is how the simulator executes.
//
// Early delivery: the delivery handler fires after each wave's merge, before
// later waves of the same sub-DAG execute. A wave's transactions have all
// their inputs settled at that point (every conflicting predecessor sits in
// an earlier wave), so acking them early never exposes unsettled state.
//
// Handler context: the merge thread when threads > 0, the caller of
// execute() when threads == 0. Everything NodePipeline does in it
// (histogram records, a post to the driver's thread) is thread-safe.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "app/kv_store.h"
#include "core/decision.h"
#include "exec/plan.h"
#include "net/worker_pool.h"

namespace mahimahi::exec {

struct ExecStats {
  std::uint64_t subdags = 0;           // sub-DAGs fully retired
  std::uint64_t waves = 0;             // waves merged
  std::uint64_t batches_executed = 0;  // batches that applied commands
  std::uint64_t commands_applied = 0;  // state-machine commands applied
  std::uint64_t parallel_batches = 0;  // executed in a wave with company
  std::uint64_t conflict_delayed = 0;  // pushed past the earliest wave
  std::uint64_t early_deliveries = 0;  // delivered before their sub-DAG retired
  std::uint64_t deduplicated = 0;
  std::uint64_t malformed = 0;
  std::uint64_t opaque = 0;            // conservative-class batches executed
  std::uint64_t access_violations = 0; // declared sets the payload escaped
};

// One batch's finality notification.
struct Delivery {
  std::uint64_t batch_id = 0;
  TimeMicros submitted_at = 0;
  std::uint32_t count = 1;   // transaction weight for the finality histogram
  std::uint32_t wave = 0;
  bool early = false;        // fired before the sub-DAG's last wave
};

// One retired wave's notifications, plus sub-DAG bookkeeping for the
// kExecute lifecycle span.
struct WaveDelivery {
  std::vector<Delivery> batches;
  bool subdag_complete = false;
  TimeMicros enqueued_at = 0;     // driver stamp passed to execute()
  std::uint32_t block_count = 0;  // kExecute span weight
  SlotId slot;                    // the sub-DAG's committed leader slot
};

using DeliveryHandler = std::function<void(const WaveDelivery&)>;

// The single-threaded deterministic core. Not thread-safe: one caller.
class SerialExecutor {
 public:
  // Plan + all waves, discarding deliveries: the WAL-replay path.
  void apply_subdag(const CommittedSubDag& subdag);

  // Checkpoint support: the store's full-state encoding, and its inverse.
  // Installing clears the dedup horizon — a snapshot jump leaves no basis
  // for recognizing resubmissions from before the cut (same trust horizon
  // as the checkpoint itself).
  Bytes snapshot_bytes() const { return store_.snapshot_bytes(); }
  void install_snapshot(BytesView snapshot) {
    store_ = app::KvStore::restore(snapshot);
    executed_.clear();
  }

  // Delta-cut support: the store's touched-key record since the last take,
  // consumed (the window restarts empty). checkpoint/delta.h carries it as
  // the app_delta of an incremental cut.
  Bytes take_app_delta() {
    Bytes delta = store_.delta_bytes();
    store_.clear_delta_window();
    return delta;
  }

  const app::KvStore& store() const { return store_; }
  Digest state_digest() const { return store_.state_digest(); }
  const ExecStats& stats() const { return stats_; }

 private:
  friend class ExecutionEngine;

  // Decode + dedup + wave partition for one sub-DAG (updates dedup state and
  // the plan-side stats). Accepts pre-decoded txns so the engine can fan the
  // decode out before handing the serial part back.
  Plan plan(const CommittedSubDag& subdag);
  Plan plan_decoded(std::vector<ExecTxn> txns);

  // Merge one wave in committed order; returns the wave's deliveries.
  // `last_wave` marks the sub-DAG as retired (bumps the subdag counter).
  // `resolved_opaque`, when non-null, points to the engine's worker-prepared
  // per-command outcomes (ResolvedWave in engine.cpp) and switches the store
  // writes to apply_resolved().
  std::vector<Delivery> apply_wave(const Plan& plan, std::size_t wave,
                                   bool last_wave,
                                   const void* resolved_opaque = nullptr);

  // A committed sub-DAG that carried no batches still retires.
  void note_empty_subdag();

  app::KvStore store_;
  std::unordered_set<Digest, DigestHasher> executed_;
  ExecStats stats_;
};

class ExecutionEngine {
 public:
  struct Options {
    // Worker threads for decode fan-out and per-wave effect preparation.
    // 0 = no threads at all: execute() applies inline on the caller.
    std::size_t threads = 0;
  };

  explicit ExecutionEngine(Options options, DeliveryHandler on_delivery = {});
  ~ExecutionEngine();

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  // Thread-safe. Copies the sub-DAG header (block pointers, not blocks) onto
  // the merge queue; inline serial apply + delivery when threads == 0.
  void execute(const CommittedSubDag& subdag, TimeMicros enqueued_at);

  // Serial inline apply with no delivery callbacks: the recovery path. Only
  // valid while no execute() calls are in flight (the runtime replays before
  // its loop starts).
  void replay(const CommittedSubDag& subdag);

  // Blocks until every enqueued sub-DAG has fully retired.
  void drain();

  // drain() + stop and join the merge thread. After it returns no delivery
  // callback is running or will run; later execute() calls are dropped, and
  // the state accessors below keep working. Owners whose delivery handler
  // touches members that die before the engine call this first.
  void shutdown();

  // drain() + digest of the resulting state.
  Digest state_digest();

  // drain() + full-store snapshot, for checkpoint cuts on the commit thread:
  // the engine was fed exactly the decided prefix of the cut, so the drained
  // store is the cut's app state.
  Bytes app_snapshot();

  // drain() + consume the touched-key window (delta cuts). The drain
  // barrier makes the window exactly the keys the decided prefix touched
  // since the previous take.
  Bytes app_delta_snapshot();

  // drain() + restart the touched-key window without reading it (base cuts:
  // the full snapshot subsumes the window).
  void clear_app_delta_window();

  // drain() + replace the store from a checkpoint's app snapshot (recovery
  // and snapshot catch-up installs).
  void install_snapshot(BytesView snapshot);

  ExecStats stats() const;
  std::size_t threads() const { return pool_ ? pool_->thread_count() : 0; }

 private:
  struct Pending {
    CommittedSubDag subdag;
    TimeMicros enqueued_at = 0;
  };

  void merge_main();
  // Signals the merge thread to exit (queued work is abandoned) and joins it.
  void stop_merge();
  void process(const Pending& pending);
  void deliver(std::vector<Delivery> batches, bool complete,
               const Pending& pending);

  DeliveryHandler on_delivery_;
  SerialExecutor serial_;  // merge-thread-owned while running

  std::unique_ptr<net::WorkerPool> pool_;
  std::thread merge_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;   // merge thread: work available / stop
  std::condition_variable idle_;   // drain(): queue empty and not busy
  std::deque<Pending> queue_;
  ExecStats stats_snapshot_;       // guarded by mutex_; scrape-safe copy
  bool busy_ = false;
  bool stopping_ = false;
};

}  // namespace mahimahi::exec
