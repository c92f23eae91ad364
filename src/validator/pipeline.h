// NodePipeline: one validator's node, sans-IO, and the only code that
// performs a ValidatorCore's Actions.
//
// It owns the validator's ValidatorCore, its Checkpointer and, from start()
// on, its Wal. Both drivers run it — the TCP runtime (net/node_runtime.h) on
// its event loop, the simulator (sim/harness.h) per validator in virtual
// time — so both take one WAL, durability-gate, send, checkpoint and commit
// path, and one recovery.
//
// The Env contract: a driver supplies its clock, the peer sends, the
// Checkpointer's hooks and the commit/execute handoff. Every Env call and
// durability ack runs on the thread that calls perform(); a Wal that acks
// elsewhere posts its acks back (the runtime's group-commit WAL does).
//
// The dispatch order is fixed: WAL append, broadcast (behind on_durable),
// fetch requests, fetch responses, commits, horizon notices, checkpoint
// requests. The append comes first so that every durability gate of the
// pass covers the pass's own blocks: a group-commit WAL's on_durable covers
// only records appended before the call. The sends keep one order because
// the simulator draws link latencies from one seeded RNG in send order;
// reordering them changes every virtual-time result.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/commit_trace.h"
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
    // bookkeeping; `trace` is its commit trace (null without forensics).
    std::function<void(const CommittedSubDag&, TimeMicros committed_at, CommitTrace* trace)>
        commit;
    // Per sub-DAG that recovery re-derives: re-apply it, without stamps.
    std::function<void(const CommittedSubDag&)> replay_commit;
    // True when commit() feeds an execution stage that stamps finality per
    // delivered wave; false when finality stamps at commit.
    bool deferred_execution = false;
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
  // thread (highest round, ingest stages' absolute counts, what the core
  // keeps resident), and the transaction bytes of every own proposal.
  struct CoreMetrics {
    explicit CoreMetrics(obs::Registry& registry);
    obs::Gauge* highest_round;
    obs::Gauge* structurally_rejected;
    obs::Gauge* crypto_rejected;
    obs::Gauge* cache_hits;
    obs::Gauge* verified;
    obs::Gauge* preverified;
    obs::Gauge* dag_blocks;
    obs::Gauge* dag_payload_bytes;
    obs::Gauge* decided_log_entries;
    obs::Gauge* vote_memo_entries;
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
  // ValidatorCore::recover_block, with commits to Env::replay_commit.
  SegmentedWal::ReplayResult recover(const MemoryWal::Store* memory = nullptr);
  // Hands over the log perform() appends to; `segments` is the SegmentedWal
  // inside it (null without one), which checkpoint cuts roll and retire.
  void start(std::unique_ptr<Wal> wal, SegmentedWal* segments);

  // Performs one step's Actions, in the order above.
  void perform(Actions&& actions);

  ValidatorCore& core() { return *core_; }
  Checkpointer& checkpointer() { return *checkpointer_; }
  const Checkpointer& checkpointer() const { return *checkpointer_; }
  Wal& wal() { return *wal_; }
  // Only with Observers::core_metrics.
  const CoreMetrics& metrics() const { return *metrics_; }

 private:
  void commit(const CommittedSubDag& sub_dag);
  void mirror_core();

  Env env_;
  Observers observers_;
  Counters counters_;
  const std::string store_dir_;
  std::unique_ptr<ValidatorCore> core_;
  // Destroyed before the core it drives.
  std::unique_ptr<Checkpointer> checkpointer_;
  std::unique_ptr<Wal> wal_;
  std::optional<CoreMetrics> metrics_;
  std::uint64_t probes_mirrored_ = 0;
};

}  // namespace mahimahi
