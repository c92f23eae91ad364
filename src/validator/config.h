// Validator configuration.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/committer_base.h"
#include "core/options.h"
#include "mempool/mempool.h"
#include "types/committee.h"
#include "types/validation.h"
#include "validator/verifier_cache.h"

namespace mahimahi {

struct ValidatorConfig {
  ValidatorId id = 0;

  // Commit-rule options for the default (Mahi-Mahi) committer. Also covers
  // the Cordial Miners shape via cordial_miners_shape().
  CommitterOptions committer;

  // Override to plug a different commit rule (e.g. the Tusk baseline). When
  // set, `committer` is ignored.
  std::function<std::unique_ptr<CommitterBase>(const Dag&, const Committee&)>
      committer_factory;

  // Block construction caps (per-drain budgets on the mempool).
  std::size_t max_block_batches = 4096;
  std::uint64_t max_block_payload_bytes = 8 * 1024 * 1024;

  // Sharded-mempool shape (mempool/mempool.h): shard count, admission
  // quotas, capacity caps. Ignored when `mempool_instance` is set.
  MempoolConfig mempool;

  // Optional pre-built pool shared with the driver. The TCP runtime creates
  // one so client submission is admitted off the loop thread (any thread may
  // submit; only the proposal-path drain runs on the loop thread). Null =
  // the core builds a private pool from `mempool`.
  std::shared_ptr<ShardedMempool> mempool_instance;

  // Write-side offload (drivers' policy, like the ingest drain constants in
  // validator/ingest.h).
  //
  // wal_group_commit picks who lands the WAL's records; the log itself is
  // the segmented layout either way. On: appends stage into a buffer and a
  // dedicated writer thread lands whole groups as one write + sync
  // (wal/group_commit_wal.h in the TCP runtime; a deterministic deferred
  // flush event in the simulator). Off: the caller appends and syncs once
  // per insertion batch. Own proposals broadcast only after their durability
  // ack in both cases — the recovery contract (no post-restart equivocation)
  // is the same, the writer thread just takes the disk latency off the loop
  // thread.
  bool wal_group_commit = false;
  // Longest a staged WAL record waits before its group flushes (also the
  // added proposal-broadcast latency ceiling when the log is idle). 0 = the
  // writer flushes as soon as it is free, grouping only what accumulates
  // during the previous write + sync.
  TimeMicros wal_flush_interval = millis(1);
  // Upgrade WAL sync() from fflush (survives a process crash) to
  // fflush + fsync (survives a machine crash). On real disks fsync costs
  // milliseconds — inline, that lands on the loop thread per insertion
  // batch; with wal_group_commit it is one fsync per group on the writer
  // thread. Off by default: tests and the simulator model process crashes.
  bool wal_fsync = false;

  // --- Checkpoint & state sync (checkpoint/) --------------------------------
  //
  // Cut a checkpoint at every canonical boundary slot, one per this many
  // rounds (checkpoint/cert.h cut_boundary_slot), and threshold-certify each
  // cut with a signed share per boundary crossing (validator/checkpointer.h).
  // Cuts require committer.gc_depth > 0 — without GC there is no horizon to
  // cut at, and the log already bounds nothing. 0 = no checkpointing: the
  // WAL never rolls at a cut nor retires segments. Nonzero adds a checkpoint
  // store next to the WAL segments (with persistence configured), retires
  // covered segments, and enables snapshot catch-up serving. It does not
  // change the WAL layout.
  Round checkpoint_interval = 0;
  // Segment-roll byte budget of the WAL (wal/segmented_wal.h). Applies to
  // every persistent run, with or without checkpoints.
  std::uint64_t wal_segment_bytes = 4 << 20;
  // Minimum spacing between snapshot catch-up requests, so a validator deep
  // below everyone's horizon asks one peer at a time instead of fanning a
  // multi-megabyte download out to the whole committee.
  TimeMicros catchup_retry_delay = seconds(1);
  // Delta-chain length bound: after a base cut, up to this many incremental
  // delta cuts (checkpoint/delta.h) ride on it before the writer re-bases
  // with a fresh full checkpoint. Bounds both catch-up transfer length and
  // the recovery replay chain.
  static constexpr std::size_t checkpoint_max_deltas = 4;

  // --- Execution (exec/) ---------------------------------------------------
  //
  // When set, the node's pipeline (validator/pipeline.h) owns a
  // deterministic KV execution engine fed by the commit stream — committed
  // batches apply to the replicated state machine, finality stamps move from
  // commit time to execution-delivery time, and the TCP runtime exports
  // `mm_exec_*` counters. Off = commits are handed to the commit handler
  // only (the pre-execution behaviour).
  bool execute_app = false;
  // Worker threads for conflict-aware parallel execution: per-batch decode
  // and per-wave effect preparation fan out to this many workers while a
  // dedicated merge thread applies waves in committed order (exec/engine.h).
  // 0 = the caller-runs engine: the same wave code inline on the commit
  // path (the simulator's setting). WAL replay is serial inline regardless.
  std::size_t execution_threads = 0;

  // Minimum spacing between own proposals. 0 = advance as soon as a 2f+1
  // quorum for the previous round exists (pure asynchronous pace).
  TimeMicros min_round_delay = 0;

  // Semantic validation toggles (see types/validation.h). The simulator's
  // high-rate benches disable signature checks: all validators share a
  // process, and crypto cost is measured separately by the micro benches.
  ValidationOptions validation;

  // Optional digest-keyed signature-verification cache consulted before the
  // ed25519 check. Useful when several validator cores share one process
  // (the simulator, in-memory test clusters): each block then pays ed25519
  // once per process instead of once per validator. A single isolated node
  // gains nothing — its duplicate deliveries are dropped before validation.
  // Null = verify every time.
  std::shared_ptr<VerifierCache> signature_cache;

  // Byzantine behaviour knob for fault-injection tests: produce two
  // equivocating blocks per round. The transport layer decides which peers
  // receive which block.
  bool byzantine_equivocate = false;

  // Observer mode: validate, insert and commit but never propose — a read
  // replica that follows consensus without participating. Also used by tests
  // to compare drivers: without proposals, the DAG (and thus the commit
  // sequence) is a pure function of the delivered blocks.
  bool observer = false;

  // Synchronizer limits.
  std::size_t max_pending_blocks = 100'000;
  TimeMicros fetch_retry_delay = 500 * kMicrosPerMilli;
};

}  // namespace mahimahi
