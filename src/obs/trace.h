// Block lifecycle tracing: TimeMicros stamps at every pipeline handoff,
// folded into per-stage log2 histograms.
//
// The pipeline stages, in wire-to-state order:
//
//   ingress decode -> structural check -> crypto verify -> insert queue ->
//   DAG insert (commit rule included) -> commit wait -> WAL durable ->
//   execution
//
// plus an end-to-end finality histogram (client submit stamp -> commit on
// this validator) weighted by transaction count, the distribution the
// ROADMAP's million-client front door reads its SLO from.
//
// Stamping discipline: the driver (NodeRuntime or the sim harness) supplies
// every timestamp — steady-clock micros in the real runtime, virtual time in
// the sim, so sim spans are deterministic. record_stage() is histogram
// recording only (thread-safe, lock-free); the per-block insert-stamp table
// behind block_inserted()/sub_dag_committed() is NOT thread-safe and must be
// touched from one thread only (the loop thread / the sim thread), which is
// where inserts and commits already live.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>

#include "common/time.h"
#include "core/decision.h"
#include "crypto/digest.h"
#include "obs/metrics.h"

namespace mahimahi::obs {

// Indexes into the per-stage histogram table; kCount is not a stage.
enum class Stage : std::size_t {
  kDecode = 0,     // ingress frame received -> block decoded (incl. queue wait)
  kStructural,     // structural validation of a decoded block
  kCryptoVerify,   // signature verification (batch-amortized per block)
  kInsertQueue,    // verified on worker -> picked up by the loop thread
  kDagInsert,      // core on_screened step (DAG insert + block production)
  kCommitWait,     // DAG insert -> commit decision applied (per committed block)
  kWalDurable,     // WAL append -> group-commit durability ack
  kExecute,        // committed sub-dag handed to execution -> applied
  kCount,
};

const char* stage_name(Stage stage);
constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kCount);

class LifecycleTracer {
 public:
  explicit LifecycleTracer(Registry& registry);

  // Fold one per-stage delta into the stage histogram. weight > 1 amortizes a
  // batch-level measurement over its blocks (value should then be the
  // per-item mean). Negative deltas clamp to 0 and bump the nonmonotonic
  // counter — the sim monotonicity test asserts that counter stays 0.
  void record_stage(Stage stage, TimeMicros delta, std::uint64_t weight = 1) {
    if (delta < 0) {
      nonmonotonic_->add(weight);
      delta = 0;
    }
    stage_micros_[static_cast<std::size_t>(stage)]->record(delta, weight);
  }

  // Loop-thread only: remember when `digest` entered the DAG; consumed by
  // sub_dag_committed to produce the kCommitWait breakdown. The table is
  // FIFO-bounded — blocks that never commit (equivocators, pruned forks) age
  // out instead of leaking.
  void block_inserted(const Digest& digest, TimeMicros now);

  // Loop-thread only: one committed sub-dag. Records kCommitWait per block
  // (for blocks whose insert stamp is still tracked) and — unless the driver
  // owns an execution engine (record_finality = false) — the end-to-end
  // finality histogram from each batch's submitted_at stamp, weighted by the
  // batch's transaction count. Batches with submitted_at == 0 (unstamped
  // drivers) are skipped. With an engine, finality moves to delivery time:
  // batch_delivered() fires per retired execution wave instead.
  void sub_dag_committed(const CommittedSubDag& sub_dag, TimeMicros now,
                         bool record_finality = true);

  // Thread-safe (histogram and counter records only — no stamp-table
  // access): one batch's finality stamp at execution-delivery time. Called
  // from the execution engine's delivery context, which is the merge thread
  // when execution_threads > 0 — that is why this path must not touch
  // inserted_at_.
  void batch_delivered(TimeMicros submitted_at, std::uint32_t count,
                       TimeMicros now);

  std::uint64_t nonmonotonic() const { return nonmonotonic_->value(); }

 private:
  static constexpr std::size_t kMaxTrackedBlocks = 1 << 16;

  std::array<Histogram*, kStageCount> stage_micros_{};
  Histogram* finality_micros_;
  Counter* nonmonotonic_;
  Counter* finality_skipped_;

  std::unordered_map<Digest, TimeMicros, DigestHasher> inserted_at_;
  std::deque<Digest> insert_order_;
};

}  // namespace mahimahi::obs
