// The sans-IO validator core.
//
// Owns the local DAG, the committer, the synchronizer and the mempool, and
// implements the proposal rule of §2.3: once 2f+1 distinct authors are known
// for round r, propose a block at round r+1 referencing them (own previous
// block first) together with any still-unreferenced tips, carrying fresh
// transactions and the round's coin share.
//
// NodePipeline (validator/pipeline.h) feeds it every input and performs the
// returned Actions for both drivers, the simulator and the TCP runtime; tests
// may drive it directly. The core never reads a clock and never does I/O, so
// the same binary logic runs identically under both transports.
#pragma once

#include <optional>
#include <set>

#include "checkpoint/checkpoint.h"
#include "client/metrics.h"
#include "core/committer.h"
#include "mempool/mempool.h"
#include "validator/actions.h"
#include "validator/config.h"
#include "validator/ingest.h"
#include "validator/synchronizer.h"

namespace mahimahi {

class ValidatorCore {
 public:
  ValidatorCore(const Committee& committee, crypto::Ed25519PrivateKey key,
                ValidatorConfig config);

  // --- Inputs ---------------------------------------------------------------

  // A block received from `from` (author or relayer). Equivalent to a
  // one-element on_blocks call.
  Actions on_block(BlockPtr block, ValidatorId from, TimeMicros now);

  // Drops the blocks this core knows (knows_block), screens the rest
  // (validator/ingest.h) and admits them through on_screened. Output is
  // deterministic in the item order.
  Actions on_blocks(std::vector<IngestBlock> items, TimeMicros now);

  // Admits a screened batch: adds its stage counts, drops known blocks,
  // offers the rest to the synchronizer, then proposes, commits and collects
  // garbage once for the whole batch.
  Actions on_screened(ScreenedBatch batch, TimeMicros now);

  // The shared mempool gained transactions (admitted on any thread through
  // mempool_handle()): re-checks the proposal rule only.
  Actions on_mempool_ready(TimeMicros now);

  // A peer requests blocks we may hold.
  Actions on_fetch_request(const std::vector<BlockRef>& refs, ValidatorId from,
                           TimeMicros now);

  // Timer tick: retries outstanding fetches, re-checks proposal pacing.
  Actions on_tick(TimeMicros now);

  // WAL replay path: admits a logged block directly (its parents are already
  // in the DAG — the log preserves insertion order). Own blocks restore the
  // proposer round so the validator does not re-propose (and thus
  // equivocate) after a restart. Call before any live input; returns any
  // commits that replaying reproduces.
  Actions recover_block(BlockPtr block);

  // --- Checkpoint & state sync (checkpoint/) --------------------------------

  // A peer told us its GC horizon after we requested ancestors below it.
  // The claim is treated as hostile until corroborated: it is clamped to the
  // highest round f+1 distinct authors have reached in blocks we validated
  // (an honest peer's horizon trails its head, and its head cannot outrun
  // every honest author we hear from), and it only counts as a refusal when
  // some ancestor we asked THIS peer for sits below the clamped horizon.
  // When we are then genuinely stuck (no one whose horizon passed the
  // ancestor can ever serve the fetch), emits a rate-limited
  // Actions::checkpoint_requests entry.
  Actions on_peer_horizon(ValidatorId peer, Round horizon, TimeMicros now);

  // Serializes the consistent cut at the current GC horizon: consumption
  // head, decided log, delivered marks, live DAG suffix, proposer round.
  // The driver adds sequence and the application snapshot before encoding.
  // Requires checkpoint_capable().
  CheckpointData capture_checkpoint() const;

  // Installs a verified checkpoint: prunes local state below its horizon,
  // inserts the DAG suffix (returned via Actions::inserted so the driver
  // logs it), adopts the decided log + head, and restores the proposer round
  // from any own blocks it contains. Used both for recovery (newest local
  // checkpoint before segment replay) and snapshot catch-up (a peer's
  // checkpoint received off the wire — run checkpoint/checkpoint.h
  // verify_checkpoint first). No-op when the checkpoint is not ahead of this
  // validator or a custom committer_factory rule is active.
  Actions install_checkpoint(const CheckpointData& data, TimeMicros now);

  // Can this core capture/install checkpoints? True for the default
  // (Mahi-Mahi) committer; custom committer_factory rules (e.g. the Tusk
  // baseline) have no restore path.
  bool checkpoint_capable() const { return default_committer_ != nullptr; }

  // Checkpoints installed into this core (the recovery-path install and any
  // snapshot catch-ups).
  std::uint64_t checkpoints_installed() const { return checkpoints_installed_; }

  // --- Introspection ----------------------------------------------------------

  ValidatorId id() const { return config_.id; }
  const Dag& dag() const { return dag_; }
  const CommitterBase& committer() const { return *committer_; }
  const ValidatorConfig& config() const { return config_; }
  Round last_proposed_round() const { return last_proposed_round_; }
  // When the min_round_delay floor holds back a proposal whose 2f+1 quorum
  // is already in: the instant the floor releases it. Empty otherwise, and
  // cleared by the proposal. A driver that calls on_tick at this instant
  // proposes on time instead of at its next input.
  std::optional<TimeMicros> proposal_deadline() const { return proposal_deadline_; }
  // Is this block in the DAG, parked in the synchronizer, or below the GC
  // horizon (history it will never admit)? Ingestion drops such blocks, and
  // drivers may too ("safe to drop re-deliveries").
  bool knows_block(const BlockRef& ref) const {
    return dag_.contains(ref) || synchronizer_.is_pending(ref.digest) ||
           ref.round < dag_.pruned_below();
  }
  // Missing ancestors with a fetch outstanding; bounded by what the
  // synchronizer still waits for.
  std::size_t inflight_fetches() const { return inflight_fetches_.size(); }
  std::size_t mempool_size() const { return mempool_->size(); }
  const ShardedMempool& mempool() const { return *mempool_; }
  // The pool itself, for admission off the core's thread
  // (NodePipeline::admit). Thread-safe by construction.
  const std::shared_ptr<ShardedMempool>& mempool_handle() const { return mempool_; }
  // Stage counters of the ingestion pipeline (client/metrics.h). Blocks the
  // synchronizer dropped for lying parent labels count as structural rejects.
  IngestStats ingest_stats() const {
    IngestStats stats = ingest_stats_;
    stats.structurally_rejected += synchronizer_.rejected();
    return stats;
  }
  std::uint64_t blocks_rejected() const {
    const IngestStats stats = ingest_stats();
    return stats.structurally_rejected + stats.crypto_rejected;
  }

 private:
  // Admits one screened block through the synchronizer, collecting fetch
  // requests and insertions into `actions`.
  void admit(BlockPtr block, ValidatorId from, TimeMicros now, Actions& actions);
  // Commit evaluation + GC after insertions: try_commit, then maybe_gc.
  void commit_and_gc(Actions& actions);
  // Proposes if the advance condition holds; appends to `actions`.
  void maybe_propose(TimeMicros now, Actions& actions);
  BlockPtr build_own_block(Round round, TimeMicros now);
  void note_inserted(const BlockPtr& block);
  // Moves the GC horizon derived from the consumed-slot head
  // (CommitterOptions::gc_depth; no-op when 0).
  void maybe_gc(Actions& actions);
  // The one horizon move, shared by GC and checkpoint install: prunes DAG,
  // committer, tips and synchronizer state below `horizon` and drops fetch
  // bookkeeping the synchronizer no longer waits for. Blocks unblocked by
  // the move are appended to `actions.inserted` so the driver logs them.
  void prune_below(Round horizon, Actions& actions);
  // Records `round` as reached by `author` (structurally + crypto valid
  // blocks only, parked or inserted) for credible_peer_horizon().
  void note_author_round(ValidatorId author, Round round);
  // The highest round at least f+1 distinct authors have reached: an upper
  // bound on any honest peer's GC horizon that a lone Byzantine author
  // minting far-future blocks cannot inflate.
  Round credible_peer_horizon() const;

  const Committee& committee_;
  crypto::Ed25519PrivateKey key_;
  ValidatorConfig config_;

  Dag dag_;
  std::unique_ptr<CommitterBase> committer_;
  // Non-null iff no committer_factory override is set: the owned committer_,
  // downcast to the default type, for the checkpoint restore API.
  Committer* default_committer_ = nullptr;
  Synchronizer synchronizer_;
  std::shared_ptr<ShardedMempool> mempool_;

  Round last_proposed_round_ = 0;  // genesis counts as round 0
  // Time of the last own proposal; empty until the first one. An optional
  // (rather than a 0 sentinel) so a proposal made at t=0 still arms the
  // min_round_delay pacing gate.
  std::optional<TimeMicros> last_proposal_time_;
  // See proposal_deadline().
  std::optional<TimeMicros> proposal_deadline_;
  // Our latest proposal, by identity only: the next proposal's first parent
  // (§2.3). A ref, so an idle observer or a stalled proposer pins no block.
  BlockRef own_last_ref_;

  // Blocks nobody references yet (candidate parents beyond the quorum).
  std::set<BlockRef> tips_;

  // Fetch bookkeeping: digest -> (peer asked, time asked).
  struct FetchState {
    ValidatorId peer;
    TimeMicros asked_at;
  };
  std::unordered_map<Digest, FetchState, DigestHasher> inflight_fetches_;

  // Highest round seen per author across validated blocks (parked or
  // inserted); feeds credible_peer_horizon().
  std::vector<Round> author_highest_seen_;

  std::uint64_t equivocation_counter_ = 0;
  IngestStats ingest_stats_;

  // Snapshot catch-up bookkeeping: last request time (rate limiting) and the
  // number of live installs.
  std::optional<TimeMicros> last_catchup_request_;
  std::uint64_t checkpoints_installed_ = 0;
};

}  // namespace mahimahi
