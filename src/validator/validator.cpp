#include "validator/validator.h"

#include <algorithm>
#include <functional>

#include "common/log.h"

namespace mahimahi {

namespace {

// Blocks the synchronizer parks while their ancestry is fetched.
constexpr std::size_t kMaxPendingBlocks = 100'000;
// Minimum spacing between snapshot catch-up requests, so a validator deep
// below everyone's horizon asks one peer at a time instead of fanning a
// multi-megabyte download out to the whole committee.
constexpr TimeMicros kCatchupRetryDelay = seconds(1);

}  // namespace

ValidatorCore::ValidatorCore(const Committee& committee, crypto::Ed25519PrivateKey key,
                             ValidatorConfig config)
    : committee_(committee),
      key_(key),
      config_(config),
      dag_(committee),
      committer_(config.committer_factory
                     ? config.committer_factory(dag_, committee)
                     : std::make_unique<Committer>(dag_, committee, config.committer)),
      synchronizer_(dag_, kMaxPendingBlocks),
      mempool_(config.mempool_instance
                   ? config.mempool_instance
                   : std::make_shared<ShardedMempool>(config.mempool)) {
  if (!config.committer_factory) {
    // Without a factory override the committer is the restore-capable
    // default built above; custom commit rules cannot checkpoint.
    default_committer_ = static_cast<Committer*>(committer_.get());
  }
  own_last_ref_ = dag_.slot(0, config_.id).front()->ref();  // own genesis
  // Genesis blocks of every validator start as tips.
  for (const auto& block : dag_.blocks_at(0)) tips_.insert(block->ref());
  author_highest_seen_.assign(committee_.size(), 0);
}

void ValidatorCore::note_author_round(ValidatorId author, Round round) {
  if (author < author_highest_seen_.size()) {
    author_highest_seen_[author] = std::max(author_highest_seen_[author], round);
  }
}

Round ValidatorCore::credible_peer_horizon() const {
  std::vector<Round> tops(author_highest_seen_);
  const std::size_t f = committee_.f();
  std::nth_element(tops.begin(), tops.begin() + f, tops.end(), std::greater<Round>());
  return tops[f];  // the (f+1)-th largest: at least one honest author reached it
}

void ValidatorCore::note_inserted(const BlockPtr& block) {
  // A block stays a tip until referenced by one of OUR OWN proposals (not
  // merely by someone else's block): every honest proposal must pull all
  // locally-known-but-unreferenced blocks into its causal history, so that
  // stragglers from slow links still reach the vote round in time. Removing
  // tips on third-party references would leave a slow validator's blocks
  // reachable only through its own (equally slow) chain, starving them of
  // votes — observable as spurious skips of far-region leaders at wave
  // length 4.
  tips_.insert(block->ref());
  note_author_round(block->author(), block->round());
}

Actions ValidatorCore::on_block(BlockPtr block, ValidatorId from, TimeMicros now) {
  std::vector<IngestBlock> items;
  items.push_back({std::move(block), from});
  return on_blocks(std::move(items), now);
}

Actions ValidatorCore::recover_block(BlockPtr block) {
  Actions actions;
  if (dag_.contains(block->ref())) return actions;
  if (block->author() == config_.id) {
    // Restore the proposer round even if the block itself cannot be
    // re-inserted: never re-propose (equivocate on) a logged round.
    if (block->round() > last_proposed_round_) {
      last_proposed_round_ = block->round();
      own_last_ref_ = block->ref();
    }
  }
  if (block->round() < dag_.pruned_below()) {
    // Below the horizon of a checkpoint installed before this replay: the
    // record predates the cut and the checkpoint already summarizes it.
    // Inserting it would plant a round below the pruned horizon that no
    // later prune can reach.
    return actions;
  }
  if (!dag_.parents_present(*block)) {
    // Possible when the pre-crash validator admitted this block through the
    // GC exemption (a parent below its pruned horizon was never inserted,
    // so it is not in the log either). Skip it: the commit sequence never
    // needs sub-horizon history, and the live synchronizer re-fetches
    // anything still relevant.
    MM_LOG(kInfo) << "v" << config_.id << " WAL replay skipped "
                  << block->ref().to_string() << " (parents beyond the GC horizon)";
    return actions;
  }
  // WAL replay bypasses the synchronizer: the gate above is its only check.
  dag_.insert_resolved(block);
  note_inserted(block);
  actions.inserted.push_back(block);
  commit_and_gc(actions);
  return actions;
}

Actions ValidatorCore::on_blocks(std::vector<IngestBlock> items, TimeMicros now) {
  std::erase_if(items, [this](const IngestBlock& item) { return knows_block(item.block->ref()); });
  return on_screened(screen_blocks(std::move(items), committee_, config_.validation,
                                   config_.signature_cache.get()),
                     now);
}

Actions ValidatorCore::on_screened(ScreenedBatch batch, TimeMicros now) {
  const IngestStats& stats = batch.stats();
  ingest_stats_.structurally_rejected += stats.structurally_rejected;
  ingest_stats_.crypto_rejected += stats.crypto_rejected;
  ingest_stats_.cache_hits += stats.cache_hits;
  ingest_stats_.verified += stats.verified;
  Actions actions;
  for (const IngestBlock& item : batch.blocks()) admit(item.block, item.from, now, actions);
  // Propose, commit and collect garbage once per batch.
  if (!actions.inserted.empty()) {
    maybe_propose(now, actions);
    commit_and_gc(actions);
  }
  return actions;
}

void ValidatorCore::commit_and_gc(Actions& actions) {
  for (auto& sub_dag : committer_->try_commit()) {
    actions.committed.push_back(std::move(sub_dag));
  }
  maybe_gc(actions);
}

void ValidatorCore::admit(BlockPtr block, ValidatorId from, TimeMicros now,
                          Actions& actions) {
  // Known already, or cascade-inserted by an earlier block of this batch (it
  // was parked in the synchronizer).
  if (knows_block(block->ref())) return;
  // Parked blocks count toward the per-author round watermark too: a late
  // joiner's view of the cluster head is EXACTLY its parked suffix.
  note_author_round(block->author(), block->round());
  auto outcome = synchronizer_.offer(std::move(block));
  for (const auto& inserted : outcome.inserted) note_inserted(inserted);

  // Request missing ancestors from the sender (it referenced them, so it
  // must hold them — Lemma 8).
  if (!outcome.missing.empty()) {
    Actions::FetchRequest request;
    request.peer = from;
    for (const auto& ref : outcome.missing) {
      const auto [it, fresh] = inflight_fetches_.try_emplace(
          ref.digest, FetchState{from, now});
      if (fresh || now - it->second.asked_at >= config_.fetch_retry_delay) {
        it->second = FetchState{from, now};
        request.refs.push_back(ref);
      }
    }
    if (!request.refs.empty()) actions.fetch_requests.push_back(std::move(request));
  }

  for (const auto& inserted : outcome.inserted) {
    inflight_fetches_.erase(inserted->digest());
    actions.inserted.push_back(inserted);
  }
}

void ValidatorCore::maybe_gc(Actions& actions) {
  const Round depth = config_.committer.gc_depth;
  if (depth == 0) return;
  const Round head = committer_->next_pending_slot().round;
  if (head <= depth) return;
  const Round horizon = head - depth;
  // Safe by the deterministic delivery cut: every slot below `head` is
  // consumed, and any future leader (round >= head) delivers only blocks
  // with round >= head - gc_depth, so rounds below `horizon` are dead.
  if (horizon > dag_.pruned_below()) prune_below(horizon, actions);
}

void ValidatorCore::prune_below(Round horizon, Actions& actions) {
  dag_.prune_below(horizon);
  committer_->prune_below(horizon);
  std::erase_if(tips_, [horizon](const BlockRef& ref) { return ref.round < horizon; });
  // Pending blocks waiting only on sub-horizon parents unblock now; they
  // must reach the WAL (actions.inserted) like any other insertion.
  for (BlockPtr& unblocked : synchronizer_.prune_below(horizon)) {
    inflight_fetches_.erase(unblocked->digest());
    note_inserted(unblocked);
    actions.inserted.push_back(std::move(unblocked));
  }
  // The synchronizer stopped waiting for sub-horizon refs; their fetch
  // bookkeeping would linger forever otherwise (a Byzantine author that
  // references blocks it never sends would grow it without bound).
  std::erase_if(inflight_fetches_, [this](const auto& entry) {
    return !synchronizer_.is_missing(entry.first);
  });
}

Actions ValidatorCore::on_mempool_ready(TimeMicros now) {
  Actions actions;
  maybe_propose(now, actions);
  return actions;
}

Actions ValidatorCore::on_fetch_request(const std::vector<BlockRef>& refs,
                                        ValidatorId from, TimeMicros) {
  Actions actions;
  Actions::BlockResponse response;
  response.peer = from;
  bool below_horizon = false;
  for (const auto& ref : refs) {
    if (const BlockPtr block = dag_.get(ref.digest)) {
      if (block->round() > 0) response.blocks.push_back(block);
    } else if (ref.round < dag_.pruned_below()) {
      // We garbage-collected that history; no amount of retrying will ever
      // get it from us. Tell the requester where our horizon stands so it
      // can switch to snapshot catch-up instead of stalling forever.
      below_horizon = true;
    }
  }
  if (!response.blocks.empty()) actions.responses.push_back(std::move(response));
  if (below_horizon) {
    actions.horizon_notices.push_back({from, dag_.pruned_below()});
  }
  return actions;
}

Actions ValidatorCore::on_peer_horizon(ValidatorId peer, Round horizon,
                                       TimeMicros now) {
  Actions actions;
  if (default_committer_ == nullptr) return actions;  // cannot install → don't ask
  // The notice is a bare claim any peer can send. Clamp it to the highest
  // round f+1 distinct authors have shown us: an honest peer's horizon
  // trails its committed head, which cannot be ahead of every honest author
  // we have validated blocks from — so the excess of a fabricated horizon is
  // discarded rather than believed.
  horizon = std::min(horizon, credible_peer_horizon());
  if (horizon <= dag_.pruned_below()) return actions;  // peer not ahead of us
  // Only worth a snapshot when we are actually stuck, and only on a refusal
  // of one of OUR fetches: some ancestor we asked THIS peer for must sit
  // below its horizon — then neither this peer nor anyone whose horizon also
  // passed it can ever serve the fetch. A peer we never fetched from has
  // nothing to refuse and cannot talk us into requesting its snapshot.
  bool stuck = false;
  for (const auto& ref : synchronizer_.outstanding()) {
    if (ref.round >= horizon) continue;
    const auto it = inflight_fetches_.find(ref.digest);
    if (it != inflight_fetches_.end() && it->second.peer == peer) {
      stuck = true;
      break;
    }
  }
  if (!stuck) return actions;
  if (last_catchup_request_.has_value() &&
      now - *last_catchup_request_ < kCatchupRetryDelay) {
    return actions;
  }
  last_catchup_request_ = now;
  actions.checkpoint_requests.push_back(peer);
  return actions;
}

CheckpointData ValidatorCore::capture_checkpoint() const {
  CheckpointData data;
  data.author = config_.id;
  data.horizon = dag_.pruned_below();
  data.head = committer_->next_pending_slot();
  data.last_proposed_round = last_proposed_round_;
  data.decided = committer_->decided_sequence();
  if (default_committer_ != nullptr) {
    data.delivered = default_committer_->delivered_snapshot(data.horizon);
  }
  // The live suffix, round-ascending so installation inserts parents before
  // children (a parent's round is strictly below its child's). Genesis is
  // excluded: every validator constructs it locally.
  for (Round r = std::max<Round>(1, data.horizon); r <= dag_.highest_round(); ++r) {
    for (const BlockPtr& block : dag_.blocks_at(r)) data.blocks.push_back(block);
  }
  return data;
}

Actions ValidatorCore::install_checkpoint(const CheckpointData& data, TimeMicros now) {
  Actions actions;
  if (default_committer_ == nullptr) return actions;  // no restore path
  if (data.head <= committer_->next_pending_slot()) return actions;  // not ahead

  // Drop local state below the checkpoint's horizon. Pending blocks whose
  // only missing parents fall below it unblock and insert, like any other
  // horizon move.
  if (data.horizon > dag_.pruned_below()) prune_below(data.horizon, actions);

  // Install the DAG suffix through the synchronizer so parked descendants
  // cascade. The suffix is round-ascending and the horizon is set, so
  // nothing can report missing parents.
  for (const BlockPtr& block : data.blocks) {
    if (dag_.contains(block->ref())) continue;
    if (block->author() == config_.id && block->round() > last_proposed_round_) {
      // Our own pre-crash history, coming back to us via a peer's snapshot:
      // restore the proposer round before anything can trigger a proposal.
      last_proposed_round_ = block->round();
      own_last_ref_ = block->ref();
    }
    auto outcome = synchronizer_.offer(block);
    for (BlockPtr& inserted : outcome.inserted) {
      inflight_fetches_.erase(inserted->digest());
      note_inserted(inserted);
      actions.inserted.push_back(std::move(inserted));
    }
  }

  // Adopt the consumption state: decided log, head, delivered marks.
  default_committer_->restore(data.decided, data.head, data.delivered);

  if (data.author == config_.id && data.last_proposed_round > last_proposed_round_) {
    // Recovering from our own checkpoint: the proposer round it recorded may
    // exceed the highest own block in the suffix (a proposal below the
    // horizon with no successor above it).
    last_proposed_round_ = data.last_proposed_round;
  }

  ++checkpoints_installed_;
  last_catchup_request_.reset();  // a fresh stall may legitimately re-request

  // The installed suffix may already decide slots past the head. Deliberately
  // NO maybe_propose here: during the recovery-path install the driver
  // discards these actions, and a proposal minted now would enter the DAG
  // without ever being logged or broadcast — the next tick or input proposes
  // instead, through the normal logged path.
  (void)now;
  commit_and_gc(actions);
  return actions;
}

Actions ValidatorCore::on_tick(TimeMicros now) {
  Actions actions;
  // Retry stale fetches (the original peer may have failed).
  std::unordered_map<ValidatorId, std::vector<BlockRef>> retries;
  for (const auto& ref : synchronizer_.outstanding()) {
    const auto it = inflight_fetches_.find(ref.digest);
    if (it == inflight_fetches_.end()) continue;
    if (now - it->second.asked_at < config_.fetch_retry_delay) continue;
    // Rotate to the block's author, then round-robin across the committee.
    const ValidatorId next_peer =
        it->second.peer == ref.author
            ? static_cast<ValidatorId>((it->second.peer + 1) % committee_.size())
            : ref.author;
    it->second = FetchState{next_peer, now};
    retries[next_peer].push_back(ref);
  }
  for (auto& [peer, refs] : retries) {
    actions.fetch_requests.push_back({peer, std::move(refs)});
  }

  maybe_propose(now, actions);
  return actions;
}

void ValidatorCore::maybe_propose(TimeMicros now, Actions& actions) {
  if (config_.observer) return;  // read replicas follow, never propose
  // Advance rule: propose at r*+1 where r* is the highest round with a 2f+1
  // distinct-author quorum. Skipping ahead lets a lagging validator rejoin.
  Round quorum_round = 0;
  for (Round r = dag_.highest_round();; --r) {
    if (dag_.distinct_authors_at(r) >= committee_.quorum_threshold()) {
      quorum_round = r;
      break;
    }
    if (r == 0) break;
  }
  const Round target = quorum_round + 1;
  if (target <= last_proposed_round_) return;
  if (last_proposal_time_.has_value() &&
      now - *last_proposal_time_ < config_.min_round_delay) {
    proposal_deadline_ = *last_proposal_time_ + config_.min_round_delay;
    return;
  }

  const BlockPtr block = build_own_block(target, now);
  last_proposed_round_ = target;
  last_proposal_time_ = now;
  proposal_deadline_.reset();
  own_last_ref_ = block->ref();
  dag_.insert(block);
  note_inserted(block);
  actions.broadcast.push_back(block);
  actions.inserted.push_back(block);

  if (config_.byzantine_equivocate) {
    // A second, conflicting block for the same round: marker batch plus the
    // same parents. The driver decides which peers see which block.
    TxBatch marker;
    marker.id = 0xe001'0000'0000'0000ULL + ++equivocation_counter_;
    marker.count = 0;
    marker.tx_bytes = 0;
    auto twin = std::make_shared<const Block>(
        Block::make(config_.id, target, block->parents(), {marker},
                    committee_.coin().share(config_.id, target), key_, now));
    dag_.insert(twin);
    actions.broadcast.push_back(twin);
    actions.inserted.push_back(twin);
  }

  // Committing may be possible immediately (our block may complete a wave).
  commit_and_gc(actions);

  // Chain proposals: our own block may complete the quorum for the next
  // round only if others' blocks arrive, so no recursion is needed here.
}

BlockPtr ValidatorCore::build_own_block(Round round, TimeMicros now) {
  // Parents: own previous block first (§2.3), then one block per distinct
  // author of round-1, then any remaining unreferenced tips below `round`.
  std::vector<BlockRef> parents;
  std::set<Digest> chosen;
  const auto add_parent = [&](const BlockRef& ref) {
    if (ref.round >= round) return;
    if (chosen.insert(ref.digest).second) parents.push_back(ref);
  };

  add_parent(own_last_ref_);
  for (ValidatorId author = 0; author < committee_.size(); ++author) {
    const auto& cell = dag_.slot(round - 1, author);
    if (!cell.empty()) add_parent(cell.front()->ref());
  }
  for (const auto& tip : tips_) add_parent(tip);
  // Everything below `round` is now referenced by this proposal; only
  // same-or-future-round tips remain for the next one.
  std::erase_if(tips_, [round](const BlockRef& ref) { return ref.round < round; });

  std::vector<TxBatch> batches =
      mempool_->drain(config_.max_block_batches, config_.max_block_payload_bytes);

  // `now` is the driver's clock (steady micros live, virtual in the sim):
  // the created_at stamp peers fold into their rx-lag forensics.
  return std::make_shared<const Block>(
      Block::make(config_.id, round, std::move(parents), std::move(batches),
                  committee_.coin().share(config_.id, round), key_, now));
}

}  // namespace mahimahi
