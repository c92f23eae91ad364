#include "validator/checkpointer.h"

#include <algorithm>

#include "checkpoint/delta.h"
#include "common/log.h"
#include "serde/serde.h"

namespace mahimahi {

namespace {

// Cut-certificate share admission window around next_cut_index_: shares for
// boundaries further behind can no longer form a certificate this node would
// attach; indices further ahead would let a hostile peer grow per-boundary
// state without bound. The past window also bounds pending_ retention.
constexpr std::uint64_t kCertPastWindow = 16;
constexpr std::uint64_t kCertFutureWindow = 64;

// The cut index a certificate sidecar binds, or nullopt when it does not
// decode.
std::optional<std::uint64_t> cert_cut_index(const Bytes& cert) {
  try {
    return decode_checkpoint_certificate({cert.data(), cert.size()}).payload.cut_index;
  } catch (const serde::SerdeError&) {
    return std::nullopt;
  }
}

}  // namespace

Checkpointer::Counters::Counters(obs::Registry& registry)
    : written(&registry.counter("mm_checkpoints_written_total",
                                "Checkpoints cut and persisted")),
      catchups(&registry.counter("mm_snapshot_catchups_total",
                                 "Peer checkpoints verified and installed")),
      served(&registry.counter("mm_checkpoints_served_total",
                               "Checkpoint responses sent to catching-up peers")),
      delta_cuts(&registry.counter("mm_checkpoint_delta_cuts_total",
                                   "Checkpoint cuts persisted as delta links")),
      certs(&registry.counter("mm_checkpoint_certs_total",
                              "Checkpoint certificates formed (2f+1 shares)")),
      shares_rejected(&registry.counter(
          "mm_checkpoint_cert_shares_rejected_total",
          "Cut-certificate shares rejected (bad signature or payload mismatch)")),
      certified_installs(&registry.counter(
          "mm_checkpoint_certified_installs_total",
          "Snapshot catch-ups installed from a fully certified chain")),
      uncertified_installs(&registry.counter(
          "mm_checkpoint_uncertified_installs_total",
          "Snapshot catch-ups installed via the legacy uncertified trust path")) {}

Checkpointer::Checkpointer(const Committee& committee, ValidatorCore& core,
                           crypto::Ed25519PrivateKey key, obs::Registry& registry,
                           obs::FlightRecorder* recorder, Hooks hooks,
                           exec::ExecutionEngine* app, const std::string& store_dir)
    : committee_(committee),
      core_(core),
      config_(core.config()),
      key_(key),
      recorder_(recorder),
      hooks_(std::move(hooks)),
      app_(app),
      counters_(registry),
      cutting_(config_.checkpoint_interval > 0 && config_.committer.gc_depth > 0 &&
               core.checkpoint_capable()),
      certifying_(config_.checkpoint_interval > 0) {
  if (cutting_ && !store_dir.empty()) {
    store_ = std::make_unique<CheckpointStore>(store_dir);
  }
}

void Checkpointer::recover() {
  if (store_ == nullptr) return;
  auto chain = store_->newest_valid_chain();
  if (chain.empty()) return;
  auto recovered = store_->load_newest_valid();
  if (!recovered.has_value()) return;
  auto data = std::move(*recovered);
  // load_newest_valid may have truncated a torn delta tail; keep only the
  // links that actually contributed to the recovered cut.
  while (!chain.empty() && chain.back().sequence > data.sequence) chain.pop_back();
  seq_ = data.sequence;
  last_horizon_ = data.horizon;
  base_seq_ = chain.front().sequence;
  for (auto& stored : chain) {
    Link link;
    link.sequence = stored.sequence;
    link.record = std::make_shared<const Bytes>(std::move(stored.record));
    if (!stored.cert.empty()) {
      // Sidecars are already decode-gated by newest_valid_chain; the cut
      // index keys cert attachment after a restart.
      if (const auto index = cert_cut_index(stored.cert)) {
        link.cut_index = *index;
        link.cert = std::make_shared<const Bytes>(std::move(stored.cert));
      }
    }
    chain_.push_back(std::move(link));
  }
  core_.install_checkpoint(data, 0);  // recovery: actions are moot
  // The cut's app snapshot stands in for every sub-horizon commit; the
  // segment-suffix replay lands the rest on top of it.
  install_app(data);
  MM_LOG(kInfo) << "v" << id() << " recovered checkpoint " << data.sequence
                << " (horizon r" << data.horizon << ", " << chain_.size()
                << "-link chain, " << data.blocks.size() << " suffix blocks)";
  // The diff base for the next delta cut. The app snapshot travels inside;
  // the touched-key window restarts empty, which is exactly the delta since
  // this recovered state.
  last_cut_ = std::make_shared<const CheckpointData>(std::move(data));
}

SlotId Checkpointer::boundary_slot(std::uint64_t cut_index) const {
  return cut_boundary_slot(cut_index, config_.checkpoint_interval, config_.committer);
}

std::uint64_t Checkpointer::first_cut_at_or_after(SlotId min_slot) const {
  std::uint64_t k = std::max<std::uint64_t>(
      std::uint64_t{1}, min_slot.round / std::max<Round>(config_.checkpoint_interval, 1));
  while (k > 1 && !(boundary_slot(k - 1) < min_slot)) --k;
  while (boundary_slot(k) < min_slot) ++k;
  return k;
}

void Checkpointer::start(SegmentedWal* wal) {
  wal_ = wal;
  if (!certifying_) return;
  // First boundary to cross: at or past the replayed consumption head (a
  // boundary the replay already passed cannot be cut — the app has been fed
  // beyond it) and strictly past the recovered cut.
  next_cut_index_ = first_cut_at_or_after(core_.committer().next_pending_slot());
  while (last_cut_ != nullptr && !(last_cut_->head < boundary_slot(next_cut_index_))) {
    ++next_cut_index_;
  }
}

void Checkpointer::advance(SlotId watermark, const Actions& actions) {
  if (!certifying_) return;
  while (!(watermark < boundary_slot(next_cut_index_))) {
    cross_boundary(next_cut_index_, boundary_slot(next_cut_index_), actions);
    ++next_cut_index_;
  }
  // Boundaries more than a window behind can no longer form or serve a
  // certificate here; drop their share state.
  while (!pending_.empty() && pending_.begin()->first + kCertPastWindow < next_cut_index_) {
    pending_.erase(pending_.begin());
  }
}

void Checkpointer::cross_boundary(std::uint64_t cut_index, SlotId boundary,
                                  const Actions& actions) {
  // Fold the decided log up to the boundary. These entries are the agreed
  // sequence, so every honest validator folds the identical prefix here —
  // that is what makes the payload digest below aggregatable.
  const auto& log = core_.committer().decided_sequence();
  while (folded_ < log.size() && log[folded_].slot < boundary) hasher_.fold(log[folded_++]);
  CutPayload payload;
  payload.cut_index = cut_index;
  payload.head = boundary;
  payload.decided_digest = hasher_.digest();
  // The app digest drains: the app has been fed exactly the commits with
  // slot < boundary (the crossing fires before this pass's sub-DAG at or
  // past it is enqueued), so this is the canonical digest at the cut.
  payload.app_digest = app_ ? app_->state_digest() : Digest{};

  auto [it, inserted] = pending_.try_emplace(cut_index, committee_.quorum_threshold());
  PendingCut& pending = it->second;
  pending.have_payload = true;
  pending.payload = payload;
  const CutShare own = sign_cut(payload, id(), key_);
  const Bytes wire = encode_cut_share(own);
  serde::Writer w(1 + wire.size());
  w.u8(kShareFrame);
  w.raw({wire.data(), wire.size()});
  for (ValidatorId peer = 0; peer < committee_.size(); ++peer) {
    if (peer != id()) hooks_.send(peer, {w.data().data(), w.data().size()});
  }
  collect(cut_index, pending, own);
  // Shares that arrived before we crossed: already signature-checked, now
  // checkable against our own payload.
  const std::vector<CutShare> early = std::move(pending.early);
  pending.early.clear();
  for (const CutShare& share : early) collect(cut_index, pending, share);

  if (cutting_ && !in_flight_ && (last_cut_ == nullptr || last_cut_->head < boundary)) {
    // The head guard skips duplicate cuts when several cut indices map to
    // one boundary slot (interval shorter than the wave stride) — shares
    // are signed for each k, the cut lands once.
    start_cut(cut_index, boundary, payload.app_digest, actions);
  }
}

void Checkpointer::start_cut(std::uint64_t cut_index, SlotId boundary,
                             const Digest& app_digest, const Actions& actions) {
  // The consistent cut: captured here, on the consensus thread, where the
  // core is quiescent — committed head, decided log, delivered marks, live
  // DAG suffix — then truncated back to the canonical boundary so the
  // persisted cut matches the certified payload exactly.
  CheckpointData data = core_.capture_checkpoint();
  if (data.horizon > boundary.round) return;  // GC already pruned past it
  std::vector<Digest> delivered_after;
  for (const auto& sub_dag : actions.committed) {
    if (sub_dag.slot < boundary) continue;
    for (const auto& block : sub_dag.blocks) delivered_after.push_back(block->digest());
  }
  truncate_checkpoint(data, boundary, delivered_after);
  data.sequence = ++seq_;
  data.app_digest = app_digest;

  // Delta while the chain has room; re-base otherwise (or when the diff
  // base does not extend — e.g. the previous cut was an installed peer
  // snapshot with a different author).
  bool is_base = true;
  CheckpointDelta delta;
  if (last_cut_ != nullptr && !chain_.empty() &&
      data.sequence - base_seq_ <= ValidatorConfig::checkpoint_max_deltas) {
    try {
      delta = make_checkpoint_delta(*last_cut_, data, base_seq_,
                                    app_ ? app_->app_delta_snapshot() : Bytes{});
      is_base = false;
    } catch (const std::invalid_argument&) {
      is_base = true;
    }
  }
  if (is_base && app_ != nullptr) {
    // The full snapshot subsumes the touched-key window; restart it so the
    // next delta carries exactly the keys touched after this base.
    data.app_state = app_->app_snapshot();
    app_->clear_app_delta_window();
  }

  // Rolling the segment at a base cut gives the retire boundary: every
  // record of the whole previous chain is now in a sealed segment. Delta
  // cuts do not roll — recovery replays the segment suffix from the chain
  // base's boundary, and re-inserting blocks the deltas already cover is
  // idempotent.
  const std::uint64_t keep_from = is_base && wal_ != nullptr ? wal_->roll_segment() : 0;
  in_flight_ = true;
  auto data_ptr = std::make_shared<const CheckpointData>(std::move(data));
  hooks_.write([this, data_ptr, delta = std::move(delta), is_base, cut_index, keep_from,
                epoch = epoch_]() -> std::function<void()> {
    // Off the consensus thread: serialization + the crash-atomic file
    // write. The blocks are immutable and the store touches only its files.
    std::shared_ptr<const Bytes> encoded;
    try {
      encoded = std::make_shared<const Bytes>(is_base ? encode_checkpoint(*data_ptr)
                                                      : encode_checkpoint_delta(delta));
      if (store_ != nullptr) {
        if (is_base) {
          store_->write(data_ptr->sequence, {encoded->data(), encoded->size()});
        } else {
          store_->write_delta(data_ptr->sequence, {encoded->data(), encoded->size()});
        }
      }
    } catch (const std::exception& error) {
      MM_LOG(kWarn) << "v" << id() << " checkpoint write failed: " << error.what();
      return [this, epoch] {
        if (epoch != epoch_) return;
        in_flight_ = false;
        // The sequence numbering now has a gap the store's chain walk would
        // stop at; dropping the diff base forces the next cut to re-base.
        // The old serving state stays; segments stay until a write lands.
        last_cut_.reset();
      };
    }
    return [this, epoch, cut_index, is_base, keep_from, encoded, data_ptr] {
      finish_cut(epoch, cut_index, is_base, keep_from, encoded, data_ptr);
    };
  });
}

void Checkpointer::finish_cut(std::uint64_t epoch, std::uint64_t cut_index, bool is_base,
                              std::uint64_t keep_from, std::shared_ptr<const Bytes> encoded,
                              std::shared_ptr<const CheckpointData> data) {
  if (epoch != epoch_) return;  // an install replaced the chain
  in_flight_ = false;
  last_horizon_ = std::max(last_horizon_, data->horizon);
  counters_.written->add();
  if (recorder_ != nullptr) {
    recorder_->record_now(obs::FlightEventType::kCheckpointCut, data->head.round, cut_index);
  }
  if (is_base) {
    chain_.clear();
    base_seq_ = data->sequence;
    // Only now — with the new base durable — can the chain before the
    // PREVIOUS one retire, segments and checkpoint files alike: recovery may
    // fall back past a torn newest chain, which needs the previous chain's
    // records and the segments from its base boundary.
    if (wal_ != nullptr) wal_->retire_segments_below(chain_keep_from_);
    chain_keep_from_ = keep_from;
    if (store_ != nullptr) store_->retire(2);
  } else {
    counters_.delta_cuts->add();
  }
  chain_.push_back(Link{data->sequence, cut_index, std::move(encoded), nullptr});
  last_cut_ = std::move(data);
  // A certificate that formed while the write was in flight attaches now.
  const auto it = pending_.find(cut_index);
  if (it != pending_.end() && it->second.cert != nullptr) attach_cert(cut_index, it->second.cert);
}

void Checkpointer::on_share(BytesView payload) {
  if (!certifying_) return;
  CutShare share = decode_cut_share(payload);
  const std::uint64_t k = share.payload.cut_index;
  // Window: boundaries long past cannot form a useful certificate anymore,
  // and far-future indices would let a hostile peer grow pending_ without
  // bound.
  if (k + kCertPastWindow < next_cut_index_ || k > next_cut_index_ + kCertFutureWindow) {
    return;
  }
  if (!verify_cut_share(share, committee_)) {
    counters_.shares_rejected->add();
    return;
  }
  auto [it, inserted] = pending_.try_emplace(k, committee_.quorum_threshold());
  PendingCut& pending = it->second;
  if (!pending.have_payload) {
    // We have not crossed this boundary yet, so there is no own payload to
    // check against. Buffer (bounded, per-author deduped) until we do.
    for (const CutShare& buffered : pending.early) {
      if (buffered.author == share.author) return;
    }
    if (pending.early.size() < committee_.size()) pending.early.push_back(std::move(share));
    return;
  }
  collect(k, pending, share);
}

void Checkpointer::collect(std::uint64_t cut_index, PendingCut& pending,
                           const CutShare& share) {
  // Only shares over OUR OWN payload enter the collector: a forged payload
  // can gather any number of signatures over itself without ever producing
  // a certificate we would serve.
  if (!(share.payload == pending.payload)) {
    counters_.shares_rejected->add();
    return;
  }
  if (!pending.collector.add(share.author, share.signature)) return;
  CheckpointCertificate cert{pending.payload, pending.collector.certificate()};
  pending.cert = std::make_shared<const Bytes>(encode_checkpoint_certificate(cert));
  counters_.certs->add();
  attach_cert(cut_index, pending.cert);
}

void Checkpointer::attach_cert(std::uint64_t cut_index, std::shared_ptr<const Bytes> cert) {
  for (auto& link : chain_) {
    if (link.cut_index != cut_index) continue;
    link.cert = cert;
    if (store_ != nullptr) {
      hooks_.write([this, sequence = link.sequence, cert]() -> std::function<void()> {
        try {
          store_->write_cert(sequence, {cert->data(), cert->size()});
        } catch (const std::exception& error) {
          MM_LOG(kWarn) << "v" << id() << " certificate write failed: " << error.what();
        }
        return {};
      });
    }
    return;
  }
}

std::size_t Checkpointer::certified_links() const {
  return static_cast<std::size_t>(std::count_if(
      chain_.begin(), chain_.end(), [](const Link& link) { return link.cert != nullptr; }));
}

void Checkpointer::serve(ValidatorId peer) {
  if (chain_.empty()) return;  // nothing to offer yet
  // Prefer the certified trust root: serve the longest chain prefix whose
  // every link carries an aggregated certificate, so the receiver installs
  // without trusting this peer. Only when NOT EVEN THE BASE is certified yet
  // (its collection still in flight, or more than f validators withholding
  // shares) does the whole chain go out uncertified via the legacy
  // stuck-requester trust path — a slightly stale certified cut beats a
  // fresher one the receiver has to take on faith, and live sync replays
  // the gap anyway.
  std::size_t certified_prefix = 0;
  while (certified_prefix < chain_.size() && chain_[certified_prefix].cert != nullptr) {
    ++certified_prefix;
  }
  const std::size_t count = certified_prefix > 0 ? certified_prefix : chain_.size();
  std::vector<std::pair<BytesView, BytesView>> links;
  links.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Link& link = chain_[i];
    links.emplace_back(BytesView{link.record->data(), link.record->size()},
                       link.cert != nullptr ? BytesView{link.cert->data(), link.cert->size()}
                                            : BytesView{});
  }
  const Bytes frame = encode_checkpoint_chain_frame(links);
  serde::Writer w(1 + frame.size());
  w.u8(kChainFrame);
  w.raw({frame.data(), frame.size()});
  hooks_.send(peer, {w.data().data(), w.data().size()});
  counters_.served->add();
}

void Checkpointer::request(ValidatorId peer) {
  const std::uint8_t frame = kRequestFrame;
  hooks_.send(peer, {&frame, 1});
  request_outstanding_ = true;
  request_peer_ = peer;
}

bool Checkpointer::accept_chain(ValidatorId peer) {
  if (!request_outstanding_ || peer != request_peer_) return false;
  request_outstanding_ = false;
  return true;
}

std::optional<Checkpointer::VerifiedChain> Checkpointer::verify_chain(
    ValidatorId peer, BytesView payload) const {
  try {
    const CheckpointChainFrame frame = decode_checkpoint_chain_frame(payload);
    ChainVerifyResult result = verify_checkpoint_chain(
        frame, committee_, config_.committer, config_.checkpoint_interval,
        config_.validation, config_.signature_cache.get());
    if (!result.error.empty()) {
      MM_LOG(kWarn) << "v" << id() << " rejected checkpoint chain from v" << peer << ": "
                    << result.error;
      return std::nullopt;
    }
    VerifiedChain chain{std::move(result.data), result.certified, nullptr};
    if (result.certified && !frame.links.empty() && !frame.links.back().cert.empty()) {
      chain.final_cert = std::make_shared<const Bytes>(frame.links.back().cert);
    }
    return chain;
  } catch (const std::exception& error) {
    MM_LOG(kWarn) << "v" << id() << " bad checkpoint chain frame from v" << peer << ": "
                  << error.what();
    return std::nullopt;
  }
}

Actions Checkpointer::install(VerifiedChain chain, TimeMicros now) {
  CheckpointData& data = chain.data;
  const SlotId before = core_.committer().next_pending_slot();
  Actions actions = core_.install_checkpoint(data, now);
  if (core_.committer().next_pending_slot() <= before) return {};  // stale snapshot
  counters_.catchups->add();
  (chain.certified ? counters_.certified_installs : counters_.uncertified_installs)->add();
  // State jump: replace the replica's app state with the cut's snapshot.
  // Commits the install emits resume execution from this point.
  install_app(data);
  MM_LOG(kInfo) << "v" << id() << " installed snapshot from v" << data.author
                << " (horizon r" << data.horizon << ", head r" << data.head.round << ")";
  // Persist the snapshot as our own recovery point: a crash from here on
  // must not land us back below everyone's horizon. The sequence continues
  // our local numbering.
  data.sequence = ++seq_;
  last_horizon_ = data.horizon;
  // The installed cut replaces the local chain: in-flight cut completions
  // for the old one are dropped by the epoch guard, and the writer is free
  // again (its task may still land a stale file; retirement collects it).
  ++epoch_;
  in_flight_ = false;
  pending_.clear();
  // The decided log was replaced wholesale; refold from its start at the
  // next boundary crossing.
  hasher_ = DecidedLogHasher{};
  folded_ = 0;
  // Re-encoded rather than stored verbatim so the local sequence stamp keeps
  // our file numbering monotonic (rare path; the cost is one serialization).
  Link base{data.sequence, 0, std::make_shared<const Bytes>(encode_checkpoint(data)), nullptr};
  if (chain.final_cert != nullptr) {
    // The payload a certificate signs is author- and sequence-independent,
    // so the received chain's final certificate binds the restamped merged
    // base just as well — a certified install stays a certified serve.
    if (const auto index = cert_cut_index(*chain.final_cert)) {
      base.cut_index = *index;
      base.cert = chain.final_cert;
    }
  }
  chain_.assign(1, base);
  base_seq_ = data.sequence;
  if (store_ != nullptr) {
    try {
      store_->write(data.sequence, {base.record->data(), base.record->size()});
      if (base.cert != nullptr) {
        store_->write_cert(data.sequence, {base.cert->data(), base.cert->size()});
      }
      store_->retire(2);
    } catch (const std::exception& error) {
      MM_LOG(kWarn) << "v" << id() << " failed to persist snapshot: " << error.what();
    }
  }
  if (certifying_) {
    // Resume boundary crossing strictly past the installed head.
    next_cut_index_ = first_cut_at_or_after(data.head);
    while (!(data.head < boundary_slot(next_cut_index_))) ++next_cut_index_;
  }
  last_cut_ = std::make_shared<const CheckpointData>(std::move(data));
  return actions;
}

void Checkpointer::install_app(const CheckpointData& data) {
  if (app_ == nullptr || data.app_state.empty()) return;
  const BytesView snapshot{data.app_state.data(), data.app_state.size()};
  app_->install_snapshot(snapshot);
  if (hooks_.app_installed) hooks_.app_installed(snapshot);
}

}  // namespace mahimahi
