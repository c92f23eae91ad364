#include "validator/pipeline.h"

#include <algorithm>

#include "common/log.h"

namespace mahimahi {

NodePipeline::Counters::Counters(obs::Registry& registry)
    : fetch_requests(&registry.counter("mm_fetch_requests_total",
                                       "Synchronizer fetch requests sent")),
      checkpoint_requests(&registry.counter("mm_checkpoint_requests_total",
                                            "Checkpoint catch-up requests sent")),
      replayed_blocks(&registry.counter("mm_wal_replayed_blocks_total",
                                        "Blocks replayed from the WAL at recovery")),
      submit_rejected(&registry.counter("mm_submit_rejected_total",
                                        "Client batches the mempool rejected at admit()")) {}

NodePipeline::CoreMetrics::CoreMetrics(obs::Registry& registry)
    : highest_round(&registry.gauge("mm_highest_round", "Highest round in the local DAG")),
      structurally_rejected(&registry.gauge("mm_ingest_core_structural_rejects",
                                            "Core ingest stats mirror: structural rejects")),
      crypto_rejected(&registry.gauge("mm_ingest_core_crypto_rejects",
                                      "Core ingest stats mirror: crypto rejects")),
      cache_hits(&registry.gauge("mm_ingest_core_cache_hits",
                                 "Core ingest stats mirror: verifier-cache hits")),
      verified(&registry.gauge("mm_ingest_core_verified",
                               "Core ingest stats mirror: verified blocks")),
      direct_commits(&registry.gauge("mm_slot_direct_commits", "Slots committed directly")),
      indirect_commits(&registry.gauge("mm_slot_indirect_commits", "Slots committed indirectly")),
      direct_skips(&registry.gauge("mm_slot_direct_skips", "Slots skipped directly")),
      indirect_skips(&registry.gauge("mm_slot_indirect_skips", "Slots skipped indirectly")),
      dag_blocks(&registry.gauge("mm_dag_blocks", "Blocks in the live DAG window")),
      dag_payload_bytes(&registry.gauge("mm_dag_payload_bytes",
                                        "Wire bytes of the blocks in the live DAG window")),
      decided_log_entries(&registry.gauge("mm_decided_log_entries",
                                          "Consumed leader slots in the decided log")),
      vote_memo_entries(&registry.gauge("mm_vote_memo_entries",
                                        "Memoized vote traversals the commit rule keeps")),
      fetch_inflight(&registry.gauge("mm_fetch_inflight",
                                     "Missing ancestors with a fetch outstanding")),
      dag_digest_probes(&registry.counter(
          "mm_dag_digest_probes_total",
          "Lookups and insertions on the DAG's digest index (ingress only)")),
      block_payload_bytes(&registry.histogram(
          "mm_block_payload_bytes", "Transaction bytes per own proposal (TxBatch::wire_bytes)")) {}

NodePipeline::NodePipeline(const Committee& committee, crypto::Ed25519PrivateKey key,
                           const ValidatorConfig& config, obs::Registry& registry, Env env,
                           Observers observers, const std::string& store_dir)
    : env_(std::move(env)),
      observers_(observers),
      counters_(registry),
      store_dir_(store_dir),
      core_(std::make_unique<ValidatorCore>(committee, key, config)),
      engine_(config.execute_app
                  ? std::make_unique<exec::ExecutionEngine>(
                        exec::ExecutionEngine::Options{.threads = config.execution_threads},
                        [this](const exec::WaveDelivery& wave) { on_delivered(wave); })
                  : nullptr),
      checkpointer_(std::make_unique<Checkpointer>(committee, *core_, key, registry,
                                                   observers.recorder, env_.checkpoint,
                                                   engine_.get(), store_dir)) {
  if (observers.core_metrics) metrics_.emplace(registry);
}

SegmentedWal::ReplayResult NodePipeline::recover(const MemoryWal::Store* memory) {
  // The checkpoint first: it sets the horizon, so log records below it are
  // skipped. An older checkpoint (a newer one torn) costs more replay, never
  // divergence: the log holds a superset of every cut.
  checkpointer_->recover();
  const auto replay = [this](BlockPtr block) {
    Actions actions = core_->recover_block(std::move(block));
    counters_.replayed_blocks->add();
    for (const auto& sub_dag : actions.committed) {
      if (env_.replay_commit) env_.replay_commit(sub_dag);
      // Serially inline, without deliveries: the original run already
      // stamped these batches' finality.
      if (engine_) engine_->replay(sub_dag);
    }
  };
  SegmentedWal::ReplayResult result;
  if (memory != nullptr) {
    for (const auto& block : *memory) replay(block);
    result.records = memory->size();
  } else if (!store_dir_.empty()) {
    result = SegmentedWal::replay(store_dir_,
                                  [&](BlockPtr block, bool) { replay(std::move(block)); });
  }
  mirror_core();
  return result;
}

void NodePipeline::start(std::unique_ptr<Wal> wal, SegmentedWal* segments) {
  wal_ = std::move(wal);
  checkpointer_->start(segments);
}

void NodePipeline::admit(std::vector<TxBatch> batches) {
  for (const AdmitResult verdict : core_->mempool_handle()->submit_all(std::move(batches))) {
    if (admitted(verdict)) continue;
    counters_.submit_rejected->add();
    MM_LOG(kDebug) << "v" << core_->id() << " mempool rejected batch: " << to_string(verdict);
  }
}

void NodePipeline::perform(Actions&& actions) {
  auto* const tracer = observers_.tracer;
  auto* const forensics = observers_.forensics;
  auto* const recorder = observers_.recorder;
  const TimeMicros now = env_.now();
  // Insert stamps open the commit-wait spans commit() closes.
  for (const auto& block : actions.inserted) {
    wal_->append_block(*block, block->author() == core_->id());
    if (tracer) tracer->block_inserted(block->digest(), now);
    if (forensics) forensics->block_arrived(block->digest(), now);
    if (recorder) {
      recorder->record(obs::FlightEventType::kBlockInsert, now, block->author(), block->round());
    }
  }
  if (!actions.inserted.empty()) {
    // The batch becomes durable together: each block waits the full span.
    wal_->on_durable([this, tracer, recorder, now, count = actions.inserted.size()] {
      if (tracer) tracer->record_stage(obs::Stage::kWalDurable, env_.now() - now, count);
      if (recorder) recorder->record_now(obs::FlightEventType::kWalFlush, count);
    });
  }
  // Non-equivocation: never send an own block a restart could forget. Own
  // proposals are among the blocks appended above, so the ack costs no
  // second sync.
  if (!actions.broadcast.empty()) {
    for (const auto& block : actions.broadcast) {
      if (metrics_) {
        metrics_->block_payload_bytes->record(static_cast<std::int64_t>(block->payload_bytes()));
      }
    }
    wal_->on_durable([this, group = std::move(actions.broadcast)] { env_.broadcast(group); });
  }
  for (const auto& request : actions.fetch_requests) {
    counters_.fetch_requests->add();
    env_.send_fetch(request.peer, request.refs);
  }
  // Responses carry blocks already in the DAG: durable, so ungated.
  for (const auto& response : actions.responses) env_.send_blocks(response.peer, response.blocks);
  // A boundary crossing fires before the sub-DAG reaches execution: at B_k
  // the app holds exactly the commits below B_k (canonical app digest).
  for (const auto& sub_dag : actions.committed) {
    checkpointer_->advance(sub_dag.slot, actions);
    commit(sub_dag);
  }
  if (!actions.committed.empty() && forensics) {
    // Replay re-derives commits from the blocks, so their ack covers them.
    wal_->on_durable([this, forensics] { forensics->durable_ack(env_.now()); });
  }
  for (const auto& notice : actions.horizon_notices) {
    env_.send_horizon(notice.peer, notice.horizon);
  }
  for (const ValidatorId peer : actions.checkpoint_requests) {
    counters_.checkpoint_requests->add();
    checkpointer_->request(peer);
  }
  // Skips consume slots without delivering: the head may be past the last
  // committed sub-DAG's boundary.
  checkpointer_->advance(core_->committer().next_pending_slot(), actions);
  mirror_core();
}

void NodePipeline::mirror_core() {
  if (!metrics_) return;
  const auto set = [](obs::Gauge* gauge, std::uint64_t value) {
    gauge->set(static_cast<std::int64_t>(value));
  };
  set(metrics_->highest_round, core_->dag().highest_round());
  const IngestStats stats = core_->ingest_stats();
  set(metrics_->structurally_rejected, stats.structurally_rejected);
  set(metrics_->crypto_rejected, stats.crypto_rejected);
  set(metrics_->cache_hits, stats.cache_hits);
  set(metrics_->verified, stats.verified);
  const CommitStats& slots = core_->committer().stats();
  set(metrics_->direct_commits, slots.direct_commits);
  set(metrics_->indirect_commits, slots.indirect_commits);
  set(metrics_->direct_skips, slots.direct_skips);
  set(metrics_->indirect_skips, slots.indirect_skips);
  set(metrics_->dag_blocks, core_->dag().block_count());
  set(metrics_->dag_payload_bytes, core_->dag().wire_bytes());
  set(metrics_->decided_log_entries, core_->committer().decided_sequence().size());
  set(metrics_->vote_memo_entries, core_->committer().vote_memo_entries());
  set(metrics_->fetch_inflight, core_->inflight_fetches());
  const std::uint64_t probes = core_->dag().digest_probes();
  metrics_->dag_digest_probes->add(probes - probes_mirrored_);
  probes_mirrored_ = probes;
}

void NodePipeline::commit(const CommittedSubDag& sub_dag) {
  auto* const tracer = observers_.tracer;
  auto* const forensics = observers_.forensics;
  const TimeMicros committed_at = env_.now();
  if (observers_.recorder) {
    observers_.recorder->record(obs::FlightEventType::kCommit, committed_at,
                     sub_dag.leader != nullptr ? sub_dag.leader->author() : 0,
                     sub_dag.slot.round);
  }
  CommitTrace* trace = forensics ? &forensics->on_committed(sub_dag, committed_at) : nullptr;
  if (trace) {
    trace->durable_pending = true;
    trace->execute_pending = engine_ != nullptr;
  }
  // With an engine, finality stamps at delivery (on_delivered) instead.
  if (tracer) tracer->sub_dag_committed(sub_dag, committed_at, engine_ == nullptr);
  env_.commit(sub_dag, committed_at, trace);
  // Commit order is the engine's queue order (inline with zero threads).
  if (engine_) engine_->execute(sub_dag, committed_at);
  if (trace) trace->apply_micros = env_.now() - committed_at;
}

void NodePipeline::on_delivered(const exec::WaveDelivery& wave) {
  // Only thread-safe paths here: batch_delivered and record_stage never
  // touch the tracer's insert-stamp table, and the forensics live on the
  // driver's thread, so their stamp is posted there.
  auto* const tracer = observers_.tracer;
  auto* const forensics = observers_.forensics;
  if (tracer == nullptr && forensics == nullptr) return;
  const TimeMicros now = env_.now();
  if (tracer) {
    for (const exec::Delivery& delivery : wave.batches) {
      tracer->batch_delivered(delivery.submitted_at, delivery.count, now);
    }
    if (wave.subdag_complete) {
      tracer->record_stage(obs::Stage::kExecute, now - wave.enqueued_at,
                           std::max<std::uint32_t>(wave.block_count, 1));
    }
  }
  if (forensics && wave.subdag_complete) {
    env_.post([forensics, slot = wave.slot, now] { forensics->execute_done(slot, now); });
  }
}

}  // namespace mahimahi
