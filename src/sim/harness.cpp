#include "sim/harness.h"

#include <algorithm>
#include <deque>

#include "baselines/cordial_miners.h"
#include "baselines/tusk.h"
#include "client/kv_batches.h"
#include "common/log.h"
#include "exec/access.h"
#include "exec/engine.h"
#include "obs/trace.h"
#include "validator/pipeline.h"
#include "wal/segmented_wal.h"

namespace mahimahi::sim {

std::string to_string(Protocol protocol) {
  switch (protocol) {
    case Protocol::kMahiMahi5: return "Mahi-Mahi-5";
    case Protocol::kMahiMahi4: return "Mahi-Mahi-4";
    case Protocol::kMahiMahi3: return "Mahi-Mahi-3";
    case Protocol::kCordialMiners: return "Cordial-Miners";
    case Protocol::kTusk: return "Tusk";
  }
  return "?";
}

std::string SimResult::to_string() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "tps=%8.0f  avg=%6.3fs  p50=%6.3fs  p95=%6.3fs  rounds=%llu  "
                "direct=%llu indirect=%llu skips=%llu",
                committed_tps, avg_latency_s, p50_latency_s, p95_latency_s,
                static_cast<unsigned long long>(max_round),
                static_cast<unsigned long long>(commit_stats.direct_commits),
                static_cast<unsigned long long>(commit_stats.indirect_commits),
                static_cast<unsigned long long>(commit_stats.skipped_slots()));
  return buffer;
}

namespace {

constexpr std::uint64_t kOriginShift = 40;

// Every committer that applies the delivery cut runs the node's GC depth.
// Tusk stays unbounded: TuskCommitter::prune_below is a no-op and its
// linearizer has no delivery cut, so a validator's delivered history would
// depend on when it pruned.
CommitterOptions options_for(const SimConfig& config) {
  if (config.committer_override.has_value()) return *config.committer_override;
  CommitterOptions options;
  switch (config.protocol) {
    case Protocol::kMahiMahi5: options = mahi_mahi_5(config.leaders_per_round); break;
    case Protocol::kMahiMahi4: options = mahi_mahi_4(config.leaders_per_round); break;
    case Protocol::kMahiMahi3:
      options = mahi_mahi_5(config.leaders_per_round);
      options.wave_length = 3;
      break;
    case Protocol::kCordialMiners: options = cordial_miners_shape(5); break;
    case Protocol::kTusk: return {};  // unused (factory overrides)
  }
  options.gc_depth = kDefaultGcDepth;
  return options;
}

// Virtual-time group commit (SimConfig::wal_group_commit), the simulator's
// GroupCommitWal: the first staged record arms a flush `schedule` runs
// wal_flush_interval later, which lands the group in the inner log, then
// runs the waiting acks in registration order. The harness drops a crashed
// validator's pending flush by epoch: the staged tail dies with the process.
class DeferredWal final : public Wal {
 public:
  DeferredWal(std::unique_ptr<Wal> inner,
              std::function<void(std::function<void()>)> schedule, obs::Counter* groups)
      : inner_(std::move(inner)), schedule_(std::move(schedule)), groups_(groups) {}
  DeferredWal(const DeferredWal&) = delete;  // the scheduled flush holds its address
  DeferredWal& operator=(const DeferredWal&) = delete;

  void append_block(const Block& block, bool own) override {
    staged_.emplace_back(block, own);
    if (staged_.size() == 1) schedule_([this] { sync(); });  // one flush per group
  }

  void sync() override {
    for (const auto& [block, own] : staged_) inner_->append_block(block, own);
    inner_->sync();
    if (!staged_.empty()) groups_->add();
    staged_.clear();
    for (const auto& ack : std::exchange(acks_, {})) ack();
  }

  // With nothing staged, everything appended is durable: ack at once.
  void on_durable(std::function<void()> done) override {
    if (staged_.empty()) return done();
    acks_.push_back(std::move(done));
  }

 private:
  std::unique_ptr<Wal> inner_;
  std::function<void(std::function<void()>)> schedule_;
  obs::Counter* groups_;
  std::vector<std::pair<Block, bool>> staged_;
  std::vector<std::function<void()>> acks_;
};

}  // namespace

struct SimHarness::Impl {
  explicit Impl(SimConfig config_in)
      : config(std::move(config_in)),
        setup(Committee::make_test(config.n)),
        rng(config.seed) {
    if (config.wan) {
      latency = std::make_unique<GeoLatency>(config.jitter_fraction);
    } else {
      latency = std::make_unique<UniformLatency>(config.uniform_latency,
                                                 config.jitter_fraction);
    }

    egress_free.assign(config.n, 0);
    // Client index lives in id bits [32, 40): at most 256 streams/validator.
    config.clients_per_validator =
        std::clamp<std::uint32_t>(config.clients_per_validator, 1, 256);
    batch_seq.assign(config.n,
                     std::vector<std::uint64_t>(config.clients_per_validator, 0));
    sequences.resize(config.n);
    inboxes.resize(config.n);
    inbox_scheduled.assign(config.n, 0);

    // Tusk: per-sender echo round trip — time to collect 2f+1 echoes
    // (itself plus the 2f fastest peers).
    cert_rtt.assign(config.n, 0);
    if (config.protocol == Protocol::kTusk) {
      const std::uint32_t needed = setup.committee.quorum_threshold() - 1;
      for (ValidatorId v = 0; v < config.n; ++v) {
        std::vector<TimeMicros> rtts;
        for (ValidatorId u = 0; u < config.n; ++u) {
          if (u == v || !alive(u)) continue;
          rtts.push_back(latency->base(v, u) + latency->base(u, v));
        }
        std::sort(rtts.begin(), rtts.end());
        cert_rtt[v] = rtts.empty() ? 0 : rtts[std::min<std::size_t>(needed, rtts.size()) - 1];
      }
    }

    epochs.assign(config.n, 0);
    mem_logs.resize(config.n);
    execs.resize(config.n);
    exec_epochs.assign(config.n, 0);
    nodes.resize(config.n);
    for (ValidatorId v = 0; v < config.n; ++v) {
      if (!alive(v)) continue;
      if (config.execute_app) execs[v] = std::make_unique<ExecNode>();
      boot(v, /*recover=*/false);
    }
  }

  // Boots validator v: the node's own pipeline (validator/pipeline.h) over
  // simulated links, observed for validator 0 only, recovering from its log
  // on a restart. The log is the on-disk segments with wal_dir, the
  // in-memory log when restarts need one without it, none otherwise; group
  // commit defers a real log (with none there is nothing to make durable).
  void boot(ValidatorId v, bool recover) {
    ValidatorConfig vc;
    vc.id = v;
    vc.min_round_delay = config.min_round_delay;
    vc.committer = options_for(config);
    vc.checkpoint_interval = config.checkpoint_interval;
    if (config.protocol == Protocol::kTusk) {
      vc.committer_factory = tusk_committer_factory();
    }
    vc.mempool = config.mempool;
    vc.validation.verify_signature = config.verify_crypto;
    vc.validation.verify_coin_share = config.verify_crypto;
    if (config.verify_crypto) {
      // All simulated validators share a process: one verification cache
      // means each block pays ed25519 once instead of once per validator.
      if (verifier_cache == nullptr) verifier_cache = std::make_shared<VerifierCache>();
      vc.signature_cache = verifier_cache;
    }
    vc.byzantine_equivocate = v < config.equivocators;

    NodePipeline::Env env;
    env.now = [this] { return queue.now(); };
    env.broadcast = [this, v](const std::vector<BlockPtr>& group) { dispatch_broadcast(v, group); };
    env.send_blocks = [this, v](ValidatorId peer, const std::vector<BlockPtr>& blocks) {
      for (const auto& block : blocks) schedule_send(v, peer, block);
    };
    env.send_fetch = [this, v](ValidatorId peer, const std::vector<BlockRef>& refs) {
      schedule_small_message(v, peer, [this, v, peer, refs] {
        nodes[peer]->on_fetch_request(refs, v);
      });
    };
    env.send_horizon = [this, v](ValidatorId peer, Round horizon) {
      schedule_small_message(v, peer, [this, v, peer, horizon] {
        nodes[peer]->on_peer_horizon(v, horizon);
      });
    };
    // A checkpoint write lands checkpoint_write_delay after the cut; a crash
    // in between drops it. The app hooks drain the executor first, the sim
    // analogue of ExecutionEngine::drain().
    env.checkpoint.send = [this, v](ValidatorId to, BytesView frame) {
      send_checkpoint_frame(v, to, frame);
    };
    env.checkpoint.write = [this, v](Checkpointer::WriteTask task) {
      queue.schedule_after(config.checkpoint_write_delay,
                           [this, v, task = std::move(task), epoch = epochs[v]] {
                             if (epochs[v] != epoch || !running(v)) return;
                             if (auto done = task()) done();
                           });
    };
    if (config.execute_app) {
      const auto drained = [this, v]() -> exec::SerialExecutor& {
        drain_exec(v);
        return execs[v]->executor;
      };
      env.checkpoint.app_digest = [drained] { return drained().state_digest(); };
      env.checkpoint.app_snapshot = [drained] { return drained().snapshot_bytes(); };
      env.checkpoint.app_delta = [drained] { return drained().take_app_delta(); };
      env.checkpoint.clear_app_delta = [drained] { drained().take_app_delta(); };
      env.checkpoint.install_app = [this, v](BytesView snapshot) { install_app(v, snapshot); };
    }
    env.commit = [this, v](const CommittedSubDag& sub_dag, TimeMicros, CommitTrace*) {
      record_commits(v, sub_dag);
    };
    env.replay_commit = [this, v](const CommittedSubDag& sub_dag) {
      // Counted before the crash: refresh the recorded sequence and re-apply
      // serially without stamps, leaving throughput and latency untouched.
      if (config.record_sequences) {
        for (const auto& block : sub_dag.blocks) sequences[v].push_back(block->ref());
      }
      if (config.execute_app && execs[v] != nullptr) {
        execs[v]->log.push_back(sub_dag);
        execs[v]->executor.apply_subdag(sub_dag);
      }
    };
    env.deferred_execution = config.execute_app;
    NodePipeline::Observers observers;
    if (v == 0) observers = {&tracer, &forensics, nullptr, /*core_metrics=*/true};
    nodes[v] = std::make_unique<NodePipeline>(
        setup.committee, setup.keypairs[v].private_key, vc, registry, std::move(env),
        observers, config.wal_dir.empty() ? std::string{} : wal_path(v));
    if (recover) nodes[v]->recover(config.wal_dir.empty() ? &mem_logs[v] : nullptr);

    std::unique_ptr<Wal> log;
    SegmentedWal* segments = nullptr;
    if (!config.wal_dir.empty()) {
      SegmentedWalOptions options;
      options.segment_bytes = config.wal_segment_bytes;
      auto segmented = std::make_unique<SegmentedWal>(wal_path(v), options);
      segments = segmented.get();
      log = std::move(segmented);
    } else if (!config.restarts.empty()) {
      log = std::make_unique<MemoryWal>(mem_logs[v]);
    }
    if (log == nullptr) {
      log = std::make_unique<NullWal>();
    } else if (config.wal_group_commit) {
      log = std::make_unique<DeferredWal>(
          std::move(log),
          [this, v, epoch = epochs[v]](std::function<void()> flush) {
            queue.schedule_after(config.wal_flush_interval, [this, v, epoch, flush] {
              if (epochs[v] == epoch && running(v)) flush();
            });
          },
          wal_groups_flushed);
    }
    nodes[v]->start(std::move(log), segments);
  }

  bool withholds(ValidatorId v) const {
    return std::find(config.cert_withholding.begin(), config.cert_withholding.end(), v) !=
           config.cert_withholding.end();
  }

  // Checkpoint frames over simulated links. Requests and cert shares travel
  // as small messages; a chain pays sender-side bandwidth serialization on
  // its bytes plus link latency, like a (large) block send, and the receiver
  // verifies and installs it on arrival. A Byzantine share withholder
  // (cert_withholding) neither sends nor accepts shares.
  void send_checkpoint_frame(ValidatorId from, ValidatorId to, BytesView frame) {
    if (!alive(to)) return;
    auto payload = std::make_shared<const Bytes>(frame.begin() + 1, frame.end());
    switch (frame[0]) {
      case Checkpointer::kRequestFrame:
        schedule_small_message(from, to,
                               [this, from, to] { nodes[to]->checkpointer().serve(from); });
        return;
      case Checkpointer::kShareFrame:
        if (withholds(from) || withholds(to)) return;
        schedule_small_message(from, to, [this, to, payload] {
          nodes[to]->checkpointer().on_share({payload->data(), payload->size()});
        });
        return;
      case Checkpointer::kChainFrame: {
        const TimeMicros start = std::max(queue.now(), egress_free[from]);
        egress_free[from] = start + transmission_delay(payload->size());
        const TimeMicros arrival = egress_free[from] + latency->sample(from, to, rng);
        queue.schedule(arrival, [this, from, to, payload] {
          if (!running(to)) return;
          Checkpointer& checkpointer = nodes[to]->checkpointer();
          if (!checkpointer.accept_chain(from)) return;
          auto chain = checkpointer.verify_chain(from, {payload->data(), payload->size()});
          if (chain.has_value()) nodes[to]->install_checkpoint(std::move(*chain));
        });
        return;
      }
    }
  }

  // A checkpoint's app snapshot replaces validator v's state. In-flight and
  // queued sub-DAGs are all below the new horizon (the core just skipped
  // past them), so they are dropped; the serial reference restarts from the
  // same base. Runs before the install's actions, so any commits it unblocks
  // execute on top of the snapshot.
  void install_app(ValidatorId v, BytesView snapshot) {
    ++exec_epochs[v];
    auto& ex = *execs[v];
    ex.pending.clear();
    ex.plan.reset();
    ex.executor.install_snapshot(snapshot);
    ex.ref_base.assign(snapshot.begin(), snapshot.end());
    ex.log.clear();
  }

  std::string wal_path(ValidatorId v) const {
    return config.wal_dir + "/v" + std::to_string(v) + ".wal";
  }

  bool alive(ValidatorId v) const { return v < config.n - config.crashed; }
  // Alive AND not currently crashed by a RestartSpec.
  bool running(ValidatorId v) const { return alive(v) && nodes[v] != nullptr; }
  std::uint32_t alive_count() const { return config.n - config.crashed; }
  bool in_window(TimeMicros t) const { return t >= config.warmup && t <= config.duration; }

  TimeMicros transmission_delay(std::uint64_t bytes) const {
    return static_cast<TimeMicros>(static_cast<double>(bytes) /
                                   config.bandwidth_bytes_per_sec * kMicrosPerSecond);
  }

  void schedule_send(ValidatorId from, ValidatorId to, BlockPtr block) {
    if (!alive(to) || to == from) return;
    std::uint64_t bytes = block->wire_bytes();
    if (config.protocol == Protocol::kTusk) {
      // Certified dissemination: the block travels twice (proposal + final
      // certified copy) and carries 2f+1 signatures.
      bytes = bytes * 2 + setup.committee.quorum_threshold() * 96;
    }
    const TimeMicros start = std::max(queue.now(), egress_free[from]);
    egress_free[from] = start + transmission_delay(bytes);
    TimeMicros arrival = egress_free[from] + latency->sample(from, to, rng);
    if (config.protocol == Protocol::kTusk) arrival += cert_rtt[from];
    if (config.adversary != nullptr) {
      arrival += config.adversary->block_delay(*block, from, to, queue.now(), rng);
    }
    queue.schedule(arrival, [this, from, to, block] {
      // Checked at delivery time: a message in flight towards a validator
      // that crashed meanwhile is lost (the synchronizer re-fetches it).
      if (!running(to)) return;
      deliver_block(to, block, from);
    });
  }

  // Batched delivery through the staged ingestion pipeline: blocks arriving
  // at the same simulated instant accumulate in a per-validator inbox that a
  // same-time drain event (scheduled behind them by the queue's determinis-
  // tic tie-break) flushes as one NodePipeline::on_blocks call — the sim
  // analogue of the TCP runtime's worker-pool batches.
  void deliver_block(ValidatorId to, BlockPtr block, ValidatorId from) {
    inboxes[to].push_back(IngestBlock{std::move(block), from});
    if (inbox_scheduled[to]) return;
    inbox_scheduled[to] = 1;
    queue.schedule(queue.now(), [this, to] { drain_inbox(to); });
  }

  // Flushes the inbox through NodePipeline::on_blocks, honouring the core's
  // max_ingest_batch (the sim analogue of the TCP runtime's adaptive verify
  // drain): an over-cap burst is split into several same-time on_blocks
  // calls, later arrivals never wait behind the entire backlog.
  void drain_inbox(ValidatorId to) {
    inbox_scheduled[to] = 0;
    if (!running(to)) return;  // crashed between arrival and drain
    auto& inbox = inboxes[to];
    if (inbox.empty()) return;
    const std::size_t cap = nodes[to]->core().config().max_ingest_batch;
    const std::size_t take = cap == 0 ? inbox.size() : std::min(cap, inbox.size());
    std::vector<IngestBlock> items;
    items.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      items.push_back(std::move(inbox.front()));
      inbox.pop_front();
    }
    if (!inbox.empty()) {
      inbox_scheduled[to] = 1;
      queue.schedule(queue.now(), [this, to] { drain_inbox(to); });
    }
    // Validator 0's creation-to-arrival lag, the sim twin of the runtime's
    // mm_peer_rx_lag_micros (virtual clocks share a basis, so no clamping).
    if (to == 0) {
      for (const auto& item : items) {
        if (item.block->created_at() > 0) {
          peer_rx_lag->record(
              static_cast<std::int64_t>(queue.now() - item.block->created_at()));
        }
      }
    }
    nodes[to]->on_blocks(std::move(items));
  }

  void schedule_small_message(ValidatorId from, ValidatorId to,
                              std::function<void()> deliver) {
    if (!alive(to)) return;
    TimeMicros arrival = queue.now() + latency->sample(from, to, rng);
    if (config.adversary != nullptr) {
      arrival += config.adversary->message_delay(from, to, queue.now(), rng);
    }
    queue.schedule(arrival, [this, to, deliver = std::move(deliver)] {
      if (running(to)) deliver();
    });
  }

  // Sends one Actions::broadcast group to the network. An equivocator's twin
  // proposals are split: half the peers see one block, half the other. The
  // split is per broadcast group, which is why gated (deferred) broadcasts
  // keep their group boundaries instead of being flattened.
  void dispatch_broadcast(ValidatorId v, const std::vector<BlockPtr>& blocks) {
    const bool split = nodes[v]->core().config().byzantine_equivocate && blocks.size() > 1;
    for (ValidatorId peer = 0; peer < config.n; ++peer) {
      if (peer == v || !alive(peer)) continue;
      if (split) {
        schedule_send(v, peer, blocks[peer % blocks.size()]);
      } else {
        for (const auto& block : blocks) schedule_send(v, peer, block);
      }
    }
  }

  void record_commits(ValidatorId v, const CommittedSubDag& sub_dag) {
    const TimeMicros now = queue.now();
    if (config.execute_app && execs[v] != nullptr) {
      execs[v]->log.push_back(sub_dag);
      execs[v]->pending.push_back(sub_dag);
      exec_pump(v);
    }
    if (config.record_sequences) {
      for (const auto& block : sub_dag.blocks) sequences[v].push_back(block->ref());
    }
    for (const auto& block : sub_dag.blocks) {
      for (const auto& batch : block->batches()) {
        if (static_cast<ValidatorId>(batch.id >> kOriginShift) != v) continue;
        // Origin-side commit: the validator the client submitted to.
        if (batch.submitted_at >= config.warmup && in_window(now)) {
          latency_recorder.record(now - batch.submitted_at, batch.count);
        }
        if (in_window(now)) committed_tx->add(batch.count);
      }
    }
  }

  // --- Execution model (SimConfig::execute_app) ----------------------------
  //
  // One SerialExecutor per validator, driven by virtual-time wave events:
  // sub-DAGs execute strictly in commit order (one in flight per validator),
  // each wave retiring execution_wave_delay after the previous one. The
  // events are observational — nothing feeds back into consensus — so wave
  // timing never perturbs the DAG, only delivery stamps and exec counters.

  // Pops pending sub-DAGs until one yields a non-empty plan; true when a
  // plan is in flight afterwards.
  bool exec_plan_next(ValidatorId v) {
    auto& ex = *execs[v];
    while (!ex.pending.empty()) {
      ex.current = std::move(ex.pending.front());
      ex.pending.pop_front();
      ex.plan.emplace(ex.executor.plan(ex.current));
      if (ex.plan->waves.empty()) {
        ex.executor.note_empty_subdag();
        ex.plan.reset();
        continue;
      }
      ex.next_wave = 0;
      ex.delivered.assign(ex.plan->txns.size(), 0);
      return true;
    }
    return false;
  }

  // Applies the in-flight plan's next wave; true when that retired the
  // sub-DAG. Checks the early-delivery safety invariant against the pairwise
  // ground truth before applying: nothing in this wave may conflict with a
  // still-unsettled plan-order predecessor.
  bool exec_run_wave(ValidatorId v) {
    auto& ex = *execs[v];
    const std::size_t wave = ex.next_wave++;
    const bool last = wave + 1 == ex.plan->waves.size();
    for (const std::uint32_t i : ex.plan->waves[wave]) {
      for (std::uint32_t j = 0; j < i; ++j) {
        if (!ex.delivered[j] &&
            exec::conflicts(ex.plan->txns[j].access, ex.plan->txns[i].access)) {
          ++exec_order_violations_;
        }
      }
    }
    const auto deliveries = ex.executor.apply_wave(*ex.plan, wave, last);
    for (const std::uint32_t i : ex.plan->waves[wave]) ex.delivered[i] = 1;
    ++exec_waves_;
    const TimeMicros now = queue.now();
    for (const auto& delivery : deliveries) {
      if (delivery.early) ++exec_early_;
      if (v == 0) tracer.batch_delivered(delivery.submitted_at, delivery.count, now);
    }
    if (last && v == 0) forensics.execute_done(ex.current.slot, now);
    if (last) ex.plan.reset();
    return last;
  }

  // Starts execution when idle: inline to completion with a zero wave delay
  // (the zero-worker model), by scheduled wave events otherwise.
  void exec_pump(ValidatorId v) {
    auto& ex = *execs[v];
    if (ex.plan.has_value()) return;  // the in-flight sub-DAG's events drive on
    if (config.execution_wave_delay == 0) {
      while (exec_plan_next(v)) {
        while (!exec_run_wave(v)) {
        }
      }
      return;
    }
    if (exec_plan_next(v)) {
      queue.schedule_after(config.execution_wave_delay, [this, v, epoch = exec_epochs[v]] {
        exec_wave_event(v, epoch);
      });
    }
  }

  void exec_wave_event(ValidatorId v, std::uint64_t epoch) {
    if (epoch != exec_epochs[v] || !running(v) || execs[v] == nullptr) return;
    if (!execs[v]->plan.has_value()) return;
    if (exec_run_wave(v)) {
      exec_pump(v);
      return;
    }
    queue.schedule_after(config.execution_wave_delay,
                         [this, v, epoch] { exec_wave_event(v, epoch); });
  }

  // Forces every enqueued sub-DAG through at the current instant — the sim
  // analogue of ExecutionEngine::drain(), used at checkpoint cuts and run
  // end. Scheduled wave events go stale via the epoch bump.
  void drain_exec(ValidatorId v) {
    if (!config.execute_app || execs[v] == nullptr) return;
    auto& ex = *execs[v];
    if (!ex.plan.has_value() && ex.pending.empty()) return;
    ++exec_epochs[v];
    if (ex.plan.has_value()) {
      while (!exec_run_wave(v)) {
      }
    }
    while (exec_plan_next(v)) {
      while (!exec_run_wave(v)) {
      }
    }
  }

  void crash(ValidatorId v) {
    if (!running(v)) return;
    // The core, its checkpointer and its log die with the process; a
    // deferred log's staged tail and the broadcasts it gated with them.
    nodes[v].reset();
    inboxes[v].clear();   // in-flight deliveries die with the process
    // Invalidates in-flight flush and checkpoint-write events: a cut whose
    // write never landed dies with the process.
    ++epochs[v];
    // The executor (mid-wave state included) dies with the process; restart
    // rebuilds it from checkpoint + log replay. Scheduled wave events stale.
    ++exec_epochs[v];
    execs[v].reset();
  }

  void restart(ValidatorId v) {
    if (!alive(v) || running(v)) return;
    // The restarted committer re-decides from the first slot, so its
    // recorded sequence restarts from scratch too (replay repopulates it).
    if (config.record_sequences) sequences[v].clear();
    if (config.execute_app) execs[v] = std::make_unique<ExecNode>();
    // Without wal_dir there is no checkpoint store: the in-memory log
    // replays and the validator catches up by snapshot like any joiner.
    boot(v, /*recover=*/true);

    // Re-arm the driver loops that died while the validator was down.
    queue.schedule_after(0, [this, v] { tick(v); });
    queue.schedule_after(config.client_interval, [this, v] { inject_load(v); });
  }

  void inject_load(ValidatorId v) {
    if (!running(v)) return;
    const double interval_s = to_seconds(config.client_interval);
    const std::uint32_t clients = config.clients_per_validator;
    const double mean = config.load_tps / alive_count() * interval_s / clients;
    std::vector<TxBatch> batches;
    for (std::uint32_t client = 0; client < clients; ++client) {
      const std::uint64_t count = rng.poisson(mean);
      if (count == 0) continue;
      const std::uint64_t sequence = batch_seq[v][client]++;
      TxBatch batch;
      if (config.execute_app) {
        // Real encoded KV commands with declared write sets, so execution
        // does real work and the conflict knob shapes the waves. The private
        // keyspace is per (validator, client) stream.
        client::KvWorkload workload;
        workload.conflict_percent = config.kv_conflict_percent;
        workload.hot_keys = config.kv_hot_keys;
        workload.value_bytes = config.kv_value_bytes;
        workload.commands_per_batch =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(count, 128));
        batch = client::synth_kv_batch(
            workload, static_cast<std::uint64_t>(v) * 256 + client, sequence, rng,
            queue.now());
      } else {
        batch.submitted_at = queue.now();
        batch.tx_bytes = config.tx_bytes;
      }
      // Id layout: origin validator in the top bits (commit attribution),
      // client stream in bits [32, 40) (the sharded mempool's client key),
      // per-stream sequence below. Overrides synth_kv_batch's stream id.
      batch.id = (static_cast<std::uint64_t>(v) << kOriginShift) |
                 (static_cast<std::uint64_t>(client) << ShardedMempool::kClientKeyShift) |
                 sequence;
      batch.count = static_cast<std::uint32_t>(count);
      if (in_window(queue.now())) submitted_tx->add(count);
      batches.push_back(std::move(batch));
    }
    if (!batches.empty()) {
      nodes[v]->admit(std::move(batches));
      nodes[v]->on_mempool_ready();
    }
    queue.schedule_after(config.client_interval, [this, v] { inject_load(v); });
  }

  void tick(ValidatorId v) {
    if (!running(v)) return;
    nodes[v]->on_tick();
    queue.schedule_after(config.tick_interval, [this, v] { tick(v); });
  }

  SimResult run() {
    for (ValidatorId v = 0; v < config.n; ++v) {
      if (!alive(v)) continue;
      // Stagger startup slightly so same-time events do not depend on id
      // ordering alone.
      queue.schedule(static_cast<TimeMicros>(v), [this, v] { tick(v); });
      queue.schedule(config.client_interval + static_cast<TimeMicros>(v),
                     [this, v] { inject_load(v); });
    }
    for (const auto& spec : config.restarts) {
      queue.schedule(spec.crash_at, [this, id = spec.id] { crash(id); });
      if (spec.restart_at > spec.crash_at) {
        queue.schedule(spec.restart_at, [this, id = spec.id] { restart(id); });
      }
    }
    queue.run_until(config.duration);

    SimResult result;
    const double window_s = to_seconds(config.duration - config.warmup);
    result.committed_tps =
        window_s > 0 ? static_cast<double>(committed_tx->value()) / window_s : 0;
    result.submitted_tps =
        window_s > 0 ? static_cast<double>(submitted_tx->value()) / window_s : 0;
    result.avg_latency_s = latency_recorder.mean_seconds();
    result.p50_latency_s = latency_recorder.percentile_seconds(50);
    result.p95_latency_s = latency_recorder.percentile_seconds(95);
    result.p99_latency_s = latency_recorder.percentile_seconds(99);
    result.latency_samples = latency_recorder.count();
    // Stats validator: the lowest-id node still running at the end.
    ValidatorId reporter = 0;
    while (reporter < config.n && !running(reporter)) ++reporter;
    if (reporter < config.n) {
      const ValidatorCore& core = nodes[reporter]->core();
      result.max_round = core.dag().highest_round();
      result.commit_stats = core.committer().stats();
      result.total_blocks = core.dag().block_count();
      if (config.record_sequences) result.decisions = core.committer().decided_sequence();
      result.mempool_rejected = core.mempool().stats().rejected();
    }
    result.fetch_requests = pipeline_counters.fetch_requests->value();
    result.wal_replayed_blocks = pipeline_counters.replayed_blocks->value();
    result.wal_groups_flushed = wal_groups_flushed->value();
    result.checkpoints_written = ckpt_counters.written->value();
    result.snapshot_catchups = ckpt_counters.catchups->value();
    result.checkpoint_requests = pipeline_counters.checkpoint_requests->value();
    result.checkpoint_delta_cuts = ckpt_counters.delta_cuts->value();
    result.checkpoint_certs_formed = ckpt_counters.certs->value();
    result.equivocation_cells = count_equivocation_cells();
    if (config.execute_app) {
      result.app_digests.assign(config.n, Digest{});
      for (ValidatorId v = 0; v < config.n; ++v) {
        if (!running(v) || execs[v] == nullptr) continue;
        drain_exec(v);
        result.app_digests[v] = execs[v]->executor.state_digest();
        // Wave scheduling is an ordering optimization, never a semantics
        // change: re-apply the validator's recorded commit stream serially
        // (from its last installed snapshot base) and demand byte-identical
        // state.
        exec::SerialExecutor reference;
        if (!execs[v]->ref_base.empty()) {
          reference.install_snapshot(
              {execs[v]->ref_base.data(), execs[v]->ref_base.size()});
        }
        for (const auto& sub : execs[v]->log) reference.apply_subdag(sub);
        if (!(reference.state_digest() == result.app_digests[v])) {
          ++result.exec_serial_mismatches;
        }
      }
      result.exec_waves = exec_waves_;
      result.exec_early_deliveries = exec_early_;
      result.exec_order_violations = exec_order_violations_;
    }
    result.commit_traces = forensics.traces();
    result.metrics = registry.dump();
    if (config.record_sequences) {
      result.sequences = std::move(sequences);
    }
    return result;
  }

  std::uint64_t count_equivocation_cells() const {
    std::uint64_t worst = 0;
    for (ValidatorId v = 0; v < config.n; ++v) {
      if (!running(v)) continue;
      std::uint64_t cells = 0;
      const Dag& dag = nodes[v]->core().dag();
      for (Round r = 1; r <= dag.highest_round(); ++r) {
        for (ValidatorId author = 0; author < config.n; ++author) {
          if (dag.slot(r, author).size() > 1) ++cells;
        }
      }
      worst = std::max(worst, cells);
    }
    return worst;
  }

  SimConfig config;
  Committee::TestSetup setup;
  EventQueue queue;
  std::unique_ptr<LatencyModel> latency;
  Rng rng;
  // Per validator: its pipeline (null while down).
  std::vector<std::unique_ptr<NodePipeline>> nodes;
  std::vector<TimeMicros> egress_free;
  std::vector<TimeMicros> cert_rtt;
  std::vector<std::vector<std::uint64_t>> batch_seq;  // [validator][client]
  std::vector<std::deque<IngestBlock>> inboxes;   // batched same-time deliveries
  std::vector<char> inbox_scheduled;
  // Bumped at a crash: stales pending log flushes and checkpoint writes.
  std::vector<std::uint64_t> epochs;
  // For restarts without wal_dir: in-memory logs, outliving the pipelines.
  std::vector<MemoryWal::Store> mem_logs;
  // Execution model (execute_app): per-validator executor + wave-event state.
  // `plan` points into `current`'s blocks, so the sub-DAG stays alive beside
  // it. `log`/`ref_base` feed the run-end serial-equivalence self-check.
  struct ExecNode {
    exec::SerialExecutor executor;
    std::deque<CommittedSubDag> pending;  // committed, not yet planned
    CommittedSubDag current;              // sub-DAG the in-flight plan covers
    std::optional<exec::Plan> plan;
    std::size_t next_wave = 0;
    std::vector<char> delivered;          // per plan-txn settled flag
    Bytes ref_base;                       // last installed snapshot (or empty)
    std::vector<CommittedSubDag> log;     // commit stream since ref_base
  };
  std::vector<std::unique_ptr<ExecNode>> execs;
  std::vector<std::uint64_t> exec_epochs;  // survives crashes; stales events
  std::uint64_t exec_waves_ = 0;
  std::uint64_t exec_early_ = 0;
  std::uint64_t exec_order_violations_ = 0;
  std::shared_ptr<VerifierCache> verifier_cache;  // shared when verify_crypto

  LatencyRecorder latency_recorder;
  std::vector<std::vector<BlockRef>> sequences;

  // One registry per run, dumped into SimResult::metrics at the end. Every
  // stamp the tracer sees is virtual time, so the whole dump is a pure
  // function of (config, seed). The tracer follows validator 0 only: block
  // digests are committee-global, so tracking every validator's inserts in
  // one table would cross-talk the commit-wait spans.
  obs::Registry registry{"sim=\"1\""};
  obs::LifecycleTracer tracer{registry};
  // Validator 0's commit forensics, same reporter rule as the tracer: block
  // digests are committee-global, so one validator's arrival table stays
  // coherent. Every stamp is virtual time — traces (and their JSON) are a
  // pure function of (config, seed). Capacity covers a full run; nothing
  // ages out mid-experiment.
  CommitForensics forensics{CommitForensics::Options{.trace_capacity = 1 << 16}};
  obs::Histogram* peer_rx_lag = &registry.histogram(
      "mm_peer_rx_lag_micros", "Peer block creation-to-arrival lag at validator 0");
  obs::Counter* committed_tx = &registry.counter(
      "mm_committed_transactions_total", "Origin-side committed transactions (in-window)");
  obs::Counter* submitted_tx = &registry.counter("mm_submitted_transactions_total",
                                                 "Transactions injected (in-window)");
  // The pipelines' and checkpointers' counters, summed over validators.
  NodePipeline::Counters pipeline_counters{registry};
  Checkpointer::Counters ckpt_counters{registry};
  obs::Counter* wal_groups_flushed =
      &registry.counter("mm_wal_groups_flushed_total", "Non-empty group flushes");
};

SimHarness::SimHarness(SimConfig config) : impl_(std::make_unique<Impl>(std::move(config))) {}
SimHarness::~SimHarness() = default;
SimResult SimHarness::run() { return impl_->run(); }

SimResult run_simulation(const SimConfig& config) { return SimHarness(config).run(); }

}  // namespace mahimahi::sim
