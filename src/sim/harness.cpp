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
#include "validator/checkpointer.h"
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

CommitterOptions options_for(const SimConfig& config) {
  if (config.committer_override.has_value()) return *config.committer_override;
  switch (config.protocol) {
    case Protocol::kMahiMahi5: return mahi_mahi_5(config.leaders_per_round);
    case Protocol::kMahiMahi4: return mahi_mahi_4(config.leaders_per_round);
    case Protocol::kMahiMahi3: {
      CommitterOptions o = mahi_mahi_5(config.leaders_per_round);
      o.wave_length = 3;
      return o;
    }
    case Protocol::kCordialMiners: return cordial_miners_shape(5);
    case Protocol::kTusk: return {};  // unused (factory overrides)
  }
  return {};
}

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

    down.assign(config.n, 0);
    mem_logs.resize(config.n);
    wals.resize(config.n);
    wal_stages.resize(config.n);
    ckpts.resize(config.n);
    execs.resize(config.n);
    exec_epochs.assign(config.n, 0);
    for (ValidatorId v = 0; v < config.n; ++v) {
      if (!alive(v)) {
        nodes.push_back(nullptr);
        continue;
      }
      nodes.push_back(make_node(v));
      if (!config.wal_dir.empty()) open_wal(v);
      if (config.execute_app) execs[v] = std::make_unique<ExecNode>();
      ckpts[v] = make_checkpointer(v);
      ckpts[v]->start(wals[v].get());
    }
    // Retention gauges under the runtime's names, for validator 0 (the
    // tracer's reporter); read when the registry is dumped.
    const auto v0_gauge = [this](const char* name, const char* help, auto read) {
      registry.gauge_fn(
          name,
          [this, read] {
            return running(0) ? static_cast<std::int64_t>(read(*nodes[0])) : 0;
          },
          help);
    };
    v0_gauge("mm_dag_blocks", "Blocks in validator 0's live DAG window",
             [](const ValidatorCore& core) { return core.dag().block_count(); });
    v0_gauge("mm_dag_payload_bytes",
             "Wire bytes of the blocks in validator 0's live DAG window",
             [](const ValidatorCore& core) { return core.dag().wire_bytes(); });
    v0_gauge("mm_decided_log_entries", "Consumed leader slots in validator 0's decided log",
             [](const ValidatorCore& core) {
               return core.committer().decided_sequence().size();
             });
    v0_gauge("mm_vote_memo_entries",
             "Memoized vote traversals validator 0's commit rule keeps",
             [](const ValidatorCore& core) { return core.committer().vote_memo_entries(); });
    registry.counter_fn(
        "mm_dag_digest_probes_total",
        [this] { return running(0) ? nodes[0]->dag().digest_probes() : 0; },
        "Lookups and insertions on validator 0's DAG digest index (ingress only)");
  }

  // Opens validator v's on-disk log (rolling segments).
  void open_wal(ValidatorId v) {
    SegmentedWalOptions options;
    options.segment_bytes = config.wal_segment_bytes;
    wals[v] = std::make_unique<SegmentedWal>(wal_path(v), options);
  }

  std::unique_ptr<ValidatorCore> make_node(ValidatorId v) {
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
    return std::make_unique<ValidatorCore>(setup.committee,
                                           setup.keypairs[v].private_key, vc);
  }

  // Validator v's checkpointer: the node's own (validator/checkpointer.h),
  // driven over simulated links. A write lands checkpoint_write_delay after
  // the cut, epoch-guarded like the group-commit flush, so a crash in
  // between drops it. The app hooks drain the executor first, the sim
  // analogue of ExecutionEngine::drain().
  std::unique_ptr<Checkpointer> make_checkpointer(ValidatorId v) {
    Checkpointer::Hooks hooks;
    hooks.send = [this, v](ValidatorId to, BytesView frame) {
      send_checkpoint_frame(v, to, frame);
    };
    hooks.write = [this, v](Checkpointer::WriteTask task) {
      queue.schedule_after(config.checkpoint_write_delay,
                           [this, v, task = std::move(task), epoch = wal_stages[v].epoch] {
                             if (wal_stages[v].epoch != epoch || !running(v)) return;
                             if (auto done = task()) done();
                           });
    };
    if (config.execute_app) {
      hooks.app_digest = [this, v] {
        drain_exec(v);
        return execs[v]->executor.state_digest();
      };
      hooks.app_snapshot = [this, v] {
        drain_exec(v);
        return execs[v]->executor.snapshot_bytes();
      };
      hooks.app_delta = [this, v] {
        drain_exec(v);
        return execs[v]->executor.take_app_delta();
      };
      hooks.clear_app_delta = [this, v] {
        drain_exec(v);
        execs[v]->executor.take_app_delta();
      };
      hooks.install_app = [this, v](BytesView snapshot) { install_app(v, snapshot); };
    }
    return std::make_unique<Checkpointer>(
        setup.committee, *nodes[v], setup.keypairs[v].private_key, registry, nullptr,
        std::move(hooks), config.wal_dir.empty() ? std::string{} : wal_path(v));
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
        schedule_small_message(from, to, [this, from, to] { ckpts[to]->serve(from); });
        return;
      case Checkpointer::kShareFrame:
        if (withholds(from) || withholds(to)) return;
        schedule_small_message(from, to, [this, to, payload] {
          ckpts[to]->on_share({payload->data(), payload->size()});
        });
        return;
      case Checkpointer::kChainFrame: {
        const TimeMicros start = std::max(queue.now(), egress_free[from]);
        egress_free[from] = start + transmission_delay(payload->size());
        const TimeMicros arrival = egress_free[from] + latency->sample(from, to, rng);
        queue.schedule(arrival, [this, from, to, payload] {
          if (!running(to) || !ckpts[to]->accept_chain(from)) return;
          auto chain = ckpts[to]->verify_chain(from, {payload->data(), payload->size()});
          if (chain.has_value()) {
            handle_actions(to, ckpts[to]->install(std::move(*chain), queue.now()));
          }
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
  bool running(ValidatorId v) const {
    return alive(v) && !down[v] && nodes[v] != nullptr;
  }
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
  // tic tie-break) flushes as one ValidatorCore::on_blocks call — the sim
  // analogue of the TCP runtime's worker-pool batches.
  void deliver_block(ValidatorId to, BlockPtr block, ValidatorId from) {
    inboxes[to].push_back(IngestBlock{std::move(block), from, false});
    if (inbox_scheduled[to]) return;
    inbox_scheduled[to] = 1;
    queue.schedule(queue.now(), [this, to] { drain_inbox(to); });
  }

  // Flushes the inbox through ValidatorCore::on_blocks, honouring the core's
  // max_ingest_batch (the sim analogue of the TCP runtime's adaptive verify
  // drain): an over-cap burst is split into several same-time on_blocks
  // calls, later arrivals never wait behind the entire backlog.
  void drain_inbox(ValidatorId to) {
    inbox_scheduled[to] = 0;
    if (!running(to)) return;  // crashed between arrival and drain
    auto& inbox = inboxes[to];
    if (inbox.empty()) return;
    const std::size_t cap = nodes[to]->config().max_ingest_batch;
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
    handle_actions(to, nodes[to]->on_blocks(std::move(items), queue.now()));
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

  // True when validator v's log uses the staged group-commit model. With no
  // log at all there is nothing to make durable: acks are synchronous, the
  // NullWal behavior.
  bool group_commit_active(ValidatorId v) const {
    return config.wal_group_commit &&
           (wals[v] != nullptr || !config.restarts.empty());
  }

  // Sends one Actions::broadcast group to the network. An equivocator's twin
  // proposals are split: half the peers see one block, half the other. The
  // split is per broadcast group, which is why gated (deferred) broadcasts
  // keep their group boundaries instead of being flattened.
  void dispatch_broadcast(ValidatorId v, const std::vector<BlockPtr>& blocks) {
    const bool split = nodes[v]->config().byzantine_equivocate && blocks.size() > 1;
    for (ValidatorId peer = 0; peer < config.n; ++peer) {
      if (peer == v || !alive(peer)) continue;
      if (split) {
        schedule_send(v, peer, blocks[peer % blocks.size()]);
      } else {
        for (const auto& block : blocks) schedule_send(v, peer, block);
      }
    }
  }

  void handle_actions(ValidatorId v, Actions&& actions) {
    const bool staged_wal = group_commit_active(v);
    if (v == 0) {
      for (const auto& block : actions.broadcast) {
        block_payload_bytes->record(static_cast<std::int64_t>(block->payload_bytes()));
      }
    }
    // Broadcast own blocks — immediately when the log is inline-durable (or
    // absent), behind the covering group flush otherwise.
    if (!actions.broadcast.empty()) {
      if (staged_wal) {
        wal_stages[v].gated_broadcasts.push_back(actions.broadcast);
        schedule_wal_flush(v);
      } else {
        dispatch_broadcast(v, actions.broadcast);
      }
    }

    // Validator 0's lifecycle spans: insert stamps open the commit-wait
    // breakdown that record_commits closes, all in virtual time.
    if (v == 0) {
      for (const auto& block : actions.inserted) {
        tracer.block_inserted(block->digest(), queue.now());
        forensics.block_arrived(block->digest(), queue.now());
      }
    }

    for (auto& request : actions.fetch_requests) {
      fetch_requests->add();
      const ValidatorId peer = request.peer;
      if (!alive(peer)) continue;
      schedule_small_message(v, peer, [this, v, peer, refs = std::move(request.refs)] {
        handle_actions(peer, nodes[peer]->on_fetch_request(refs, v, queue.now()));
      });
    }

    for (auto& response : actions.responses) {
      for (const auto& block : response.blocks) schedule_send(v, response.peer, block);
    }

    for (const auto& sub_dag : actions.committed) {
      // Boundary crossings fire before the sub-DAG reaches execution, which
      // makes the cut's app digest canonical.
      ckpts[v]->advance(sub_dag.slot, actions);
      record_commits(v, sub_dag);
    }

    // Persist admitted blocks for crash recovery (only when a restart can
    // actually happen; the log is pure overhead otherwise). Group commit
    // stages them for the deferred flush event instead — a crash before the
    // flush loses exactly the staged tail.
    if (staged_wal) {
      if (!actions.inserted.empty()) {
        for (const auto& block : actions.inserted) {
          wal_stages[v].records.emplace_back(block, block->author() == v);
        }
        schedule_wal_flush(v);
      }
    } else if (wals[v] != nullptr) {
      for (const auto& block : actions.inserted) {
        wals[v]->append_block(*block, block->author() == v);
      }
    } else if (!config.restarts.empty()) {
      for (const auto& block : actions.inserted) mem_logs[v].push_back(block);
    }

    // Checkpoint & state sync: horizon notices travel like any small
    // message; catch-up requests pull the serving peer's chain.
    for (const auto& notice : actions.horizon_notices) {
      schedule_small_message(
          v, notice.peer, [this, from = v, to = notice.peer, h = notice.horizon] {
            handle_actions(to, nodes[to]->on_peer_horizon(from, h, queue.now()));
          });
    }
    for (const ValidatorId target : actions.checkpoint_requests) {
      checkpoint_requests->add();
      ckpts[v]->request(target);
    }

    // Skip decisions may have moved the consumption head past a boundary.
    ckpts[v]->advance(nodes[v]->committer().next_pending_slot(), actions);
  }

  void schedule_wal_flush(ValidatorId v) {
    auto& stage = wal_stages[v];
    if (stage.flush_scheduled) return;  // one covering flush per open group
    stage.flush_scheduled = true;
    queue.schedule_after(config.wal_flush_interval,
                         [this, v, epoch = stage.epoch] { flush_wal(v, epoch); });
  }

  // The deferred group flush: lands every staged record as one group
  // (append + sync on the file path), then releases the broadcasts gated on
  // it. `epoch` invalidates events that were in flight across a crash.
  void flush_wal(ValidatorId v, std::uint64_t epoch) {
    auto& stage = wal_stages[v];
    if (stage.epoch != epoch) return;  // scheduled before a crash: stale
    stage.flush_scheduled = false;
    if (!running(v)) return;
    if (wals[v] != nullptr) {
      for (const auto& [block, own] : stage.records) wals[v]->append_block(*block, own);
      wals[v]->sync();
    } else {
      for (const auto& [block, own] : stage.records) mem_logs[v].push_back(block);
    }
    if (!stage.records.empty()) wal_groups_flushed->add();
    stage.records.clear();
    // The covering flush makes every commit since the previous one durable.
    if (v == 0) forensics.durable_ack(queue.now());
    const auto gated = std::move(stage.gated_broadcasts);
    stage.gated_broadcasts.clear();
    for (const auto& group : gated) dispatch_broadcast(v, group);
  }

  void record_commits(ValidatorId v, const CommittedSubDag& sub_dag) {
    const TimeMicros now = queue.now();
    // Validator 0's view: per-block commit-wait spans and the transaction-
    // weighted finality histogram, deterministic in virtual time. With the
    // execution model on, finality moves to wave-delivery time
    // (exec_run_wave) — only the commit-wait spans close here.
    if (v == 0) {
      tracer.sub_dag_committed(sub_dag, now, !config.execute_app);
      // Forensic trace in virtual time. Durable resolves at the covering
      // group flush (inline WAL appends are synchronous in the sim: 0);
      // execute resolves when the wave schedule retires the sub-DAG.
      CommitTrace& trace = forensics.on_committed(sub_dag, now);
      trace.durable_pending = group_commit_active(0);
      trace.execute_pending = config.execute_app && execs[0] != nullptr;
    }
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
    down[v] = 1;
    ckpts[v].reset();  // before the core it drives
    nodes[v].reset();
    inboxes[v].clear();   // in-flight deliveries die with the process
    // The staged group-commit tail dies with the process: records that never
    // flushed are not durable, and the broadcasts they gated never happened.
    wal_stages[v].records.clear();
    wal_stages[v].gated_broadcasts.clear();
    wal_stages[v].flush_scheduled = false;
    // Invalidates in-flight flush and checkpoint-write events: a cut whose
    // write never landed dies with the process.
    ++wal_stages[v].epoch;
    // The executor (mid-wave state included) dies with the process; restart
    // rebuilds it from checkpoint + log replay. Scheduled wave events stale.
    ++exec_epochs[v];
    execs[v].reset();
    if (wals[v] != nullptr) {
      // Keep the file for replay; drop the open handle like a crash would.
      wals[v]->sync();
      wals[v].reset();
    }
  }

  void restart(ValidatorId v) {
    if (!alive(v) || !down[v]) return;
    nodes[v] = make_node(v);
    down[v] = 0;
    // The restarted committer re-decides from the first slot, so its
    // recorded sequence restarts from scratch too (replay repopulates it).
    if (config.record_sequences) sequences[v].clear();

    if (config.execute_app) execs[v] = std::make_unique<ExecNode>();

    const auto replay_one = [this, v](BlockPtr block) {
      Actions actions = nodes[v]->recover_block(std::move(block));
      wal_replayed_blocks->add();
      // Replayed commits were already counted before the crash: refresh the
      // recorded sequence but leave throughput/latency metrics untouched.
      if (config.record_sequences) {
        for (const auto& sub : actions.committed) {
          for (const auto& block_ptr : sub.blocks) {
            sequences[v].push_back(block_ptr->ref());
          }
        }
      }
      // Replayed commits reach the state machine serially inline (the
      // ISSUE contract: recovery never runs parallel waves) with no
      // delivery stamps — the pre-crash run already stamped them.
      if (config.execute_app && execs[v] != nullptr) {
        for (const auto& sub : actions.committed) {
          execs[v]->log.push_back(sub);
          execs[v]->executor.apply_subdag(sub);
        }
      }
    };

    // Recovery prefers newest valid checkpoint + log-suffix replay: install
    // first (it sets the horizon, so sub-horizon log records are skipped),
    // then replay whatever the log still holds. Recovery from an older
    // checkpoint (a newer one corrupted mid-write) degrades to more replay,
    // never to divergence — the log records are a superset of every cut.
    // Without wal_dir there is no checkpoint store: the in-memory log
    // replays and the validator catches up by snapshot like any joiner.
    ckpts[v] = make_checkpointer(v);
    ckpts[v]->recover();
    if (!config.wal_dir.empty()) {
      SegmentedWal::replay(wal_path(v),
                           [&](BlockPtr block, bool) { replay_one(std::move(block)); });
      open_wal(v);  // resume appends
    } else {
      for (const auto& block : mem_logs[v]) replay_one(block);
    }
    ckpts[v]->start(wals[v].get());

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
      handle_actions(v, nodes[v]->on_transactions(std::move(batches), queue.now()));
    }
    queue.schedule_after(config.client_interval, [this, v] { inject_load(v); });
  }

  void tick(ValidatorId v) {
    if (!running(v)) return;
    handle_actions(v, nodes[v]->on_tick(queue.now()));
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
      result.max_round = nodes[reporter]->dag().highest_round();
      result.commit_stats = nodes[reporter]->committer().stats();
      result.total_blocks = nodes[reporter]->dag().block_count();
      if (config.record_sequences) {
        result.decisions = nodes[reporter]->committer().decided_sequence();
      }
    }
    if (reporter < config.n) {
      result.mempool_rejected = nodes[reporter]->mempool().stats().rejected();
    }
    result.fetch_requests = fetch_requests->value();
    result.wal_replayed_blocks = wal_replayed_blocks->value();
    result.wal_groups_flushed = wal_groups_flushed->value();
    result.checkpoints_written = ckpt_counters.written->value();
    result.snapshot_catchups = ckpt_counters.catchups->value();
    result.checkpoint_requests = checkpoint_requests->value();
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
      const Dag& dag = nodes[v]->dag();
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
  std::vector<std::unique_ptr<ValidatorCore>> nodes;
  std::vector<TimeMicros> egress_free;
  std::vector<TimeMicros> cert_rtt;
  std::vector<std::vector<std::uint64_t>> batch_seq;  // [validator][client]
  std::vector<std::deque<IngestBlock>> inboxes;   // batched same-time deliveries
  std::vector<char> inbox_scheduled;
  std::vector<char> down;                         // RestartSpec crash state
  // Per validator, when wal_dir is set: the on-disk log.
  std::vector<std::unique_ptr<SegmentedWal>> wals;
  std::vector<std::vector<BlockPtr>> mem_logs;    // in-memory WAL fallback
  // Per validator: its checkpointer (null while down). Declared after the
  // cores it drives, so it is destroyed first.
  std::vector<std::unique_ptr<Checkpointer>> ckpts;
  // Group-commit staging (SimConfig::wal_group_commit): records and gated
  // broadcast groups awaiting the deferred flush event.
  struct WalStage {
    std::vector<std::pair<BlockPtr, bool>> records;          // (block, own)
    std::vector<std::vector<BlockPtr>> gated_broadcasts;     // per Actions group
    bool flush_scheduled = false;
    std::uint64_t epoch = 0;  // bumped at crash; stale events no-op
  };
  std::vector<WalStage> wal_stages;
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
  obs::Histogram* block_payload_bytes = &registry.histogram(
      "mm_block_payload_bytes", "Transaction bytes per own proposal of validator 0");
  obs::Counter* committed_tx = &registry.counter(
      "mm_committed_transactions_total", "Origin-side committed transactions (in-window)");
  obs::Counter* submitted_tx = &registry.counter("mm_submitted_transactions_total",
                                                 "Transactions injected (in-window)");
  obs::Counter* fetch_requests =
      &registry.counter("mm_fetch_requests_total", "Synchronizer fetches, all validators");
  // The checkpointers' counters, summed over validators.
  Checkpointer::Counters ckpt_counters{registry};
  obs::Counter* checkpoint_requests =
      &registry.counter("mm_checkpoint_requests_total", "Catch-up requests sent");
  obs::Counter* wal_groups_flushed =
      &registry.counter("mm_wal_groups_flushed_total", "Non-empty group flushes");
  obs::Counter* wal_replayed_blocks =
      &registry.counter("mm_wal_replayed_blocks_total", "Blocks replayed across restarts");
};

SimHarness::SimHarness(SimConfig config) : impl_(std::make_unique<Impl>(std::move(config))) {}
SimHarness::~SimHarness() = default;
SimResult SimHarness::run() { return impl_->run(); }

SimResult run_simulation(const SimConfig& config) { return SimHarness(config).run(); }

}  // namespace mahimahi::sim
