#include "net/node_runtime.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_set>

#include "common/log.h"
#include "obs/export.h"
#include "serde/serde.h"
#include "validator/crypto_stage.h"

namespace mahimahi::net {

std::size_t ingest_batch_cap(std::size_t max_batch, TimeMicros latency_budget,
                             TimeMicros ewma_per_block) {
  std::size_t cap = max_batch == 0 ? std::numeric_limits<std::size_t>::max() : max_batch;
  if (latency_budget > 0 && ewma_per_block > 0) {
    const auto by_budget = static_cast<std::size_t>(latency_budget / ewma_per_block);
    // The budget never shrinks a drain below the amortization floor. Most of
    // the RLC batch-verification gain is realized by ~8 signatures, so a
    // smaller batch RAISES per-block cost — and a cap derived from that
    // inflated cost is a bistable trap: one expensive single-frame drain
    // (slow environment: sanitizer build, cold caches, debug crypto) pins
    // the EWMA above the budget, the cap collapses to 1, amortization never
    // recovers, and verify throughput drops below the arrival rate for
    // good. Observed as a late-joining node whose ancestry fetch walk loses
    // the race against round production under ASan.
    cap = std::min(cap, std::max(kVerifyAmortizationFloor, by_budget));
  }
  return std::max<std::size_t>(1, cap);
}

NodeRuntime::NodeRuntime(const Committee& committee, crypto::Ed25519PrivateKey key,
                         NodeRuntimeConfig config)
    : committee_(committee),
      config_(std::move(config)),
      registry_("validator=\"" + std::to_string(config_.validator.id) + "\""),
      tracer_(registry_),
      recorder_(obs::FlightRecorder::Options{config_.flightrec_ring_capacity}),
      watchdog_(registry_,
                obs::LoopWatchdogOptions{
                    .stall_budget = config_.loop_stall_budget,
                    .on_stall = [this](TimeMicros busy,
                                       TimeMicros now) { on_loop_stall(busy, now); }},
                "v" + std::to_string(config_.validator.id)),
      forensics_(CommitForensics::Options{
          .trace_capacity = config_.commit_trace_capacity}),
      loop_(config_.io_backend),
      verify_pool_(config_.verify_threads,
                   "v" + std::to_string(config_.validator.id) + "/wk", &recorder_),
      verify_drain_(
          verify_pool_,
          [this](std::vector<RawFrame> frames) { verify_frames(std::move(frames)); },
          [this] {
            // Adaptive batching: bound how much of the backlog one pass takes
            // so a block arriving mid-burst reaches the core within roughly
            // the latency budget instead of waiting out the whole queue.
            return ingest_batch_cap(config_.validator.max_ingest_batch,
                                    config_.validator.ingest_latency_budget,
                                    verify_cost_ewma_.load(std::memory_order_relaxed));
          }),
      egress_drain_(
          verify_pool_,
          [this](std::vector<EgressItem> items) { encode_egress(std::move(items)); }),
      submit_drain_(
          verify_pool_,
          [this](std::vector<TxBatch> batches) { admit_batches(std::move(batches)); }) {
  // Metric handles first: the recovery path below already writes some of
  // them. Creation is the only locked step; every later touch is a relaxed
  // atomic on a stable object.
  committed_tx_ = &registry_.counter("mm_committed_transactions_total",
                                     "Transactions in committed sub-DAGs");
  committed_blocks_ =
      &registry_.counter("mm_committed_blocks_total", "Blocks in committed sub-DAGs");
  decode_errors_ = &registry_.counter("mm_decode_errors_total",
                                      "Block frames that failed to decode");
  verify_frames_dropped_ =
      &registry_.counter("mm_verify_frames_dropped_total",
                         "Frames shed because the verify queue was full");
  submit_rejected_ = &registry_.counter(
      "mm_submit_rejected_total", "Local submit() batches the mempool rejected");
  egress_frames_encoded_ = &registry_.counter(
      "mm_egress_frames_encoded_total", "Outbound block frames encoded once and fanned out");
  worker_structurally_rejected_ =
      &registry_.counter("mm_ingest_worker_structural_rejects_total",
                         "Blocks failing structural validation on the verify workers");
  worker_crypto_rejected_ =
      &registry_.counter("mm_ingest_worker_crypto_rejects_total",
                         "Blocks failing crypto verification on the verify workers");
  peer_rx_lag_ = &registry_.histogram(
      "mm_peer_rx_lag_micros",
      "Receive-side lag: author created_at to local receive stamp, clamped at 0");
  peer_rx_lag_by_peer_.reserve(committee_.size());
  for (ValidatorId author = 0; author < committee_.size(); ++author) {
    peer_rx_lag_by_peer_.push_back(&registry_.histogram(
        "mm_peer_rx_lag_micros_author" + std::to_string(author),
        "Receive-side lag for blocks authored by v" + std::to_string(author)));
  }
  peer_rx_lag_clamped_ = &registry_.counter(
      "mm_peer_rx_lag_clamped_total",
      "Lag samples clamped to 0 (author clock ahead of the local clock)");
  flightrec_stall_dumps_ = &registry_.counter(
      "mm_flightrec_stall_dumps_total",
      "Flight-recorder dump files written by the loop-stall watchdog");
  loop_.set_tick_observer(
      [this](TimeMicros busy, TimeMicros now) { watchdog_.observe_tick(busy, now); });
  if (config_.validator.execute_app) {
    // Before recovery: replayed commits must reach the state machine too.
    exec::ExecutionEngine::Options exec_options;
    exec_options.threads = config_.validator.execution_threads;
    exec_engine_ = std::make_unique<exec::ExecutionEngine>(
        exec_options,
        [this](const exec::WaveDelivery& wave) { on_wave_delivered(wave); });
  }
  NodePipeline::Env env;
  env.now = [] { return steady_now_micros(); };
  env.broadcast = [this](const std::vector<BlockPtr>& group) { egress(group, kAllPeers); };
  env.send_blocks = [this](ValidatorId peer, const std::vector<BlockPtr>& blocks) {
    egress(blocks, peer);
  };
  env.send_fetch = [this](ValidatorId peer, const std::vector<BlockRef>& refs) {
    serde::Writer w;
    w.u8(static_cast<std::uint8_t>(MessageType::kFetch));
    w.varint(refs.size());
    for (const auto& ref : refs) {
      w.varint(ref.round);
      w.u32(ref.author);
      w.digest(ref.digest);
    }
    send_to_peer(peer, {w.data().data(), w.data().size()});
  };
  env.send_horizon = [this](ValidatorId peer, Round horizon) {
    serde::Writer w;
    w.u8(static_cast<std::uint8_t>(MessageType::kHorizon));
    w.varint(horizon);
    send_to_peer(peer, {w.data().data(), w.data().size()});
  };
  env.checkpoint.send = [this](ValidatorId peer, BytesView frame) { send_to_peer(peer, frame); };
  env.checkpoint.write = [this](Checkpointer::WriteTask task) {
    verify_pool_.submit([this, task = std::move(task)] {
      if (auto done = task()) loop_.post(std::move(done));
    });
  };
  if (exec_engine_ != nullptr) {
    env.checkpoint.app_digest = [this] { return exec_engine_->state_digest(); };
    env.checkpoint.app_snapshot = [this] { return exec_engine_->app_snapshot(); };
    env.checkpoint.app_delta = [this] { return exec_engine_->app_delta_snapshot(); };
    env.checkpoint.clear_app_delta = [this] { exec_engine_->clear_app_delta_window(); };
    env.checkpoint.install_app = [this](BytesView snapshot) {
      exec_engine_->install_snapshot(snapshot);
    };
  }
  env.commit = [this](const CommittedSubDag& sub_dag, TimeMicros committed_at,
                      CommitTrace* trace) {
    committed_blocks_->add(sub_dag.blocks.size());
    committed_tx_->add(sub_dag.transaction_count());
    if (commit_handler_) {
      const TimeMicros execute_start = steady_now_micros();
      commit_handler_(sub_dag);
      if (exec_engine_ == nullptr) {
        // Without an engine the handler IS the execution stage; with one the
        // kExecute span is recorded at wave retirement instead.
        const TimeMicros handler_micros = steady_now_micros() - execute_start;
        tracer_.record_stage(obs::Stage::kExecute, handler_micros, sub_dag.blocks.size());
        trace->execute_micros = handler_micros;
      }
    }
    // Single-drain handoff to the merge thread (inline apply when
    // execution_threads == 0); commit order is preserved by the queue.
    if (exec_engine_ != nullptr) exec_engine_->execute(sub_dag, committed_at);
  };
  env.replay_commit = [this](const CommittedSubDag& sub_dag) {
    // Serially inline, without delivery callbacks: the original run already
    // stamped these batches' finality.
    if (exec_engine_ != nullptr) exec_engine_->replay(sub_dag);
  };
  env.deferred_execution = exec_engine_ != nullptr;
  pipeline_ = std::make_unique<NodePipeline>(
      committee_, key, config_.validator, registry_, std::move(env),
      NodePipeline::Observers{&tracer_, &forensics_, &recorder_, /*core_metrics=*/true},
      config_.wal_path);
  // Share the core's pool (built or adopted by the ValidatorCore ctor):
  // clients and workers admit into it concurrently, the core drains it when
  // proposing.
  mempool_ = core().mempool_handle();

  // Recovery, before the log reopens for append.
  const auto replay = pipeline_->recover();
  if (replay.records > 0) {
    MM_LOG(kInfo) << "v" << id() << " replayed " << replay.records << " records from "
                  << replay.segments << " WAL segments"
                  << (replay.corrupt_tail ? " (torn tail dropped)" : "");
  }
  std::unique_ptr<Wal> wal;
  SegmentedWal* segments = nullptr;
  if (!config_.wal_path.empty()) {
    SegmentedWalOptions seg_options;
    seg_options.segment_bytes = config_.validator.wal_segment_bytes;
    seg_options.fsync_on_sync = config_.validator.wal_fsync;
    auto segmented = std::make_unique<SegmentedWal>(config_.wal_path, seg_options);
    segments = segmented.get();
    if (config_.validator.wal_group_commit) {
      GroupCommitWalOptions wal_options;
      wal_options.flush_interval = config_.validator.wal_flush_interval;
      wal_options.log_context = "v" + std::to_string(id()) + "/wal";
      // One I/O plane: when the loop's data plane resolved to io_uring, the
      // WAL writer gets its own ring too (linked write→fsync per group).
      wal_options.use_io_uring = loop_.io_backend_kind() == IoBackendKind::kUring;
      // Durability acks run on the loop thread: they release gated proposal
      // broadcasts, which touch loop-owned connection state.
      auto group = std::make_unique<GroupCommitWal>(
          std::move(segmented), wal_options,
          [this](std::function<void()> ack) { loop_.post(std::move(ack)); });
      group_wal_ = group.get();
      wal = std::move(group);
    } else {
      wal = std::move(segmented);
    }
  } else {
    // No persistence: NullWal acks durability synchronously, so
    // wal_group_commit without a wal_path cannot wedge the proposal path.
    wal = std::make_unique<NullWal>();
  }
  pipeline_->start(std::move(wal), segments);
  outgoing_.resize(committee_.size());
  // Constructor tail: every bespoke-counter source (io backend, mempool,
  // group WAL) now exists, so the scrape-time bridges can bind to them.
  register_callback_metrics();
}

void NodeRuntime::register_callback_metrics() {
  // I/O plane: the backend's own atomics stay where they are; dump() reads
  // them through these thin callbacks. The io_plane_report() accessor keeps
  // reading the same sources directly, so benches see identical numbers.
  registry_.counter_fn(
      "mm_io_submit_syscalls_total",
      [this] { return loop_.io_backend().stats().submit_syscalls; },
      "Data-plane kernel entries (recv/sendmsg on epoll, io_uring_enter on uring)");
  registry_.counter_fn(
      "mm_io_send_ops_total", [this] { return loop_.io_backend().stats().send_ops; },
      "Data-plane send operations completed");
  registry_.counter_fn(
      "mm_io_recv_ops_total", [this] { return loop_.io_backend().stats().recv_ops; },
      "Data-plane receive operations completed");
  registry_.counter_fn(
      "mm_io_bytes_sent_total", [this] { return loop_.io_backend().stats().bytes_sent; },
      "Bytes sent on the consensus TCP plane");
  registry_.counter_fn(
      "mm_io_bytes_received_total",
      [this] { return loop_.io_backend().stats().bytes_received; },
      "Bytes received on the consensus TCP plane");
  registry_.counter_fn(
      "mm_loop_wait_syscalls_total", [this] { return loop_.wait_syscalls(); },
      "epoll_wait multiplexing calls made by the event loop");
  registry_.counter_fn(
      "mm_loop_busy_micros_total",
      [this] { return static_cast<std::uint64_t>(loop_.busy_micros()); },
      "Loop-thread micros spent outside the poll wait");
  registry_.gauge_fn(
      "mm_verify_cost_ewma_micros",
      [this] {
        return static_cast<std::int64_t>(verify_cost_ewma_.load(std::memory_order_relaxed));
      },
      "EWMA of per-block decode+verify cost driving the adaptive ingest batch");
  registry_.counter_fn(
      "mm_mempool_accepted_total", [this] { return mempool_->stats().accepted; },
      "Transaction batches admitted into the shared mempool");
  registry_.counter_fn(
      "mm_mempool_duplicate_total", [this] { return mempool_->stats().duplicate; },
      "Batches rejected as duplicates");
  registry_.counter_fn(
      "mm_mempool_client_quota_total", [this] { return mempool_->stats().client_quota; },
      "Batches rejected by the per-client byte quota");
  registry_.counter_fn(
      "mm_mempool_shard_full_total", [this] { return mempool_->stats().shard_full; },
      "Batches rejected because the client's shard was at its cap");
  registry_.counter_fn(
      "mm_mempool_pool_full_total", [this] { return mempool_->stats().pool_full; },
      "Batches rejected by the global byte cap");
  if (group_wal_ != nullptr) {
    registry_.counter_fn(
        "mm_wal_groups_flushed_total", [this] { return group_wal_->groups_flushed(); },
        "WAL write+sync groups landed by the writer thread");
    registry_.counter_fn(
        "mm_wal_records_appended_total", [this] { return group_wal_->records_appended(); },
        "Records staged into the group-commit WAL");
    registry_.counter_fn(
        "mm_wal_records_flushed_total", [this] { return group_wal_->records_flushed(); },
        "Records made durable by a group flush");
    registry_.counter_fn(
        "mm_wal_flush_micros_total", [this] { return group_wal_->flush_micros(); },
        "Micros the WAL writer spent inside group flushes");
    registry_.counter_fn(
        "mm_wal_flush_syscalls_total",
        [this] { return group_wal_->group_flush_syscalls(); },
        "Kernel entries for group flushes (write+fsync, or one linked uring submit)");
    registry_.gauge_fn(
        "mm_wal_ring_active",
        [this] { return static_cast<std::int64_t>(group_wal_->wal_ring_active() ? 1 : 0); },
        "1 when the WAL writer flushes through its own io_uring");
  }
  if (exec_engine_ != nullptr) {
    // Execution engine: stats() copies a mutex-guarded snapshot the merge
    // thread refreshes per wave, so scrapes never race the store.
    registry_.counter_fn(
        "mm_exec_subdags_total", [this] { return exec_engine_->stats().subdags; },
        "Committed sub-DAGs fully executed and retired");
    registry_.counter_fn(
        "mm_exec_waves_total", [this] { return exec_engine_->stats().waves; },
        "Dependency waves merged into the replicated state");
    registry_.counter_fn(
        "mm_exec_batches_executed_total",
        [this] { return exec_engine_->stats().batches_executed; },
        "Batches that applied state-machine commands");
    registry_.counter_fn(
        "mm_exec_commands_total",
        [this] { return exec_engine_->stats().commands_applied; },
        "KV commands applied to the replicated store");
    registry_.counter_fn(
        "mm_exec_parallel_batches_total",
        [this] { return exec_engine_->stats().parallel_batches; },
        "Batches executed in a wave alongside non-conflicting peers");
    registry_.counter_fn(
        "mm_exec_conflict_delayed_total",
        [this] { return exec_engine_->stats().conflict_delayed; },
        "Batches pushed past the earliest wave by declared conflicts");
    registry_.counter_fn(
        "mm_exec_early_deliveries_total",
        [this] { return exec_engine_->stats().early_deliveries; },
        "Batches delivered before their sub-DAG's last wave retired");
    registry_.counter_fn(
        "mm_exec_dedup_total", [this] { return exec_engine_->stats().deduplicated; },
        "Committed batches skipped as already-executed duplicates");
    registry_.counter_fn(
        "mm_exec_malformed_total", [this] { return exec_engine_->stats().malformed; },
        "Committed batches whose KV payload failed to decode");
    registry_.counter_fn(
        "mm_exec_opaque_total", [this] { return exec_engine_->stats().opaque; },
        "Batches executed under the conservative conflicts-with-all class");
    registry_.counter_fn(
        "mm_exec_access_violations_total",
        [this] { return exec_engine_->stats().access_violations; },
        "Batches whose payload escaped its declared access set (demoted to opaque)");
  }
}

NodeRuntime::~NodeRuntime() { stop(); }

void NodeRuntime::start() {
  thread_ = std::thread([this] { loop_main(); });
  while (listen_port_.load() == 0 && !start_failed_.load()) std::this_thread::yield();
  if (start_failed_.load()) {
    thread_.join();
    std::rethrow_exception(start_error_);
  }
}

void NodeRuntime::stop() {
  // Workers first: after stop() they hold no reference to any member, so the
  // loop (and everything it owns) can tear down safely.
  verify_pool_.stop();
  if (thread_.joinable()) {
    loop_.stop();
    thread_.join();
  }
  // The WAL writer and the execution merge thread last: both may still post
  // through loop_ (durability acks; execute_done from on_wave_delivered), so
  // they must be joined while the loop object is alive — exec_engine_ is
  // declared before loop_ and would otherwise outlive it. The stopped loop
  // queues the posts and never runs them (the sends they gate have no live
  // connections left anyway). The engine drains first, so the app state
  // covers every commit the loop handed it.
  if (group_wal_) group_wal_->shutdown();
  if (exec_engine_) exec_engine_->shutdown();
}

void NodeRuntime::loop_main() {
  set_log_context("v" + std::to_string(id()));
  recorder_.label_thread("loop");
  if (config_.admin_port >= 0) {
    // Before the consensus listener: start() spins on listen_port_, so the
    // admin port must already be published when that gate opens.
    admin_ = std::make_unique<AdminServer>(
        loop_, static_cast<std::uint16_t>(config_.admin_port),
        [this](std::string_view path,
               std::string& content_type) -> std::optional<std::string> {
          if (path == "/metrics" || path == "/") {
            content_type = "text/plain; version=0.0.4; charset=utf-8";
            return obs::render_prometheus(registry_.dump());
          }
          if (path == "/metrics.json") {
            content_type = "application/json";
            return obs::render_json(registry_.dump());
          }
          if (path == "/status") {
            content_type = "application/json";
            return render_status_json();
          }
          if (path == "/trace/commits") {
            // The renderer runs on the loop thread, where forensics_ lives —
            // no lock needed.
            content_type = "application/json";
            return forensics_.to_json();
          }
          if (path == "/flightrec") {
            content_type = "application/octet-stream";
            recorder_.record_now(obs::FlightEventType::kSnapshot, /*reason=*/0);
            const Bytes dump = recorder_.snapshot_binary();
            return std::string(reinterpret_cast<const char*>(dump.data()),
                               dump.size());
          }
          return std::nullopt;
        });
    admin_port_.store(admin_->port(), std::memory_order_relaxed);
  }
  try {
    listener_ = std::make_unique<TcpListener>(
        loop_, config_.peers[id()].port,
        [this](TcpConnectionPtr connection) { on_unidentified_connection(connection); });
  } catch (const std::runtime_error&) {
    // A port someone else holds fails start() on the caller's thread rather
    // than terminating the process from this one.
    admin_.reset();
    start_error_ = std::current_exception();
    start_failed_.store(true);
    return;
  }
  listen_port_.store(listener_->port());

  for (ValidatorId peer = 0; peer < committee_.size(); ++peer) {
    if (peer != id()) dial_peer(peer);
  }
  loop_.run();

  // Teardown on the loop thread.
  for (auto& connection : outgoing_) {
    if (connection) connection->close();
  }
  for (auto& connection : pending_incoming_) {
    if (connection) connection->close();
  }
  admin_.reset();
  listener_.reset();
  pipeline_->wal().sync();
}

void NodeRuntime::dial_peer(ValidatorId peer) {
  const auto& address = config_.peers[peer];
  tcp_connect(loop_, address.host, address.port, [this, peer](TcpConnectionPtr connection) {
    if (!loop_.running() && connection == nullptr) return;
    if (connection == nullptr) {
      loop_.schedule(config_.dial_retry, [this, peer] { dial_peer(peer); });
      return;
    }
    outgoing_[peer] = connection;
    connection->start(
        [](BytesView) {},  // outgoing connections are send-only
        [this, peer] {
          outgoing_[peer] = nullptr;
          loop_.schedule(config_.dial_retry, [this, peer] { dial_peer(peer); });
        });
    // Identify ourselves.
    serde::Writer w;
    w.u8(static_cast<std::uint8_t>(MessageType::kHandshake));
    w.u32(id());
    w.digest(committee_.epoch_seed());
    connection->send_frame({w.data().data(), w.data().size()});

    // Resynchronize the (re)connected peer: everything broadcast while this
    // link was down was dropped by TCP, and the protocol's liveness rests on
    // eventual delivery (Lemma 9). Offering our latest own block lets the
    // peer pull the rest of the missing history through its synchronizer.
    offer_latest_block(peer);

    // Start consensus once we can reach a quorum (counting ourselves).
    if (!ticking_) {
      std::uint32_t connected = 1;
      for (const auto& c : outgoing_) connected += c != nullptr;
      if (connected >= committee_.quorum_threshold()) {
        ticking_ = true;
        tick();
      }
    }
  });
}

void NodeRuntime::on_unidentified_connection(TcpConnectionPtr connection) {
  pending_incoming_.push_back(connection);
  auto weak = std::weak_ptr<TcpConnection>(connection);
  connection->start(
      [this, weak](BytesView frame) {
        // First frame must be a handshake; then the connection is re-bound
        // to the identified peer.
        auto connection = weak.lock();
        if (connection == nullptr) return;
        try {
          serde::Reader r(frame);
          if (static_cast<MessageType>(r.u8()) != MessageType::kHandshake) {
            connection->close();
            return;
          }
          const ValidatorId peer = r.u32();
          const Digest seed = r.digest();
          if (peer >= committee_.size() || seed != committee_.epoch_seed()) {
            connection->close();
            return;
          }
          std::erase(pending_incoming_, connection);
          connection->start(
              [this, peer](const TcpConnection::Frame& peer_frame) {
                on_peer_frame(peer, peer_frame);
              },
              [] {});
        } catch (const serde::SerdeError&) {
          connection->close();
        }
      },
      [this, weak] {
        if (auto connection = weak.lock()) std::erase(pending_incoming_, connection);
      });
}

void NodeRuntime::on_peer_frame(ValidatorId peer, const TcpConnection::Frame& frame) {
  recorder_.record_now(obs::FlightEventType::kFrameRx, peer, frame.bytes.size());
  try {
    serde::Reader r(frame);
    const auto type = static_cast<MessageType>(r.u8());
    switch (type) {
      case MessageType::kBlock: {
        // Decode + crypto verification happen in the verify stage; the loop
        // thread only takes the frame out of the socket buffer — by moving
        // the buffer when the connection gives it away, else by a copy.
        const BytesView payload = r.raw(r.remaining());
        RawFrame raw{peer, {}, 0, steady_now_micros()};
        if (frame.owner != nullptr) {
          raw.offset = static_cast<std::size_t>(payload.data() - frame.owner->data());
          raw.buffer = std::move(*frame.owner);
        } else {
          raw.buffer.assign(payload.begin(), payload.end());
        }
        if (!verify_drain_.push_bounded(std::move(raw), config_.max_pending_verify_frames)) {
          // Overload shedding: anti-entropy and the fetch path re-deliver
          // dropped blocks once the backlog clears.
          verify_frames_dropped_->add();
        }
        break;
      }
      case MessageType::kFetch: {
        const std::uint64_t count = r.varint();
        if (count > 10000) throw serde::SerdeError("absurd fetch count");
        std::vector<BlockRef> refs;
        refs.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
          BlockRef ref;
          ref.round = r.varint();
          ref.author = r.u32();
          ref.digest = r.digest();
          refs.push_back(ref);
        }
        pipeline_->perform(core().on_fetch_request(refs, peer, steady_now_micros()));
        break;
      }
      case MessageType::kHorizon: {
        pipeline_->perform(core().on_peer_horizon(peer, r.varint(), steady_now_micros()));
        break;
      }
      case MessageType::kCheckpointRequest: {
        checkpointer().serve(peer);
        break;
      }
      case MessageType::kCertShare: {
        checkpointer().on_share(r.raw(r.remaining()));
        break;
      }
      case MessageType::kCheckpointChain: {
        // Solicited-window gate: only the peer we asked, and only ONE chain
        // per request — the window closes on receipt, not on install, so a
        // chain that fails verification cannot hold it open for an
        // unlimited stream of multi-MB frames.
        if (!checkpointer().accept_chain(peer)) break;  // unsolicited: drop unread
        // Decode + crypto verification are the expensive parts; they are
        // pure functions of the bytes and the committee.
        const BytesView payload = r.raw(r.remaining());
        verify_pool_.submit([this, peer, copy = Bytes(payload.begin(), payload.end())] {
          auto chain = checkpointer().verify_chain(peer, {copy.data(), copy.size()});
          if (!chain.has_value()) return;
          loop_.post([this, chain = std::move(*chain)]() mutable {
            pipeline_->perform(checkpointer().install(std::move(chain), steady_now_micros()));
          });
        });
        break;
      }
      default:
        break;  // late handshakes, retired and unknown types are ignored
    }
  } catch (const serde::SerdeError& error) {
    MM_LOG(kWarn) << "v" << id() << " bad frame from v" << peer << ": " << error.what();
  }
}

void NodeRuntime::verify_frames(std::vector<RawFrame> frames) {
  // One drain at a time (SerialDrain): concurrent drains could post their
  // batches to the loop out of arrival order, parking children ahead of
  // their in-flight parents and broadcasting spurious fetch requests.
  // Batching, not thread fan-out, is where the verification win comes from.
  const TimeMicros start = steady_now_micros();

  // Stage: decode + structural validation + dedup.
  std::vector<BlockPtr> blocks;
  std::vector<ValidatorId> senders;
  blocks.reserve(frames.size());
  senders.reserve(frames.size());
  std::unordered_set<Digest, DigestHasher> in_batch;
  for (const auto& frame : frames) {
    BlockPtr block;
    try {
      block = std::make_shared<const Block>(
          Block::deserialize(frame.block()));
    } catch (const serde::SerdeError& error) {
      decode_errors_->add();
      MM_LOG(kWarn) << "v" << id() << " bad block frame from v" << frame.peer << ": "
                    << error.what();
      continue;
    }
    // Decode span starts at the loop thread's receive stamp, so it includes
    // the verify-queue wait — the number that grows first under overload.
    const TimeMicros decoded_at = steady_now_micros();
    tracer_.record_stage(obs::Stage::kDecode, decoded_at - frame.received_at);
    // Already retained by the core (anti-entropy re-offer) or duplicated
    // within this very batch: skip before the crypto stage.
    if (!in_batch.insert(block->digest()).second) continue;
    if (forwarded_digests_.contains(block->digest())) continue;
    const BlockValidity structural = validate_block_structure(*block, committee_);
    tracer_.record_stage(obs::Stage::kStructural, steady_now_micros() - decoded_at);
    if (structural != BlockValidity::kValid) {
      worker_structurally_rejected_->add();
      MM_LOG(kDebug) << "v" << id() << " rejected block from v" << frame.peer << ": "
                     << to_string(structural);
      continue;
    }
    // First sight of a structurally valid block: the receive-side lag stamp
    // (author's created_at against the loop thread's receive stamp) and the
    // admit event. Dedup above keeps re-deliveries from double-counting.
    record_rx_lag(*block, frame.received_at);
    recorder_.record(obs::FlightEventType::kBlockAdmit, frame.received_at,
                     block->author(), block->round());
    blocks.push_back(std::move(block));
    senders.push_back(frame.peer);
  }

  // Stage: the shared crypto stage (validator/crypto_stage.h) — verifier-
  // cache consult (a configured shared cache short-circuits signatures a
  // co-located runtime already verified), batched coin-share checks, one
  // RLC signature batch with bisecting fallback. Safe off-thread: the
  // committee is immutable and the cache internally locked.
  const TimeMicros crypto_start = steady_now_micros();
  const CryptoStageResult stage =
      run_crypto_stage(blocks, committee_, config_.validator.validation,
                       config_.validator.signature_cache.get());
  if (!blocks.empty()) {
    const TimeMicros crypto_end = steady_now_micros();
    // Batch-amortized: record the per-block mean, weighted by the batch size.
    tracer_.record_stage(obs::Stage::kCryptoVerify,
                         (crypto_end - crypto_start) / static_cast<TimeMicros>(blocks.size()),
                         blocks.size());
    // The cost estimate sizing the next drain counts only frames that
    // reached the crypto stage: floods of near-free drops (duplicate
    // re-offers, decode failures) must not drag the EWMA to zero and disable
    // the latency shaping right before a burst of genuine blocks.
    const TimeMicros per_block = (crypto_end - start) / static_cast<TimeMicros>(blocks.size());
    const TimeMicros prev = verify_cost_ewma_.load(std::memory_order_relaxed);
    verify_cost_ewma_.store(prev == 0 ? per_block : (3 * prev + per_block) / 4,
                            std::memory_order_relaxed);
  }

  std::vector<IngestBlock> items;
  items.reserve(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (stage.verdicts[i] != BlockValidity::kValid) {
      worker_crypto_rejected_->add();
      MM_LOG(kDebug) << "v" << id() << " rejected block from v" << senders[i] << ": "
                     << to_string(stage.verdicts[i]);
      continue;
    }
    items.push_back(IngestBlock{std::move(blocks[i]), senders[i], true,
                                stage.cache_hit[i] != 0});
  }
  if (items.empty()) return;

  // Hand the verified batch back to the loop thread; the core never runs
  // concurrently with itself. The forwarded-digest record is written there,
  // AFTER the core decides: a block the synchronizer drops under
  // back-pressure must stay re-deliverable through the fetch path.
  std::vector<BlockRef> refs;
  refs.reserve(items.size());
  for (const auto& item : items) refs.push_back(item.block->ref());
  const TimeMicros verified_at = steady_now_micros();
  loop_.post([this, items = std::move(items), refs = std::move(refs),
              verified_at]() mutable {
    const TimeMicros picked_up = steady_now_micros();
    tracer_.record_stage(obs::Stage::kInsertQueue, picked_up - verified_at,
                         refs.size());
    pipeline_->perform(core().on_blocks(std::move(items), picked_up));
    tracer_.record_stage(obs::Stage::kDagInsert, steady_now_micros() - picked_up);
    for (const auto& ref : refs) {
      if (core().knows_block(ref)) forwarded_digests_.insert(ref.digest);
    }
  });
}

IngestStats NodeRuntime::ingest_stats() const {
  const NodePipeline::CoreMetrics& core = pipeline_->metrics();
  const auto read = [](const obs::Gauge* g) { return static_cast<std::uint64_t>(g->value()); };
  IngestStats stats;
  stats.structurally_rejected =
      read(core.structurally_rejected) + worker_structurally_rejected_->value();
  stats.crypto_rejected = read(core.crypto_rejected) + worker_crypto_rejected_->value();
  stats.cache_hits = read(core.cache_hits);
  stats.verified = read(core.verified);
  stats.preverified = read(core.preverified);
  return stats;
}

NodeRuntime::IoPlaneReport NodeRuntime::io_plane_report() const {
  IoPlaneReport report;
  const IoPlaneStats stats = loop_.io_backend().stats();
  report.backend = loop_.io_backend().name();
  report.submit_syscalls = stats.submit_syscalls;
  report.send_ops = stats.send_ops;
  report.recv_ops = stats.recv_ops;
  report.bytes_sent = stats.bytes_sent;
  report.bytes_received = stats.bytes_received;
  report.wait_syscalls = loop_.wait_syscalls();
  report.loop_busy_micros = static_cast<std::uint64_t>(loop_.busy_micros());
  if (group_wal_ != nullptr) {
    report.wal_flush_syscalls = group_wal_->group_flush_syscalls();
    report.wal_groups = group_wal_->groups_flushed();
    report.wal_ring_active = group_wal_->wal_ring_active();
  }
  return report;
}

Bytes NodeRuntime::encode_block(const Block& block) const {
  serde::Writer w(1 + block.encoded_size());
  w.u8(static_cast<std::uint8_t>(MessageType::kBlock));
  block.serialize_into(w);
  return std::move(w).take();
}

void NodeRuntime::send_to_peer(ValidatorId peer, BytesView frame) {
  if (const auto& connection = outgoing_[peer]; connection && !connection->closed()) {
    recorder_.record_now(obs::FlightEventType::kFrameTx, peer, frame.size());
    connection->send_frame(frame);
  }
}

void NodeRuntime::send_shared(ValidatorId target, const SharedFrame& frame) {
  if (target == kAllPeers) {
    recorder_.record_now(obs::FlightEventType::kFrameTx, ~std::uint64_t{0},
                         frame->size());
    for (ValidatorId peer = 0; peer < committee_.size(); ++peer) {
      if (peer == id()) continue;
      if (const auto& connection = outgoing_[peer]; connection && !connection->closed()) {
        connection->send_frame(frame);
      }
    }
    return;
  }
  if (const auto& connection = outgoing_[target]; connection && !connection->closed()) {
    recorder_.record_now(obs::FlightEventType::kFrameTx, target, frame->size());
    connection->send_frame(frame);
  }
}

void NodeRuntime::encode_egress(std::vector<EgressItem> items) {
  // One drain at a time (SerialDrain), so encoded frames post back — and
  // therefore hit the sockets — in enqueue order; a peer then never sees our
  // round r+1 proposal before round r just because two drains raced.
  std::vector<std::pair<ValidatorId, SharedFrame>> sends;
  sends.reserve(items.size());
  for (const auto& item : items) {
    // Pure CPU over immutable blocks: safe off-thread, exactly like the
    // verify stage's decode.
    sends.emplace_back(item.target, make_shared_frame(encode_block(*item.block)));
    egress_frames_encoded_->add();
  }
  loop_.post([this, sends = std::move(sends)] {
    for (const auto& [target, frame] : sends) send_shared(target, frame);
  });
}

void NodeRuntime::on_wave_delivered(const exec::WaveDelivery& wave) {
  // Merge-thread context when execution_threads > 0 (loop thread otherwise):
  // only thread-safe tracer paths here — batch_delivered and record_stage
  // never touch the loop-owned insert-stamp table.
  const TimeMicros now = steady_now_micros();
  for (const exec::Delivery& delivery : wave.batches) {
    tracer_.batch_delivered(delivery.submitted_at, delivery.count, now);
  }
  if (wave.subdag_complete) {
    tracer_.record_stage(obs::Stage::kExecute, now - wave.enqueued_at,
                         std::max<std::uint32_t>(wave.block_count, 1));
    // Resolve the commit trace's execute breakdown on the loop thread, where
    // forensics_ lives (this callback may be on the merge thread).
    loop_.post([this, slot = wave.slot, now] { forensics_.execute_done(slot, now); });
  }
}

void NodeRuntime::offer_latest_block(ValidatorId peer) {
  const Round round = core().last_proposed_round();
  if (round == 0) return;  // nothing proposed yet
  const auto& cell = core().dag().slot(round, id());
  if (cell.empty()) return;
  // Offers carry an own block, so they obey the broadcast's durability gate:
  // under group commit a tick can fire between a proposal's insertion and
  // its group flush. (Usually the block is long durable and the ack
  // completes at once.)
  pipeline_->wal().on_durable([this, block = cell.front(), peer] { egress({block}, peer); });
}

void NodeRuntime::egress(const std::vector<BlockPtr>& blocks, ValidatorId target) {
  std::vector<EgressItem> items;
  items.reserve(blocks.size());
  for (const auto& block : blocks) items.push_back({block, target});
  egress_drain_.push(std::move(items));
}

void NodeRuntime::tick() {
  pipeline_->perform(core().on_tick(steady_now_micros()));
  // Periodic anti-entropy: re-offer our tip so peers that missed broadcasts
  // (connection races, drops mid-flight) converge. Receipt is idempotent.
  const TimeMicros now = steady_now_micros();
  if (now - last_resync_ >= config_.resync_interval) {
    last_resync_ = now;
    offer_latest_block(kAllPeers);
  }
  loop_.schedule(config_.tick_interval, [this] { tick(); });
}

void NodeRuntime::submit(std::vector<TxBatch> batches) {
  // Admission runs off the loop thread: the sharded pool is thread-safe, so
  // client submission does not serialize behind consensus I/O. The
  // single-drain queue (one admission pass at a time) keeps two
  // back-to-back submit() calls from inverting the pool's per-client FIFO
  // order.
  if (batches.empty()) {
    // Poke path for clients that admitted via mempool_handle() directly.
    nudge_proposal();
    return;
  }
  submit_drain_.push(std::move(batches));
}

void NodeRuntime::admit_batches(std::vector<TxBatch> batches) {
  const std::size_t submitted = batches.size();
  std::uint64_t rejected = 0;
  for (const AdmitResult verdict : mempool_->submit_all(std::move(batches))) {
    if (!admitted(verdict)) ++rejected;
  }
  if (rejected > 0) {
    submit_rejected_->add(rejected);
    MM_LOG(kWarn) << "v" << id() << " mempool rejected " << rejected << "/"
                  << submitted << " submitted batches (backpressure)";
  }
  nudge_proposal();
}

void NodeRuntime::record_rx_lag(const Block& block, TimeMicros received_at) {
  const TimeMicros created_at = block.created_at();
  if (created_at == 0) return;  // unstamped (genesis, old tooling)
  TimeMicros lag = received_at - created_at;
  if (lag < 0) {
    // Author's clock runs ahead of ours: clamp, like the tracer, and count
    // the clamp so skewed clusters are visible.
    lag = 0;
    peer_rx_lag_clamped_->add();
  }
  peer_rx_lag_->record(lag);
  if (block.author() < peer_rx_lag_by_peer_.size()) {
    peer_rx_lag_by_peer_[block.author()]->record(lag);
  }
}

void NodeRuntime::on_loop_stall(TimeMicros busy_micros, TimeMicros now) {
  // Loop thread (the watchdog is fed by the loop's tick observer), rate-
  // limited to one call per warn interval by the watchdog itself.
  recorder_.record(obs::FlightEventType::kStall, now,
                   static_cast<std::uint64_t>(busy_micros),
                   static_cast<std::uint64_t>(config_.loop_stall_budget));
  if (config_.flightrec_dir.empty()) return;
  recorder_.record(obs::FlightEventType::kSnapshot, now, /*reason=*/1);
  const std::string path = config_.flightrec_dir + "/flightrec-v" +
                           std::to_string(id()) + "-" +
                           std::to_string(flightrec_dump_seq_++) + ".bin";
  if (recorder_.dump_to_file(path)) {
    flightrec_stall_dumps_->add();
    MM_LOG(kWarn) << "v" << id() << " flight recorder dumped to " << path;
  } else {
    MM_LOG(kWarn) << "v" << id() << " flight recorder dump failed: " << path;
  }
}

std::string NodeRuntime::render_status_json() {
  // Loop thread only: reads core/committer/chain state the loop owns.
  const auto append_u64 = [](std::string& out, std::uint64_t v) {
    out += std::to_string(v);
  };
  const SlotId head = core().committer().next_pending_slot();
  std::string out = "{\"validator\":";
  append_u64(out, id());
  out += ",\"ticking\":";
  out += ticking_ ? "true" : "false";
  out += ",\"highest_round\":";
  append_u64(out, core().dag().highest_round());
  out += ",\"head\":{\"round\":";
  append_u64(out, head.round);
  out += ",\"leader_offset\":";
  append_u64(out, head.leader_offset);
  out += "},\"committed_blocks\":";
  append_u64(out, committed_blocks_->value());
  out += ",\"committed_transactions\":";
  append_u64(out, committed_tx_->value());
  out += ",\"peers\":[";
  for (ValidatorId peer = 0; peer < committee_.size(); ++peer) {
    if (peer > 0) out.push_back(',');
    out += "{\"id\":";
    append_u64(out, peer);
    out += ",\"connected\":";
    if (peer == id()) {
      out += "true";  // ourselves
    } else {
      out += outgoing_[peer] != nullptr && !outgoing_[peer]->closed() ? "true"
                                                                      : "false";
    }
    out += "}";
  }
  out += "],\"mempool\":{\"batches\":";
  append_u64(out, mempool_->size());
  out += ",\"bytes\":";
  append_u64(out, mempool_->bytes());
  out += "},\"checkpoint\":{\"active\":";
  out += checkpointer().cutting() ? "true" : "false";
  out += ",\"sequence\":";
  append_u64(out, checkpointer().sequence());
  out += ",\"horizon\":";
  append_u64(out, checkpointer().last_horizon());
  out += ",\"chain_links\":";
  append_u64(out, checkpointer().chain_links());
  out += ",\"certified_links\":";
  append_u64(out, checkpointer().certified_links());
  out += "},\"flightrec\":{\"rings\":";
  append_u64(out, recorder_.ring_count());
  out += ",\"stall_dumps\":";
  append_u64(out, flightrec_stall_dumps_->value());
  out += "},\"commit_traces\":";
  append_u64(out, forensics_.traces().size());
  out += "}";
  return out;
}

void NodeRuntime::nudge_proposal() {
  // At most one pending nudge at a time; reentry into perform() is
  // impossible because the nudge always goes through loop_.post.
  if (!propose_nudge_pending_.exchange(true, std::memory_order_acq_rel)) {
    loop_.post([this] {
      propose_nudge_pending_.store(false, std::memory_order_release);
      pipeline_->perform(core().on_mempool_ready(steady_now_micros()));
    });
  }
}

}  // namespace mahimahi::net
