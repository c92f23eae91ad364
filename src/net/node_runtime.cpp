#include "net/node_runtime.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/log.h"
#include "common/thread_name.h"
#include "obs/export.h"
#include "serde/serde.h"

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

namespace {

// Delay before re-dialing a peer whose dial failed or whose connection closed.
constexpr TimeMicros kDialRetry = millis(200);
// Bound on frames queued for the verify stage: a peer outrunning
// verification throughput must not grow the queue without bound. Overflow
// drops the incoming frame — safe, since anti-entropy re-offers and the
// synchronizer's fetch path re-deliver anything that matters.
constexpr std::size_t kMaxPendingVerifyFrames = 10'000;
// Slots per flight-recorder thread ring (power of two; 32 bytes each).
constexpr std::size_t kFlightRecRingCapacity = 4096;
// Recent commit traces kept for /trace/commits (core/commit_trace.h).
constexpr std::size_t kCommitTraceCapacity = 64;

// A reader past the type byte, which must be `type`'s.
serde::Reader frame_body(BytesView frame, MessageType type) {
  serde::Reader r(frame);
  if (r.u8() != static_cast<std::uint8_t>(type)) throw serde::SerdeError("wrong frame type");
  return r;
}

}  // namespace

Bytes encode_fetch_frame(const std::vector<BlockRef>& refs) {
  serde::Writer w;
  w.u8(static_cast<std::uint8_t>(MessageType::kFetch));
  w.varint(refs.size());
  for (const auto& ref : refs) {
    w.varint(ref.round);
    w.u32(ref.author);
    w.digest(ref.digest);
  }
  return std::move(w).take();
}

std::vector<BlockRef> decode_fetch_frame(BytesView frame) {
  serde::Reader r = frame_body(frame, MessageType::kFetch);
  const std::uint64_t count = r.varint();
  if (count > kMaxFetchRefs) throw serde::SerdeError("absurd fetch count");
  std::vector<BlockRef> refs(count);
  for (auto& ref : refs) {
    ref.round = r.varint();
    ref.author = r.u32();
    ref.digest = r.digest();
  }
  r.expect_done();
  return refs;
}

Bytes encode_horizon_frame(Round horizon) {
  serde::Writer w;
  w.u8(static_cast<std::uint8_t>(MessageType::kHorizon));
  w.varint(horizon);
  return std::move(w).take();
}

Round decode_horizon_frame(BytesView frame) {
  serde::Reader r = frame_body(frame, MessageType::kHorizon);
  const Round horizon = r.varint();
  r.expect_done();
  return horizon;
}

NodeRuntime::NodeRuntime(const Committee& committee, crypto::Ed25519PrivateKey key,
                         NodeRuntimeConfig config)
    : committee_(committee),
      config_(std::move(config)),
      registry_("validator=\"" + std::to_string(config_.validator.id) + "\""),
      tracer_(registry_),
      recorder_(obs::FlightRecorder::Options{kFlightRecRingCapacity}),
      watchdog_(registry_,
                obs::LoopWatchdogOptions{
                    .stall_budget = config_.loop_stall_budget,
                    .on_stall = [this](TimeMicros busy,
                                       TimeMicros now) { on_loop_stall(busy, now); }},
                "v" + std::to_string(config_.validator.id)),
      forensics_(CommitForensics::Options{
          .trace_capacity = kCommitTraceCapacity}),
      verify_pool_(config_.verify_threads,
                   "v" + std::to_string(config_.validator.id) + "/wk", &recorder_,
                   "mm-verify"),
      verify_drain_(
          verify_pool_,
          [this](std::vector<RawFrame> frames) { verify_frames(std::move(frames)); },
          [this] {
            // Adaptive batching: bound how much of the backlog one pass takes
            // so a block arriving mid-burst reaches the core within roughly
            // the latency budget instead of waiting out the whole queue.
            return ingest_batch_cap(kMaxIngestBatch, kIngestLatencyBudget,
                                    verify_cost_ewma_.load(std::memory_order_relaxed));
          }),
      egress_drain_(
          verify_pool_,
          [this](std::vector<EgressItem> items) { encode_egress(std::move(items)); }),
      submit_drain_(verify_pool_, [this](std::vector<TxBatch> batches) {
        pipeline_->admit(std::move(batches));
        nudge_proposal();
      }) {
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
  redelivered_frames_ = &registry_.counter(
      "mm_ingest_redelivered_frames_total",
      "Block frames decoded and hashed, then dropped as already retained");
  redelivered_bytes_ = &registry_.counter(
      "mm_ingest_redelivered_bytes_total", "Bytes of the block frames counted as redelivered");
  egress_frames_encoded_ = &registry_.counter(
      "mm_egress_frames_encoded_total", "Outbound block frames encoded once and fanned out");
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
  NodePipeline::Env env;
  env.now = [] { return steady_now_micros(); };
  env.broadcast = [this](const std::vector<BlockPtr>& group) { egress(group, kAllPeers); };
  env.send_blocks = [this](ValidatorId peer, const std::vector<BlockPtr>& blocks) {
    egress(blocks, peer);
  };
  env.send_fetch = [this](ValidatorId peer, const std::vector<BlockRef>& refs) {
    send_to_peer(peer, encode_fetch_frame(refs));
  };
  env.send_horizon = [this](ValidatorId peer, Round horizon) {
    send_to_peer(peer, encode_horizon_frame(horizon));
  };
  env.checkpoint.send = [this](ValidatorId peer, BytesView frame) { send_to_peer(peer, frame); };
  env.checkpoint.write = [this](Checkpointer::WriteTask task) {
    verify_pool_.submit([this, task = std::move(task)] {
      if (auto done = task()) loop_.post(std::move(done));
    });
  };
  env.commit = [this](const CommittedSubDag& sub_dag, TimeMicros, CommitTrace* trace) {
    committed_blocks_->add(sub_dag.blocks.size());
    committed_tx_->add(sub_dag.transaction_count());
    if (commit_handler_) {
      const TimeMicros execute_start = steady_now_micros();
      commit_handler_(sub_dag);
      if (!config_.validator.execute_app) {
        // Without an engine the handler IS the execution stage; with one the
        // pipeline records the kExecute span when the sub-DAG retires.
        const TimeMicros handler_micros = steady_now_micros() - execute_start;
        tracer_.record_stage(obs::Stage::kExecute, handler_micros, sub_dag.blocks.size());
        trace->execute_micros = handler_micros;
      }
    }
  };
  env.post = [this](std::function<void()> task) { loop_.post(std::move(task)); };
  env.wake_at = [this](TimeMicros deadline) { wake_at(deadline); };
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
  // Constructor tail: every bespoke-counter source (loop I/O stats, mempool,
  // group WAL) now exists, so the scrape-time bridges can bind to them.
  register_callback_metrics();
}

void NodeRuntime::register_callback_metrics() {
  // I/O plane: the loop's own atomics stay where they are; dump() reads
  // them through these thin callbacks. The io_plane_report() accessor keeps
  // reading the same sources directly, so benches see identical numbers.
  const IoPlaneStats& io = loop_.io_stats();
  const auto read = [](const std::atomic<std::uint64_t>& counter) {
    return [&counter] { return counter.load(std::memory_order_relaxed); };
  };
  registry_.counter_fn("mm_io_submit_syscalls_total", read(io.submit_syscalls),
                       "Data-plane kernel entries (recv/sendmsg calls)");
  registry_.counter_fn("mm_io_send_ops_total", read(io.send_ops),
                       "Data-plane send operations completed");
  registry_.counter_fn("mm_io_recv_ops_total", read(io.recv_ops),
                       "Data-plane receive operations completed");
  registry_.counter_fn("mm_io_bytes_sent_total", read(io.bytes_sent),
                       "Bytes sent on the consensus TCP plane");
  registry_.counter_fn("mm_io_bytes_received_total", read(io.bytes_received),
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
        "Kernel entries for group flushes (write, plus fsync when enabled)");
  }
  if (execution_active()) {
    // Execution engine: stats() copies a mutex-guarded snapshot the merge
    // thread refreshes per wave, so scrapes never race the store.
    registry_.counter_fn(
        "mm_exec_subdags_total", [this] { return execution_stats().subdags; },
        "Committed sub-DAGs fully executed and retired");
    registry_.counter_fn(
        "mm_exec_waves_total", [this] { return execution_stats().waves; },
        "Dependency waves merged into the replicated state");
    registry_.counter_fn(
        "mm_exec_batches_executed_total",
        [this] { return execution_stats().batches_executed; },
        "Batches that applied state-machine commands");
    registry_.counter_fn(
        "mm_exec_commands_total",
        [this] { return execution_stats().commands_applied; },
        "KV commands applied to the replicated store");
    registry_.counter_fn(
        "mm_exec_parallel_batches_total",
        [this] { return execution_stats().parallel_batches; },
        "Batches executed in a wave alongside non-conflicting peers");
    registry_.counter_fn(
        "mm_exec_conflict_delayed_total",
        [this] { return execution_stats().conflict_delayed; },
        "Batches pushed past the earliest wave by declared conflicts");
    registry_.counter_fn(
        "mm_exec_early_deliveries_total",
        [this] { return execution_stats().early_deliveries; },
        "Batches delivered before their sub-DAG's last wave retired");
    registry_.counter_fn(
        "mm_exec_dedup_total", [this] { return execution_stats().deduplicated; },
        "Committed batches skipped as already-executed duplicates");
    registry_.counter_fn(
        "mm_exec_malformed_total", [this] { return execution_stats().malformed; },
        "Committed batches whose KV payload failed to decode");
    registry_.counter_fn(
        "mm_exec_opaque_total", [this] { return execution_stats().opaque; },
        "Batches executed under the conservative conflicts-with-all class");
    registry_.counter_fn(
        "mm_exec_access_violations_total",
        [this] { return execution_stats().access_violations; },
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
  // through loop_ (durability acks; the pipeline's execute stamps), so they
  // must be joined while the loop object is alive — pipeline_ is declared
  // before loop_ and would otherwise outlive it. The stopped loop queues the
  // posts and never runs them (the sends they gate have no live connections
  // left anyway). The engine drains first, so the app state covers every
  // commit the loop handed it.
  if (group_wal_) group_wal_->shutdown();
  if (auto* engine = pipeline_->engine()) engine->shutdown();
}

void NodeRuntime::loop_main() {
  set_thread_name("mm-loop");
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
      loop_.schedule(kDialRetry, [this, peer] { dial_peer(peer); });
      return;
    }
    outgoing_[peer] = connection;
    connection->start(
        [](BytesView) {},  // outgoing connections are send-only
        [this, peer] {
          outgoing_[peer] = nullptr;
          loop_.schedule(kDialRetry, [this, peer] { dial_peer(peer); });
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
        if (!verify_drain_.push_bounded(std::move(raw), kMaxPendingVerifyFrames)) {
          // Overload shedding: anti-entropy and the fetch path re-deliver
          // dropped blocks once the backlog clears.
          verify_frames_dropped_->add();
        }
        break;
      }
      case MessageType::kFetch:
        pipeline_->on_fetch_request(decode_fetch_frame(frame), peer);
        break;
      case MessageType::kHorizon:
        pipeline_->on_peer_horizon(peer, decode_horizon_frame(frame));
        break;
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
            pipeline_->install_checkpoint(std::move(chain));
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

  // Stage: decode. Blocks the core already retained (anti-entropy re-offers)
  // drop here, before the screen pays for them again.
  std::vector<IngestBlock> items;
  items.reserve(frames.size());
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
    tracer_.record_stage(obs::Stage::kDecode, steady_now_micros() - frame.received_at);
    if (forwarded_digests_.contains(block->digest())) {
      redelivered_frames_->add();
      redelivered_bytes_->add(frame.block().size());
      continue;
    }
    items.push_back({std::move(block), frame.peer, frame.received_at});
  }

  // Stage: the block screen (validator/ingest.h). A configured shared cache
  // short-circuits signatures a co-located runtime already verified.
  ScreenedBatch screened =
      screen_blocks(std::move(items), committee_, config_.validator.validation,
                    config_.validator.signature_cache.get(), &tracer_);
  const IngestStats& stats = screened.stats();
  // The cost estimate sizing the next drain counts only blocks that reached
  // the crypto stage: floods of near-free drops (duplicate re-offers, decode
  // failures) must not drag the EWMA to zero and disable the latency shaping
  // right before a burst of genuine blocks.
  if (const std::uint64_t reached = screened.blocks().size() + stats.crypto_rejected) {
    const TimeMicros per_block =
        (steady_now_micros() - start) / static_cast<TimeMicros>(reached);
    const TimeMicros prev = verify_cost_ewma_.load(std::memory_order_relaxed);
    verify_cost_ewma_.store(prev == 0 ? per_block : (3 * prev + per_block) / 4,
                            std::memory_order_relaxed);
  }
  // First sight of an accepted block: the receive-side lag stamp (author's
  // created_at against the loop thread's receive stamp) and the admit event.
  // The screen's dedup keeps re-deliveries from double-counting.
  std::vector<BlockRef> refs;
  refs.reserve(screened.blocks().size());
  for (const auto& item : screened.blocks()) {
    record_rx_lag(*item.block, item.received_at);
    recorder_.record(obs::FlightEventType::kBlockAdmit, item.received_at,
                     item.block->author(), item.block->round());
    refs.push_back(item.block->ref());
  }
  if (refs.empty() && stats.structurally_rejected + stats.crypto_rejected == 0) return;

  // Hand the screened batch, rejects counted, to the loop thread; the core
  // never runs concurrently with itself. The forwarded-digest record is
  // written there, AFTER the core decides: a block the synchronizer drops
  // under back-pressure must stay re-deliverable through the fetch path.
  const TimeMicros verified_at = steady_now_micros();
  loop_.post([this, screened = std::move(screened), refs = std::move(refs),
              verified_at]() mutable {
    const TimeMicros picked_up = steady_now_micros();
    tracer_.record_stage(obs::Stage::kInsertQueue, picked_up - verified_at,
                         refs.size());
    pipeline_->on_screened(std::move(screened));
    tracer_.record_stage(obs::Stage::kDagInsert, steady_now_micros() - picked_up);
    for (const auto& ref : refs) {
      if (core().knows_block(ref)) forwarded_digests_.insert(ref.digest);
    }
  });
}

IngestStats NodeRuntime::ingest_stats() const {
  const NodePipeline::CoreMetrics& core = pipeline_->metrics();
  const auto read = [](const obs::Gauge* g) { return static_cast<std::uint64_t>(g->value()); };
  return IngestStats{read(core.structurally_rejected), read(core.crypto_rejected),
                     read(core.cache_hits), read(core.verified)};
}

NodeRuntime::IoPlaneReport NodeRuntime::io_plane_report() const {
  IoPlaneReport report;
  const IoPlaneStats& io = loop_.io_stats();
  report.submit_syscalls = io.submit_syscalls.load(std::memory_order_relaxed);
  report.send_ops = io.send_ops.load(std::memory_order_relaxed);
  report.recv_ops = io.recv_ops.load(std::memory_order_relaxed);
  report.bytes_sent = io.bytes_sent.load(std::memory_order_relaxed);
  report.bytes_received = io.bytes_received.load(std::memory_order_relaxed);
  report.wait_syscalls = loop_.wait_syscalls();
  report.loop_busy_micros = static_cast<std::uint64_t>(loop_.busy_micros());
  if (group_wal_ != nullptr) {
    report.wal_flush_syscalls = group_wal_->group_flush_syscalls();
    report.wal_groups = group_wal_->groups_flushed();
  }
  return report;
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
    serde::Writer w(1 + item.block->encoded_size());
    w.u8(static_cast<std::uint8_t>(MessageType::kBlock));
    item.block->serialize_into(w);
    sends.emplace_back(item.target, make_shared_frame(std::move(w).take()));
    egress_frames_encoded_->add();
  }
  loop_.post([this, sends = std::move(sends)] {
    for (const auto& [target, frame] : sends) send_shared(target, frame);
  });
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
  pipeline_->on_tick();
  // Periodic anti-entropy: re-offer our tip so peers that missed broadcasts
  // (connection races, drops mid-flight) converge. Receipt is idempotent.
  const TimeMicros now = steady_now_micros();
  if (now - last_resync_ >= config_.resync_interval) {
    last_resync_ = now;
    offer_latest_block(kAllPeers);
  }
  loop_.schedule(config_.tick_interval, [this] { tick(); });
}

void NodeRuntime::wake_at(TimeMicros deadline) {
  if (wake_timer_ != 0) loop_.cancel_timer(wake_timer_);
  wake_timer_ = loop_.schedule(deadline - steady_now_micros(), [this] {
    wake_timer_ = 0;
    pipeline_->on_tick();
  });
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
  const CommitStats& slots = core().committer().stats();
  out += "},\"slots\":{\"direct_commits\":" + std::to_string(slots.direct_commits) +
         ",\"indirect_commits\":" + std::to_string(slots.indirect_commits) +
         ",\"direct_skips\":" + std::to_string(slots.direct_skips) +
         ",\"indirect_skips\":" + std::to_string(slots.indirect_skips);
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
      pipeline_->on_mempool_ready();
    });
  }
}

}  // namespace mahimahi::net
