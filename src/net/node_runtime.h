// NodeRuntime: a deployable validator process component.
//
// Owns an event loop thread, the validator's sans-IO NodePipeline (its
// ValidatorCore, checkpointer and write-ahead log) and the TCP mesh to all
// peers (one dialed connection per peer for sending; accepted connections
// deliver peer traffic). This mirrors the paper's networked multi-core validator (§4):
// tokio + raw TCP there, epoll + raw TCP here.
//
// Block ingestion is pipelined: the loop thread only reads frames off the
// sockets and enqueues them; a small worker pool (config.verify_threads)
// decodes them and runs the one block screen (validator/ingest.h) —
// batched, so bursts amortize ed25519 costs (crypto/ed25519.h) — and posts
// the screened batch back to the loop thread, which hands it to
// NodePipeline::on_screened. The core stays single-threaded and sans-IO;
// only decode and the screen, which are pure functions of the frame bytes
// and the committee, run concurrently. Commit evaluation runs inside the
// core, on the loop thread.
//
// Every stage has one code path. Each worker stage is fed through a
// SerialDrain (net/worker_pool.h): one drain at a time, so its output
// reaches the loop thread in arrival order. With verify_threads = 0 the pool
// is caller-runs and the same stages run on the loop thread; their posts
// back then cost no wakeup (net/event_loop.h).
//
// Every input reaches the core through validator/pipeline.h (NodePipeline),
// which also performs the core's Actions and runs WAL recovery; the
// simulator runs it too. The runtime supplies its Env: the loop's clock,
// peer sends, checkpoint writes on a worker, its commit counters and
// loop_.post; the pipeline owns the execution engine. Outbound blocks are encoded ONCE on a worker into a
// shared frame (net/tcp.h SharedFrame) and fanned out by the loop thread in
// enqueue order. With a wal_path the log is the segmented layout, landed
// inline or by wal/group_commit_wal.h's writer thread, whose acks post to
// the loop.
//
// Message frames (first payload byte is the type):
//   kHandshake:          u32 validator id + 32-byte committee epoch seed
//   kBlock:              serialized block
//   kFetch:              varint count + (round, author, digest) refs
//   kHorizon:            varint GC horizon of the sender
//   kCheckpointRequest:  empty (send me your latest checkpoint)
//   (type 6)             retired: the legacy single-record checkpoint
//                        response; ignored like any unknown type
//   kCertShare:          encode_cut_share() — one cut-certificate share
//   kCheckpointChain:    encode_checkpoint_chain_frame() — base+delta chain
#pragma once

#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/commit_trace.h"
#include "exec/engine.h"
#include "net/admin.h"
#include "net/event_loop.h"
#include "net/tcp.h"
#include "net/worker_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "validator/pipeline.h"
#include "wal/group_commit_wal.h"
#include "wal/segmented_wal.h"
#include "wal/wal.h"

namespace mahimahi::net {

// The latency budget never shrinks a verify drain below this many frames:
// batched RLC signature verification realizes most of its amortization by ~8
// items, so smaller batches cost MORE per block — a budget-derived cap below
// the floor is self-defeating (see ingest_batch_cap for the bistable trap it
// creates in slow environments).
inline constexpr std::size_t kVerifyAmortizationFloor = 8;

// Adaptive ingest batching (kMaxIngestBatch / kIngestLatencyBudget in
// validator/ingest.h): how many queued block frames one verify drain may
// take, given the EWMA of per-block decode+verify cost. max_batch 0 =
// unbounded; budget or ewma 0 = no latency shaping. Never returns 0, and
// latency shaping never goes below min(max_batch, kVerifyAmortizationFloor).
std::size_t ingest_batch_cap(std::size_t max_batch, TimeMicros latency_budget,
                             TimeMicros ewma_per_block);

// The first payload byte of every peer frame (the table in the header).
enum class MessageType : std::uint8_t {
  kHandshake = 1,
  kBlock = 2,
  kFetch = 3,
  kHorizon = 4,
  kCheckpointRequest = Checkpointer::kRequestFrame,
  // 6 is retired (legacy single-record checkpoint response); never reuse.
  kCertShare = Checkpointer::kShareFrame,
  kCheckpointChain = Checkpointer::kChainFrame,
};

// The kFetch and kHorizon codecs, type byte included. A decoder throws
// serde::SerdeError on another type byte, a short or overlong body, or a
// fetch count past kMaxFetchRefs — checked before anything is reserved.
inline constexpr std::uint64_t kMaxFetchRefs = 10'000;
Bytes encode_fetch_frame(const std::vector<BlockRef>& refs);
std::vector<BlockRef> decode_fetch_frame(BytesView frame);
Bytes encode_horizon_frame(Round horizon);
Round decode_horizon_frame(BytesView frame);

struct NodeAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct NodeRuntimeConfig {
  ValidatorConfig validator;
  // peers[i] is validator i's listen address; peers[validator.id] is ours.
  std::vector<NodeAddress> peers;
  // Empty = no persistence. Otherwise a DIRECTORY holding the segmented
  // WAL (seg-*.wal files, MANIFEST) and, with checkpointing, the checkpoint
  // store (ckpt-*.ckpt). A regular file here (a monolithic log from an
  // older binary) makes construction throw rather than start from an empty
  // log and re-propose rounds.
  std::string wal_path;
  // Paces fetch retries and anti-entropy only: proposals fire at the
  // pacing floor's deadline (ValidatorCore::proposal_deadline) or at an
  // input, never waiting for a tick.
  TimeMicros tick_interval = millis(50);
  // Anti-entropy: how often to re-offer our latest own block to all peers.
  // Broadcasts to a peer whose connection is down are dropped by TCP, so
  // eventual delivery (§2.1, Lemma 9) needs a push-based repair path; the
  // peer's synchronizer pulls any missing ancestry from the offered block.
  TimeMicros resync_interval = millis(500);
  // Worker threads for the off-loop stages: decode + crypto verification of
  // incoming block frames, egress encoding, client admission, checkpoint
  // writes. 0 = a caller-runs pool: the same stages run on the thread that
  // feeds them (the loop thread, or a client's submit() thread).
  std::size_t verify_threads = 2;
  // Admin/metrics HTTP endpoint (GET /metrics Prometheus text, /metrics.json)
  // served from the loop thread on the TCP plane, loopback only. -1 =
  // disabled (default); 0 = bind an ephemeral port (read it back via
  // admin_port()); otherwise the port to bind.
  int admin_port = -1;
  // Loop-stall watchdog: an event-loop tick whose busy slice exceeds this
  // budget counts as a stall (mm_loop_stalls_total) and logs a rate-limited
  // warning. The tick histogram and max-stall gauge record regardless.
  TimeMicros loop_stall_budget = millis(250);
  // Flight-recorder auto-dump directory: when non-empty, a watchdog stall
  // writes flightrec-v<id>-<n>.bin there (rate-limited with the stall warn).
  // The recorder itself is always on; empty only disables the stall dumps.
  std::string flightrec_dir;
};

class NodeRuntime {
 public:
  // Fires on the loop thread for every committed sub-DAG.
  using CommitHandler = std::function<void(const CommittedSubDag&)>;

  NodeRuntime(const Committee& committee, crypto::Ed25519PrivateKey key,
              NodeRuntimeConfig config);
  ~NodeRuntime();

  // Set before start().
  void set_commit_handler(CommitHandler handler) { commit_handler_ = std::move(handler); }

  // Replays the WAL (if any), starts the loop thread, listens and dials.
  // Throws std::runtime_error, with the loop thread joined, if a listener
  // cannot bind its port.
  void start();
  void stop();

  // Thread-safe client submission. Admission control (sharded mempool front
  // door) runs off the loop thread — on the worker pool, or on the calling
  // thread with zero workers; the loop thread only learns "the pool has
  // work" and drains it on the next proposal. Because admission may be
  // asynchronous, per-batch verdicts cannot be returned here: rejects
  // surface through submit_rejected() / mempool_stats() and a warn-level
  // log. A client that needs each verdict synchronously (to propagate
  // backpressure upstream) should call mempool_handle()->submit() itself —
  // thread-safe, never blocks on the loop thread — then poke this wrapper
  // with an empty vector.
  void submit(std::vector<TxBatch> batches);

  // The shared admission pool, for clients that want per-batch verdicts.
  const std::shared_ptr<ShardedMempool>& mempool_handle() const { return mempool_; }

  // The validator's metrics registry: every counter below lives in it, plus
  // the lifecycle-stage and finality histograms and the loop watchdog. Dump
  // it (thread-safe) or scrape the admin endpoint for the same view.
  obs::Registry& metrics_registry() { return registry_; }
  const obs::Registry& metrics_registry() const { return registry_; }
  // The admin endpoint's bound port once start() returned (-1 when
  // config.admin_port was -1).
  int admin_port() const { return admin_port_.load(std::memory_order_relaxed); }

  // The always-on flight recorder: per-thread event rings, snapshotted by
  // the /flightrec admin endpoint and auto-dumped on watchdog stalls
  // (config.flightrec_dir). Thread-safe.
  obs::FlightRecorder& flight_recorder() { return recorder_; }
  // Stall-triggered dump files written so far (mm_flightrec_stall_dumps_total).
  std::uint64_t flightrec_stall_dumps() const { return flightrec_stall_dumps_->value(); }

  // Thread-safe counters — thin reads of the registry metrics.
  std::uint64_t committed_transactions() const { return committed_tx_->value(); }
  std::uint64_t committed_blocks() const { return committed_blocks_->value(); }
  Round highest_round() const {
    return static_cast<Round>(pipeline_->metrics().highest_round->value());
  }

  // The ingestion pipeline's stage counters, mirrored from the core after
  // every loop-thread step. Thread-safe.
  IngestStats ingest_stats() const;
  // Frames that failed to decode as blocks (malformed wire bytes).
  std::uint64_t decode_errors() const { return decode_errors_->value(); }
  // Admission-control counters of the shared mempool (thread-safe).
  MempoolStats mempool_stats() const { return mempool_->stats(); }
  // Egress/WAL write-side introspection (thread-safe). The encode counter
  // means "outbound block frames encoded once and fanned out as shared
  // views".
  std::uint64_t egress_frames_encoded() const { return egress_frames_encoded_->value(); }
  bool wal_group_commit_active() const { return group_wal_ != nullptr; }
  std::uint64_t wal_groups_flushed() const {
    return group_wal_ ? group_wal_->groups_flushed() : 0;
  }
  // I/O-plane accounting (thread-safe): the syscalls-per-committed-block
  // numerator. submit_syscalls counts data-plane recv/sendmsg calls;
  // wait_syscalls counts the loop's epoll waits; wal_flush_syscalls counts
  // group-flush writes and fsyncs on the WAL writer thread. Divide by
  // committed_blocks() for the bench metric.
  struct IoPlaneReport {
    std::uint64_t submit_syscalls = 0;
    std::uint64_t send_ops = 0;
    std::uint64_t recv_ops = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t wait_syscalls = 0;
    std::uint64_t loop_busy_micros = 0;
    std::uint64_t wal_flush_syscalls = 0;
    std::uint64_t wal_groups = 0;
  };
  IoPlaneReport io_plane_report() const;
  // Checkpoint subsystem introspection (thread-safe counter reads).
  std::uint64_t checkpoints_written() const { return ckpt_counter().written->value(); }
  // Snapshot catch-ups completed: peer checkpoints verified and installed.
  std::uint64_t snapshot_catchups() const { return ckpt_counter().catchups->value(); }
  std::uint64_t checkpoints_served() const { return ckpt_counter().served->value(); }
  std::uint64_t checkpoint_delta_cuts() const { return ckpt_counter().delta_cuts->value(); }
  std::uint64_t checkpoint_certs() const { return ckpt_counter().certs->value(); }
  // Catch-up installs split by trust root: a fully certified chain vs the
  // legacy stuck-requester downgrade.
  std::uint64_t certified_snapshot_installs() const {
    return ckpt_counter().certified_installs->value();
  }
  std::uint64_t uncertified_snapshot_installs() const {
    return ckpt_counter().uncertified_installs->value();
  }
  // Batches this runtime's submit() path rejected (subset view of
  // mempool_stats(), attributable to local clients).
  std::uint64_t submit_rejected() const {
    return pipeline_->counters().submit_rejected->value();
  }

  // --- Execution subsystem (ValidatorConfig::execute_app, exec/) ----------
  //
  // When active, every committed sub-DAG feeds the pipeline's deterministic
  // KV execution engine: parallel waves with execution_threads > 0, inline
  // caller-runs apply otherwise, and `mm_exec_*` counters in the registry.
  // Finality stamps (mm_finality_micros) then fire at execution-delivery
  // time per retired wave instead of at commit time.
  bool execution_active() const { return pipeline_->engine() != nullptr; }
  // Drains the engine (every commit enqueued so far fully retires) and
  // returns the replicated state digest. Thread-safe; blocks the caller,
  // never the loop thread. Digest of an empty store when inactive.
  Digest app_state_digest() {
    auto* engine = pipeline_->engine();
    return engine ? engine->state_digest() : app::KvStore{}.state_digest();
  }
  // Scrape-safe snapshot of the engine's counters (zeros when inactive).
  exec::ExecStats execution_stats() const {
    const auto* engine = pipeline_->engine();
    return engine ? engine->stats() : exec::ExecStats{};
  }

  ValidatorId id() const { return config_.validator.id; }
  std::uint16_t listen_port() const { return listen_port_.load(); }

 private:
  struct RawFrame {
    ValidatorId peer;
    // The serialized block is buffer[offset..]: a large frame keeps the
    // connection's receive buffer (offset past the frame header and type
    // byte) instead of being copied out of it.
    Bytes buffer;
    std::size_t offset = 0;
    // Loop-thread receive stamp: start of the block's lifecycle trace.
    TimeMicros received_at = 0;

    BytesView block() const { return BytesView(buffer).subspan(offset); }
  };

  // One outbound block awaiting encode + fan-out. kAllPeers broadcasts.
  struct EgressItem {
    BlockPtr block;
    ValidatorId target;
  };

  void loop_main();
  void dial_peer(ValidatorId peer);
  void on_peer_frame(ValidatorId peer, const TcpConnection::Frame& frame);
  void on_unidentified_connection(TcpConnectionPtr connection);
  const ValidatorCore& core() const { return pipeline_->core(); }
  Checkpointer& checkpointer() { return pipeline_->checkpointer(); }
  // Verify-drain body: decodes one drained batch and screens it
  // (validator/ingest.h), folds its per-block cost into the EWMA that sizes
  // the next batch, and posts the screened batch to the loop thread.
  void verify_frames(std::vector<RawFrame> frames);
  void send_to_peer(ValidatorId peer, BytesView frame);
  // Hands a shared encoded frame to `target` (every peer when kAllPeers) —
  // per-peer sends only bump the frame's refcount. Loop thread.
  void send_shared(ValidatorId target, const SharedFrame& frame);
  // Queues `blocks` for `target` (kAllPeers broadcasts) on the egress drain,
  // whose body encodes each block once into a SharedFrame and posts the
  // sends back to the loop thread.
  void egress(const std::vector<BlockPtr>& blocks, ValidatorId target);
  void encode_egress(std::vector<EgressItem> items);
  // Queues one proposal re-check on the loop thread (collapses bursts).
  void nudge_proposal();
  const Checkpointer::Counters& ckpt_counter() const {
    return pipeline_->checkpointer().counters();
  }
  void tick();
  // Arms the one pacing timer for the core's proposal deadline
  // (NodePipeline::Env::wake_at), replacing the pending one.
  void wake_at(TimeMicros deadline);
  // Sends our latest own block to `peer` (all peers when kAllPeers); its
  // parent references let the receiver fetch anything else it is missing.
  static constexpr ValidatorId kAllPeers = ~0u;
  void offer_latest_block(ValidatorId peer);

  // Registers every callback metric that bridges pre-existing bespoke
  // counters (io-plane stats, mempool stats, WAL/loop introspection) into
  // registry_. Constructor tail, after those sources exist.
  void register_callback_metrics();

  // Folds one block's receive-side lag (local receive stamp minus the
  // author's created_at, clamped at 0) into the aggregate and per-peer
  // histograms. Unstamped blocks (created_at == 0) are skipped. Any thread.
  void record_rx_lag(const Block& block, TimeMicros received_at);
  // /status body: loop-thread node state as JSON (head, peers, mempool,
  // checkpoint chain tip). Loop thread only — it reads core state.
  std::string render_status_json();
  // Watchdog on_stall callback (loop thread, rate-limited with the warn):
  // stamps a kStall event and, with config.flightrec_dir set, dumps the
  // recorder to flightrec-v<id>-<n>.bin.
  void on_loop_stall(TimeMicros busy_micros, TimeMicros now);

  const Committee& committee_;
  NodeRuntimeConfig config_;
  // Declared before every consumer: the tracer, watchdog, and all the metric
  // handles below point into it. Destroyed last among them (reverse order).
  obs::Registry registry_;
  obs::LifecycleTracer tracer_;
  // Before the watchdog: its on_stall closure dumps the recorder.
  obs::FlightRecorder recorder_;
  obs::LoopWatchdog watchdog_;
  // Commit forensics (loop thread only): arrival stamps + recent commit
  // traces, served as JSON on /trace/commits.
  CommitForensics forensics_;
  // Shared with the core (ValidatorConfig::mempool_instance): submissions
  // are admitted on client/worker threads, drains happen on the loop thread.
  std::shared_ptr<ShardedMempool> mempool_;
  CommitHandler commit_handler_;
  // The core, its checkpointer, its execution engine and its WAL (loop-thread
  // state; the counters and engine reads are thread-safe). The engine's
  // delivery handler posts through loop_, which is why stop() shuts the
  // engine down while loop_ is still alive.
  std::unique_ptr<NodePipeline> pipeline_;
  // Non-null iff the pipeline's WAL is a GroupCommitWal (introspection +
  // explicit shutdown before the loop object dies: the writer posts acks
  // through loop_).
  GroupCommitWal* group_wal_ = nullptr;

  EventLoop loop_;
  // The off-loop stages' executor (caller-runs with zero threads) and the
  // three single-drain queues feeding it. stop() joins the workers before
  // the loop thread exits, so no drain outlives what it touches.
  WorkerPool verify_pool_;
  // Bounded by kMaxPendingVerifyFrames; each pass takes
  // ingest_batch_cap() frames.
  SerialDrain<RawFrame> verify_drain_;
  // Unbounded, unlike verify frames: entries are blocks this node itself
  // decided to send (proposals, offers) or already holds in its DAG (fetch
  // responses, whose volume a peer caps at 10000 refs per request), so the
  // DAG bounds the queue and dropping an entry would silently lose a
  // message the protocol expects to deliver.
  SerialDrain<EgressItem> egress_drain_;
  // Client submissions, admitted in arrival order (two back-to-back
  // submit() calls cannot invert a client's FIFO order in the pool).
  SerialDrain<TxBatch> submit_drain_;
  std::thread thread_;
  std::unique_ptr<TcpListener> listener_;
  // Admin/metrics endpoint (config.admin_port >= 0): created on the loop
  // thread before the consensus listener, torn down there too.
  std::unique_ptr<AdminServer> admin_;
  std::atomic<int> admin_port_{-1};
  std::vector<TcpConnectionPtr> outgoing_;  // index = peer id
  std::vector<TcpConnectionPtr> pending_incoming_;
  std::atomic<std::uint16_t> listen_port_{0};
  // Set by the loop thread when a listener failed to bind; start() rethrows.
  std::exception_ptr start_error_;
  std::atomic<bool> start_failed_{false};
  bool ticking_ = false;
  TimeMicros last_resync_ = 0;
  // The pending pacing timer's id; 0 when none is pending.
  std::uint64_t wake_timer_ = 0;

  obs::Counter* committed_tx_;
  obs::Counter* committed_blocks_;

  // Receive-side lag forensics: created_at (author clock) -> local receive,
  // clamped at 0. One aggregate histogram plus one per peer; negative deltas
  // (clock skew) clamp and count. Recorded on verify workers or the loop
  // thread — histograms/counters are thread-safe.
  obs::Histogram* peer_rx_lag_;
  std::vector<obs::Histogram*> peer_rx_lag_by_peer_;  // index = author
  obs::Counter* peer_rx_lag_clamped_;
  obs::Counter* flightrec_stall_dumps_;
  // Sequence for stall-dump file names (loop thread only).
  std::uint64_t flightrec_dump_seq_ = 0;

  // Digests of blocks the core has retained (inserted or parked): workers
  // drop re-deliveries of them — the periodic anti-entropy re-offers,
  // relayed fetch responses — before paying crypto again. Recorded on the
  // loop thread only after the core accepts a block, so anything dropped
  // (bad crypto, synchronizer back-pressure) stays re-deliverable.
  // VerifierCache is internally locked.
  VerifierCache forwarded_digests_;
  // Frames (and their bytes) that decode paid for before forwarded_digests_
  // dropped them: the hashing that anti-entropy re-offers still cost.
  obs::Counter* redelivered_frames_;
  obs::Counter* redelivered_bytes_;
  obs::Counter* decode_errors_;
  obs::Counter* verify_frames_dropped_;
  // Collapses a burst of off-loop submissions into one queued proposal
  // re-check on the loop thread.
  std::atomic<bool> propose_nudge_pending_{false};
  obs::Counter* egress_frames_encoded_;
  // EWMA of per-block decode+verify cost (micros), written by the single
  // active verify drain, read when sizing the next batch. Stays a bespoke
  // atomic (control state, not a metric); a gauge_fn bridges it for scrapes.
  std::atomic<TimeMicros> verify_cost_ewma_{0};
};

}  // namespace mahimahi::net
