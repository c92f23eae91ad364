// Checkpointer: the validator's checkpoint subsystem, sans-IO.
//
// Each validator's NodePipeline (validator/pipeline.h) owns one, in the TCP
// runtime and the simulator alike, so the simulator runs the node's own
// checkpointing rather than a model of it. It lives on its owner's consensus
// thread beside the ValidatorCore:
//   * cuts happen at CANONICAL boundary slots (checkpoint/cert.h
//     cut_boundary_slot): when the consumption head crosses boundary k, the
//     consistent cut is captured and truncated back to the boundary, so every
//     honest validator's cut k has the identical decided log and app digest.
//     Up to ValidatorConfig::checkpoint_max_deltas cuts ride as delta links
//     (checkpoint/delta.h) on the chain's base before a re-base. One write is
//     in flight at a time; its completion retires sealed WAL segments one
//     whole CHAIN behind (recovery may fall back a full chain);
//   * at every boundary crossing the validator signs the cut payload and
//     sends the share to every peer (kShareFrame); 2f+1 shares matching its
//     own payload aggregate into a CheckpointCertificate, persisted as a
//     cert-*.cert sidecar and served with the chain. A fully certified chain
//     is a trust root (checkpoint/cert.h); an uncertified one installs under
//     the legacy stuck-requester path, with a counter recording the
//     downgrade;
//   * a kRequestFrame gets the longest certified chain prefix (kChainFrame),
//     or the whole chain when not even its base is certified yet;
//   * a solicited chain is verified (verify_chain, any thread) and installed
//     (install) as this validator's own restamped base;
//   * recovery installs the newest valid chain of the CheckpointStore before
//     the owner replays the WAL suffix.
//
// Owners reach it only through Hooks, the execution engine whose state the
// cuts carry, the SegmentedWal handed to start() for segment rolls and
// retirement, and the shared metrics registry.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint/cert.h"
#include "checkpoint/checkpoint.h"
#include "exec/engine.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "validator/validator.h"
#include "wal/segmented_wal.h"

namespace mahimahi {

class Checkpointer {
 public:
  // First byte of every frame the send hook carries; they share the TCP
  // runtime's message-type space.
  static constexpr std::uint8_t kRequestFrame = 5;  // empty: send me your chain
  static constexpr std::uint8_t kShareFrame = 7;    // encode_cut_share()
  static constexpr std::uint8_t kChainFrame = 8;    // encode_checkpoint_chain_frame()

  // Runs off the consensus thread (serialization and file writes only) and
  // returns the completion the owner must run back on it (may be empty).
  using WriteTask = std::function<std::function<void()>()>;

  struct Hooks {
    // Sends one frame (type byte first) to a peer.
    std::function<void(ValidatorId, BytesView)> send;
    // Runs a write task, then posts its non-empty completion.
    std::function<void(WriteTask)> write;
    // Optional observer: each app snapshot installed into the engine
    // (recovery and catch-up), after the engine took it.
    std::function<void(BytesView)> app_installed;
  };

  // The checkpoint counters, under the same names in the runtime and the simulator. Building
  // a second set on one registry returns the same counters, so the simulator
  // sums them over its validators.
  struct Counters {
    explicit Counters(obs::Registry& registry);
    obs::Counter* written;
    obs::Counter* catchups;
    obs::Counter* served;
    obs::Counter* delta_cuts;
    obs::Counter* certs;
    obs::Counter* shares_rejected;
    obs::Counter* certified_installs;
    obs::Counter* uncertified_installs;
  };

  // A received chain that passed verify_chain, ready to install.
  struct VerifiedChain {
    CheckpointData data;
    bool certified = false;
    std::shared_ptr<const Bytes> final_cert;  // null unless certified
  };

  // `store_dir` empty = no persistence; otherwise the CheckpointStore shares
  // the WAL's directory. `recorder` may be null. `app` is the engine whose
  // state cuts carry and installs replace; null = no app: zero digest, no
  // snapshots.
  Checkpointer(const Committee& committee, ValidatorCore& core,
               crypto::Ed25519PrivateKey key, obs::Registry& registry,
               obs::FlightRecorder* recorder, Hooks hooks, exec::ExecutionEngine* app,
               const std::string& store_dir);
  // Pending write tasks and posted completions hold its address.
  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  // Recovery, before the owner replays the WAL: installs the newest valid
  // chain from the store into the core and the app.
  void recover();
  // After replay: the log that cuts roll and retire (null without one), and
  // the first boundary to cross.
  void start(SegmentedWal* wal);

  // Commit path. Crosses every canonical boundary at or below `watermark`.
  // Owners call it per committed sub-DAG (before it reaches execution) and
  // once per pass with the consumption head, so skip-only crossings cut too.
  // `actions` supplies this pass's sub-DAGs for delivered-truncation.
  void advance(SlotId watermark, const Actions& actions);
  // Asks `peer` for its chain (Actions::checkpoint_requests) and opens the
  // solicited window for its answer.
  void request(ValidatorId peer);

  // kShareFrame body: window, signature and payload checks, then the
  // threshold collector. Throws serde::SerdeError on a malformed share.
  void on_share(BytesView payload);
  // kRequestFrame: answers with the chain; nothing until the first cut lands.
  void serve(ValidatorId peer);
  // kChainFrame gate: true only for the first answer of the peer asked last.
  // Unsolicited chains are dropped before their expensive verification.
  bool accept_chain(ValidatorId peer);
  // Decodes and verifies a chain (verify_checkpoint_chain). Thread-safe: it
  // reads only the committee and the immutable config.
  std::optional<VerifiedChain> verify_chain(ValidatorId peer, BytesView payload) const;
  // Installs a verified chain into the core and the app and persists it as
  // our own recovery point. Returns the core's actions for the owner to
  // perform; empty when the chain is stale.
  Actions install(VerifiedChain chain, TimeMicros now);

  // Cuts need gc_depth > 0 and a restore-capable core; certification only an
  // interval.
  bool cutting() const { return cutting_; }
  const Counters& counters() const { return counters_; }
  std::uint64_t sequence() const { return seq_; }
  Round last_horizon() const { return last_horizon_; }
  std::size_t chain_links() const { return chain_.size(); }
  std::size_t certified_links() const;

 private:
  struct PendingCut;
  ValidatorId id() const { return core_.id(); }
  SlotId boundary_slot(std::uint64_t cut_index) const;
  // Smallest cut index whose canonical boundary slot is at or past min_slot.
  std::uint64_t first_cut_at_or_after(SlotId min_slot) const;
  void cross_boundary(std::uint64_t cut_index, SlotId boundary, const Actions& actions);
  void start_cut(std::uint64_t cut_index, SlotId boundary, const Digest& app_digest,
                 const Actions& actions);
  void finish_cut(std::uint64_t epoch, std::uint64_t cut_index, bool is_base,
                  std::uint64_t keep_from, std::shared_ptr<const Bytes> encoded,
                  std::shared_ptr<const CheckpointData> data);
  void collect(std::uint64_t cut_index, PendingCut& pending, const CutShare& share);
  // Replaces the app state with a cut's snapshot (none = no-op).
  void install_app(const CheckpointData& data);
  void attach_cert(std::uint64_t cut_index, std::shared_ptr<const Bytes> cert);

  const Committee& committee_;
  ValidatorCore& core_;
  const ValidatorConfig& config_;  // the core's
  crypto::Ed25519PrivateKey key_;  // signs cut-certificate shares
  obs::FlightRecorder* recorder_;
  Hooks hooks_;
  exec::ExecutionEngine* app_;  // null = no app
  Counters counters_;
  const bool cutting_;
  const bool certifying_;
  std::unique_ptr<CheckpointStore> store_;  // null without persistence
  SegmentedWal* wal_ = nullptr;

  // Solicited-window gate. Armed by request(); a kChainFrame from any other
  // peer, or a second one from the asked peer, is dropped unread. The window
  // closes on the FIRST answer whatever its verification outcome (the core's
  // rate-limited re-request recovers from a bad or stale one), so one
  // request buys at most one verification. Deliberately no receive deadline:
  // a snapshot transfer can outlast any fixed timeout, and a deadline shorter
  // than the transfer would drop every retry alike — a livelock for exactly
  // the far-behind validator that needs catch-up most.
  bool request_outstanding_ = false;
  ValidatorId request_peer_ = 0;

  bool in_flight_ = false;
  Round last_horizon_ = 0;
  std::uint64_t seq_ = 0;
  // Segment boundary recorded at the base cut of the PREVIOUS chain.
  // Retirement lags one whole chain: recovery can fall back past a torn
  // newest chain only if the segments from the previous base's boundary
  // still exist (mirrors CheckpointStore's chain-granular keep-2 policy).
  std::uint64_t chain_keep_from_ = 0;

  // The current base+delta chain, oldest first; chain_[0] is the base. A
  // cert is null until 2f+1 shares aggregate (or forever, for cuts whose
  // window closed short).
  struct Link {
    std::uint64_t sequence = 0;
    std::uint64_t cut_index = 0;
    std::shared_ptr<const Bytes> record;
    std::shared_ptr<const Bytes> cert;
  };
  std::vector<Link> chain_;
  std::uint64_t base_seq_ = 0;
  // Previous cut's full data: the delta diff base. Null until the first cut
  // (or after a failed write, which forces a re-base).
  std::shared_ptr<const CheckpointData> last_cut_;
  std::uint64_t next_cut_index_ = 1;  // next boundary to cross
  // Incremental fold of the decided log: entries [0, folded_) of
  // committer().decided_sequence() are in the hasher. Reset on install.
  DecidedLogHasher hasher_;
  std::size_t folded_ = 0;
  // Bumped by every install: in-flight cut writes carry the epoch they
  // started under, and their completions are dropped on mismatch.
  std::uint64_t epoch_ = 0;
  // Per-boundary share collection. Only shares matching OUR OWN payload
  // enter the collector, so a forged payload can never aggregate; shares
  // arriving before we cross the boundary wait in `early` (at most one per
  // author, at most n).
  struct PendingCut {
    explicit PendingCut(std::uint32_t threshold) : collector(threshold) {}
    bool have_payload = false;
    CutPayload payload;
    crypto::MultisigCollector collector;
    std::vector<CutShare> early;
    std::shared_ptr<const Bytes> cert;  // set once formed
  };
  std::map<std::uint64_t, PendingCut> pending_;
};

}  // namespace mahimahi
