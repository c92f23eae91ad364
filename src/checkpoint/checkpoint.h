// Checkpoints: a serialized consistent cut of a validator's committed state.
//
// A checkpoint captures, at a GC horizon, everything a fresh validator needs
// to stand where the writer stood without replaying history below the
// horizon:
//
//   * the consumption head (first unconsumed leader slot) and the full
//     decided slot log — the agreed sequence itself;
//   * the live DAG suffix: every block with round >= horizon, round-
//     ascending, so re-insertion never misses a parent (sub-horizon parents
//     are exempt once the DAG's horizon is set);
//   * the delivered marks at or above the horizon, so the first commit after
//     installation does not re-deliver blocks a pre-cut commit already
//     delivered;
//   * the writer's proposer round (restart safety: never re-propose a
//     checkpointed round) and an opaque application snapshot with the digest
//     the restored app must reproduce (the cut's analogue of verifying
//     against the committed certificate chain: the digest is a deterministic
//     function of the decided log, so peers agree on it).
//
// The encoding is one CRC-framed record (shared wal_frame_record framing),
// written crash-atomically by CheckpointStore (tmp + fsync + rename):
// a checkpoint file either decodes end-to-end or is discarded, and recovery
// falls back to the previous one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/decision.h"
#include "core/options.h"
#include "types/block.h"
#include "types/committee.h"
#include "types/validation.h"
#include "validator/verifier_cache.h"

namespace mahimahi {

struct CheckpointData {
  std::uint64_t sequence = 0;      // writer-local monotonic checkpoint number
  ValidatorId author = 0;          // which validator cut this
  Round horizon = 0;               // the cut's GC horizon (DAG pruned below it)
  SlotId head;                     // first unconsumed slot at the cut
  Round last_proposed_round = 0;   // author's proposer round at the cut

  // The full decided log at the cut (Committer::decided_sequence()).
  std::vector<DecidedSlot> decided;

  // Delivered marks with round >= horizon (Committer::delivered_snapshot).
  std::vector<std::pair<Digest, Round>> delivered;

  // Live DAG suffix: round >= max(horizon, 1), ascending by round (genesis
  // is excluded — every validator constructs it locally).
  std::vector<BlockPtr> blocks;

  // Opaque application snapshot (driver-owned; e.g. app/kv_store.h contents)
  // plus the state digest the restored application must reproduce.
  Bytes app_state;
  Digest app_digest;
};

// One CRC-framed record; decode throws serde::SerdeError on any mismatch
// (torn file, CRC failure, malformed payload).
Bytes encode_checkpoint(const CheckpointData& data);
CheckpointData decode_checkpoint(BytesView encoded);

// Semantic checks beyond the CRC, run before installing a checkpoint that
// came off the wire: block shape + (per `validation`) batched coin/signature
// verification, round-ascending suffix at or above the horizon, a decided
// log that is EXACTLY the slot-successor chain from `options.first_slot_round`
// to `head` (a fabricated head with a thin or empty log is rejected), and
// every committed slot at or above the horizon backed by a block in the
// suffix. Returns an empty string when acceptable, else a reason.
// Thread-safe (workers verify off-loop).
//
// Known trust gap: decisions BELOW the horizon are unverifiable without the
// pruned history — the receiver trusts the serving committee member for
// them (mitigated by only requesting when provably stuck, and only from
// committee peers). Threshold-certified cuts (checkpoint/cert.h) close it:
// a chain whose every link carries a 2f+1 certificate over the cut's
// decided-log and app digests needs no below-horizon trust. This check
// remains the structural floor both paths share.
std::string verify_checkpoint(const CheckpointData& data, const Committee& committee,
                              const CommitterOptions& options,
                              const ValidationOptions& validation,
                              VerifierCache* cache = nullptr);

// Directory of `ckpt-<sequence>.ckpt` base files, `dlta-<sequence>.dlta`
// delta links (checkpoint/delta.h) and `cert-<sequence>.cert` certificate
// sidecars (checkpoint/cert.h), with crash-atomic writes and corruption
// fallback on load. One store typically shares the segmented WAL's
// directory. Sequences are writer-global: a chain is one base plus the
// contiguous run of delta sequences after it, up to the next base.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string dir);

  // Writes `encoded` (an encode_checkpoint result) as base checkpoint
  // `sequence`: tmp file, fsync, rename. Throws on I/O failure.
  void write(std::uint64_t sequence, BytesView encoded);
  // Same contract for a delta link (encode_checkpoint_delta) and a
  // certificate sidecar (encode_checkpoint_certificate).
  void write_delta(std::uint64_t sequence, BytesView encoded);
  void write_cert(std::uint64_t sequence, BytesView encoded);

  struct ChainLink {
    std::uint64_t sequence = 0;
    Bytes record;  // base (first link) or delta record bytes
    Bytes cert;    // certificate sidecar bytes; empty = none on disk
  };
  // The newest base that decodes cleanly plus the contiguous run of
  // decoding, correctly linking deltas after it. A torn or corrupt delta
  // truncates the chain there (recovery falls back to a shorter chain and
  // more WAL replay); a corrupt base falls back to the previous base's
  // chain. Empty when no base loads.
  std::vector<ChainLink> newest_valid_chain() const;

  // Newest reconstructable cut: the newest valid chain with its deltas
  // applied. nullopt when none.
  std::optional<CheckpointData> load_newest_valid() const;

  // Raw encoded bytes of the newest valid BASE checkpoint (ignores deltas),
  // for serving legacy single-record catch-up without a re-encode.
  std::optional<std::pair<std::uint64_t, Bytes>> newest_valid_bytes() const;

  // Keeps the newest `keep` CHAINS (base + its deltas + their cert
  // sidecars), deletes older ones (at least one whole fallback chain
  // survives with keep >= 2). Within a retired chain the delta links are
  // unlinked before their base, so a crash mid-retire can never leave live
  // deltas whose base is gone; the directory is fsynced at the end
  // (common/fsio) so the unlinks are durable.
  void retire(std::size_t keep = 2);

  static std::vector<std::uint64_t> list(const std::string& dir);
  static std::vector<std::uint64_t> list_deltas(const std::string& dir);
  static std::string checkpoint_path(const std::string& dir, std::uint64_t sequence);
  static std::string delta_path(const std::string& dir, std::uint64_t sequence);
  static std::string cert_path(const std::string& dir, std::uint64_t sequence);

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

}  // namespace mahimahi
