// Incremental checkpoints: base + per-cut deltas.
//
// A monolithic checkpoint (checkpoint.h) re-serializes the FULL decided log
// and app snapshot at every cut, so write amplification and catch-up
// transfer size grow linearly with history. A delta cut instead carries only
// what changed since the previous cut in the same chain:
//
//   * the decided-log suffix (slots in [prev_head, head));
//   * the DAG-suffix blocks not already in the previous cut (blocks the new
//     horizon pruned are reconstructed by filtering, not listed);
//   * the delivered marks, replaced wholesale (they are bounded by the live
//     suffix, unlike the log);
//   * the touched app keys since the previous cut (app/kv_store.h
//     delta_bytes), not the full store.
//
// A chain is one base checkpoint plus deltas in sequence order, re-based
// after ValidatorConfig::checkpoint_max_deltas links. Applying the deltas
// onto the base reconstructs the newest cut byte-identically (decided log
// and state_digest) to a monolithic capture at the same head — the property
// test in tests/test_checkpoint.cpp holds recovery to that.
//
// Encoding: one CRC-framed record per delta (same wal_frame_record framing
// as checkpoints, distinct magic), written crash-atomically next to its base
// by CheckpointStore. Decoding is bounds-checked against the payload like
// decode_checkpoint: these records also arrive off the wire (catch-up).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.h"

namespace mahimahi {

struct CheckpointDelta {
  std::uint64_t sequence = 0;       // this link's store sequence
  std::uint64_t prev_sequence = 0;  // the link it applies on top of
  std::uint64_t base_sequence = 0;  // the chain's base (retirement grouping)
  ValidatorId author = 0;
  Round horizon = 0;               // horizon AFTER applying this link
  SlotId prev_head;                // must equal the previous link's head
  SlotId head;                     // head AFTER applying this link
  Round last_proposed_round = 0;

  // Decided slots in [prev_head, head), in slot order.
  std::vector<DecidedSlot> decided_suffix;

  // Full replacement of the delivered marks (round >= the new horizon).
  std::vector<std::pair<Digest, Round>> delivered;

  // Suffix blocks not present in the previous cut, round-ascending.
  std::vector<BlockPtr> blocks_added;

  // app::KvStore::delta_bytes() since the previous cut; empty when the
  // writer runs no app.
  Bytes app_delta;
  Digest app_digest;  // full app digest AFTER applying this link
};

Bytes encode_checkpoint_delta(const CheckpointDelta& delta);
// Throws serde::SerdeError on any mismatch (torn file, CRC, malformed).
CheckpointDelta decode_checkpoint_delta(BytesView encoded);

// True iff `encoded` frames a delta record (vs a base checkpoint): peeks the
// magic behind the CRC framing without a full decode.
bool is_checkpoint_delta(BytesView encoded);

// Builds the delta taking `prev` to `next` (two cuts of the SAME validator,
// `next` captured after `prev`). `base_sequence` is the chain's base (the
// caller tracks it; `prev` may itself be a delta-extended cut). `app_delta`
// is the store's touched-key record for the window (the caller owns the app;
// CheckpointData's app_state is opaque here). Throws std::invalid_argument
// when `next` does not extend `prev` (different author, regressed head, or a
// decided log that is not an extension) — the caller falls back to a re-base.
CheckpointDelta make_checkpoint_delta(const CheckpointData& prev,
                                      const CheckpointData& next,
                                      std::uint64_t base_sequence,
                                      Bytes app_delta);

// Applies one delta onto `data` in place: extends the decided log, advances
// head/horizon, drops pruned suffix blocks and appends the new ones, replaces
// the delivered marks, and replays the app delta onto the carried app_state.
// Throws std::invalid_argument on linkage mismatch (wrong prev sequence or
// head, non-monotone horizon) and serde::SerdeError on a malformed app
// delta. Structural validity of the result is verify_checkpoint's job.
void apply_checkpoint_delta(CheckpointData& data, const CheckpointDelta& delta);

// Truncates a freshly captured cut back to `boundary` (a canonical cut
// slot <= the captured head): drops decided entries at or past the boundary,
// repositions the head, and removes the delivered marks in
// `delivered_after_boundary` (the blocks delivered by this batch's sub-DAGs
// at or past the boundary — the caller has them in Actions::committed). The
// DAG suffix and proposer round stay: they describe live per-validator
// state, not the agreed prefix, and verify_checkpoint accepts blocks above
// the head. Requires data.horizon <= boundary.round (the caller skips the
// cut otherwise — truncation must never cross the GC edge).
void truncate_checkpoint(CheckpointData& data, SlotId boundary,
                         std::span<const Digest> delivered_after_boundary);

// --- Chain wire frame --------------------------------------------------------
//
// kCheckpointChain payload: the full base+delta chain, each link's encoded
// record with its (optional) encoded certificate (checkpoint/cert.h). The
// receiver reconstructs and verifies the chain off-loop.

struct CheckpointChainFrame {
  struct Link {
    Bytes record;  // encode_checkpoint() or encode_checkpoint_delta()
    Bytes cert;    // encode_checkpoint_certificate(); empty = uncertified
  };
  std::vector<Link> links;  // base first, deltas in sequence order
};

Bytes encode_checkpoint_chain_frame(
    const std::vector<std::pair<BytesView, BytesView>>& links);
// Bounds-checked decode; throws serde::SerdeError.
CheckpointChainFrame decode_checkpoint_chain_frame(BytesView payload);

}  // namespace mahimahi
