// Threshold-certified checkpoint cuts: the trust root for catch-up.
//
// verify_checkpoint (checkpoint.h) validates everything it can see, but
// decisions BELOW the horizon are unverifiable without the pruned history —
// the documented trust gap. Certified cuts close it:
//
//   * Cuts are CANONICAL: every validator cuts at the same boundary slots
//     B_k = first leader slot at or after round k * checkpoint_interval
//     (cut_boundary_slot). A capture is truncated back to head == B_k
//     (delta.h truncate_checkpoint), so the cut's decided log — the agreed
//     sequence — is identical across honest validators, and its app digest
//     is the digest at exactly that prefix.
//   * Each validator signs the cut payload (cut index, boundary head,
//     decided-log digest, app digest) and broadcasts the share (kCertShare).
//     2f+1 distinct shares aggregate into a CheckpointCertificate
//     (crypto/multisig.h): at least f+1 honest validators executed that
//     exact prefix to that exact state.
//   * A catch-up chain whose every link carries a valid certificate is a
//     TRUST ROOT: nothing below the horizon is taken on one peer's word.
//     Uncertified chains still install under the legacy f+1-horizon path
//     (the requester only asks when provably stuck), with a counter
//     recording the downgrade.
//
// The decided-log digest is an incremental fold (DecidedLogHasher) so the
// writer pays O(new slots) per cut and a chain verifier extends the base's
// digest across deltas instead of rehashing the whole log per link. `via` is
// excluded from the fold: a slot may legitimately be decided directly in one
// view and indirectly in another (core/decision.h same_outcome); only the
// outcome is agreement-critical.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint/delta.h"
#include "crypto/blake2b.h"
#include "crypto/multisig.h"
#include "types/committee.h"

namespace mahimahi {

// The canonical boundary slot of cut k (k >= 1): the first leader slot at or
// after round k * interval. Every validator maps k to the same slot, which
// is what lets independent shares aggregate.
SlotId cut_boundary_slot(std::uint64_t cut_index, Round interval,
                         const CommitterOptions& options);

// Incremental canonical digest over a decided-log prefix. Folding the same
// entries in the same order yields the same digest on every validator
// (the entries are the agreed sequence; `via` is excluded). Copy-cheap:
// snapshot the running digest at a boundary by value.
class DecidedLogHasher {
 public:
  DecidedLogHasher();

  void fold(const DecidedSlot& entry);
  template <typename It>
  void fold(It first, It last) {
    for (; first != last; ++first) fold(*first);
  }

  std::uint64_t count() const { return count_; }
  Digest digest() const;  // finalizes a copy; the fold can continue

 private:
  crypto::Blake2b hasher_;
  std::uint64_t count_ = 0;
};

// What a certificate share signs. The encoding is domain-tagged, so these
// signatures can never collide with block or coin signatures.
struct CutPayload {
  std::uint64_t cut_index = 0;  // k: head == cut_boundary_slot(k)
  SlotId head;
  Digest decided_digest;  // DecidedLogHasher over the cut's full decided log
  Digest app_digest;      // app state digest at the cut (zero without an app)

  bool operator==(const CutPayload&) const = default;
};

// The signed message (domain tag + fields) and its digest (collector keying).
Bytes encode_cut_payload(const CutPayload& payload);
Digest cut_payload_digest(const CutPayload& payload);

// One validator's signature share over a cut payload.
struct CutShare {
  CutPayload payload;
  ValidatorId author = 0;
  crypto::Ed25519Signature signature;
};

CutShare sign_cut(const CutPayload& payload, ValidatorId author,
                  const crypto::Ed25519PrivateKey& key);
// Author in range + signature valid over the payload encoding.
bool verify_cut_share(const CutShare& share, const Committee& committee);

// kCertShare wire payload (self-authenticating: carries author + signature).
Bytes encode_cut_share(const CutShare& share);
CutShare decode_cut_share(BytesView payload);  // throws serde::SerdeError

// 2f+1 shares over one payload.
struct CheckpointCertificate {
  CutPayload payload;
  crypto::Multisig multisig;
};

Bytes encode_checkpoint_certificate(const CheckpointCertificate& cert);
CheckpointCertificate decode_checkpoint_certificate(BytesView encoded);

// Empty string when `cert` carries a 2f+1 quorum of valid committee
// signatures over its payload; else the reason.
std::string verify_checkpoint_certificate(const CheckpointCertificate& cert,
                                          const Committee& committee);

// --- Chain verification ------------------------------------------------------

struct ChainVerifyResult {
  CheckpointData data;     // the reconstructed newest cut
  bool certified = false;  // every link carried a valid certificate
  std::size_t links = 0;
  std::string error;       // non-empty = refuse the chain
};

// Decodes, reconstructs and verifies a received base+delta chain:
//
//   * every record decodes and links (sequence/head continuity, monotone
//     horizon, app-delta replay);
//   * every link's app digest matches its reconstructed app state (a
//     content-vs-claim mismatch is refused even before certificates);
//   * any PRESENT certificate must be valid AND bind its link exactly
//     (boundary head, cut index, decided-log digest, app digest) — a
//     certified-but-mismatched link is refused, never downgraded;
//   * the final cut passes verify_checkpoint (structure + block crypto).
//
// `certified` is true only when EVERY link carried a valid certificate; the
// caller routes uncertified chains through the legacy-trust path.
ChainVerifyResult verify_checkpoint_chain(const CheckpointChainFrame& frame,
                                          const Committee& committee,
                                          const CommitterOptions& options,
                                          Round checkpoint_interval,
                                          const ValidationOptions& validation,
                                          VerifierCache* cache = nullptr);

}  // namespace mahimahi
