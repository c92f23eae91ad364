// Blocks: the single message type of the protocol (§2.3).
//
// A block carries (1) author and signature, (2) round number, (3) a list of
// transaction batches, (4) hash references to parent blocks — at least 2f+1
// distinct authors from round R-1, by convention the author's own previous
// block first — (5) a share of the global perfect coin for round R, and
// (6) the author's creation timestamp, the anchor for receive-side lag
// forensics (mm_peer_rx_lag_micros). The timestamp is advisory: it is in
// the author's clock domain, consumers clamp, and consensus never reads it.
//
// The digest commits to everything except the signature, each batch's
// payload through its payload digest (TxBatch::hash_payload); the signature
// signs the digest. Blocks are immutable after construction.
#pragma once

#include <memory>
#include <vector>

#include "common/time.h"
#include "crypto/coin.h"
#include "crypto/ed25519.h"
#include "types/ids.h"
#include "types/transaction.h"

namespace mahimahi {

class Block {
 public:
  // Constructs and signs a block. `parents` must already satisfy the
  // structural rules (the proposer guarantees this; validation re-checks).
  // `created_at` is the author-clock creation stamp (0 = unstamped; lag
  // consumers skip unstamped blocks). A batch's payload_digest is trusted
  // as given (the mempool computed it at admission); batches without one
  // are hashed here.
  static Block make(ValidatorId author, Round round, std::vector<BlockRef> parents,
                    std::vector<TxBatch> batches, crypto::CoinShare coin_share,
                    const crypto::Ed25519PrivateKey& key, TimeMicros created_at = 0);

  // The deterministic genesis block of `author` (round 0, no parents, no
  // transactions, zero signature). Never transmitted: every validator
  // constructs the same genesis locally.
  static Block genesis(ValidatorId author, const crypto::ThresholdCoin& coin);

  ValidatorId author() const { return author_; }
  Round round() const { return round_; }
  const std::vector<BlockRef>& parents() const { return parents_; }
  const std::vector<TxBatch>& batches() const { return batches_; }
  const crypto::CoinShare& coin_share() const { return coin_share_; }
  const crypto::Ed25519Signature& signature() const { return signature_; }
  const Digest& digest() const { return digest_; }
  // Author-clock creation stamp in micros; 0 when the author did not stamp
  // (genesis, old tooling). Advisory only — never read by consensus rules.
  TimeMicros created_at() const { return created_at_; }

  BlockRef ref() const { return BlockRef{round_, author_, digest_}; }

  // Total transactions across batches.
  std::uint64_t transaction_count() const;
  // Approximate wire size (header + batches); used for bandwidth modelling.
  std::uint64_t wire_bytes() const;
  // Transaction bytes across batches (TxBatch::wire_bytes).
  std::uint64_t payload_bytes() const;

  // Wire codec: the content (domain tag, header, parents, coin share and
  // batches with their payload bytes inline) followed by the 64-byte
  // signature. serialize_into() appends exactly encoded_size() bytes, so
  // callers that frame a block (network, WAL, checkpoints) size one buffer
  // up front and encode into it once. deserialize() accepts only canonical
  // encodings (serde rejects overlong varints; every other field is
  // fixed-width), so each wire image has one decoding; it hashes every
  // payload once, then the digest preimage. It performs structural decoding
  // only (no semantic validation — see types/validation.h).
  std::size_t encoded_size() const;
  void serialize_into(serde::Writer& w) const;
  Bytes serialize() const;
  static Block deserialize(BytesView data);

  bool operator==(const Block& other) const { return digest_ == other.digest_; }

 private:
  Block() = default;

  // Domain tag, author, round, timestamp, parents and coin share: the
  // leading fields of both the wire content and the digest preimage.
  std::size_t header_size() const;
  void write_header(serde::Writer& w) const;
  // Wire content: the header, then every batch in full.
  std::size_t content_size() const;
  void write_content(serde::Writer& w) const;
  // Fills each batch's missing payload_digest, then sets the digest:
  // crypto::bulk_hash256 of the preimage, which is the header followed by
  // every batch with its payload replaced by length and payload digest
  // (TxBatch::serialize_digested).
  void finalize_digest();

  ValidatorId author_ = 0;
  Round round_ = 0;
  TimeMicros created_at_ = 0;
  std::vector<BlockRef> parents_;
  std::vector<TxBatch> batches_;
  crypto::CoinShare coin_share_;
  crypto::Ed25519Signature signature_;
  Digest digest_;
};

// Blocks are shared widely (DAG store, pending buffers, commit outputs);
// they are reference-counted and immutable.
using BlockPtr = std::shared_ptr<const Block>;

}  // namespace mahimahi
