// Transactions are carried in batches.
//
// The paper's benchmarks submit 512-byte opaque transactions in an open loop.
// Carrying hundreds of thousands of individual 512-byte payloads through the
// simulator would dominate memory and time without changing protocol
// behaviour, so the unit of carriage is a batch: `count` transactions of
// `tx_bytes` each, submitted together at `submitted_at`. The real payload is
// optional (examples and the TCP path carry actual bytes; the high-rate
// simulator leaves it empty and accounts `count * tx_bytes` for bandwidth).
// Latency metrics weight each batch sample by `count`.
//
// A block's digest covers each batch's payload through its payload digest
// (hash_payload), not through the bytes, so a node hashes a payload once:
// the mempool at admission, or Block::deserialize on receipt.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/time.h"
#include "crypto/digest.h"
#include "serde/serde.h"

namespace mahimahi {

struct TxBatch {
  std::uint64_t id = 0;            // unique per submitting client
  TimeMicros submitted_at = 0;     // client submit timestamp
  std::uint32_t count = 1;         // transactions represented by this batch
  std::uint32_t tx_bytes = 512;    // bytes per transaction
  Bytes payload;                   // optional real payload

  // Declared access sets for conflict-aware parallel execution (exec/).
  // A client that knows which keys its commands touch declares them here so
  // the execution scheduler can place the batch without decoding the payload
  // first. Both empty = undeclared: the executor derives the sets itself for
  // KV payloads and treats any other non-empty payload as conflicting with
  // everything (exec/access.h). Declared sets are enforced at execution time
  // — a KV batch whose commands escape its declaration is demoted to the
  // conservative conflict class, never executed in parallel.
  std::vector<std::string> read_keys;
  std::vector<std::string> write_keys;

  // Cache of hash_payload(payload). ShardedMempool::submit always recomputes
  // it, Block::make fills it where missing and Block::deserialize computes
  // it, so every batch inside a Block carries it. Never on the wire; not part
  // of equality.
  std::optional<Digest> payload_digest;

  // The one payload-digest rule: crypto::bulk_hash256(payload). An empty
  // payload (the sims' batches) maps to a constant, computed once.
  static Digest hash_payload(BytesView payload);

  // Every field but the payload_digest cache.
  bool operator==(const TxBatch& other) const {
    return id == other.id && submitted_at == other.submitted_at && count == other.count &&
           tx_bytes == other.tx_bytes && payload == other.payload &&
           read_keys == other.read_keys && write_keys == other.write_keys;
  }

  // Bytes this batch occupies on the wire (used for bandwidth modelling and
  // block size caps).
  std::uint64_t wire_bytes() const {
    return payload.empty() ? static_cast<std::uint64_t>(count) * tx_bytes
                           : payload.size();
  }

  // Exact size of serialize()'s output.
  std::size_t encoded_size() const {
    return 8 + 8 + 4 + 4 + serde::varint_size(payload.size()) + payload.size() +
           keys_size(read_keys) + keys_size(write_keys);
  }

  void serialize(serde::Writer& w) const { write_fields(w, /*digested=*/false); }

  // The batch's part of a block's digest preimage (types/block.h):
  // serialize() with the payload bytes replaced by their length and
  // payload_digest, which must be set.
  std::size_t digested_size() const { return encoded_size() - payload.size() + 32; }

  void serialize_digested(serde::Writer& w) const { write_fields(w, /*digested=*/true); }

  static TxBatch deserialize(serde::Reader& r) {
    TxBatch b;
    b.id = r.u64();
    b.submitted_at = static_cast<TimeMicros>(r.u64());
    b.count = r.u32();
    b.tx_bytes = r.u32();
    b.payload = r.bytes();
    b.read_keys = deserialize_keys(r);
    b.write_keys = deserialize_keys(r);
    return b;
  }

 private:
  void write_fields(serde::Writer& w, bool digested) const {
    w.u64(id);
    w.u64(static_cast<std::uint64_t>(submitted_at));
    w.u32(count);
    w.u32(tx_bytes);
    if (digested) {
      w.varint(payload.size());
      w.digest(payload_digest.value());
    } else {
      w.bytes({payload.data(), payload.size()});
    }
    serialize_keys(w, read_keys);
    serialize_keys(w, write_keys);
  }

  static std::size_t keys_size(const std::vector<std::string>& keys) {
    std::size_t size = serde::varint_size(keys.size());
    for (const std::string& key : keys) size += serde::varint_size(key.size()) + key.size();
    return size;
  }

  static void serialize_keys(serde::Writer& w, const std::vector<std::string>& keys) {
    w.varint(keys.size());
    for (const std::string& key : keys) w.bytes(as_bytes_view(key));
  }

  static std::vector<std::string> deserialize_keys(serde::Reader& r) {
    const std::uint64_t n = r.varint();
    std::vector<std::string> keys;
    // Reserve is capped: a hostile length prefix must not pre-allocate
    // unbounded memory (the loop below still fails fast on truncated input).
    keys.reserve(std::min<std::uint64_t>(n, 1024));
    for (std::uint64_t i = 0; i < n; ++i) {
      const Bytes raw = r.bytes();
      keys.emplace_back(raw.begin(), raw.end());
    }
    return keys;
  }
};

}  // namespace mahimahi
