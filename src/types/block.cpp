#include "types/block.h"

#include "crypto/blake2bp.h"

namespace mahimahi {

namespace {
// v2 added the author creation timestamp to the digested content, v3 moved
// large content to BLAKE2bp-256, and v4 digests each payload through its
// payload digest instead of its bytes.
constexpr std::string_view kDigestDomain = "mahi-mahi/block/v4";
}

Block Block::make(ValidatorId author, Round round, std::vector<BlockRef> parents,
                  std::vector<TxBatch> batches, crypto::CoinShare coin_share,
                  const crypto::Ed25519PrivateKey& key, TimeMicros created_at) {
  Block b;
  b.author_ = author;
  b.round_ = round;
  b.created_at_ = created_at < 0 ? 0 : created_at;
  b.parents_ = std::move(parents);
  b.batches_ = std::move(batches);
  b.coin_share_ = coin_share;
  b.finalize_digest();
  b.signature_ = crypto::ed25519_sign(key, b.digest_.view());
  return b;
}

Block Block::genesis(ValidatorId author, const crypto::ThresholdCoin& coin) {
  Block b;
  b.author_ = author;
  b.round_ = 0;
  b.coin_share_ = coin.share(author, 0);
  b.finalize_digest();
  // Genesis carries no signature; it is constructed locally by everyone.
  return b;
}

std::uint64_t Block::transaction_count() const {
  std::uint64_t total = 0;
  for (const auto& batch : batches_) total += batch.count;
  return total;
}

std::uint64_t Block::wire_bytes() const {
  // Header approximation: author, round, timestamp, parents, coin share,
  // signature.
  return 4 + 9 + 9 + parents_.size() * 44 + 32 + 64 + batches_.size() * 24 + payload_bytes();
}

std::uint64_t Block::payload_bytes() const {
  std::uint64_t total = 0;
  for (const auto& batch : batches_) total += batch.wire_bytes();
  return total;
}

std::size_t Block::header_size() const {
  std::size_t size = kDigestDomain.size() + 4 + serde::varint_size(round_) +
                     serde::varint_size(static_cast<std::uint64_t>(created_at_)) +
                     serde::varint_size(parents_.size());
  for (const auto& parent : parents_) size += serde::varint_size(parent.round) + 4 + 32;
  return size + 32;
}

void Block::write_header(serde::Writer& w) const {
  w.raw(as_bytes_view(kDigestDomain));
  w.u32(author_);
  w.varint(round_);
  w.varint(static_cast<std::uint64_t>(created_at_));
  w.varint(parents_.size());
  for (const auto& parent : parents_) {
    w.varint(parent.round);
    w.u32(parent.author);
    w.digest(parent.digest);
  }
  w.digest(coin_share_);
}

std::size_t Block::content_size() const {
  std::size_t size = header_size() + serde::varint_size(batches_.size());
  for (const auto& batch : batches_) size += batch.encoded_size();
  return size;
}

void Block::write_content(serde::Writer& w) const {
  write_header(w);
  w.varint(batches_.size());
  for (const auto& batch : batches_) batch.serialize(w);
}

void Block::finalize_digest() {
  std::size_t size = header_size() + serde::varint_size(batches_.size());
  for (auto& batch : batches_) {
    if (!batch.payload_digest) batch.payload_digest = TxBatch::hash_payload(batch.payload);
    size += batch.digested_size();
  }
  serde::Writer w(size);
  write_header(w);
  w.varint(batches_.size());
  for (const auto& batch : batches_) batch.serialize_digested(w);
  digest_ = crypto::bulk_hash256({w.data().data(), w.size()});
}

std::size_t Block::encoded_size() const {
  return content_size() + signature_.bytes.size();
}

void Block::serialize_into(serde::Writer& w) const {
  write_content(w);
  w.raw({signature_.bytes.data(), signature_.bytes.size()});
}

Bytes Block::serialize() const {
  serde::Writer w(encoded_size());
  serialize_into(w);
  return std::move(w).take();
}

Block Block::deserialize(BytesView data) {
  serde::Reader r(data);
  const BytesView domain = r.raw(kDigestDomain.size());
  if (!std::equal(domain.begin(), domain.end(), kDigestDomain.begin(),
                  kDigestDomain.end())) {
    throw serde::SerdeError("bad block domain tag");
  }
  Block b;
  b.author_ = r.u32();
  b.round_ = r.varint();
  b.created_at_ = static_cast<TimeMicros>(r.varint());
  const std::uint64_t parent_count = r.varint();
  if (parent_count > 1 << 20) throw serde::SerdeError("absurd parent count");
  b.parents_.reserve(parent_count);
  for (std::uint64_t i = 0; i < parent_count; ++i) {
    BlockRef ref;
    ref.round = r.varint();
    ref.author = r.u32();
    ref.digest = r.digest();
    b.parents_.push_back(ref);
  }
  b.coin_share_ = r.digest();
  const std::uint64_t batch_count = r.varint();
  if (batch_count > 1 << 24) throw serde::SerdeError("absurd batch count");
  b.batches_.reserve(batch_count);
  for (std::uint64_t i = 0; i < batch_count; ++i) b.batches_.push_back(TxBatch::deserialize(r));
  const BytesView sig = r.raw(64);
  std::copy(sig.begin(), sig.end(), b.signature_.bytes.begin());
  r.expect_done();
  b.finalize_digest();
  return b;
}

}  // namespace mahimahi
