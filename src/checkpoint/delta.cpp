#include "checkpoint/delta.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "app/kv_store.h"
#include "common/crc32.h"
#include "serde/serde.h"
#include "wal/wal.h"

namespace mahimahi {

namespace {

constexpr std::uint32_t kDeltaMagic = 0x4d4d4344;  // "MMCD"
constexpr std::uint8_t kDeltaVersion = 1;

void write_slot(serde::Writer& w, SlotId slot) {
  w.varint(slot.round);
  w.u32(slot.leader_offset);
}

SlotId read_slot(serde::Reader& r) {
  SlotId slot;
  slot.round = r.varint();
  slot.leader_offset = r.u32();
  return slot;
}

void write_decided(serde::Writer& w,
                   std::span<const DecidedSlot> decided) {
  w.varint(decided.size());
  for (const auto& d : decided) {
    write_slot(w, d.slot);
    w.u32(d.leader);
    w.u8(static_cast<std::uint8_t>(d.kind));
    w.u8(static_cast<std::uint8_t>(d.via));
    if (d.kind == SlotDecision::Kind::kCommit) {
      w.varint(d.ref.round);
      w.u32(d.ref.author);
      w.digest(d.ref.digest);
    }
  }
}

std::vector<DecidedSlot> read_decided(serde::Reader& r) {
  const std::uint64_t count = r.varint();
  constexpr std::size_t kMinDecidedBytes = 11;  // slot(1+4) + leader(4) + kind + via
  if (count > r.remaining() / kMinDecidedBytes) {
    throw serde::SerdeError("delta: decided count exceeds payload");
  }
  std::vector<DecidedSlot> decided;
  decided.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    DecidedSlot d;
    d.slot = read_slot(r);
    d.leader = r.u32();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(SlotDecision::Kind::kSkip)) {
      throw serde::SerdeError("delta: bad decision kind");
    }
    d.kind = static_cast<SlotDecision::Kind>(kind);
    const std::uint8_t via = r.u8();
    if (via > static_cast<std::uint8_t>(SlotDecision::Via::kIndirect)) {
      throw serde::SerdeError("delta: bad decision via");
    }
    d.via = static_cast<SlotDecision::Via>(via);
    if (d.kind == SlotDecision::Kind::kCommit) {
      d.ref.round = r.varint();
      d.ref.author = r.u32();
      d.ref.digest = r.digest();
    }
    decided.push_back(d);
  }
  return decided;
}

}  // namespace

Bytes encode_checkpoint_delta(const CheckpointDelta& delta) {
  serde::Writer w;
  w.u32(kDeltaMagic);
  w.u8(kDeltaVersion);
  w.u64(delta.sequence);
  w.u64(delta.prev_sequence);
  w.u64(delta.base_sequence);
  w.u32(delta.author);
  w.varint(delta.horizon);
  write_slot(w, delta.prev_head);
  write_slot(w, delta.head);
  w.varint(delta.last_proposed_round);

  write_decided(w, delta.decided_suffix);

  w.varint(delta.delivered.size());
  for (const auto& [digest, round] : delta.delivered) {
    w.digest(digest);
    w.varint(round);
  }

  w.varint(delta.blocks_added.size());
  for (const BlockPtr& block : delta.blocks_added) {
    w.varint(block->encoded_size());
    block->serialize_into(w);
  }

  w.bytes({delta.app_delta.data(), delta.app_delta.size()});
  w.digest(delta.app_digest);

  return wal_frame_record({w.data().data(), w.data().size()});
}

CheckpointDelta decode_checkpoint_delta(BytesView encoded) {
  serde::Reader framing(encoded);
  const std::uint32_t len = framing.u32();
  const std::uint32_t crc = framing.u32();
  if (len != framing.remaining()) {
    throw serde::SerdeError("delta: frame length mismatch");
  }
  const BytesView payload = framing.raw(len);
  if (crc32(payload) != crc) throw serde::SerdeError("delta: CRC mismatch");

  serde::Reader r(payload);
  if (r.u32() != kDeltaMagic) throw serde::SerdeError("delta: bad magic");
  if (r.u8() != kDeltaVersion) throw serde::SerdeError("delta: bad version");

  CheckpointDelta delta;
  delta.sequence = r.u64();
  delta.prev_sequence = r.u64();
  delta.base_sequence = r.u64();
  delta.author = r.u32();
  delta.horizon = r.varint();
  delta.prev_head = read_slot(r);
  delta.head = read_slot(r);
  delta.last_proposed_round = r.varint();

  delta.decided_suffix = read_decided(r);

  const std::uint64_t delivered_count = r.varint();
  constexpr std::size_t kMinDeliveredBytes = 33;  // digest(32) + round varint(1)
  if (delivered_count > r.remaining() / kMinDeliveredBytes) {
    throw serde::SerdeError("delta: delivered count exceeds payload");
  }
  delta.delivered.reserve(delivered_count);
  for (std::uint64_t i = 0; i < delivered_count; ++i) {
    const Digest digest = r.digest();
    delta.delivered.emplace_back(digest, r.varint());
  }

  const std::uint64_t block_count = r.varint();
  if (block_count > r.remaining()) {
    throw serde::SerdeError("delta: block count exceeds payload");
  }
  delta.blocks_added.reserve(block_count);
  for (std::uint64_t i = 0; i < block_count; ++i) {
    const std::uint64_t block_len = r.varint();
    if (block_len > r.remaining()) {
      throw serde::SerdeError("delta: block length exceeds payload");
    }
    delta.blocks_added.push_back(std::make_shared<const Block>(
        Block::deserialize(r.raw(static_cast<std::size_t>(block_len)))));
  }

  delta.app_delta = r.bytes();
  delta.app_digest = r.digest();
  r.expect_done();
  return delta;
}

bool is_checkpoint_delta(BytesView encoded) {
  try {
    serde::Reader framing(encoded);
    framing.u32();  // length
    framing.u32();  // crc
    serde::Reader r(framing.raw(
        std::min<std::size_t>(framing.remaining(), sizeof(std::uint32_t))));
    return r.u32() == kDeltaMagic;
  } catch (const serde::SerdeError&) {
    return false;
  }
}

CheckpointDelta make_checkpoint_delta(const CheckpointData& prev,
                                      const CheckpointData& next,
                                      std::uint64_t base_sequence,
                                      Bytes app_delta) {
  if (prev.author != next.author) {
    throw std::invalid_argument("delta: author mismatch");
  }
  if (next.head < prev.head || next.horizon < prev.horizon) {
    throw std::invalid_argument("delta: cut regressed");
  }
  if (next.decided.size() < prev.decided.size()) {
    throw std::invalid_argument("delta: decided log shrank");
  }
  for (std::size_t i = 0; i < prev.decided.size(); ++i) {
    if (!same_outcome(prev.decided[i], next.decided[i])) {
      throw std::invalid_argument("delta: decided log is not an extension");
    }
  }

  CheckpointDelta delta;
  delta.sequence = next.sequence;
  delta.prev_sequence = prev.sequence;
  delta.base_sequence = base_sequence;
  delta.author = next.author;
  delta.horizon = next.horizon;
  delta.prev_head = prev.head;
  delta.head = next.head;
  delta.last_proposed_round = next.last_proposed_round;
  delta.decided_suffix.assign(next.decided.begin() + prev.decided.size(),
                              next.decided.end());
  delta.delivered = next.delivered;

  std::unordered_set<Digest, DigestHasher> prev_blocks;
  prev_blocks.reserve(prev.blocks.size());
  for (const BlockPtr& block : prev.blocks) prev_blocks.insert(block->digest());
  for (const BlockPtr& block : next.blocks) {
    if (!prev_blocks.contains(block->digest())) delta.blocks_added.push_back(block);
  }

  delta.app_delta = std::move(app_delta);
  delta.app_digest = next.app_digest;
  return delta;
}

void apply_checkpoint_delta(CheckpointData& data, const CheckpointDelta& delta) {
  if (delta.author != data.author) {
    throw std::invalid_argument("delta apply: author mismatch");
  }
  if (delta.prev_sequence != data.sequence) {
    throw std::invalid_argument("delta apply: sequence linkage mismatch");
  }
  if (delta.prev_head != data.head) {
    throw std::invalid_argument("delta apply: head linkage mismatch");
  }
  if (delta.head < delta.prev_head || delta.horizon < data.horizon) {
    throw std::invalid_argument("delta apply: link regressed");
  }

  data.sequence = delta.sequence;
  data.horizon = delta.horizon;
  data.head = delta.head;
  data.last_proposed_round = delta.last_proposed_round;
  data.decided.insert(data.decided.end(), delta.decided_suffix.begin(),
                      delta.decided_suffix.end());
  data.delivered = delta.delivered;

  // New suffix = surviving old blocks (round >= the new horizon) merged with
  // the added ones; both inputs are round-ascending, so a merge keeps the
  // order verify_checkpoint and install expect (parents before children).
  std::vector<BlockPtr> survivors;
  survivors.reserve(data.blocks.size());
  for (BlockPtr& block : data.blocks) {
    if (block->round() >= delta.horizon) survivors.push_back(std::move(block));
  }
  std::vector<BlockPtr> merged;
  merged.reserve(survivors.size() + delta.blocks_added.size());
  std::merge(survivors.begin(), survivors.end(), delta.blocks_added.begin(),
             delta.blocks_added.end(), std::back_inserter(merged),
             [](const BlockPtr& a, const BlockPtr& b) {
               return a->round() < b->round();
             });
  data.blocks = std::move(merged);

  if (delta.app_delta.empty()) {
    if (!data.app_state.empty()) {
      throw std::invalid_argument("delta apply: app delta missing");
    }
  } else {
    app::KvStore store = data.app_state.empty()
                             ? app::KvStore{}
                             : app::KvStore::restore(
                                   {data.app_state.data(), data.app_state.size()});
    store.apply_delta({delta.app_delta.data(), delta.app_delta.size()});
    data.app_state = store.snapshot_bytes();
  }
  data.app_digest = delta.app_digest;
}

void truncate_checkpoint(CheckpointData& data, SlotId boundary,
                         std::span<const Digest> delivered_after_boundary) {
  const auto cut = std::lower_bound(
      data.decided.begin(), data.decided.end(), boundary,
      [](const DecidedSlot& d, SlotId b) { return d.slot < b; });
  data.decided.erase(cut, data.decided.end());
  data.head = boundary;

  if (!delivered_after_boundary.empty()) {
    std::unordered_set<Digest, DigestHasher> drop(
        delivered_after_boundary.begin(), delivered_after_boundary.end());
    std::erase_if(data.delivered,
                  [&](const auto& mark) { return drop.contains(mark.first); });
  }
}

// --- Chain wire frame --------------------------------------------------------

Bytes encode_checkpoint_chain_frame(
    const std::vector<std::pair<BytesView, BytesView>>& links) {
  serde::Writer w;
  w.varint(links.size());
  for (const auto& [record, cert] : links) {
    w.bytes(record);
    w.bytes(cert);
  }
  return std::move(w).take();
}

CheckpointChainFrame decode_checkpoint_chain_frame(BytesView payload) {
  serde::Reader r(payload);
  const std::uint64_t count = r.varint();
  // Each link costs at least its two length varints; the records themselves
  // re-validate under their own CRC framing.
  if (count > r.remaining() / 2) {
    throw serde::SerdeError("chain frame: link count exceeds payload");
  }
  CheckpointChainFrame frame;
  frame.links.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    CheckpointChainFrame::Link link;
    link.record = r.bytes();
    link.cert = r.bytes();
    frame.links.push_back(std::move(link));
  }
  r.expect_done();
  return frame;
}

}  // namespace mahimahi
