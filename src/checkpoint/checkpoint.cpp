#include "checkpoint/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <unordered_set>

#include "checkpoint/cert.h"
#include "checkpoint/delta.h"
#include "common/crc32.h"
#include "common/fsio.h"
#include "common/log.h"
#include "serde/serde.h"
#include "validator/ingest.h"
#include "wal/wal.h"

namespace mahimahi {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x4d4d434b;  // "MMCK"
constexpr std::uint8_t kCheckpointVersion = 1;

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

void write_ref(serde::Writer& w, const BlockRef& ref) {
  w.varint(ref.round);
  w.u32(ref.author);
  w.digest(ref.digest);
}

BlockRef read_ref(serde::Reader& r) {
  BlockRef ref;
  ref.round = r.varint();
  ref.author = r.u32();
  ref.digest = r.digest();
  return ref;
}

}  // namespace

Bytes encode_checkpoint(const CheckpointData& data) {
  serde::Writer w;
  w.u32(kCheckpointMagic);
  w.u8(kCheckpointVersion);
  w.u64(data.sequence);
  w.u32(data.author);
  w.varint(data.horizon);
  write_slot(w, data.head);
  w.varint(data.last_proposed_round);

  w.varint(data.decided.size());
  for (const auto& d : data.decided) {
    write_slot(w, d.slot);
    w.u32(d.leader);
    w.u8(static_cast<std::uint8_t>(d.kind));
    w.u8(static_cast<std::uint8_t>(d.via));
    if (d.kind == SlotDecision::Kind::kCommit) write_ref(w, d.ref);
  }

  w.varint(data.delivered.size());
  for (const auto& [digest, round] : data.delivered) {
    w.digest(digest);
    w.varint(round);
  }

  w.varint(data.blocks.size());
  for (const BlockPtr& block : data.blocks) {
    w.varint(block->encoded_size());
    block->serialize_into(w);
  }

  w.bytes({data.app_state.data(), data.app_state.size()});
  w.digest(data.app_digest);

  return wal_frame_record({w.data().data(), w.data().size()});
}

CheckpointData decode_checkpoint(BytesView encoded) {
  serde::Reader framing(encoded);
  const std::uint32_t len = framing.u32();
  const std::uint32_t crc = framing.u32();
  if (len != framing.remaining()) {
    throw serde::SerdeError("checkpoint: frame length mismatch");
  }
  const BytesView payload = framing.raw(len);
  if (crc32(payload) != crc) throw serde::SerdeError("checkpoint: CRC mismatch");

  serde::Reader r(payload);
  if (r.u32() != kCheckpointMagic) throw serde::SerdeError("checkpoint: bad magic");
  if (r.u8() != kCheckpointVersion) throw serde::SerdeError("checkpoint: bad version");

  CheckpointData data;
  data.sequence = r.u64();
  data.author = r.u32();
  data.horizon = r.varint();
  data.head = read_slot(r);
  data.last_proposed_round = r.varint();

  // Element counts come off the wire (snapshot catch-up), so they are
  // attacker-controlled: bound each against the bytes actually present
  // (count * minimum encoded element size must fit in what remains) BEFORE
  // reserving. A claimed 2^60 elements must be a SerdeError the caller
  // already handles, not a std::length_error out of vector::reserve.
  const std::uint64_t decided_count = r.varint();
  constexpr std::size_t kMinDecidedBytes = 11;  // slot(1+4) + leader(4) + kind + via
  if (decided_count > r.remaining() / kMinDecidedBytes) {
    throw serde::SerdeError("checkpoint: decided count exceeds payload");
  }
  data.decided.reserve(decided_count);
  for (std::uint64_t i = 0; i < decided_count; ++i) {
    DecidedSlot d;
    d.slot = read_slot(r);
    d.leader = r.u32();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(SlotDecision::Kind::kSkip)) {
      throw serde::SerdeError("checkpoint: bad decision kind");
    }
    d.kind = static_cast<SlotDecision::Kind>(kind);
    const std::uint8_t via = r.u8();
    if (via > static_cast<std::uint8_t>(SlotDecision::Via::kIndirect)) {
      throw serde::SerdeError("checkpoint: bad decision via");
    }
    d.via = static_cast<SlotDecision::Via>(via);
    if (d.kind == SlotDecision::Kind::kCommit) d.ref = read_ref(r);
    data.decided.push_back(d);
  }

  const std::uint64_t delivered_count = r.varint();
  constexpr std::size_t kMinDeliveredBytes = 33;  // digest(32) + round varint(1)
  if (delivered_count > r.remaining() / kMinDeliveredBytes) {
    throw serde::SerdeError("checkpoint: delivered count exceeds payload");
  }
  data.delivered.reserve(delivered_count);
  for (std::uint64_t i = 0; i < delivered_count; ++i) {
    const Digest digest = r.digest();
    data.delivered.emplace_back(digest, r.varint());
  }

  const std::uint64_t block_count = r.varint();
  if (block_count > r.remaining()) {  // each block costs at least its length varint
    throw serde::SerdeError("checkpoint: block count exceeds payload");
  }
  data.blocks.reserve(block_count);
  for (std::uint64_t i = 0; i < block_count; ++i) {
    const std::uint64_t block_len = r.varint();
    if (block_len > r.remaining()) {
      throw serde::SerdeError("checkpoint: block length exceeds payload");
    }
    data.blocks.push_back(std::make_shared<const Block>(
        Block::deserialize(r.raw(static_cast<std::size_t>(block_len)))));
  }

  data.app_state = r.bytes();
  data.app_digest = r.digest();
  r.expect_done();
  return data;
}

std::string verify_checkpoint(const CheckpointData& data, const Committee& committee,
                              const CommitterOptions& options,
                              const ValidationOptions& validation,
                              VerifierCache* cache) {
  // The decided log must be EXACTLY the slot-successor chain from the first
  // slot to the head — a head the log does not account for slot-by-slot is
  // fabricated. (What each decision SAYS below the horizon is the trust gap
  // documented in the header; its shape at least cannot lie.)
  SlotId expected{options.first_slot_round, 0};
  for (const auto& d : data.decided) {
    if (d.kind == SlotDecision::Kind::kUndecided) return "undecided slot in log";
    if (d.slot != expected) return "log is not the contiguous slot chain";
    expected = d.slot.leader_offset + 1 < options.leaders_per_round
                   ? SlotId{d.slot.round, d.slot.leader_offset + 1}
                   : SlotId{d.slot.round + options.wave_stride, 0};
  }
  if (expected != data.head) return "decided log does not reach the head";

  // The suffix: round-ascending, at or above the horizon, structurally valid.
  Round previous = 0;
  for (const BlockPtr& block : data.blocks) {
    if (block->round() < data.horizon || block->round() == 0) {
      return "suffix block below horizon";
    }
    if (block->round() < previous) return "suffix not round-ascending";
    previous = block->round();
    const BlockValidity structural = validate_block_structure(*block, committee);
    if (structural != BlockValidity::kValid) {
      return "suffix block invalid: " + to_string(structural);
    }
  }

  // Every committed slot at or above the horizon must be backed by a block
  // in the suffix — the analogue of checking the snapshot against the
  // committed chain: an installed committer must be able to point at the
  // agreed leader blocks it claims were committed.
  std::unordered_set<Digest, DigestHasher> suffix;
  for (const BlockPtr& block : data.blocks) suffix.insert(block->digest());
  for (const auto& d : data.decided) {
    if (d.kind != SlotDecision::Kind::kCommit) continue;
    if (d.ref.round >= data.horizon && !suffix.contains(d.ref.digest)) {
      return "committed block missing from suffix";
    }
  }

  // Crypto last (the expensive part): batched coin/signature verification of
  // the whole suffix, exactly what live ingestion would have paid.
  const CryptoStageResult stage =
      run_crypto_stage(data.blocks, committee, validation, cache);
  for (std::size_t i = 0; i < data.blocks.size(); ++i) {
    if (stage.verdicts[i] != BlockValidity::kValid) {
      return "suffix block failed crypto: " + to_string(stage.verdicts[i]);
    }
  }
  return {};
}

// --- CheckpointStore ---------------------------------------------------------

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

std::string CheckpointStore::checkpoint_path(const std::string& dir,
                                             std::uint64_t sequence) {
  char name[40];
  std::snprintf(name, sizeof(name), "ckpt-%012" PRIu64 ".ckpt", sequence);
  return (std::filesystem::path(dir) / name).string();
}

std::string CheckpointStore::delta_path(const std::string& dir,
                                        std::uint64_t sequence) {
  char name[40];
  std::snprintf(name, sizeof(name), "dlta-%012" PRIu64 ".dlta", sequence);
  return (std::filesystem::path(dir) / name).string();
}

std::string CheckpointStore::cert_path(const std::string& dir,
                                       std::uint64_t sequence) {
  char name[40];
  std::snprintf(name, sizeof(name), "cert-%012" PRIu64 ".cert", sequence);
  return (std::filesystem::path(dir) / name).string();
}

namespace {

std::vector<std::uint64_t> list_indexed(const std::string& dir,
                                        std::string_view prefix,
                                        std::string_view suffix) {
  std::vector<std::uint64_t> sequences;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const auto sequence = parse_indexed_name(entry.path().filename().string(),
                                             prefix, suffix, /*pad_width=*/12);
    if (sequence.has_value()) sequences.push_back(*sequence);
  }
  std::sort(sequences.begin(), sequences.end());
  return sequences;
}

std::optional<Bytes> read_whole_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  Bytes bytes(size > 0 ? static_cast<std::size_t>(size) : 0);
  const bool read_ok =
      std::fread(bytes.data(), 1, bytes.size(), file) == bytes.size();
  std::fclose(file);
  if (!read_ok) return std::nullopt;
  return bytes;
}

}  // namespace

std::vector<std::uint64_t> CheckpointStore::list(const std::string& dir) {
  return list_indexed(dir, "ckpt-", ".ckpt");
}

std::vector<std::uint64_t> CheckpointStore::list_deltas(const std::string& dir) {
  return list_indexed(dir, "dlta-", ".dlta");
}

void CheckpointStore::write(std::uint64_t sequence, BytesView encoded) {
  // The rename inside is the commit point: a crash before it leaves at most
  // a tmp file, which no reader ever looks at. The helper also fsyncs the
  // directory, so the rename itself survives power loss — the subsequent
  // retirement of older checkpoints and WAL segments relies on it.
  write_file_atomic(checkpoint_path(dir_, sequence), encoded, "CheckpointStore");
}

void CheckpointStore::write_delta(std::uint64_t sequence, BytesView encoded) {
  write_file_atomic(delta_path(dir_, sequence), encoded, "CheckpointStore");
}

void CheckpointStore::write_cert(std::uint64_t sequence, BytesView encoded) {
  write_file_atomic(cert_path(dir_, sequence), encoded, "CheckpointStore");
}

std::optional<std::pair<std::uint64_t, Bytes>> CheckpointStore::newest_valid_bytes()
    const {
  auto sequences = list(dir_);
  for (auto it = sequences.rbegin(); it != sequences.rend(); ++it) {
    auto bytes = read_whole_file(checkpoint_path(dir_, *it));
    if (!bytes.has_value()) continue;
    // std::exception, not just SerdeError: a corrupt file can also surface
    // as an allocation failure (e.g. Block::deserialize on garbage), and
    // recovery must fall back a checkpoint, not die.
    try {
      decode_checkpoint({bytes->data(), bytes->size()});  // CRC + shape gate
    } catch (const std::exception& error) {
      MM_LOG(kWarn) << "CheckpointStore: falling back past corrupt checkpoint "
                    << *it << ": " << error.what();
      continue;
    }
    return std::make_pair(*it, std::move(*bytes));
  }
  return std::nullopt;
}

std::vector<CheckpointStore::ChainLink> CheckpointStore::newest_valid_chain()
    const {
  const auto bases = list(dir_);
  const auto deltas = list_deltas(dir_);
  const auto load_cert = [&](std::uint64_t sequence) -> Bytes {
    auto bytes = read_whole_file(cert_path(dir_, sequence));
    if (!bytes.has_value()) return {};
    try {
      decode_checkpoint_certificate({bytes->data(), bytes->size()});
    } catch (const std::exception&) {
      return {};  // a corrupt sidecar degrades to "uncertified", never fails
    }
    return std::move(*bytes);
  };

  for (auto it = bases.rbegin(); it != bases.rend(); ++it) {
    auto base_bytes = read_whole_file(checkpoint_path(dir_, *it));
    if (!base_bytes.has_value()) continue;
    std::uint64_t prev_sequence = *it;
    SlotId prev_head;
    try {
      prev_head = decode_checkpoint({base_bytes->data(), base_bytes->size()}).head;
    } catch (const std::exception& error) {
      MM_LOG(kWarn) << "CheckpointStore: falling back past corrupt checkpoint "
                    << *it << ": " << error.what();
      continue;
    }

    std::vector<ChainLink> chain;
    chain.push_back({*it, std::move(*base_bytes), load_cert(*it)});
    for (std::uint64_t seq = *it + 1;
         std::binary_search(deltas.begin(), deltas.end(), seq); ++seq) {
      auto delta_bytes = read_whole_file(delta_path(dir_, seq));
      if (!delta_bytes.has_value()) break;
      try {
        const CheckpointDelta delta =
            decode_checkpoint_delta({delta_bytes->data(), delta_bytes->size()});
        if (delta.base_sequence != *it || delta.prev_sequence != prev_sequence ||
            delta.prev_head != prev_head) {
          break;  // stray link from another lineage
        }
        prev_head = delta.head;
      } catch (const std::exception& error) {
        // A torn delta tail truncates the chain here: the shorter chain plus
        // WAL segment replay still reconstructs a consistent state.
        MM_LOG(kWarn) << "CheckpointStore: truncating chain at corrupt delta "
                      << seq << ": " << error.what();
        break;
      }
      prev_sequence = seq;
      chain.push_back({seq, std::move(*delta_bytes), load_cert(seq)});
    }
    return chain;
  }
  return {};
}

std::optional<CheckpointData> CheckpointStore::load_newest_valid() const {
  auto chain = newest_valid_chain();
  while (!chain.empty()) {
    try {
      CheckpointData data =
          decode_checkpoint({chain[0].record.data(), chain[0].record.size()});
      for (std::size_t i = 1; i < chain.size(); ++i) {
        apply_checkpoint_delta(
            data, decode_checkpoint_delta(
                      {chain[i].record.data(), chain[i].record.size()}));
      }
      return data;
    } catch (const std::exception& error) {
      // Linkage passed but replay failed (e.g. malformed app delta): drop
      // the newest link and retry with the shorter chain.
      MM_LOG(kWarn) << "CheckpointStore: chain replay failed, shortening: "
                    << error.what();
      chain.pop_back();
    }
  }
  return std::nullopt;
}

void CheckpointStore::retire(std::size_t keep) {
  const auto bases = list(dir_);
  if (bases.size() <= keep) return;
  const auto deltas = list_deltas(dir_);
  // Chains are grouped by base: every delta sequence below the oldest kept
  // base belongs to a retired chain. Unlink retired deltas (newest first)
  // BEFORE any base: at every intermediate crash point the newest surviving
  // chain is still loadable — a base whose delta tail is gone is a valid
  // one-link chain, and no live delta ever outlives its base.
  const std::uint64_t keep_from = bases[bases.size() - keep];
  const auto unlink = [](const std::string& path) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  };
  for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) {
    if (*it >= keep_from) continue;
    unlink(delta_path(dir_, *it));
    unlink(cert_path(dir_, *it));
  }
  for (auto it = bases.rbegin(); it != bases.rend(); ++it) {
    if (*it >= keep_from) continue;
    unlink(checkpoint_path(dir_, *it));
    unlink(cert_path(dir_, *it));
  }
  // One directory fsync covers the whole batch of unlinks (common/fsio):
  // after power loss either view is consistent, since unlink order above
  // keeps every prefix loadable.
  fsync_dir(dir_);
}

}  // namespace mahimahi
