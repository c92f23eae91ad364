// Checkpoint subsystem tests (checkpoint/): segmented WAL layout, snapshot
// codec + store, capture/install equivalence, the catch-up handshake, and
// the crash/recovery property at randomized kill points.
//
// The property under test is the subsystem's whole reason to exist: for any
// kill point — mid-append (torn tail), mid-segment-roll, mid-checkpoint
// (corrupt newest file) — recovery from newest-valid-checkpoint + segment
// suffix reaches a state byte-identical (decided log, consumption head, app
// state digest) to replaying the full, never-cut log.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "app/kv_command.h"
#include "app/kv_store.h"
#include "checkpoint/cert.h"
#include "checkpoint/checkpoint.h"
#include "checkpoint/delta.h"
#include "common/env.h"
#include "common/rng.h"
#include "serde/serde.h"
#include "sim/dag_builder.h"
#include "validator/validator.h"
#include "wal/segmented_wal.h"
#include "wal/wal.h"

namespace mahimahi {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& tag) {
  const auto dir = fs::path(::testing::TempDir()) /
                   ("mahi_ckpt_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// Observer core (never proposes): its DAG and commit sequence are a pure
// function of the delivered blocks, so any two recoveries of the same
// durable prefix must agree exactly.
ValidatorConfig observer_config(Round gc_depth) {
  ValidatorConfig vc;
  vc.observer = true;
  vc.committer.gc_depth = gc_depth;
  vc.validation.verify_signature = false;
  vc.validation.verify_coin_share = false;
  return vc;
}

// The deterministic workload: blocks of a fully-connected 4-validator DAG,
// delivered round-ascending (one block per step).
struct Workload {
  Committee::TestSetup setup = Committee::make_test(4);  // same seed as DagBuilder
  DagBuilder builder{4};
  std::vector<BlockPtr> blocks;

  explicit Workload(Round rounds) {
    builder.build_fully_connected(rounds);
    for (Round r = 1; r <= rounds; ++r) {
      for (ValidatorId v = 0; v < 4; ++v) {
        blocks.push_back(builder.dag().slot(r, v).front());
      }
    }
  }

  std::unique_ptr<ValidatorCore> make_core(Round gc_depth) const {
    return std::make_unique<ValidatorCore>(setup.committee,
                                           setup.keypairs[0].private_key,
                                           observer_config(gc_depth));
  }
};

// One synthetic app command per delivered block: the KvStore is then a pure
// function of the delivered sequence — the state a checkpoint's app snapshot
// must reproduce.
void apply_commits(app::KvStore& kv, const Actions& actions) {
  for (const auto& sub : actions.committed) {
    for (const auto& block : sub.blocks) {
      kv.apply(app::KvCommand::put(block->digest().hex(),
                                   std::to_string(block->round())));
    }
  }
}

// Byte fingerprint of a decided log: slot, kind, leader, committed digest.
// This is the "decided log byte-identity" the acceptance criterion compares.
Bytes decided_fingerprint(const std::vector<DecidedSlot>& log) {
  serde::Writer w;
  for (const DecidedSlot& d : log) {
    w.varint(d.slot.round);
    w.u32(d.slot.leader_offset);
    w.u8(static_cast<std::uint8_t>(d.kind));
    w.u32(d.leader);
    if (d.kind == SlotDecision::Kind::kCommit) w.digest(d.ref.digest);
  }
  return std::move(w).take();
}

constexpr Round kGcDepth = 8;
constexpr Round kCkptInterval = 6;

// Drives an observer through `steps` deliveries, mirroring every insertion
// into BOTH logs (an uncut SegmentedWal at `full_dir` — the full-replay
// reference, one segment that never rolls or retires — and a SegmentedWal +
// CheckpointStore at `seg_dir`) the way the runtime does: append + sync per
// batch, checkpoint cut + segment roll when the horizon advances, retire
// with one cut of lag. Cuts happen at step starts, so the log's final record
// is always strictly after the newest cut (a torn tail never reaches into
// checkpointed state).
struct DriveResult {
  std::unique_ptr<ValidatorCore> core;
  app::KvStore kv;
  std::uint64_t checkpoints = 0;
};

DriveResult drive(const Workload& load, std::size_t steps,
                  const std::string& full_dir, const std::string& seg_dir) {
  DriveResult out;
  out.core = load.make_core(kGcDepth);
  SegmentedWal full(full_dir);
  SegmentedWalOptions seg_options;
  seg_options.segment_bytes = 4096;  // small: every trial exercises rolls
  SegmentedWal seg(seg_dir, seg_options);
  CheckpointStore store(seg_dir);
  std::uint64_t sequence = 0;
  std::uint64_t keep_from_previous = 0;
  Round last_horizon = 0;

  for (std::size_t i = 0; i < steps && i < load.blocks.size(); ++i) {
    const Round horizon = out.core->dag().pruned_below();
    if (horizon > 0 && horizon >= last_horizon + kCkptInterval) {
      CheckpointData data = out.core->capture_checkpoint();
      data.sequence = ++sequence;
      data.app_state = out.kv.snapshot_bytes();
      data.app_digest = out.kv.state_digest();
      const std::uint64_t keep_from = seg.roll_segment();
      const Bytes encoded = encode_checkpoint(data);
      store.write(data.sequence, {encoded.data(), encoded.size()});
      store.retire(2);
      seg.retire_segments_below(keep_from_previous);
      keep_from_previous = keep_from;
      last_horizon = horizon;
      ++out.checkpoints;
    }
    const BlockPtr& block = load.blocks[i];
    Actions actions = out.core->on_block(block, block->author(), 0);
    for (const BlockPtr& inserted : actions.inserted) {
      full.append_block(*inserted, false);
      seg.append_block(*inserted, false);
    }
    full.sync();
    seg.sync();
    apply_commits(out.kv, actions);
  }
  return out;
}

DriveResult recover_full(const Workload& load, const std::string& full_dir) {
  DriveResult out;
  out.core = load.make_core(kGcDepth);
  SegmentedWal::replay(full_dir, [&](BlockPtr block, bool) {
    apply_commits(out.kv, out.core->recover_block(std::move(block)));
  });
  return out;
}

// Tears `bytes` off the end of the uncut reference log's only segment.
void tear_full_log(const std::string& full_dir, std::uint64_t bytes) {
  const std::string segment = SegmentedWal::segment_path(full_dir, 0);
  fs::resize_file(segment, fs::file_size(segment) - bytes);
}

DriveResult recover_checkpointed(const Workload& load, const std::string& seg_dir) {
  DriveResult out;
  out.core = load.make_core(kGcDepth);
  CheckpointStore store(seg_dir);
  if (auto data = store.load_newest_valid()) {
    out.kv = app::KvStore::restore({data->app_state.data(), data->app_state.size()});
    // The snapshot must hash to the digest the writer recorded — the install
    // is refused otherwise (state verification, not trust).
    EXPECT_EQ(out.kv.state_digest(), data->app_digest);
    out.core->install_checkpoint(*data, 0);
    ++out.checkpoints;
  }
  SegmentedWal::replay(seg_dir, [&](BlockPtr block, bool) {
    apply_commits(out.kv, out.core->recover_block(std::move(block)));
  });
  return out;
}

// Like drive(), but cuts land as delta links while the base+delta chain is
// short enough (mirroring Checkpointer::start_cut): the app contributes its
// touched-key window instead of a full snapshot, segments roll and retire
// only at base cuts (chain-granular retirement, one chain of lag), and any
// linkage mismatch falls back to a re-base. max_deltas == 0 reproduces
// drive()'s monolithic every-cut-is-a-base layout through the same code.
struct ChainDriveResult {
  std::unique_ptr<ValidatorCore> core;
  app::KvStore kv;
  std::uint64_t checkpoints = 0;
  std::uint64_t delta_cuts = 0;
};

ChainDriveResult drive_chain(const Workload& load, std::size_t steps,
                             const std::string& full_dir, const std::string& seg_dir,
                             std::size_t max_deltas, std::size_t retire_keep = 2) {
  ChainDriveResult out;
  out.core = load.make_core(kGcDepth);
  SegmentedWal full(full_dir);
  SegmentedWalOptions seg_options;
  seg_options.segment_bytes = 4096;
  SegmentedWal seg(seg_dir, seg_options);
  CheckpointStore store(seg_dir);
  std::uint64_t sequence = 0;
  std::uint64_t base_sequence = 0;
  std::uint64_t keep_from_previous = 0;
  std::optional<CheckpointData> last_cut;
  Round last_horizon = 0;

  for (std::size_t i = 0; i < steps && i < load.blocks.size(); ++i) {
    const Round horizon = out.core->dag().pruned_below();
    if (horizon > 0 && horizon >= last_horizon + kCkptInterval) {
      CheckpointData data = out.core->capture_checkpoint();
      data.sequence = ++sequence;
      data.app_digest = out.kv.state_digest();
      Bytes app_delta = out.kv.delta_bytes();
      out.kv.clear_delta_window();

      bool is_base = true;
      Bytes record;
      if (max_deltas > 0 && last_cut.has_value() &&
          data.sequence - base_sequence <= max_deltas) {
        try {
          record = encode_checkpoint_delta(make_checkpoint_delta(
              *last_cut, data, base_sequence, std::move(app_delta)));
          is_base = false;
          ++out.delta_cuts;
        } catch (const std::invalid_argument&) {
        }
      }
      if (is_base) {
        data.app_state = out.kv.snapshot_bytes();
        record = encode_checkpoint(data);
        base_sequence = data.sequence;
      }

      if (is_base) {
        store.write(data.sequence, {record.data(), record.size()});
        if (retire_keep > 0) store.retire(retire_keep);
        const std::uint64_t keep_from = seg.roll_segment();
        seg.retire_segments_below(keep_from_previous);
        keep_from_previous = keep_from;
      } else {
        store.write_delta(data.sequence, {record.data(), record.size()});
      }
      last_cut = std::move(data);
      last_horizon = horizon;
      ++out.checkpoints;
    }
    const BlockPtr& block = load.blocks[i];
    Actions actions = out.core->on_block(block, block->author(), 0);
    for (const BlockPtr& inserted : actions.inserted) {
      full.append_block(*inserted, false);
      seg.append_block(*inserted, false);
    }
    full.sync();
    seg.sync();
    apply_commits(out.kv, actions);
  }
  return out;
}

ChainDriveResult recover_chain(const Workload& load, const std::string& seg_dir) {
  ChainDriveResult out;
  out.core = load.make_core(kGcDepth);
  CheckpointStore store(seg_dir);
  if (auto data = store.load_newest_valid()) {
    out.kv = app::KvStore::restore({data->app_state.data(), data->app_state.size()});
    // The reconstructed base+delta state must hash to the digest the writer
    // recorded at the newest link — the install is refused otherwise.
    EXPECT_EQ(out.kv.state_digest(), data->app_digest);
    out.core->install_checkpoint(*data, 0);
    ++out.checkpoints;
  }
  SegmentedWal::replay(seg_dir, [&](BlockPtr block, bool) {
    apply_commits(out.kv, out.core->recover_block(std::move(block)));
  });
  return out;
}

template <typename ResultA, typename ResultB>
void expect_equivalent(const ResultA& a, const ResultB& b,
                       const std::string& label) {
  EXPECT_EQ(a.core->committer().next_pending_slot(),
            b.core->committer().next_pending_slot())
      << label;
  EXPECT_EQ(decided_fingerprint(a.core->committer().decided_sequence()),
            decided_fingerprint(b.core->committer().decided_sequence()))
      << label;
  EXPECT_EQ(a.kv.state_digest(), b.kv.state_digest()) << label;
  EXPECT_EQ(a.core->dag().highest_round(), b.core->dag().highest_round()) << label;
}

// --- Segmented WAL layout ----------------------------------------------------

TEST(SegmentedWal, ByteStreamMatchesMonolithicAndRolls) {
  Workload load(10);
  const std::string seg_dir = fresh_dir("bytes_seg");

  SegmentedWalOptions options;
  options.segment_bytes = 2048;
  SegmentedWal seg(seg_dir, options);
  Bytes stream;  // the records back to back, as the framing encodes them
  for (const BlockPtr& block : load.blocks) {
    seg.append_block(*block, false);
    const Bytes record = wal_encode_block_record(*block, false);
    stream.insert(stream.end(), record.begin(), record.end());
  }
  seg.sync();

  ASSERT_GT(seg.active_segment(), 0u) << "budget should have forced rolls";

  // Concatenating the segments reproduces the record stream exactly: a
  // roll never splits or pads a record.
  Bytes seg_bytes;
  for (std::uint64_t i = 0; i <= seg.active_segment(); ++i) {
    std::ifstream in(SegmentedWal::segment_path(seg_dir, i), std::ios::binary);
    seg_bytes.insert(seg_bytes.end(), std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
  }
  EXPECT_EQ(stream, seg_bytes);

  // Replay yields the same records in the same order.
  std::vector<Digest> replayed;
  const auto result = SegmentedWal::replay(
      seg_dir, [&](BlockPtr block, bool) { replayed.push_back(block->digest()); });
  EXPECT_FALSE(result.corrupt_tail);
  EXPECT_EQ(result.records, load.blocks.size());
  ASSERT_EQ(replayed.size(), load.blocks.size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i], load.blocks[i]->digest());
  }
}

TEST(SegmentedWal, RetireUpdatesManifestAtomicallyAndReplaySkipsRetired) {
  Workload load(12);
  const std::string dir = fresh_dir("retire");
  SegmentedWalOptions options;
  options.segment_bytes = 2048;
  auto seg = std::make_unique<SegmentedWal>(dir, options);
  for (const BlockPtr& block : load.blocks) seg->append_block(*block, false);
  const std::uint64_t boundary = seg->roll_segment();
  ASSERT_GE(boundary, 2u);

  seg->retire_segments_below(boundary);
  EXPECT_EQ(seg->base_segment(), boundary);
  EXPECT_EQ(seg->segments_retired(), boundary);
  EXPECT_EQ(SegmentedWal::read_manifest(dir), boundary);
  for (std::uint64_t i = 0; i < boundary; ++i) {
    EXPECT_FALSE(fs::exists(SegmentedWal::segment_path(dir, i))) << i;
  }

  // A stale file below the manifest base (crash between manifest write and
  // unlink) is ignored by replay.
  {
    std::ofstream stale(SegmentedWal::segment_path(dir, 0), std::ios::binary);
    stale << "garbage that must never be parsed";
  }
  std::uint64_t replayed = 0;
  const auto visitor = [&](BlockPtr, bool) { ++replayed; };
  const auto result = SegmentedWal::replay(dir, visitor);
  EXPECT_FALSE(result.corrupt_tail);
  EXPECT_EQ(replayed, 0u);  // everything before the boundary was retired

  // Appends continue cleanly after reopen (the layout survives restarts).
  seg.reset();
  SegmentedWal reopened(dir, options);
  EXPECT_EQ(reopened.base_segment(), boundary);
  reopened.append_block(*load.blocks[0], false);
  reopened.sync();
  replayed = 0;
  SegmentedWal::replay(dir, visitor);
  EXPECT_EQ(replayed, 1u);
}

TEST(SegmentedWal, TornTailOfActiveSegmentTruncates) {
  Workload load(6);
  const std::string dir = fresh_dir("torn");
  SegmentedWalOptions options;
  options.segment_bytes = 4096;
  {
    SegmentedWal seg(dir, options);
    for (const BlockPtr& block : load.blocks) seg.append_block(*block, false);
    seg.sync();
  }
  const auto indexes = SegmentedWal::list_segments(dir);
  ASSERT_FALSE(indexes.empty());
  const std::string active = SegmentedWal::segment_path(dir, indexes.back());
  const auto size = fs::file_size(active);
  fs::resize_file(active, size - 5);  // tear the last record

  std::uint64_t replayed = 0;
  const auto visitor = [&](BlockPtr, bool) { ++replayed; };
  auto result = SegmentedWal::replay(dir, visitor);
  EXPECT_TRUE(result.corrupt_tail);
  EXPECT_EQ(result.records, load.blocks.size() - 1);

  // The truncation left a clean boundary: a second replay is torn-free.
  result = SegmentedWal::replay(dir, visitor);
  EXPECT_FALSE(result.corrupt_tail);
}

TEST(SegmentedWal, CorruptMidLogSegmentStopsReplay) {
  Workload load(12);
  const std::string dir = fresh_dir("midcorrupt");
  SegmentedWalOptions options;
  options.segment_bytes = 2048;
  {
    SegmentedWal seg(dir, options);
    for (const BlockPtr& block : load.blocks) seg.append_block(*block, false);
    seg.sync();
  }
  ASSERT_GE(SegmentedWal::list_segments(dir).size(), 3u);
  // Flip a payload byte in the middle of segment 1 (sealed, not last).
  const std::string victim = SegmentedWal::segment_path(dir, 1);
  {
    std::fstream file(victim, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(fs::file_size(victim) / 2));
    file.put('\xff');
  }
  std::uint64_t replayed = 0;
  const auto visitor = [&](BlockPtr, bool) { ++replayed; };
  const auto result = SegmentedWal::replay(dir, visitor);
  EXPECT_TRUE(result.corrupt_tail);
  EXPECT_LT(replayed, load.blocks.size());
  // Nothing past the damaged segment was visited (segment 0 + the clean
  // prefix of segment 1 at most).
  EXPECT_LE(result.segments, 2u);
}

TEST(SegmentedWal, ListSegmentsParsesAnyCanonicalIndexWidth) {
  const std::string dir = fresh_dir("wide");
  // Indexes are written zero-padded to 8 digits, but an index that outgrows
  // the padding must stay visible to replay — a silently dropped file would
  // truncate recovery mid-log. Non-canonical strays (unpadded digits that
  // segment_path could never reopen, junk, overflow) must stay INVISIBLE:
  // listing one would poison the replay contiguity check instead.
  for (const char* name :
       {"seg-00000007.wal", "seg-100000000.wal", "seg-123.wal", "seg-x1.wal",
        "seg-.wal", "seg-99999999999999999999.wal",
        "seg-999999999999999999999.wal"}) {
    std::ofstream(fs::path(dir) / name).put('\0');
  }
  const auto indexes = SegmentedWal::list_segments(dir);
  ASSERT_EQ(indexes.size(), 2u);
  EXPECT_EQ(indexes[0], 7u);
  EXPECT_EQ(indexes[1], 100000000u);
  EXPECT_EQ(SegmentedWal::segment_path(dir, 100000000u),
            (fs::path(dir) / "seg-100000000.wal").string())
      << "every listed index must round-trip through the path formatter";
}

// --- Checkpoint codec + store ------------------------------------------------

TEST(Checkpoint, CodecRoundTripsACapturedCut) {
  Workload load(24);
  auto core = load.make_core(kGcDepth);
  app::KvStore kv;
  for (const BlockPtr& block : load.blocks) {
    apply_commits(kv, core->on_block(block, block->author(), 0));
  }
  ASSERT_GT(core->dag().pruned_below(), 0u) << "GC must have advanced";

  CheckpointData data = core->capture_checkpoint();
  data.sequence = 7;
  data.app_state = kv.snapshot_bytes();
  data.app_digest = kv.state_digest();

  const Bytes encoded = encode_checkpoint(data);
  const CheckpointData decoded = decode_checkpoint({encoded.data(), encoded.size()});
  EXPECT_EQ(decoded.sequence, 7u);
  EXPECT_EQ(decoded.author, data.author);
  EXPECT_EQ(decoded.horizon, data.horizon);
  EXPECT_EQ(decoded.head, data.head);
  EXPECT_EQ(decoded.decided.size(), data.decided.size());
  EXPECT_EQ(decoded.delivered, data.delivered);
  ASSERT_EQ(decoded.blocks.size(), data.blocks.size());
  for (std::size_t i = 0; i < decoded.blocks.size(); ++i) {
    EXPECT_EQ(decoded.blocks[i]->digest(), data.blocks[i]->digest());
  }
  EXPECT_EQ(decoded.app_digest, data.app_digest);
  EXPECT_EQ(app::KvStore::restore({decoded.app_state.data(), decoded.app_state.size()})
                .state_digest(),
            kv.state_digest());

  // The decoded cut passes semantic verification.
  ValidationOptions validation;
  validation.verify_signature = false;
  validation.verify_coin_share = false;
  const CommitterOptions shape = observer_config(kGcDepth).committer;
  EXPECT_EQ(verify_checkpoint(decoded, load.setup.committee, shape, validation), "");

  // A head the decided log does not account for slot-by-slot is rejected —
  // an empty log cannot claim progress, and a gap in the chain is caught.
  CheckpointData fabricated = decoded;
  fabricated.decided.clear();
  EXPECT_NE(verify_checkpoint(fabricated, load.setup.committee, shape, validation), "");
  CheckpointData gapped = decoded;
  ASSERT_GT(gapped.decided.size(), 2u);
  gapped.decided.erase(gapped.decided.begin() + 1);
  EXPECT_NE(verify_checkpoint(gapped, load.setup.committee, shape, validation), "");

  // Any flipped payload byte is caught by the CRC frame.
  Bytes corrupt = encoded;
  corrupt[corrupt.size() / 2] ^= 0x01;
  EXPECT_THROW(decode_checkpoint({corrupt.data(), corrupt.size()}), serde::SerdeError);
}

// A checkpoint frame that is well-formed up to the three element-count
// varints, carrying the given counts with nothing behind them.
Bytes frame_with_counts(std::uint64_t decided, std::uint64_t delivered,
                        std::uint64_t blocks) {
  serde::Writer w;
  w.u32(0x4d4d434b);  // kCheckpointMagic
  w.u8(1);            // kCheckpointVersion
  w.u64(1);           // sequence
  w.u32(0);           // author
  w.varint(4);        // horizon
  w.varint(4);        // head slot round
  w.u32(0);           // head slot leader offset
  w.varint(0);        // last_proposed_round
  w.varint(decided);
  w.varint(delivered);
  w.varint(blocks);
  return wal_frame_record({w.data().data(), w.data().size()});
}

TEST(Checkpoint, CodecRejectsAbsurdElementCountsAsDecodeErrors) {
  // Checkpoints arrive off the wire, so the counts are attacker-controlled:
  // a claimed 2^60 elements must fail the decode's bounds check as a
  // SerdeError — not reach vector::reserve and throw std::length_error,
  // which would escape a SerdeError-only handler.
  const std::uint64_t absurd = std::uint64_t{1} << 60;
  for (const Bytes& frame :
       {frame_with_counts(absurd, 0, 0), frame_with_counts(0, absurd, 0),
        frame_with_counts(0, 0, absurd)}) {
    EXPECT_THROW(decode_checkpoint({frame.data(), frame.size()}), serde::SerdeError);
  }
}

TEST(Checkpoint, StoreFallsBackPastCorruptNewest) {
  Workload load(30);
  const std::string dir = fresh_dir("store");
  CheckpointStore store(dir);
  auto core = load.make_core(kGcDepth);
  app::KvStore kv;
  std::uint64_t sequence = 0;
  Round last_horizon = 0;
  for (const BlockPtr& block : load.blocks) {
    apply_commits(kv, core->on_block(block, block->author(), 0));
    const Round horizon = core->dag().pruned_below();
    if (horizon > 0 && horizon >= last_horizon + kCkptInterval) {
      CheckpointData data = core->capture_checkpoint();
      data.sequence = ++sequence;
      const Bytes encoded = encode_checkpoint(data);
      store.write(data.sequence, {encoded.data(), encoded.size()});
      last_horizon = horizon;
    }
  }
  ASSERT_GE(sequence, 2u);
  auto newest = store.load_newest_valid();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->sequence, sequence);

  // Mid-checkpoint crash model: the newest file is torn. Loading falls back
  // to the previous sequence instead of failing.
  const std::string newest_path = CheckpointStore::checkpoint_path(dir, sequence);
  fs::resize_file(newest_path, fs::file_size(newest_path) / 2);
  auto fallback = store.load_newest_valid();
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->sequence, sequence - 1);

  // retire() keeps the newest two files.
  store.retire(2);
  EXPECT_LE(CheckpointStore::list(dir).size(), 2u);
}

// --- Capture/install equivalence + catch-up handshake ------------------------

TEST(Checkpoint, InstallReproducesTheCapturedValidatorAndKeepsAgreeing) {
  Workload load(40);
  auto source = load.make_core(kGcDepth);
  app::KvStore kv;
  const std::size_t split = 28 * 4;  // install mid-run, then keep feeding both
  for (std::size_t i = 0; i < split; ++i) {
    const BlockPtr& block = load.blocks[i];
    apply_commits(kv, source->on_block(block, block->author(), 0));
  }
  ASSERT_GT(source->dag().pruned_below(), 0u);

  CheckpointData data = source->capture_checkpoint();
  data.app_state = kv.snapshot_bytes();
  data.app_digest = kv.state_digest();
  // Round-trip through the codec: install what the wire would carry.
  const Bytes encoded = encode_checkpoint(data);
  const CheckpointData wire = decode_checkpoint({encoded.data(), encoded.size()});

  auto target = load.make_core(kGcDepth);
  app::KvStore target_kv =
      app::KvStore::restore({wire.app_state.data(), wire.app_state.size()});
  ASSERT_EQ(target_kv.state_digest(), wire.app_digest);
  Actions install = target->install_checkpoint(wire, 0);
  EXPECT_FALSE(install.inserted.empty());
  EXPECT_EQ(target->checkpoints_installed(), 1u);

  EXPECT_EQ(target->committer().next_pending_slot(),
            source->committer().next_pending_slot());
  EXPECT_EQ(decided_fingerprint(target->committer().decided_sequence()),
            decided_fingerprint(source->committer().decided_sequence()));
  EXPECT_EQ(target->dag().highest_round(), source->dag().highest_round());
  EXPECT_EQ(target->dag().pruned_below(), source->dag().pruned_below());

  // From here on the two must stay in lockstep: same blocks in, same
  // commits out (the installed delivered marks prevent re-delivery).
  for (std::size_t i = split; i < load.blocks.size(); ++i) {
    const BlockPtr& block = load.blocks[i];
    apply_commits(kv, source->on_block(block, block->author(), 0));
    apply_commits(target_kv, target->on_block(block, block->author(), 0));
  }
  EXPECT_EQ(decided_fingerprint(target->committer().decided_sequence()),
            decided_fingerprint(source->committer().decided_sequence()));
  EXPECT_EQ(target_kv.state_digest(), kv.state_digest());
}

TEST(Checkpoint, FetchBelowHorizonTriggersTheCatchupHandshake) {
  Workload load(40);
  auto ahead = load.make_core(kGcDepth);
  for (const BlockPtr& block : load.blocks) {
    ahead->on_block(block, block->author(), 0);
  }
  const Round horizon = ahead->dag().pruned_below();
  ASSERT_GT(horizon, 1u);

  // A late validator's ancestry fetch walk has descended to the peer's
  // horizon: a full round parks (so f+1 distinct authors corroborate the
  // cluster being there) and the parents it now needs sit BELOW the horizon,
  // which no caught-up peer still holds. Every fetch went to peer 3.
  auto late = load.make_core(kGcDepth);
  bool fetched = false;
  for (ValidatorId v = 0; v < 4; ++v) {
    const BlockPtr block = load.builder.dag().slot(horizon, v).front();
    fetched |= !late->on_block(block, /*from=*/3, 0).fetch_requests.empty();
  }
  ASSERT_TRUE(fetched);

  // The ahead peer cannot serve sub-horizon refs; it answers with a horizon
  // notice instead of silence.
  std::vector<BlockRef> below;
  for (Round r = 1; r < horizon && below.size() < 3; ++r) {
    below.push_back(load.builder.dag().slot(r, 0).front()->ref());
  }
  Actions reply = ahead->on_fetch_request(below, /*from=*/3, 0);
  ASSERT_EQ(reply.horizon_notices.size(), 1u);
  EXPECT_EQ(reply.horizon_notices[0].peer, 3u);
  EXPECT_EQ(reply.horizon_notices[0].horizon, horizon);

  // A notice from a peer we never fetched from refuses nothing: it must not
  // talk us into requesting ITS snapshot.
  EXPECT_TRUE(late->on_peer_horizon(2, horizon, millis(9)).checkpoint_requests.empty())
      << "only the refusing peer's notice may trigger a request";

  // The refusing peer's notice makes the stuck validator request a snapshot
  // — once per cooldown window, not per notice.
  Actions request = late->on_peer_horizon(3, horizon, millis(10));
  ASSERT_EQ(request.checkpoint_requests.size(), 1u);
  EXPECT_EQ(request.checkpoint_requests[0], 3u);
  EXPECT_TRUE(late->on_peer_horizon(3, horizon, millis(11)).checkpoint_requests.empty())
      << "cooldown must rate-limit repeat requests";

  // A fabricated horizon is clamped to what f+1 distinct authors
  // corroborate: a core that has seen only ONE author's blocks ignores even
  // an enormous claim from the very peer it fetched from.
  auto lone = load.make_core(kGcDepth);
  lone->on_block(load.builder.dag().slot(horizon, 0).front(), /*from=*/3, 0);
  EXPECT_TRUE(lone->on_peer_horizon(3, Round{1} << 40, millis(10))
                  .checkpoint_requests.empty())
      << "an uncorroborated horizon claim must be distrusted";

  // A validator that is NOT stuck (nothing outstanding below the horizon)
  // never requests a snapshot.
  auto fresh = load.make_core(kGcDepth);
  EXPECT_TRUE(fresh->on_peer_horizon(3, horizon, 0).checkpoint_requests.empty());

  // Install closes the loop: the late validator lands on the peer's state.
  CheckpointData data = ahead->capture_checkpoint();
  late->install_checkpoint(data, millis(20));
  EXPECT_EQ(late->committer().next_pending_slot(),
            ahead->committer().next_pending_slot());
}

// --- The crash/recovery property ---------------------------------------------

TEST(CheckpointProperty, RandomKillPointsRecoverIdenticallyToFullReplay) {
  Workload load(60);
  Rng rng(20260726);
  for (int trial = 0; trial < static_cast<int>(property_iters(10)); ++trial) {
    const std::string label = "trial " + std::to_string(trial);
    const std::string full_dir = fresh_dir("prop_full_" + std::to_string(trial));
    const std::string seg_dir = fresh_dir("prop_seg_" + std::to_string(trial));

    // Kill point: anywhere past the first few steps, including immediately
    // after a segment roll / checkpoint cut.
    const std::size_t steps =
        8 + static_cast<std::size_t>(rng.uniform(load.blocks.size() - 8));
    const DriveResult writer = drive(load, steps, full_dir, seg_dir);

    // Torn final write: remove the same few trailing bytes from both
    // layouts (their byte streams share the final record). Skipped when the
    // active segment is empty — a crash right after a roll tears nothing.
    if (rng.uniform(2) == 0) {
      const auto indexes = SegmentedWal::list_segments(seg_dir);
      ASSERT_FALSE(indexes.empty()) << label;
      const std::string active =
          SegmentedWal::segment_path(seg_dir, indexes.back());
      const std::uint64_t delta = 1 + rng.uniform(12);
      if (fs::file_size(active) >= delta) {
        fs::resize_file(active, fs::file_size(active) - delta);
        tear_full_log(full_dir, delta);
      }
    }

    // Mid-checkpoint kill: tear the newest checkpoint file; recovery must
    // fall back to the previous cut (whose covering segments still exist —
    // retirement lags one checkpoint).
    if (writer.checkpoints > 0 && rng.uniform(3) == 0) {
      const auto sequences = CheckpointStore::list(seg_dir);
      ASSERT_FALSE(sequences.empty()) << label;
      const std::string newest =
          CheckpointStore::checkpoint_path(seg_dir, sequences.back());
      fs::resize_file(newest, fs::file_size(newest) / 2);
    }

    const DriveResult full = recover_full(load, full_dir);
    const DriveResult fast = recover_checkpointed(load, seg_dir);
    expect_equivalent(full, fast, label);

    // And both recoveries continue identically on live input.
    auto continue_feed = [&](const DriveResult& r) {
      app::KvStore kv = r.kv;
      for (std::size_t i = 0; i < load.blocks.size(); ++i) {
        const BlockPtr& block = load.blocks[i];
        apply_commits(kv, r.core->on_block(block, block->author(), 0));
      }
      return kv.state_digest();
    };
    EXPECT_EQ(continue_feed(full), continue_feed(fast)) << label;
  }
}

// --- The delta-chain crash/recovery property ---------------------------------
//
// For any kill point, any chain length bound 0..4, a torn delta tail and a
// torn newest base, recovery from the base+delta chain + segment suffix is
// byte-identical (decided log + app state digest) to BOTH full uncut-log
// replay AND recovery from the monolithic every-cut-is-a-base layout.
TEST(CheckpointProperty, DeltaChainsRecoverIdenticallyToFullReplayAndMonolithic) {
  Workload load(60);
  Rng rng(20260808);
  for (int trial = 0; trial < static_cast<int>(property_iters(8)); ++trial) {
    const std::string tag = std::to_string(trial);
    const std::string label = "trial " + tag;
    const std::string full_dir = fresh_dir("chain_full_" + tag);
    const std::string spare_dir = fresh_dir("chain_spare_" + tag);
    const std::string chain_dir = fresh_dir("chain_seg_" + tag);
    const std::string flat_dir = fresh_dir("chain_flat_" + tag);

    const std::size_t max_deltas = static_cast<std::size_t>(rng.uniform(5));
    const std::size_t steps =
        8 + static_cast<std::size_t>(rng.uniform(load.blocks.size() - 8));
    const ChainDriveResult chained =
        drive_chain(load, steps, full_dir, chain_dir, max_deltas);
    const ChainDriveResult flat = drive_chain(load, steps, spare_dir, flat_dir, 0);
    ASSERT_EQ(chained.checkpoints, flat.checkpoints) << label;
    if (max_deltas > 0 && chained.checkpoints > 1) {
      EXPECT_GT(chained.delta_cuts, 0u) << label;
    }

    // Torn final WAL write: every log shares the same record stream, so the
    // same few trailing bytes tear off each active segment.
    if (rng.uniform(2) == 0) {
      const std::uint64_t cut_bytes = 1 + rng.uniform(12);
      tear_full_log(full_dir, cut_bytes);
      for (const std::string& dir : {chain_dir, flat_dir}) {
        const auto indexes = SegmentedWal::list_segments(dir);
        ASSERT_FALSE(indexes.empty()) << label;
        const std::string active = SegmentedWal::segment_path(dir, indexes.back());
        if (fs::file_size(active) >= cut_bytes) {
          fs::resize_file(active, fs::file_size(active) - cut_bytes);
        }
      }
    }

    // Torn newest DELTA link: the chain truncates there and recovery falls
    // back to a shorter chain plus more replay, never to divergence.
    if (chained.delta_cuts > 0 && rng.uniform(2) == 0) {
      std::uint64_t newest_delta = 0;
      for (std::uint64_t seq = 1; seq <= chained.checkpoints; ++seq) {
        if (fs::exists(CheckpointStore::delta_path(chain_dir, seq))) {
          newest_delta = seq;
        }
      }
      ASSERT_GT(newest_delta, 0u) << label;
      const std::string path = CheckpointStore::delta_path(chain_dir, newest_delta);
      fs::resize_file(path, fs::file_size(path) / 2);
    }

    // Torn newest BASE: recovery falls back to the previous chain, whose
    // covering segments still exist (retirement lags one chain).
    if (chained.checkpoints > 0 && rng.uniform(3) == 0) {
      for (const std::string& dir : {chain_dir, flat_dir}) {
        const auto bases = CheckpointStore::list(dir);
        ASSERT_FALSE(bases.empty()) << label;
        const std::string newest = CheckpointStore::checkpoint_path(dir, bases.back());
        fs::resize_file(newest, fs::file_size(newest) / 2);
      }
    }

    const DriveResult full = recover_full(load, full_dir);
    const ChainDriveResult from_chain = recover_chain(load, chain_dir);
    const ChainDriveResult from_flat = recover_chain(load, flat_dir);
    expect_equivalent(full, from_chain, label + " chain vs full replay");
    expect_equivalent(from_flat, from_chain, label + " chain vs monolithic");

    // And all three recoveries continue identically on live input.
    const auto continue_feed = [&](ValidatorCore& core, app::KvStore kv) {
      for (const BlockPtr& block : load.blocks) {
        apply_commits(kv, core.on_block(block, block->author(), 0));
      }
      return kv.state_digest();
    };
    const Digest after_full = continue_feed(*full.core, full.kv);
    EXPECT_EQ(after_full, continue_feed(*from_chain.core, from_chain.kv)) << label;
    EXPECT_EQ(after_full, continue_feed(*from_flat.core, from_flat.kv)) << label;
  }
}

// --- Chain-atomic retirement -------------------------------------------------

TEST(Checkpoint, RetireDropsWholeChainsAndSurvivesMidRetireCrash) {
  Workload load(60);
  const std::string full_dir = fresh_dir("retire_chain_full");
  const std::string dir = fresh_dir("retire_chain");
  const ChainDriveResult writer = drive_chain(load, load.blocks.size(), full_dir,
                                              dir, 2, /*retire_keep=*/0);
  CheckpointStore store(dir);
  const auto bases = CheckpointStore::list(dir);
  ASSERT_GE(bases.size(), 2u) << "need several chains to retire";
  ASSERT_GT(writer.delta_cuts, 0u);
  const auto newest = store.load_newest_valid();
  ASSERT_TRUE(newest.has_value());

  // Crash-between-unlink-and-manifest model: replaying retire()'s unlink
  // order (a retired chain's delta links strictly before its base, newest
  // chain first) one file at a time, the newest surviving chain must stay
  // loadable at EVERY intermediate crash point — a base whose delta tail is
  // gone is a valid one-link chain, and no live delta ever outlives its base.
  const std::uint64_t keep_from = bases[bases.size() - 2];
  std::vector<std::string> unlink_order;
  for (std::uint64_t seq = writer.checkpoints; seq >= 1; --seq) {
    const std::string path = CheckpointStore::delta_path(dir, seq);
    if (seq < keep_from && fs::exists(path)) unlink_order.push_back(path);
  }
  for (auto it = bases.rbegin(); it != bases.rend(); ++it) {
    if (*it < keep_from) {
      unlink_order.push_back(CheckpointStore::checkpoint_path(dir, *it));
    }
  }
  ASSERT_FALSE(unlink_order.empty());
  for (const std::string& path : unlink_order) {
    fs::remove(path);
    const auto loaded = store.load_newest_valid();
    ASSERT_TRUE(loaded.has_value()) << path;
    EXPECT_EQ(loaded->sequence, newest->sequence) << path;
    EXPECT_EQ(loaded->app_digest, newest->app_digest) << path;
  }

  // The completed retirement keeps exactly the two newest chains: every
  // surviving delta link rides a surviving base.
  store.retire(2);
  EXPECT_EQ(CheckpointStore::list(dir).size(), 2u);
  const std::uint64_t oldest_kept = CheckpointStore::list(dir).front();
  for (std::uint64_t seq = 1; seq <= writer.checkpoints; ++seq) {
    if (fs::exists(CheckpointStore::delta_path(dir, seq))) {
      EXPECT_GT(seq, oldest_kept) << "delta " << seq << " outlived its base";
    }
  }
  EXPECT_EQ(store.load_newest_valid()->sequence, newest->sequence);
}

// --- Threshold-certified cuts ------------------------------------------------

const CommitterOptions kShape = observer_config(kGcDepth).committer;

// Mirrors the runtime's canonical-cut protocol (Checkpointer::start_cut):
// before handing each committed sub-DAG to the app, cut at every boundary
// B_k = cut_boundary_slot(k, interval) the watermark crossed, truncating the
// capture back to the boundary. Every validator reaching B_k then cuts the
// SAME decided log and app state — what the certificate payload signs.
struct CanonicalCutter {
  struct Cut {
    CheckpointData data;
    std::uint64_t cut_index = 0;
    Bytes app_delta;  // touched-key window since the previous cut
  };

  explicit CanonicalCutter(const Workload& load, Round interval)
      : interval_(interval), core_(load.make_core(kGcDepth)) {}

  SlotId boundary() const { return cut_boundary_slot(next_k_, interval_, kShape); }

  void feed(const BlockPtr& block) {
    Actions actions = core_->on_block(block, block->author(), 0);
    for (const auto& sub : actions.committed) {
      cross(sub.slot, actions);
      for (const auto& b : sub.blocks) {
        kv_.apply(app::KvCommand::put(b->digest().hex(), std::to_string(b->round())));
      }
    }
    cross(core_->committer().next_pending_slot(), actions);
  }

  ValidatorCore& core() { return *core_; }
  std::vector<Cut> cuts;

 private:
  void cross(SlotId watermark, const Actions& actions) {
    while (!(watermark < boundary())) {
      const SlotId b = boundary();
      CheckpointData data = core_->capture_checkpoint();
      if (data.horizon <= b.round) {
        std::vector<Digest> delivered_after;
        for (const auto& sub : actions.committed) {
          if (sub.slot < b) continue;
          for (const auto& blk : sub.blocks) delivered_after.push_back(blk->digest());
        }
        truncate_checkpoint(data, b, delivered_after);
        data.sequence = ++sequence_;
        data.app_state = kv_.snapshot_bytes();
        data.app_digest = kv_.state_digest();
        Bytes app_delta = kv_.delta_bytes();
        kv_.clear_delta_window();
        cuts.push_back({std::move(data), next_k_, std::move(app_delta)});
      }
      ++next_k_;
    }
  }

  Round interval_;
  std::unique_ptr<ValidatorCore> core_;
  app::KvStore kv_;
  std::uint64_t next_k_ = 1;
  std::uint64_t sequence_ = 0;
};

CutPayload payload_for(const CanonicalCutter::Cut& cut) {
  CutPayload payload;
  payload.cut_index = cut.cut_index;
  payload.head = cut.data.head;
  DecidedLogHasher hasher;
  hasher.fold(cut.data.decided.begin(), cut.data.decided.end());
  payload.decided_digest = hasher.digest();
  payload.app_digest = cut.data.app_digest;
  return payload;
}

Bytes certify(const Workload& load, const CutPayload& payload,
              std::initializer_list<ValidatorId> signers) {
  crypto::MultisigCollector collector(load.setup.committee.quorum_threshold());
  for (ValidatorId v : signers) {
    const CutShare share = sign_cut(payload, v, load.setup.keypairs[v].private_key);
    EXPECT_TRUE(verify_cut_share(share, load.setup.committee));
    collector.add(share.author, share.signature);
  }
  EXPECT_TRUE(collector.complete());
  return encode_checkpoint_certificate({payload, collector.certificate()});
}

TEST(CheckpointCert, ForgedAndDuplicatedSharesNeverAggregate) {
  Workload load(40);
  CanonicalCutter cutter(load, 6);
  for (const BlockPtr& block : load.blocks) cutter.feed(block);
  ASSERT_FALSE(cutter.cuts.empty());
  const CutPayload payload = payload_for(cutter.cuts.front());

  // A share signed with the wrong key — or a share whose payload was
  // tampered after signing — is rejected by share verification.
  const CutShare forged =
      sign_cut(payload, /*author=*/0, load.setup.keypairs[1].private_key);
  EXPECT_FALSE(verify_cut_share(forged, load.setup.committee));
  CutShare tampered = sign_cut(payload, 0, load.setup.keypairs[0].private_key);
  tampered.payload.app_digest.bytes[0] ^= 0x01;
  EXPECT_FALSE(verify_cut_share(tampered, load.setup.committee));
  CutShare out_of_range = sign_cut(payload, 9, load.setup.keypairs[0].private_key);
  EXPECT_FALSE(verify_cut_share(out_of_range, load.setup.committee));

  // Duplicated shares never double-count: the same signer adding twice makes
  // no progress toward the 2f+1 threshold, and fewer than 2f+1 distinct
  // signers never completes the collector.
  crypto::MultisigCollector collector(load.setup.committee.quorum_threshold());
  const CutShare s0 = sign_cut(payload, 0, load.setup.keypairs[0].private_key);
  const CutShare s1 = sign_cut(payload, 1, load.setup.keypairs[1].private_key);
  EXPECT_FALSE(collector.add(s0.author, s0.signature));
  EXPECT_FALSE(collector.add(s0.author, s0.signature));  // duplicate: no progress
  EXPECT_EQ(collector.count(), 1u);
  EXPECT_FALSE(collector.add(s1.author, s1.signature));
  EXPECT_EQ(collector.count(), 2u);
  EXPECT_FALSE(collector.complete()) << "2 of 4 must stay below quorum";

  // An under-quorum aggregate that claims to be a certificate is refused.
  crypto::MultisigCollector under(2);
  under.add(s0.author, s0.signature);
  under.add(s1.author, s1.signature);
  ASSERT_TRUE(under.complete());
  EXPECT_NE(verify_checkpoint_certificate({payload, under.certificate()},
                                          load.setup.committee),
            "");

  // The third distinct signer completes it and the aggregate verifies.
  const CutShare s2 = sign_cut(payload, 2, load.setup.keypairs[2].private_key);
  EXPECT_TRUE(collector.add(s2.author, s2.signature));
  EXPECT_EQ(verify_checkpoint_certificate({payload, collector.certificate()},
                                          load.setup.committee),
            "");
}

TEST(CheckpointCert, CertifiedChainAcceptsAndMismatchedContentRefuses) {
  Workload load(40);
  constexpr Round kInterval = 6;
  CanonicalCutter cutter(load, kInterval);
  for (const BlockPtr& block : load.blocks) cutter.feed(block);
  ASSERT_GE(cutter.cuts.size(), 2u) << "need a base and at least one delta cut";

  // Base + delta chain over consecutive canonical cuts, every link certified
  // by a 2f+1 quorum.
  const auto& base = cutter.cuts[cutter.cuts.size() - 2];
  const auto& tip = cutter.cuts[cutter.cuts.size() - 1];
  const Bytes base_record = encode_checkpoint(base.data);
  const Bytes delta_record = encode_checkpoint_delta(make_checkpoint_delta(
      base.data, tip.data, base.data.sequence, tip.app_delta));
  const Bytes base_cert = certify(load, payload_for(base), {0, 1, 2});
  const Bytes tip_cert = certify(load, payload_for(tip), {1, 2, 3});

  // Round-trips through the wire codec: what a kCheckpointChain frame carries.
  const auto frame_of = [](const std::vector<std::pair<const Bytes*, const Bytes*>>&
                               links) {
    std::vector<std::pair<BytesView, BytesView>> views;
    for (const auto& [record, cert] : links) {
      views.emplace_back(BytesView{record->data(), record->size()},
                         cert != nullptr ? BytesView{cert->data(), cert->size()}
                                         : BytesView{});
    }
    const Bytes encoded = encode_checkpoint_chain_frame(views);
    return decode_checkpoint_chain_frame({encoded.data(), encoded.size()});
  };

  ValidationOptions validation;
  validation.verify_signature = false;
  validation.verify_coin_share = false;

  const ChainVerifyResult good = verify_checkpoint_chain(
      frame_of({{&base_record, &base_cert}, {&delta_record, &tip_cert}}),
      load.setup.committee, kShape, kInterval, validation);
  EXPECT_EQ(good.error, "");
  EXPECT_TRUE(good.certified);
  EXPECT_EQ(good.links, 2u);
  EXPECT_EQ(good.data.head, tip.data.head);
  EXPECT_EQ(good.data.app_digest, tip.data.app_digest);
  EXPECT_EQ(app::KvStore::restore({good.data.app_state.data(),
                                   good.data.app_state.size()})
                .state_digest(),
            tip.data.app_digest)
      << "base + delta replay must reconstruct the tip's app state";

  // A link without a certificate is accepted but the chain degrades to the
  // legacy (uncertified) trust path.
  const ChainVerifyResult legacy = verify_checkpoint_chain(
      frame_of({{&base_record, &base_cert}, {&delta_record, nullptr}}),
      load.setup.committee, kShape, kInterval, validation);
  EXPECT_EQ(legacy.error, "");
  EXPECT_FALSE(legacy.certified);

  // A certificate that is VALID crypto over content that does not match its
  // link refuses the whole chain — never a downgrade to uncertified.
  CutPayload lying = payload_for(tip);
  lying.app_digest.bytes[0] ^= 0x01;
  const Bytes lying_cert = certify(load, lying, {0, 1, 3});
  const ChainVerifyResult mismatched = verify_checkpoint_chain(
      frame_of({{&base_record, &base_cert}, {&delta_record, &lying_cert}}),
      load.setup.committee, kShape, kInterval, validation);
  EXPECT_NE(mismatched.error, "");
  EXPECT_FALSE(mismatched.certified);

  // So does a certificate claiming the wrong boundary index for its head.
  CutPayload wrong_index = payload_for(tip);
  wrong_index.cut_index += 1;
  const Bytes wrong_index_cert = certify(load, wrong_index, {0, 1, 2});
  const ChainVerifyResult misindexed = verify_checkpoint_chain(
      frame_of({{&base_record, &base_cert}, {&delta_record, &wrong_index_cert}}),
      load.setup.committee, kShape, kInterval, validation);
  EXPECT_NE(misindexed.error, "");
}

TEST(CheckpointCert, RepeatedSignerNeverCountsTowardTheQuorum) {
  Workload load(40);
  CanonicalCutter cutter(load, 6);
  for (const BlockPtr& block : load.blocks) cutter.feed(block);
  ASSERT_FALSE(cutter.cuts.empty());
  const CutPayload payload = payload_for(cutter.cuts.front());
  const Bytes message = encode_cut_payload(payload);
  std::vector<crypto::Ed25519PublicKey> keys;
  for (ValidatorId v = 0; v < load.setup.committee.size(); ++v) {
    keys.push_back(load.setup.committee.public_key(v));
  }
  const auto share = [&](ValidatorId v) {
    return crypto::MultisigShare{v, sign_cut(payload, v, load.setup.keypairs[v].private_key)
                                        .signature};
  };
  const std::uint32_t quorum = load.setup.committee.quorum_threshold();
  ASSERT_EQ(quorum, 3u);

  // Control: three distinct signers make a quorum.
  const crypto::Multisig distinct{{share(0), share(1), share(2)}};
  EXPECT_TRUE(crypto::multisig_verify(distinct, {message.data(), message.size()}, keys, quorum));

  // 2f+1 valid shares that hold only 2f distinct signers: every signature
  // verifies, yet the repeat must not stand in for a third validator.
  const crypto::Multisig repeated{{share(0), share(1), share(1)}};
  EXPECT_FALSE(
      crypto::multisig_verify(repeated, {message.data(), message.size()}, keys, quorum));
  EXPECT_NE(verify_checkpoint_certificate({payload, repeated}, load.setup.committee), "");
}

TEST(CheckpointCert, TamperedAppStateUnderAValidCertificateRefuses) {
  Workload load(40);
  constexpr Round kInterval = 6;
  CanonicalCutter cutter(load, kInterval);
  for (const BlockPtr& block : load.blocks) cutter.feed(block);
  ASSERT_GE(cutter.cuts.size(), 2u);
  const auto& cut = cutter.cuts.back();
  const Bytes cert = certify(load, payload_for(cut), {0, 1, 2});

  ValidationOptions validation;
  validation.verify_signature = false;
  validation.verify_coin_share = false;
  const auto verify = [&](const CheckpointData& data) {
    const Bytes record = encode_checkpoint(data);
    const std::vector<std::pair<BytesView, BytesView>> views{
        {BytesView{record.data(), record.size()}, BytesView{cert.data(), cert.size()}}};
    const Bytes encoded = encode_checkpoint_chain_frame(views);
    return verify_checkpoint_chain(decode_checkpoint_chain_frame({encoded.data(), encoded.size()}),
                                   load.setup.committee, kShape, kInterval, validation);
  };

  // Control: the untouched cut verifies under its certificate.
  const ChainVerifyResult good = verify(cut.data);
  ASSERT_EQ(good.error, "");
  EXPECT_TRUE(good.certified);

  // Swap in another well-formed KV snapshot (an earlier cut's) and keep the
  // certified app_digest: the certificate still binds, but the state it
  // would install is not the state the quorum signed.
  CheckpointData tampered = cut.data;
  tampered.app_state = cutter.cuts.front().data.app_state;
  ASSERT_NE(tampered.app_state, cut.data.app_state);
  const ChainVerifyResult refused = verify(tampered);
  EXPECT_NE(refused.error, "");
  EXPECT_FALSE(refused.certified);
}

}  // namespace
}  // namespace mahimahi
