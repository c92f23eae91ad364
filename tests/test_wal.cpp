// WAL tests over the one on-disk layout (SegmentedWal): append/replay
// round-trips, torn-write recovery, corruption detection, full validator
// crash-recovery, failed flushes that must never be acknowledged, and the
// group-commit decorator (byte-identity with the inline log, one write —
// plus an fsync when enabled — per group, durability acks, torn groups).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>

#include "common/crc32.h"
#include "common/log.h"
#include "common/rng.h"
#include "validator/validator.h"
#include "wal/group_commit_wal.h"
#include "wal/segmented_wal.h"
#include "wal/wal.h"

namespace mahimahi {
namespace {

class WalTest : public ::testing::Test {
 protected:
  WalTest() : setup_(Committee::make_test(4)) {
    path_ = std::filesystem::temp_directory_path() /
            ("mahi_wal_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(path_);
  }
  ~WalTest() override { std::filesystem::remove_all(path_); }

  // The log's only segment: none of these tests writes enough to roll.
  std::filesystem::path segment() const {
    return SegmentedWal::segment_path(path_.string(), 0);
  }

  Block make_block(ValidatorId author, std::uint64_t marker) {
    std::vector<BlockRef> refs;
    for (ValidatorId v = 0; v < 4; ++v) {
      refs.push_back(Block::genesis(v, setup_.committee.coin()).ref());
    }
    TxBatch batch;
    batch.id = marker;
    return Block::make(author, 1, refs, {batch},
                       setup_.committee.coin().share(author, 1),
                       setup_.keypairs[author].private_key);
  }

  Committee::TestSetup setup_;
  std::filesystem::path path_;
};

TEST_F(WalTest, AppendAndReplayBlocks) {
  {
    SegmentedWal wal(path_.string());
    wal.append_block(make_block(0, 100), /*own=*/true);
    wal.append_block(make_block(1, 200), /*own=*/false);
    wal.sync();
  }

  std::vector<std::pair<Digest, bool>> blocks;
  const auto result = SegmentedWal::replay(path_.string(), [&](BlockPtr block, bool own) {
    blocks.emplace_back(block->digest(), own);
  });

  EXPECT_EQ(result.records, 2u);
  EXPECT_FALSE(result.corrupt_tail);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].first, make_block(0, 100).digest());
  EXPECT_TRUE(blocks[0].second);
  EXPECT_FALSE(blocks[1].second);
}

TEST_F(WalTest, ReplayOfMissingLogIsEmpty) {
  const auto result = SegmentedWal::replay(path_.string(), {});
  EXPECT_EQ(result.records, 0u);
  EXPECT_FALSE(result.corrupt_tail);
}

TEST_F(WalTest, MonolithicLogFileIsRefusedNotReadAsEmpty) {
  // An older binary's log is one regular file at the WAL path. Reading it as
  // an empty log would forget own proposals, so both replay and open throw.
  { std::ofstream(path_, std::ios::binary) << "an old monolithic log"; }
  EXPECT_THROW(SegmentedWal::replay(path_.string(), {}), std::runtime_error);
  EXPECT_THROW(SegmentedWal wal(path_.string()), std::runtime_error);
}

TEST_F(WalTest, TornTailIsDiscardedAndTruncated) {
  {
    SegmentedWal wal(path_.string());
    wal.append_block(make_block(0, 1), true);
    wal.append_block(make_block(1, 2), false);
    wal.sync();
  }
  // Simulate a torn write: chop bytes off the tail.
  const auto full_size = std::filesystem::file_size(segment());
  std::filesystem::resize_file(segment(), full_size - 7);

  int replayed = 0;
  const auto visitor = [&](BlockPtr, bool) { ++replayed; };
  const auto result = SegmentedWal::replay(path_.string(), visitor, true);
  EXPECT_EQ(result.records, 1u);
  EXPECT_TRUE(result.corrupt_tail);
  EXPECT_EQ(replayed, 1);
  // The file was truncated to the valid prefix; appends work cleanly.
  EXPECT_EQ(std::filesystem::file_size(segment()),
            wal_encode_block_record(make_block(0, 1), true).size());
  {
    SegmentedWal wal(path_.string());
    wal.append_block(make_block(2, 3), false);
  }
  replayed = 0;
  const auto after = SegmentedWal::replay(path_.string(), visitor, true);
  EXPECT_EQ(after.records, 2u);
  EXPECT_FALSE(after.corrupt_tail);
}

TEST_F(WalTest, ZeroFilledTailIsDiscardedAndTruncated) {
  // After a crash some filesystems keep a grown file size whose data never
  // reached the disk, so the tail reads back as zeros. Eight zero bytes are a
  // record header with len 0 and crc 0, which an empty payload would match:
  // replay must still treat it as torn, not refuse the log.
  const std::size_t valid_size = 2 * wal_encode_block_record(make_block(0, 1), true).size();
  for (const std::size_t zeros : {8u, 13u, 64u}) {
    std::filesystem::remove_all(path_);
    {
      SegmentedWal wal(path_.string());
      wal.append_block(make_block(0, 1), true);
      wal.append_block(make_block(1, 1), false);
    }
    ASSERT_EQ(std::filesystem::file_size(segment()), valid_size);
    std::filesystem::resize_file(segment(), valid_size + zeros);

    int replayed = 0;
    const auto result =
        SegmentedWal::replay(path_.string(), [&](BlockPtr, bool) { ++replayed; }, true);
    EXPECT_EQ(result.records, 2u) << zeros << " zero bytes";
    EXPECT_TRUE(result.corrupt_tail) << zeros << " zero bytes";
    EXPECT_EQ(replayed, 2) << zeros << " zero bytes";
    EXPECT_EQ(std::filesystem::file_size(segment()), valid_size) << zeros << " zero bytes";
  }
}

TEST_F(WalTest, UndecodableRecordWithValidCrcIsRefusedNotTruncated) {
  // An older binary's record: the block under the v3 domain tag, framed and
  // CRC-sealed exactly as that binary wrote it. A crash cannot produce it, so
  // replay throws instead of cutting it off as a torn tail.
  Bytes record = wal_encode_block_record(make_block(1, 2), true);
  const std::string_view v4 = "mahi-mahi/block/v4";
  const auto tag = std::search(record.begin(), record.end(), v4.begin(), v4.end());
  ASSERT_NE(tag, record.end());
  *(tag + static_cast<std::ptrdiff_t>(v4.size()) - 1) = '3';
  const std::uint32_t crc = crc32({record.data() + 8, record.size() - 8});
  std::memcpy(record.data() + 4, &crc, sizeof(crc));
  {
    SegmentedWal wal(path_.string());
    wal.append_block(make_block(0, 1), true);
  }
  {
    std::ofstream out(segment(), std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(record.data()),
              static_cast<std::streamsize>(record.size()));
  }
  const auto size = std::filesystem::file_size(segment());
  int replayed = 0;
  EXPECT_THROW(SegmentedWal::replay(path_.string(), [&](BlockPtr, bool) { ++replayed; }, true),
               std::runtime_error);
  EXPECT_EQ(replayed, 1);
  EXPECT_EQ(std::filesystem::file_size(segment()), size);
}

TEST_F(WalTest, CorruptMiddleByteStopsReplay) {
  {
    SegmentedWal wal(path_.string());
    wal.append_block(make_block(0, 1), true);
    wal.append_block(make_block(1, 2), false);
  }
  // Flip a byte inside the second record's payload.
  const auto size = std::filesystem::file_size(segment());
  std::FILE* f = std::fopen(segment().c_str(), "r+b");
  std::fseek(f, static_cast<long>(size - 10), SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, static_cast<long>(size - 10), SEEK_SET);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);

  int replayed = 0;
  const auto result = SegmentedWal::replay(
      path_.string(), [&](BlockPtr, bool) { ++replayed; }, false);
  EXPECT_EQ(result.records, 1u);
  EXPECT_EQ(replayed, 1);
  EXPECT_TRUE(result.corrupt_tail);
}

TEST_F(WalTest, ValidatorCrashRecoveryDoesNotEquivocate) {
  // A validator logs its own proposal, "crashes", and a new instance
  // replays the WAL: it must adopt the logged round and not produce a
  // conflicting round-1 block.
  ValidatorConfig config;
  config.id = 0;
  config.committer = mahi_mahi_5(1);

  BlockPtr first_proposal;
  {
    SegmentedWal wal(path_.string());
    ValidatorCore validator(setup_.committee, setup_.keypairs[0].private_key, config);
    const Actions actions = validator.on_tick(0);
    for (const auto& block : actions.inserted) {
      wal.append_block(*block, block->author() == 0);
    }
    first_proposal = actions.broadcast.at(0);
  }

  ValidatorCore recovered(setup_.committee, setup_.keypairs[0].private_key, config);
  SegmentedWal::replay(path_.string(),
                       [&](BlockPtr block, bool) { recovered.recover_block(block); });

  EXPECT_EQ(recovered.last_proposed_round(), 1u);
  const Actions tick = recovered.on_tick(1);
  for (const auto& block : tick.broadcast) {
    EXPECT_NE(block->round(), 1u) << "recovered validator re-proposed round 1";
  }
  EXPECT_TRUE(recovered.dag().contains(first_proposal->digest()));
}

TEST(NullWalTest, DurabilityAckIsSynchronous) {
  // The runtime gates proposal broadcast on this ack; a NullWal that
  // deferred it would wedge proposals whenever wal_group_commit is set
  // without a wal_path.
  NullWal wal;
  bool ran = false;
  wal.on_durable([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST_F(WalTest, InlineDurabilityAckIsSynchronous) {
  SegmentedWal wal(path_.string());
  wal.append_block(make_block(0, 1), true);
  bool ran = false;
  wal.on_durable([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST_F(WalTest, InlineFsyncPaysOneSyncPerAppendedBatch) {
  // The runtime acks one inserted batch up to three times (durable stamp,
  // gated broadcast, commit stamp). Only the first may touch the disk.
  SegmentedWalOptions options;
  options.fsync_on_sync = true;
  SegmentedWal wal(path_.string(), options);
  wal.append_block(make_block(0, 1), true);
  wal.append_block(make_block(1, 2), false);
  int acks = 0;
  for (int i = 0; i < 3; ++i) wal.on_durable([&] { ++acks; });
  EXPECT_EQ(acks, 3);
  EXPECT_EQ(wal.syscalls(), 2u) << "one write + one fsync for the whole batch";
  wal.sync();  // nothing new appended: still free
  EXPECT_EQ(wal.syscalls(), 2u);
  wal.append_block(make_block(2, 3), false);
  wal.sync();
  EXPECT_EQ(wal.syscalls(), 4u);
}

// A segment that cannot be flushed: /dev/full fails every write with ENOSPC
// (and fsync with EINVAL), so no record appended to it is ever durable.
void point_first_segment_at_dev_full(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  std::filesystem::create_symlink("/dev/full", SegmentedWal::segment_path(dir.string(), 0));
}

TEST_F(WalTest, FailedFlushIsNeverAcknowledged) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  for (const bool fsync : {false, true}) {
    std::filesystem::remove_all(path_);
    point_first_segment_at_dev_full(path_);
    SegmentedWalOptions options;
    options.fsync_on_sync = fsync;
    SegmentedWal wal(path_.string(), options);
    wal.append_block(make_block(0, 1), true);
    EXPECT_THROW(wal.sync(), std::runtime_error) << "fsync " << fsync;
    wal.append_block(make_block(1, 2), false);
    bool acked = false;
    EXPECT_THROW(wal.on_durable([&] { acked = true; }), std::runtime_error)
        << "fsync " << fsync;
    EXPECT_FALSE(acked) << "fsync " << fsync;
  }
}

TEST_F(WalTest, FailedGroupFlushTerminatesBeforeItsAck) {
  // The writer thread cannot hand a flush error back to the appender, so it
  // stops the process; the ack the group covers must never have fired.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  point_first_segment_at_dev_full(path_);
  const Block block = make_block(0, 1);
  EXPECT_DEATH(
      {
        set_log_level(LogLevel::kWarn);
        GroupCommitWal wal(std::make_unique<SegmentedWal>(path_.string()), {});
        wal.append_block(block, true);
        wal.on_durable([] {
          std::fputs("acked\n", stderr);
          std::_Exit(0);
        });
        wal.sync();
      },
      "WAL group flush failed");
}

// Reads a log's segments, concatenated, for byte-level comparisons.
Bytes slurp(const std::filesystem::path& dir) {
  Bytes bytes;
  for (const std::uint64_t index : SegmentedWal::list_segments(dir.string())) {
    std::ifstream in(SegmentedWal::segment_path(dir.string(), index), std::ios::binary);
    bytes.insert(bytes.end(), std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  return bytes;
}

TEST_F(WalTest, GroupCommitLogIsByteIdenticalToInlineLog) {
  // Property: for ANY flush boundaries — randomized here via the byte
  // budget, the flush interval, and mid-stream durability barriers — the
  // group-committed log is byte-for-byte the log the inline SegmentedWal writes
  // for the same append sequence. Recovery therefore cannot tell the two
  // apart.
  Rng rng(41);
  for (int trial = 0; trial < 6; ++trial) {
    const auto inline_path = path_.string() + ".inline";
    const auto group_path = path_.string() + ".group";
    std::filesystem::remove_all(inline_path);
    std::filesystem::remove_all(group_path);

    // A record sequence, same for both logs.
    const int records = 8 + static_cast<int>(rng.uniform(25));
    {
      SegmentedWal inline_wal(inline_path);
      GroupCommitWalOptions options;
      options.flush_interval =
          static_cast<TimeMicros>(rng.uniform(3) * 200);  // 0 / 200us / 400us
      options.group_byte_budget = 1 + rng.uniform(4096);
      GroupCommitWal group_wal(std::make_unique<SegmentedWal>(group_path), options);

      for (int i = 0; i < records; ++i) {
        const Block block =
            make_block(static_cast<ValidatorId>(rng.uniform(4)), 1000 * trial + i);
        const bool own = rng.uniform(2) == 0;
        inline_wal.append_block(block, own);
        group_wal.append_block(block, own);
        if (rng.uniform(8) == 0) group_wal.sync();  // random durability barrier
      }
      inline_wal.sync();
      group_wal.sync();
      EXPECT_EQ(group_wal.records_appended(), static_cast<std::uint64_t>(records));
      EXPECT_EQ(group_wal.records_flushed(), static_cast<std::uint64_t>(records));
      EXPECT_GE(group_wal.groups_flushed(), 1u);
      // No fsync configured: each group lands as exactly one write.
      EXPECT_EQ(group_wal.group_flush_syscalls(), group_wal.groups_flushed());
    }  // both WALs close (group drains via destructor)

    EXPECT_EQ(slurp(inline_path), slurp(group_path)) << "trial " << trial;
    std::filesystem::remove_all(inline_path);
    std::filesystem::remove_all(group_path);
  }
}

TEST_F(WalTest, GroupCommitDurabilityAcksFireInOrderAfterFlush) {
  GroupCommitWalOptions options;
  options.flush_interval = millis(50);  // force the byte budget to trip first
  options.group_byte_budget = 1;        // every record flushes its group
  GroupCommitWal wal(std::make_unique<SegmentedWal>(path_.string()), options);

  std::mutex mutex;
  std::vector<int> order;
  std::promise<void> all_done;
  for (int i = 0; i < 8; ++i) {
    wal.append_block(make_block(i % 4, 100 + i), false);
    wal.on_durable([&, i] {
      std::lock_guard<std::mutex> g(mutex);
      order.push_back(i);
      if (order.size() == 8) all_done.set_value();
    });
  }
  ASSERT_EQ(all_done.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  std::lock_guard<std::mutex> g(mutex);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  // Every ack fired only after its record was durable; with a 1-byte budget
  // each record got its own group.
  EXPECT_EQ(wal.records_flushed(), 8u);
  EXPECT_GE(wal.groups_flushed(), 1u);
}

TEST_F(WalTest, GroupCommitTornTailTruncatesCleanlyAtEveryOffset) {
  // Crash model: the machine dies mid-write of the LAST flushed group.
  // Whatever prefix of that group reached the disk, replay must stop at the
  // last complete record and truncate to a clean boundary — never crash,
  // never resurrect a partial record.
  std::vector<Bytes> framed;  // per-record framed bytes, to locate boundaries
  {
    GroupCommitWalOptions options;
    options.flush_interval = 0;
    // Large budget: the final sync lands the last records as one group.
    options.group_byte_budget = 1 << 20;
    GroupCommitWal wal(std::make_unique<SegmentedWal>(path_.string()), options);
    // First group: two records, made durable by a barrier.
    for (int i = 0; i < 2; ++i) {
      const Block block = make_block(i % 4, 10 + i);
      framed.push_back(wal_encode_block_record(block, i == 0));
      wal.append_block(block, i == 0);
    }
    wal.sync();
    // Last group: three records in one flush.
    for (int i = 2; i < 5; ++i) {
      const Block block = make_block(i % 4, 10 + i);
      framed.push_back(wal_encode_block_record(block, false));
      wal.append_block(block, false);
    }
  }  // destructor drains the last group

  const Bytes full = slurp(path_);
  std::vector<std::size_t> boundaries{0};  // byte offsets of record ends
  for (const auto& record : framed) boundaries.push_back(boundaries.back() + record.size());
  ASSERT_EQ(full.size(), boundaries.back());

  const std::size_t last_group_start = boundaries[2];  // first 2 records durable
  const auto torn = path_.string() + ".torn";
  const auto torn_segment = SegmentedWal::segment_path(torn, 0);
  for (std::size_t cut = last_group_start; cut < full.size(); ++cut) {
    std::filesystem::remove_all(torn);
    std::filesystem::create_directories(torn);
    {
      std::ofstream out(torn_segment, std::ios::binary);
      out.write(reinterpret_cast<const char*>(full.data()),
                static_cast<std::streamsize>(cut));
    }
    std::uint64_t replayed = 0;
    const auto result = SegmentedWal::replay(
        torn, [&](BlockPtr, bool) { ++replayed; }, /*truncate_corrupt_tail=*/true);

    // The clean prefix is every record whose end fits inside the cut.
    std::size_t complete = 0;
    while (complete + 1 < boundaries.size() && boundaries[complete + 1] <= cut) ++complete;
    EXPECT_EQ(replayed, complete) << "cut at " << cut;
    EXPECT_EQ(result.records, complete) << "cut at " << cut;
    EXPECT_EQ(result.corrupt_tail, cut != boundaries[complete]) << "cut at " << cut;
    EXPECT_EQ(std::filesystem::file_size(torn_segment), boundaries[complete])
        << "cut at " << cut;
  }
  std::filesystem::remove_all(torn);
}

TEST_F(WalTest, GroupCommitRecoversAcrossReopen) {
  // Write through the group path, then replay + append inline, then replay
  // again: the formats interoperate end to end.
  {
    GroupCommitWalOptions options;
    GroupCommitWal wal(std::make_unique<SegmentedWal>(path_.string()), options);
    wal.append_block(make_block(0, 1), true);
    wal.append_block(make_block(1, 2), false);
  }
  std::uint64_t replayed = 0;
  const auto visitor = [&](BlockPtr, bool) { ++replayed; };
  EXPECT_FALSE(SegmentedWal::replay(path_.string(), visitor).corrupt_tail);
  EXPECT_EQ(replayed, 2u);
  {
    SegmentedWal wal(path_.string());
    wal.append_block(make_block(2, 3), false);
  }
  replayed = 0;
  const auto result = SegmentedWal::replay(path_.string(), visitor);
  EXPECT_EQ(result.records, 3u);
  EXPECT_FALSE(result.corrupt_tail);
}

TEST_F(WalTest, LargeLogReplaysCompletely) {
  constexpr int kBlocks = 200;
  {
    SegmentedWal wal(path_.string());
    for (int i = 0; i < kBlocks; ++i) {
      wal.append_block(make_block(i % 4, 1000 + i), i % 4 == 0);
    }
  }
  int replayed = 0;
  const auto result =
      SegmentedWal::replay(path_.string(), [&](BlockPtr, bool) { ++replayed; });
  EXPECT_EQ(replayed, kBlocks);
  EXPECT_FALSE(result.corrupt_tail);
}

}  // namespace
}  // namespace mahimahi
