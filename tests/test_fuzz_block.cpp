// Robustness fuzzing of the block wire codec and validation pipeline.
//
// Blocks are the only message type the protocol accepts from the network
// (§2.3), so the deserialize -> validate pipeline is the entire attack
// surface for malformed input. Properties:
//   * any single bit flip is caught — either the decoder throws SerdeError
//     or the decoded block fails signature validation (every byte of the
//     wire image except the trailing signature is covered by the digest,
//     and the signature signs the digest);
//   * any truncation or extension of the wire image throws;
//   * arbitrary random bytes never crash the decoder;
//   * WAL records are CRC-framed, so flipping any byte of a record makes
//     replay stop at a clean prefix instead of delivering garbage;
//   * decoding is canonical: every byte string Block::deserialize accepts
//     re-serializes byte-identically, and an overlong varint in any field is
//     rejected; the decoded digest follows the v4 rule (each payload through
//     its digest), restated here independently of Block;
//   * the kFetch and kHorizon frames (net/node_runtime.h) take the same
//     mutations: the decoders never crash, reject every truncation, trailing
//     bytes and a fetch count past kMaxFetchRefs, and whatever they accept
//     re-encodes byte-identically.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <optional>

#include "common/rng.h"
#include "crypto/blake2b.h"
#include "crypto/blake2bp.h"
#include "net/node_runtime.h"
#include "types/validation.h"
#include "wal/segmented_wal.h"

namespace mahimahi {
namespace {

class BlockFuzz : public ::testing::Test {
 protected:
  static Block make_subject(const Committee::TestSetup& setup) {
    std::vector<BlockRef> genesis;
    for (ValidatorId v = 0; v < setup.committee.size(); ++v) {
      genesis.push_back(Block::genesis(v, setup.committee.coin()).ref());
    }
    TxBatch batch;
    batch.id = 77;
    batch.count = 3;
    batch.payload = Bytes{1, 2, 3, 4, 5, 6, 7, 8};
    return Block::make(1, 1, std::move(genesis), {batch},
                       setup.committee.coin().share(1, 1),
                       setup.keypairs[1].private_key);
  }

  BlockFuzz()
      : setup_(Committee::make_test(4)),
        block_(make_subject(setup_)),
        wire_(block_.serialize()) {}

  // True when the mutated image is rejected somewhere in the pipeline.
  bool rejected(const Bytes& image) const {
    try {
      const Block decoded = Block::deserialize({image.data(), image.size()});
      return validate_block(decoded, setup_.committee) != BlockValidity::kValid;
    } catch (const serde::SerdeError&) {
      return true;
    }
  }

  Committee::TestSetup setup_;
  Block block_;
  Bytes wire_;
};

TEST_F(BlockFuzz, PristineImageRoundTripsAndValidates) {
  const Block decoded = Block::deserialize({wire_.data(), wire_.size()});
  EXPECT_EQ(decoded.digest(), block_.digest());
  EXPECT_EQ(validate_block(decoded, setup_.committee), BlockValidity::kValid);
}

TEST_F(BlockFuzz, EveryBitFlipIsRejected) {
  // Exhaustive over bytes, one bit per byte (rotating), plus all 8 bits for
  // a random sample of bytes — full 8x exhaustive would be slow for no
  // extra information.
  for (std::size_t i = 0; i < wire_.size(); ++i) {
    Bytes mutated = wire_;
    mutated[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_TRUE(rejected(mutated)) << "bit flip at byte " << i << " accepted";
  }
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t i = rng.uniform(wire_.size());
    Bytes mutated = wire_;
    mutated[i] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
    EXPECT_TRUE(rejected(mutated)) << "bit flip at byte " << i;
  }
}

// A payload of kBulkHashCrossover bytes or more is digested with BLAKE2bp:
// flips anywhere in a 4 KiB payload, and in the stripe tails, are caught.
TEST_F(BlockFuzz, BulkBlockBitFlipsAreRejected) {
  TxBatch batch;
  batch.id = 78;
  batch.count = 8;
  batch.payload.resize(4096);
  for (std::size_t i = 0; i < batch.payload.size(); ++i) {
    batch.payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  const Block bulk = Block::make(1, 1, block_.parents(), {batch}, block_.coin_share(),
                                 setup_.keypairs[1].private_key);
  const Bytes wire = bulk.serialize();
  ASSERT_GE(wire.size() - 64, crypto::kBulkHashCrossover);
  EXPECT_FALSE(rejected(wire));
  for (std::size_t i = 0; i < wire.size(); i += 5) {
    Bytes mutated = wire;
    mutated[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_TRUE(rejected(mutated)) << "bit flip at byte " << i << " accepted";
  }
}

// Older binaries' blocks (v2: every content size on BLAKE2b; v3: content
// bytes on BLAKE2bp, payloads hashed inside the block digest) are refused at
// the tag, before any digest is computed.
TEST_F(BlockFuzz, OlderDomainTagIsRejected) {
  ASSERT_EQ(std::string(wire_.begin(), wire_.begin() + 18), "mahi-mahi/block/v4");
  for (const std::string_view older : {"mahi-mahi/block/v2", "mahi-mahi/block/v3"}) {
    Bytes image = wire_;
    std::copy(older.begin(), older.end(), image.begin());
    try {
      Block::deserialize({image.data(), image.size()});
      ADD_FAILURE() << older << "-tagged block decoded";
    } catch (const serde::SerdeError& error) {
      EXPECT_STREQ(error.what(), "bad block domain tag") << older;
    }
  }
}

TEST_F(BlockFuzz, EveryTruncationThrows) {
  for (std::size_t length = 0; length < wire_.size(); ++length) {
    Bytes truncated(wire_.begin(), wire_.begin() + length);
    EXPECT_THROW(Block::deserialize({truncated.data(), truncated.size()}),
                 serde::SerdeError)
        << "truncation to " << length << " bytes parsed";
  }
}

TEST_F(BlockFuzz, TrailingGarbageThrows) {
  for (const std::size_t extra : {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
    Bytes extended = wire_;
    extended.insert(extended.end(), extra, 0xAB);
    EXPECT_THROW(Block::deserialize({extended.data(), extended.size()}),
                 serde::SerdeError);
  }
}

TEST_F(BlockFuzz, RandomBuffersNeverCrash) {
  Rng rng(31337);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes junk(rng.uniform(512));
    for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng.uniform(256));
    EXPECT_TRUE(rejected(junk)) << "random buffer accepted as a valid block";
  }
}

TEST_F(BlockFuzz, ByteSwapsAreRejected) {
  // Transpositions model reordering corruption rather than flips.
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = wire_;
    const std::size_t i = rng.uniform(mutated.size());
    const std::size_t j = rng.uniform(mutated.size());
    if (mutated[i] == mutated[j]) continue;  // no-op swap
    std::swap(mutated[i], mutated[j]);
    EXPECT_TRUE(rejected(mutated)) << "swap " << i << "<->" << j;
  }
}

// --------------------------------------------------------------------------
// Canonical encoding
// --------------------------------------------------------------------------

// Blocks of varied shapes: multi-byte varints (rounds, timestamps, lengths),
// several parents, payloads and declared keys of random sizes.
std::vector<Block> varied_blocks(const Committee::TestSetup& setup, Rng& rng) {
  std::vector<Block> blocks;
  for (int shape = 0; shape < 6; ++shape) {
    const Round round = shape == 0 ? 1 : 1 + rng.uniform(std::uint64_t{1} << (7 * shape));
    std::vector<BlockRef> parents;
    const std::uint64_t parent_count = 1 + rng.uniform(setup.committee.size());
    for (ValidatorId v = 0; v < parent_count; ++v) {
      parents.push_back(BlockRef{round - 1, v, crypto::Blake2b::hash256(as_bytes_view(std::to_string(v)))});
    }
    std::vector<TxBatch> batches(rng.uniform(4));
    for (auto& batch : batches) {
      batch.id = rng.next_u64();
      batch.submitted_at = static_cast<TimeMicros>(rng.uniform(1ull << 40));
      batch.count = static_cast<std::uint32_t>(1 + rng.uniform(1000));
      // Payloads on both sides of crypto::kBulkHashCrossover.
      batch.payload.resize(rng.uniform(2) == 0 ? rng.uniform(300) : 1024 + rng.uniform(1024));
      for (auto& byte : batch.payload) byte = static_cast<std::uint8_t>(rng.next_u64());
      for (std::uint64_t k = rng.uniform(3); k > 0; --k) {
        batch.read_keys.push_back(std::string(rng.uniform(200), 'r'));
        batch.write_keys.push_back(std::to_string(k));
      }
    }
    const ValidatorId author = static_cast<ValidatorId>(rng.uniform(setup.committee.size()));
    blocks.push_back(Block::make(author, round, std::move(parents), std::move(batches),
                                 setup.committee.coin().share(author, round),
                                 setup.keypairs[author].private_key,
                                 static_cast<TimeMicros>(rng.uniform(1ull << (10 * shape)))));
  }
  return blocks;
}

TEST(BlockCanonicalEncoding, EncodedSizeIsExact) {
  const auto setup = Committee::make_test(4);
  Rng rng(5);
  for (const Block& block : varied_blocks(setup, rng)) {
    EXPECT_EQ(block.serialize().size(), block.encoded_size());
  }
}

// The v4 block digest, restated from the decoded fields: the wire content
// with each payload replaced by its length and crypto::bulk_hash256 digest,
// hashed with crypto::bulk_hash256. Tallies every hashed input (payloads and
// the preimage) below / at or above the crossover in `small` / `bulk`.
Digest v4_digest(const Block& block, std::size_t& small, std::size_t& bulk) {
  const auto hash = [&](BytesView input) {
    (input.size() < crypto::kBulkHashCrossover ? small : bulk) += 1;
    return crypto::bulk_hash256(input);
  };
  serde::Writer w;
  w.raw(as_bytes_view("mahi-mahi/block/v4"));
  w.u32(block.author());
  w.varint(block.round());
  w.varint(static_cast<std::uint64_t>(block.created_at()));
  w.varint(block.parents().size());
  for (const auto& parent : block.parents()) {
    w.varint(parent.round);
    w.u32(parent.author);
    w.digest(parent.digest);
  }
  w.digest(block.coin_share());
  w.varint(block.batches().size());
  for (const auto& batch : block.batches()) {
    w.u64(batch.id);
    w.u64(static_cast<std::uint64_t>(batch.submitted_at));
    w.u32(batch.count);
    w.u32(batch.tx_bytes);
    w.varint(batch.payload.size());
    w.digest(hash({batch.payload.data(), batch.payload.size()}));
    for (const auto* keys : {&batch.read_keys, &batch.write_keys}) {
      w.varint(keys->size());
      for (const auto& key : *keys) w.bytes(as_bytes_view(key));
    }
  }
  return hash({w.data().data(), w.size()});
}

TEST(BlockCanonicalEncoding, AcceptedMutantsReserializeByteIdentically) {
  const auto setup = Committee::make_test(4);
  Rng rng(4242);
  std::size_t accepted = 0;
  std::size_t small = 0;  // hashed inputs below / at or above the crossover
  std::size_t bulk = 0;
  for (const Block& block : varied_blocks(setup, rng)) {
    const Bytes wire = block.serialize();
    for (int trial = 0; trial < 400; ++trial) {
      Bytes mutated = wire;
      const std::size_t at = rng.uniform(mutated.size());
      switch (rng.uniform(4)) {
        case 0: mutated[at] ^= static_cast<std::uint8_t>(1u << rng.uniform(8)); break;
        case 1: mutated[at] = static_cast<std::uint8_t>(rng.next_u64()); break;
        case 2: mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(at),
                               static_cast<std::uint8_t>(rng.next_u64()));
                break;
        default: mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(at)); break;
      }
      std::optional<Block> decoded;
      try {
        decoded.emplace(Block::deserialize({mutated.data(), mutated.size()}));
      } catch (const serde::SerdeError&) {
        continue;
      }
      ++accepted;
      const Bytes again = decoded->serialize();
      ASSERT_EQ(again, mutated) << "accepted a non-canonical encoding (trial " << trial << ")";
      // The decoded digest follows the v4 rule.
      EXPECT_EQ(decoded->digest(), v4_digest(*decoded, small, bulk));
    }
  }
  EXPECT_GT(accepted, 100u);  // payload and signature bytes decode freely
  // Both digest rules (BLAKE2b and BLAKE2bp) are exercised.
  EXPECT_GT(small, 0u);
  EXPECT_GT(bulk, 0u);
}

// Re-encodes `block` field by field with the varint at index `overlong`
// (in encoding order) written one byte too long; -1 writes it canonically.
Bytes encode_with_overlong(const Block& block, int overlong, int& varints) {
  serde::Writer w;
  varints = 0;
  const auto varint = [&](std::uint64_t v) {
    if (varints++ != overlong) {
      w.varint(v);
      return;
    }
    for (; v >= 0x80; v >>= 7) w.u8(static_cast<std::uint8_t>(v) | 0x80);
    w.u8(static_cast<std::uint8_t>(v) | 0x80);
    w.u8(0x00);
  };
  w.raw(as_bytes_view("mahi-mahi/block/v4"));
  w.u32(block.author());
  varint(block.round());
  varint(static_cast<std::uint64_t>(block.created_at()));
  varint(block.parents().size());
  for (const auto& parent : block.parents()) {
    varint(parent.round);
    w.u32(parent.author);
    w.digest(parent.digest);
  }
  w.digest(block.coin_share());
  varint(block.batches().size());
  for (const auto& batch : block.batches()) {
    w.u64(batch.id);
    w.u64(static_cast<std::uint64_t>(batch.submitted_at));
    w.u32(batch.count);
    w.u32(batch.tx_bytes);
    varint(batch.payload.size());
    w.raw({batch.payload.data(), batch.payload.size()});
    for (const auto* keys : {&batch.read_keys, &batch.write_keys}) {
      varint(keys->size());
      for (const auto& key : *keys) {
        varint(key.size());
        w.raw(as_bytes_view(key));
      }
    }
  }
  w.raw({block.signature().bytes.data(), block.signature().bytes.size()});
  return std::move(w).take();
}

TEST(BlockCanonicalEncoding, OverlongVarintRejectedInEveryField) {
  const auto setup = Committee::make_test(4);
  Rng rng(99);
  for (const Block& block : varied_blocks(setup, rng)) {
    int varints = 0;
    ASSERT_EQ(encode_with_overlong(block, -1, varints), block.serialize());
    for (int field = 0; field < varints; ++field) {
      int ignored = 0;
      const Bytes image = encode_with_overlong(block, field, ignored);
      EXPECT_THROW(Block::deserialize({image.data(), image.size()}), serde::SerdeError)
          << "overlong varint #" << field << " of " << varints << " accepted";
    }
  }
}

// --------------------------------------------------------------------------
// Fetch and horizon frames
// --------------------------------------------------------------------------

class FrameFuzz : public ::testing::Test {
 protected:
  FrameFuzz() {
    // Multi-byte varint rounds, every author byte pattern, random digests.
    Rng rng(4242);
    for (const std::size_t count : {0, 1, 3, 40}) {
      std::vector<BlockRef> refs;
      for (std::size_t i = 0; i < count; ++i) {
        BlockRef ref;
        ref.round = rng.uniform(std::uint64_t{1} << (7 * (i % 6)));
        ref.author = static_cast<ValidatorId>(rng.uniform(std::uint64_t{1} << 32));
        for (auto& byte : ref.digest.bytes) byte = static_cast<std::uint8_t>(rng.uniform(256));
        refs.push_back(ref);
      }
      fetches_.push_back(net::encode_fetch_frame(refs));
    }
    for (const Round horizon : {Round{0}, Round{127}, Round{128}, Round{1} << 40}) {
      horizons_.push_back(net::encode_horizon_frame(horizon));
    }
  }

  // A frame either throws SerdeError or decodes canonically.
  static bool fetch_ok(const Bytes& frame) {
    try {
      return net::encode_fetch_frame(net::decode_fetch_frame({frame.data(), frame.size()})) ==
             frame;
    } catch (const serde::SerdeError&) {
      return true;
    }
  }
  static bool horizon_ok(const Bytes& frame) {
    try {
      return net::encode_horizon_frame(
                 net::decode_horizon_frame({frame.data(), frame.size()})) == frame;
    } catch (const serde::SerdeError&) {
      return true;
    }
  }
  std::vector<Bytes> all() const {
    std::vector<Bytes> frames = fetches_;
    frames.insert(frames.end(), horizons_.begin(), horizons_.end());
    return frames;
  }
  // Decodes by the frame's own type byte (the horizon decoder when absent).
  static bool decodes(const Bytes& frame) {
    try {
      if (!frame.empty() && frame[0] == static_cast<std::uint8_t>(net::MessageType::kFetch)) {
        net::decode_fetch_frame({frame.data(), frame.size()});
      } else {
        net::decode_horizon_frame({frame.data(), frame.size()});
      }
      return true;
    } catch (const serde::SerdeError&) {
      return false;
    }
  }

  std::vector<Bytes> fetches_;
  std::vector<Bytes> horizons_;
};

TEST_F(FrameFuzz, PristineFramesRoundTrip) {
  for (const Bytes& frame : fetches_) EXPECT_TRUE(decodes(frame) && fetch_ok(frame));
  for (const Bytes& frame : horizons_) EXPECT_TRUE(decodes(frame) && horizon_ok(frame));
  EXPECT_EQ(net::decode_horizon_frame(horizons_.back()), Round{1} << 40);
  // The cap itself is accepted.
  const std::vector<BlockRef> full(net::kMaxFetchRefs, BlockRef{5, 2, Digest{}});
  EXPECT_EQ(net::decode_fetch_frame(net::encode_fetch_frame(full)), full);
}

TEST_F(FrameFuzz, BitFlipsNeverCrashAndStayCanonical) {
  Rng rng(2025);
  for (const Bytes& frame : all()) {
    for (std::size_t i = 0; i < frame.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes mutated = frame;
        mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_TRUE(fetch_ok(mutated) && horizon_ok(mutated))
            << "byte " << i << " bit " << bit << " decoded non-canonically";
      }
    }
  }
  // Random buffers behind a valid type byte.
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes junk(1 + rng.uniform(300));
    for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng.uniform(256));
    junk[0] = static_cast<std::uint8_t>(trial % 2 == 0 ? net::MessageType::kFetch
                                                       : net::MessageType::kHorizon);
    EXPECT_TRUE(fetch_ok(junk) && horizon_ok(junk)) << "trial " << trial;
  }
}

TEST_F(FrameFuzz, EveryTruncationThrows) {
  for (const Bytes& frame : all()) {
    for (std::size_t length = 0; length < frame.size(); ++length) {
      EXPECT_FALSE(decodes(Bytes(frame.begin(), frame.begin() + length)))
          << "truncation to " << length << " of " << frame.size() << " bytes decoded";
    }
  }
}

TEST_F(FrameFuzz, TrailingBytesAreRejected) {
  // Like the block codec: a frame is exactly its encoding.
  for (const Bytes& frame : all()) {
    for (const std::size_t extra : {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
      Bytes extended = frame;
      extended.insert(extended.end(), extra, 0x00);
      EXPECT_FALSE(decodes(extended)) << extra << " trailing bytes accepted";
    }
  }
}

TEST_F(FrameFuzz, InflatedCountThrowsBeforeReserving) {
  // Counts past the cap, with and without refs behind them: the decoder
  // throws on the count itself, so a 2^63 claim reserves nothing.
  for (const std::uint64_t count :
       {net::kMaxFetchRefs + 1, std::uint64_t{1} << 32, ~std::uint64_t{0} >> 1}) {
    serde::Writer w;
    w.u8(static_cast<std::uint8_t>(net::MessageType::kFetch));
    w.varint(count);
    for (int i = 0; i < 3; ++i) {
      w.varint(1);
      w.u32(0);
      w.digest(Digest{});
    }
    const Bytes frame = std::move(w).take();
    try {
      net::decode_fetch_frame({frame.data(), frame.size()});
      ADD_FAILURE() << "count " << count << " accepted";
    } catch (const serde::SerdeError& error) {
      EXPECT_STREQ(error.what(), "absurd fetch count");
    }
  }
  // A count within the cap that the bytes do not back still throws.
  Bytes short_frame = fetches_[2];
  short_frame[1] = 4;  // claims 4 refs, carries 3
  EXPECT_FALSE(decodes(short_frame));
}

TEST_F(FrameFuzz, WrongTypeByteThrows) {
  EXPECT_THROW(net::decode_fetch_frame(horizons_[1]), serde::SerdeError);
  EXPECT_THROW(net::decode_horizon_frame(fetches_[1]), serde::SerdeError);
}

// --------------------------------------------------------------------------
// WAL corruption sweep
// --------------------------------------------------------------------------

class WalCorruption : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WalCorruption, FlipAnywhereYieldsCleanPrefix) {
  const auto setup = Committee::make_test(4);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mahi_fuzz_wal_" + std::to_string(::getpid()) + "_" +
                    std::to_string(GetParam()) + ".wal");
  std::filesystem::remove_all(dir);
  // 20 small blocks fit the default segment budget: a one-segment log.
  const auto path = SegmentedWal::segment_path(dir.string(), 0);

  // Write 20 blocks.
  std::vector<Digest> digests;
  {
    SegmentedWal wal(dir.string());
    std::vector<BlockRef> parents;
    for (ValidatorId v = 0; v < 4; ++v) {
      parents.push_back(Block::genesis(v, setup.committee.coin()).ref());
    }
    BlockRef own_previous = parents[0];
    for (Round r = 1; r <= 20; ++r) {
      auto block = Block::make(0, r, parents, {}, setup.committee.coin().share(0, r),
                               setup.keypairs[0].private_key);
      digests.push_back(block.digest());
      wal.append_block(block, true);
      // Chain rounds through the own block so refs stay structurally valid.
      own_previous = block.ref();
      parents[0] = own_previous;
    }
    wal.sync();
  }
  ASSERT_EQ(SegmentedWal::list_segments(dir.string()).size(), 1u);

  // Flip one random byte.
  const auto size = std::filesystem::file_size(path);
  Rng rng(GetParam());
  const std::uint64_t offset = rng.uniform(size);
  {
    std::FILE* file = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(file, nullptr);
    std::fseek(file, static_cast<long>(offset), SEEK_SET);
    const int original = std::fgetc(file);
    std::fseek(file, static_cast<long>(offset), SEEK_SET);
    std::fputc((original ^ 0x40) & 0xFF, file);
    std::fclose(file);
  }

  // Replay must deliver a clean prefix of the original digests: no garbage
  // block, no crash, and everything before the corrupted record intact.
  std::vector<Digest> replayed;
  const auto result = SegmentedWal::replay(
      dir.string(), [&](BlockPtr block, bool) { replayed.push_back(block->digest()); },
      /*truncate_corrupt_tail=*/false);

  ASSERT_LE(replayed.size(), digests.size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i], digests[i]) << "replayed record " << i << " differs";
  }
  // A flip inside a record's framing or payload costs at least that record.
  EXPECT_TRUE(result.corrupt_tail || replayed.size() == digests.size());

  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(RandomOffsets, WalCorruption,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace mahimahi
