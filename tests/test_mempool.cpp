// Unit tests for the sharded mempool subsystem (mempool/mempool.h):
// shard-key stability, admission control (duplicates, client quotas, shard
// and pool capacity), round-robin drain fairness, drain determinism, the
// oversized-first-batch carry-over regression, concurrent submission, and
// the payload digest that admitted batches carry into their block.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "crypto/blake2bp.h"
#include "mempool/mempool.h"
#include "types/block.h"
#include "types/validation.h"

namespace mahimahi {
namespace {

// A batch with an exact wire size: empty payload, count transactions of one
// byte each, so wire_bytes() == bytes.
TxBatch make_batch(std::uint64_t client, std::uint64_t seq, std::uint32_t bytes = 512) {
  TxBatch batch;
  batch.id = (client << ShardedMempool::kClientKeyShift) | seq;
  batch.count = bytes;
  batch.tx_bytes = 1;
  return batch;
}

// First `n` client keys whose shards are pairwise distinct (for fairness
// tests that need isolated stripes).
std::vector<std::uint64_t> distinct_shard_clients(const ShardedMempool& pool,
                                                  std::size_t n) {
  std::vector<std::uint64_t> clients;
  std::vector<char> used(pool.shard_count(), 0);
  for (std::uint64_t key = 0; clients.size() < n && key < 10'000; ++key) {
    const std::size_t shard = pool.shard_for(key);
    if (used[shard]) continue;
    used[shard] = 1;
    clients.push_back(key);
  }
  return clients;
}

TEST(ShardedMempoolTest, ShardKeyStability) {
  MempoolConfig config;
  config.shards = 8;
  ShardedMempool pool(config);
  EXPECT_EQ(pool.shard_count(), 8u);

  // The client key is the id's upper 32 bits; the sequence bits never move a
  // batch to another shard.
  const TxBatch a = make_batch(7, 0);
  const TxBatch b = make_batch(7, 999);
  EXPECT_EQ(ShardedMempool::client_key(a), 7u);
  EXPECT_EQ(ShardedMempool::client_key(b), 7u);

  // shard_for is a pure function: repeated calls agree.
  for (std::uint64_t key = 0; key < 64; ++key) {
    EXPECT_EQ(pool.shard_for(key), pool.shard_for(key));
    EXPECT_LT(pool.shard_for(key), 8u);
  }

  // Consecutive client keys spread over several shards (no committee-stride
  // aliasing onto a single stripe).
  std::vector<char> hit(8, 0);
  for (std::uint64_t key = 0; key < 64; ++key) hit[pool.shard_for(key)] = 1;
  EXPECT_GE(std::count(hit.begin(), hit.end(), 1), 4);

  // Batches land in the shard their client maps to.
  ShardedMempool fresh(config);
  ASSERT_TRUE(admitted(fresh.submit(make_batch(7, 0))));
  EXPECT_EQ(fresh.shard_size(fresh.shard_for(7)), 1u);
}

TEST(ShardedMempoolTest, AccountingTracksSubmitAndDrain) {
  ShardedMempool pool;
  EXPECT_TRUE(pool.empty());
  ASSERT_TRUE(admitted(pool.submit(make_batch(1, 0, 100))));
  ASSERT_TRUE(admitted(pool.submit(make_batch(2, 0, 200))));
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.bytes(), 300u);

  const auto drained = pool.drain(10, 1 << 20);
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.bytes(), 0u);
  EXPECT_EQ(pool.stats().accepted, 2u);
}

TEST(ShardedMempoolTest, DuplicateBatchRejected) {
  ShardedMempool pool;
  TxBatch batch = make_batch(3, 17);
  batch.submitted_at = 1000;
  ASSERT_EQ(pool.submit(batch), AdmitResult::kAccepted);

  // A client retry re-stamps the batch; it is still the same submission.
  TxBatch retry = batch;
  retry.submitted_at = 2000;
  EXPECT_EQ(pool.submit(retry), AdmitResult::kDuplicate);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.stats().duplicate, 1u);

  // A different sequence number is a different batch.
  EXPECT_EQ(pool.submit(make_batch(3, 18)), AdmitResult::kAccepted);

  // Dedup covers resident batches only: once drained (proposed), the digest
  // leaves the set and a resubmission is admissible again.
  pool.drain(10, 1 << 20);
  EXPECT_EQ(pool.submit(batch), AdmitResult::kAccepted);
}

TEST(ShardedMempoolTest, ClientQuotaRejection) {
  MempoolConfig config;
  config.max_client_bytes = 1000;
  ShardedMempool pool(config);

  ASSERT_EQ(pool.submit(make_batch(5, 0, 600)), AdmitResult::kAccepted);
  EXPECT_EQ(pool.submit(make_batch(5, 1, 600)), AdmitResult::kClientQuota);
  // Another client is unaffected by 5's quota.
  EXPECT_EQ(pool.submit(make_batch(6, 0, 600)), AdmitResult::kAccepted);
  EXPECT_EQ(pool.stats().client_quota, 1u);

  // Draining frees the quota.
  pool.drain(10, 1 << 20);
  EXPECT_EQ(pool.submit(make_batch(5, 1, 600)), AdmitResult::kAccepted);
}

TEST(ShardedMempoolTest, ShardCapacityRejection) {
  MempoolConfig config;
  config.shards = 1;
  config.max_shard_batches = 3;
  ShardedMempool pool(config);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    ASSERT_EQ(pool.submit(make_batch(1, seq)), AdmitResult::kAccepted);
  }
  EXPECT_EQ(pool.submit(make_batch(1, 3)), AdmitResult::kShardFull);
  EXPECT_EQ(pool.stats().shard_full, 1u);
}

TEST(ShardedMempoolTest, GlobalByteCapRejection) {
  MempoolConfig config;
  config.max_pool_bytes = 1000;
  config.max_client_bytes = 1 << 20;
  ShardedMempool pool(config);
  ASSERT_EQ(pool.submit(make_batch(1, 0, 600)), AdmitResult::kAccepted);
  EXPECT_EQ(pool.submit(make_batch(2, 0, 600)), AdmitResult::kPoolFull);
  EXPECT_EQ(pool.stats().pool_full, 1u);
  EXPECT_EQ(pool.bytes(), 600u);  // the rejected reservation was rolled back

  pool.drain(10, 1 << 20);
  EXPECT_EQ(pool.submit(make_batch(2, 0, 600)), AdmitResult::kAccepted);
}

TEST(ShardedMempoolTest, RoundRobinDrainNoStarvation) {
  MempoolConfig config;
  config.shards = 4;
  ShardedMempool pool(config);
  const auto clients = distinct_shard_clients(pool, 2);
  ASSERT_EQ(clients.size(), 2u);
  const std::uint64_t heavy = clients[0];
  const std::uint64_t light = clients[1];

  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    ASSERT_TRUE(admitted(pool.submit(make_batch(heavy, seq))));
  }
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    ASSERT_TRUE(admitted(pool.submit(make_batch(light, seq))));
  }

  // A budget of 20 batches must serve BOTH clients evenly — the light one
  // gets all 10 of its batches through despite the heavy backlog.
  const auto drained = pool.drain(20, 1ull << 40);
  ASSERT_EQ(drained.size(), 20u);
  const auto from_light = std::count_if(
      drained.begin(), drained.end(),
      [&](const TxBatch& b) { return ShardedMempool::client_key(b) == light; });
  EXPECT_EQ(from_light, 10);
}

TEST(ShardedMempoolTest, DrainCursorPersistsAcrossDrains) {
  MempoolConfig config;
  config.shards = 4;
  ShardedMempool pool(config);
  const auto clients = distinct_shard_clients(pool, 2);
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    ASSERT_TRUE(admitted(pool.submit(make_batch(clients[0], seq))));
    ASSERT_TRUE(admitted(pool.submit(make_batch(clients[1], seq))));
  }
  // Single-batch drains alternate between the two occupied shards: the
  // cursor resumes after the last-served shard instead of re-scanning from
  // zero (which would starve the later shard).
  std::vector<std::uint64_t> served;
  for (int i = 0; i < 4; ++i) {
    const auto out = pool.drain(1, 1ull << 40);
    ASSERT_EQ(out.size(), 1u);
    served.push_back(ShardedMempool::client_key(out[0]));
  }
  EXPECT_NE(served[0], served[1]);
  EXPECT_EQ(served[0], served[2]);
  EXPECT_EQ(served[1], served[3]);
}

TEST(ShardedMempoolTest, PerClientFifoOrderSurvivesSharding) {
  MempoolConfig config;
  config.shards = 8;
  ShardedMempool pool(config);
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    for (std::uint64_t client = 0; client < 5; ++client) {
      ASSERT_TRUE(admitted(pool.submit(make_batch(client, seq))));
    }
  }
  std::map<std::uint64_t, std::uint64_t> next_seq;
  for (const auto& batch : pool.drain(1000, 1ull << 40)) {
    const std::uint64_t client = ShardedMempool::client_key(batch);
    const std::uint64_t seq = batch.id & 0xffffffffull;
    EXPECT_EQ(seq, next_seq[client]++) << "client " << client;
  }
  for (std::uint64_t client = 0; client < 5; ++client) {
    EXPECT_EQ(next_seq[client], 20u);
  }
}

TEST(ShardedMempoolTest, DrainDeterministicGivenShardState) {
  // Two pools fed identically drain identically, drain after drain — block
  // proposal must be a pure function of mempool state.
  MempoolConfig config;
  config.shards = 4;
  ShardedMempool a(config);
  ShardedMempool b(config);
  for (std::uint64_t client = 0; client < 7; ++client) {
    for (std::uint64_t seq = 0; seq < 11; ++seq) {
      ASSERT_TRUE(admitted(a.submit(make_batch(client, seq))));
      ASSERT_TRUE(admitted(b.submit(make_batch(client, seq))));
    }
  }
  while (!a.empty() || !b.empty()) {
    const auto out_a = a.drain(5, 4096);
    const auto out_b = b.drain(5, 4096);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i) {
      EXPECT_EQ(out_a[i].id, out_b[i].id);
    }
    ASSERT_FALSE(out_a.empty());
  }
}

// Regression for the FIFO mempool's documented carry-over: the first batch
// of a drain is taken even when it alone exceeds the byte budget — a batch
// larger than the block payload cap must remain proposable or its shard
// wedges forever.
TEST(ShardedMempoolTest, OversizedFirstBatchCarriesOver) {
  ShardedMempool pool;
  ASSERT_TRUE(admitted(pool.submit(make_batch(1, 0, 10'000))));
  ASSERT_TRUE(admitted(pool.submit(make_batch(1, 1, 100))));

  const auto drained = pool.drain(10, 1000);  // budget far below 10'000
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].wire_bytes(), 10'000u);
  // The follow-up batch respected the (exhausted) budget and stayed queued.
  EXPECT_EQ(pool.size(), 1u);
  const auto rest = pool.drain(10, 1000);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].wire_bytes(), 100u);
}

TEST(ShardedMempoolTest, ByteBudgetEndsDrain) {
  ShardedMempool pool;
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    ASSERT_TRUE(admitted(pool.submit(make_batch(1, seq, 400))));
  }
  // 1000 bytes fit two 400-byte batches; the third would overflow.
  const auto drained = pool.drain(10, 1000);
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(pool.size(), 8u);
}

TEST(ShardedMempoolTest, ConcurrentSubmitStress) {
  MempoolConfig config;
  config.shards = 8;
  ShardedMempool pool(config);

  constexpr std::uint64_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (std::uint64_t seq = 0; seq < kPerThread; ++seq) {
        ASSERT_TRUE(admitted(pool.submit(make_batch(t, seq))));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(pool.size(), kThreads * kPerThread);
  EXPECT_EQ(pool.stats().accepted, kThreads * kPerThread);
  EXPECT_EQ(pool.bytes(), kThreads * kPerThread * 512u);

  // Everything is drainable and per-client FIFO order survived the races.
  std::map<std::uint64_t, std::uint64_t> next_seq;
  std::size_t total = 0;
  while (true) {
    const auto out = pool.drain(64, 1ull << 40);
    if (out.empty()) break;
    total += out.size();
    for (const auto& batch : out) {
      const std::uint64_t client = ShardedMempool::client_key(batch);
      EXPECT_EQ(batch.id & 0xffffffffull, next_seq[client]++);
    }
  }
  EXPECT_EQ(total, kThreads * kPerThread);
  EXPECT_TRUE(pool.empty());
}

TEST(ShardedMempoolTest, ConcurrentSubmitWithConcurrentDrain) {
  MempoolConfig config;
  config.shards = 4;
  ShardedMempool pool(config);

  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 400;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> drained{0};
  std::thread drainer([&] {
    while (!done.load()) {
      drained += pool.drain(16, 1ull << 40).size();
    }
    drained += pool.drain(1ull << 20, 1ull << 40).size();
  });
  std::vector<std::thread> submitters;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&pool, t] {
      for (std::uint64_t seq = 0; seq < kPerThread; ++seq) {
        ASSERT_TRUE(admitted(pool.submit(make_batch(t, seq))));
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  done.store(true);
  drainer.join();

  EXPECT_EQ(drained.load(), kThreads * kPerThread);
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.bytes(), 0u);
}

// --------------------------------------------------------------------------
// From admission to block
// --------------------------------------------------------------------------

class MempoolToBlockTest : public ::testing::Test {
 protected:
  MempoolToBlockTest() : setup_(Committee::make_test(4)) {
    for (ValidatorId v = 0; v < 4; ++v) {
      genesis_.push_back(Block::genesis(v, setup_.committee.coin()).ref());
    }
  }

  // A batch with a `size`-byte patterned payload, optionally declaring keys.
  static TxBatch payload_batch(std::uint64_t seq, std::size_t size, bool keys) {
    TxBatch batch = make_batch(5, seq);
    batch.payload.resize(size);
    for (std::size_t i = 0; i < size; ++i) {
      batch.payload[i] = static_cast<std::uint8_t>(i * 31 + seq);
    }
    if (keys) {
      batch.read_keys = {"acct/1", "acct/22"};
      batch.write_keys = {"acct/333"};
    }
    return batch;
  }

  // Validator 1's round-1 block over `batches`, as the author builds it.
  Block author_block(std::vector<TxBatch> batches) const {
    return Block::make(1, 1, genesis_, std::move(batches), setup_.committee.coin().share(1, 1),
                       setup_.keypairs[1].private_key);
  }

  // What a peer decodes from the author's wire image.
  Block peer_copy(const Block& block) const {
    const Bytes wire = block.serialize();
    return Block::deserialize({wire.data(), wire.size()});
  }

  Committee::TestSetup setup_;
  std::vector<BlockRef> genesis_;
};

// The author commits to the payload digests admission computed; a peer
// hashes each payload itself. Both reach one block digest for payloads that
// are empty, below and at or above crypto::kBulkHashCrossover, with and
// without declared keys, one batch per block and all in one block.
TEST_F(MempoolToBlockTest, AuthorDigestEqualsDecodedDigest) {
  const std::size_t sizes[] = {0, 1, 700, crypto::kBulkHashCrossover - 1,
                               crypto::kBulkHashCrossover, 4096, 128 * 1024 + 5};
  ShardedMempool all;
  std::uint64_t seq = 0;
  for (const std::size_t size : sizes) {
    for (const bool keys : {false, true}) {
      ShardedMempool pool;
      ASSERT_TRUE(admitted(pool.submit(payload_batch(seq, size, keys))));
      ASSERT_TRUE(admitted(all.submit(payload_batch(seq, size, keys))));
      ++seq;
      std::vector<TxBatch> drained = pool.drain(1, 1ull << 40);
      ASSERT_EQ(drained.size(), 1u);
      ASSERT_TRUE(drained[0].payload_digest.has_value());
      EXPECT_EQ(*drained[0].payload_digest,
                TxBatch::hash_payload(drained[0].payload));

      const Block authored = author_block(std::move(drained));
      const Block decoded = peer_copy(authored);
      EXPECT_EQ(decoded.digest(), authored.digest()) << size << " bytes, keys " << keys;
      EXPECT_EQ(validate_block(decoded, setup_.committee), BlockValidity::kValid)
          << size << " bytes, keys " << keys;
    }
  }
  std::vector<TxBatch> everything = all.drain(1000, 1ull << 40);
  ASSERT_EQ(everything.size(), seq);
  const Block authored = author_block(std::move(everything));
  EXPECT_EQ(peer_copy(authored).digest(), authored.digest());

  // A batch that never went through a mempool (the sims' and tests' direct
  // Block::make) is hashed in make and lands on the same digest.
  std::vector<TxBatch> bare;
  for (std::uint64_t i = 0; i < seq; ++i) bare.push_back(payload_batch(i, sizes[i / 2], i % 2));
  EXPECT_EQ(author_block(std::move(bare)).digest(), authored.digest());
}

// Admission recomputes the payload digest: a caller-supplied one, right or
// wrong, never reaches a block or the duplicate check.
TEST_F(MempoolToBlockTest, WrongCallerSuppliedDigestCannotReachABlock) {
  ShardedMempool pool;
  TxBatch batch = payload_batch(1, 2048, true);
  const Digest truth = TxBatch::hash_payload(batch.payload);
  Digest lie = truth;
  lie.bytes[0] ^= 0xff;
  batch.payload_digest = lie;
  ASSERT_TRUE(admitted(pool.submit(batch)));

  // The same batch under another lie is still the same submission.
  TxBatch retry = batch;
  retry.payload_digest = Digest{};
  EXPECT_EQ(pool.submit(retry), AdmitResult::kDuplicate);

  std::vector<TxBatch> drained = pool.drain(10, 1ull << 40);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].payload_digest, truth);

  const Block authored = author_block(std::move(drained));
  const Block decoded = peer_copy(authored);
  EXPECT_EQ(decoded.digest(), authored.digest());
  EXPECT_EQ(validate_block(decoded, setup_.committee), BlockValidity::kValid);

  // The block a lie would have produced is one no peer accepts.
  batch.payload_digest = lie;
  const Block forged = author_block({batch});
  EXPECT_NE(forged.digest(), authored.digest());
  EXPECT_NE(peer_copy(forged).digest(), forged.digest());
  EXPECT_NE(validate_block(peer_copy(forged), setup_.committee), BlockValidity::kValid);
}

}  // namespace
}  // namespace mahimahi
