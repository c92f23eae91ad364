// Staged ingestion pipeline tests: batch entry point, per-stage rejection,
// verifier-cache interaction, the screened-batch handoff, idempotence, and
// driver equivalence (per-block "sim style" vs batched "TCP worker style"
// delivery commit identically).
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/dag_builder.h"
#include "validator/validator.h"

namespace mahimahi {
namespace {

class IngestPipelineTest : public ::testing::Test {
 protected:
  // Same seed as DagBuilder's default, so blocks built there verify against
  // this committee's keys.
  IngestPipelineTest() : setup_(Committee::make_test(4)), builder_(4) {}

  ValidatorConfig observer_config(ValidatorId id) {
    ValidatorConfig config;
    config.id = id;
    config.committer = mahi_mahi_5(1);
    config.observer = true;  // commits are then a pure function of the feed
    config.validation.verify_signature = true;
    config.validation.verify_coin_share = true;
    return config;
  }

  std::unique_ptr<ValidatorCore> make_observer(ValidatorId id,
                                               ValidatorConfig config) {
    return std::make_unique<ValidatorCore>(setup_.committee,
                                           setup_.keypairs[id].private_key, config);
  }
  std::unique_ptr<ValidatorCore> make_observer(ValidatorId id) {
    return make_observer(id, observer_config(id));
  }

  // Rounds 1..last, fully connected; returns blocks in causal order.
  std::vector<BlockPtr> build_schedule(Round last) {
    std::vector<BlockPtr> schedule;
    for (Round r = 1; r <= last; ++r) {
      for (const auto& block : builder_.add_full_round(r)) schedule.push_back(block);
    }
    return schedule;
  }

  static std::vector<IngestBlock> as_batch(const std::vector<BlockPtr>& blocks,
                                           ValidatorId from = 1) {
    std::vector<IngestBlock> items;
    for (const auto& block : blocks) items.push_back({block, from});
    return items;
  }

  // A round-1 block for `author` whose signature does not verify (signed
  // with another validator's key; the coin share is the author's own, so
  // only the signature stage can reject it).
  BlockPtr forged_round1_block(ValidatorId author, ValidatorId signer) {
    std::vector<BlockRef> parents;
    for (const auto& genesis : builder_.dag().blocks_at(0)) parents.push_back(genesis->ref());
    return std::make_shared<const Block>(
        Block::make(author, 1, std::move(parents), {},
                    setup_.committee.coin().share(author, 1),
                    setup_.keypairs[signer].private_key));
  }

  Committee::TestSetup setup_;
  DagBuilder builder_;
};

TEST_F(IngestPipelineTest, BadSignatureInBatchRejectsOnlyThatBlock) {
  auto core = make_observer(0);
  auto round1 = builder_.add_full_round(1);

  std::vector<IngestBlock> batch = as_batch({round1[0], round1[1]});
  batch.push_back({forged_round1_block(2, /*signer=*/1), 1});
  batch.push_back({round1[3], 1});

  const Actions actions = core->on_blocks(std::move(batch), 0);

  EXPECT_EQ(actions.inserted.size(), 3u);
  EXPECT_TRUE(core->dag().contains(round1[0]->digest()));
  EXPECT_TRUE(core->dag().contains(round1[1]->digest()));
  EXPECT_TRUE(core->dag().contains(round1[3]->digest()));
  EXPECT_EQ(core->blocks_rejected(), 1u);
  EXPECT_EQ(core->ingest_stats().crypto_rejected, 1u);
  EXPECT_EQ(core->ingest_stats().verified, 3u);
  EXPECT_EQ(core->ingest_stats().structurally_rejected, 0u);
}

TEST_F(IngestPipelineTest, BadCoinShareRejectsInBatch) {
  auto core = make_observer(0);
  auto round1 = builder_.add_full_round(1);

  std::vector<BlockRef> parents;
  for (const auto& genesis : builder_.dag().blocks_at(0)) parents.push_back(genesis->ref());
  // Valid signature, wrong round's coin share.
  auto bad_coin = std::make_shared<const Block>(
      Block::make(2, 1, std::move(parents), {}, setup_.committee.coin().share(2, 9),
                  setup_.keypairs[2].private_key));

  std::vector<IngestBlock> batch = as_batch({round1[0], round1[1]});
  batch.push_back({bad_coin, 1});

  const Actions actions = core->on_blocks(std::move(batch), 0);
  EXPECT_EQ(actions.inserted.size(), 2u);
  EXPECT_EQ(core->ingest_stats().crypto_rejected, 1u);
  EXPECT_FALSE(core->dag().contains(bad_coin->digest()));
}

TEST_F(IngestPipelineTest, StructuralRejectionHappensBeforeCrypto) {
  auto core = make_observer(0);
  builder_.add_full_round(1);

  // Duplicate parent references: structurally invalid, signature fine.
  const auto genesis = builder_.dag().blocks_at(0);
  std::vector<BlockRef> parents{genesis[0]->ref(), genesis[0]->ref(),
                                genesis[1]->ref(), genesis[2]->ref(),
                                genesis[3]->ref()};
  auto malformed = std::make_shared<const Block>(
      Block::make(1, 1, std::move(parents), {}, setup_.committee.coin().share(1, 1),
                  setup_.keypairs[1].private_key));

  core->on_blocks({{malformed, 1}}, 0);
  EXPECT_EQ(core->ingest_stats().structurally_rejected, 1u);
  // The crypto stage never saw it.
  EXPECT_EQ(core->ingest_stats().crypto_rejected, 0u);
  EXPECT_EQ(core->ingest_stats().verified, 0u);
}

TEST_F(IngestPipelineTest, DuplicateAndOutOfOrderDeliveryIsIdempotent) {
  auto core = make_observer(0);
  const auto schedule = build_schedule(3);  // 12 blocks, rounds 1..3

  // Deliver out of order (round 3 first) with every block duplicated inside
  // the same batch.
  std::vector<BlockPtr> shuffled(schedule.rbegin(), schedule.rend());
  std::vector<BlockPtr> doubled = shuffled;
  doubled.insert(doubled.end(), shuffled.begin(), shuffled.end());

  const Actions first = core->on_blocks(as_batch(doubled), 0);
  EXPECT_EQ(first.inserted.size(), schedule.size());
  EXPECT_EQ(core->dag().block_count(), 4 + schedule.size());  // + genesis
  // Each unique block paid crypto exactly once despite the duplicates.
  EXPECT_EQ(core->ingest_stats().verified, schedule.size());

  // Redelivering everything is a no-op.
  const Actions second = core->on_blocks(as_batch(doubled), 0);
  EXPECT_TRUE(second.inserted.empty());
  EXPECT_TRUE(second.committed.empty());
  EXPECT_EQ(core->dag().block_count(), 4 + schedule.size());
  EXPECT_EQ(core->ingest_stats().verified, schedule.size());
  EXPECT_EQ(core->blocks_rejected(), 0u);
}

TEST_F(IngestPipelineTest, VerifierCacheHitsSkipCryptoStage) {
  auto cache = std::make_shared<VerifierCache>();
  ValidatorConfig config0 = observer_config(0);
  config0.signature_cache = cache;
  ValidatorConfig config1 = observer_config(1);
  config1.signature_cache = cache;
  auto core0 = make_observer(0, config0);
  auto core1 = make_observer(1, config1);

  const auto schedule = build_schedule(2);
  core0->on_blocks(as_batch(schedule), 0);
  EXPECT_EQ(core0->ingest_stats().verified, schedule.size());
  EXPECT_EQ(core0->ingest_stats().cache_hits, 0u);

  // The co-located second core sees every digest already verified.
  core1->on_blocks(as_batch(schedule), 0);
  EXPECT_EQ(core1->ingest_stats().cache_hits, schedule.size());
  EXPECT_EQ(core1->ingest_stats().verified, 0u);
  EXPECT_GE(cache->hits(), schedule.size());
}

TEST_F(IngestPipelineTest, ScreenedBatchPaysCryptoOnceAndSeedsCache) {
  // The runtime's path: a worker screens, the core admits. The screen's
  // verification is the only one, and it leaves every digest in the cache.
  auto cache = std::make_shared<VerifierCache>();
  ValidatorConfig config = observer_config(0);
  config.signature_cache = cache;
  auto core = make_observer(0, config);

  const auto round1 = builder_.add_full_round(1);
  ScreenedBatch screened = screen_blocks(as_batch(round1), setup_.committee,
                                         config.validation, cache.get());
  EXPECT_EQ(screened.stats().verified, round1.size());
  EXPECT_EQ(cache->misses(), round1.size());
  const Actions actions = core->on_screened(std::move(screened), 0);

  EXPECT_EQ(actions.inserted.size(), round1.size());
  EXPECT_EQ(core->ingest_stats().verified, round1.size());
  EXPECT_EQ(core->ingest_stats().cache_hits, 0u);
  // Admission consulted the cache no further: no second crypto pass.
  EXPECT_EQ(cache->misses(), round1.size());
  EXPECT_EQ(cache->hits(), 0u);
  for (const auto& block : round1) EXPECT_TRUE(cache->contains(block->digest()));
}

// The determinism claim behind the multi-driver architecture: the commit
// sequence is a pure function of the delivered blocks, independent of how
// the driver groups them — one at a time (the simulator's per-event
// delivery) or in arbitrary batches (the TCP runtime's verify workers).
TEST_F(IngestPipelineTest, PerBlockAndBatchedDeliveryCommitIdentically) {
  const auto schedule = build_schedule(12);

  auto per_block = make_observer(0);
  auto batched = make_observer(0);

  std::vector<BlockRef> commits_per_block;
  for (const auto& block : schedule) {
    const Actions actions = per_block->on_block(block, 1, 0);
    for (const auto& sub_dag : actions.committed) {
      for (const auto& committed : sub_dag.blocks) {
        commits_per_block.push_back(committed->ref());
      }
    }
  }

  std::vector<BlockRef> commits_batched;
  // Deliver in uneven chunks, each internally reversed (arrival order inside
  // a worker batch is arbitrary).
  std::size_t position = 0, chunk = 1;
  while (position < schedule.size()) {
    const std::size_t size = std::min(chunk, schedule.size() - position);
    std::vector<BlockPtr> blocks(schedule.begin() + position,
                                 schedule.begin() + position + size);
    std::reverse(blocks.begin(), blocks.end());
    const Actions actions = batched->on_blocks(as_batch(blocks), 0);
    for (const auto& sub_dag : actions.committed) {
      for (const auto& committed : sub_dag.blocks) {
        commits_batched.push_back(committed->ref());
      }
    }
    position += size;
    chunk = chunk * 2 + 1;
  }

  EXPECT_FALSE(commits_per_block.empty());
  EXPECT_EQ(commits_per_block, commits_batched);
  EXPECT_EQ(per_block->dag().block_count(), batched->dag().block_count());
  EXPECT_EQ(per_block->dag().highest_round(), batched->dag().highest_round());
}

TEST_F(IngestPipelineTest, ObserverNeverProposes) {
  auto core = make_observer(0);
  const auto schedule = build_schedule(6);
  const Actions actions = core->on_blocks(as_batch(schedule), 0);
  EXPECT_TRUE(actions.broadcast.empty());
  EXPECT_EQ(core->last_proposed_round(), 0u);
  // It still follows and commits.
  EXPECT_GT(core->dag().highest_round(), 0u);
}

}  // namespace
}  // namespace mahimahi
