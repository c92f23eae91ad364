// Synchronizer unit tests: causal-completeness enforcement (§2.3, Lemma 8).
//
// The synchronizer is what makes an uncertified DAG usable: blocks are
// admitted only once their full ancestry is present, missing ancestors are
// reported for fetching, and out-of-order arrivals cascade. Also covers the
// GC interaction: refs below the DAG's pruned horizon count as satisfied.
#include <gtest/gtest.h>

#include <set>

#include "sim/dag_builder.h"
#include "types/validation.h"
#include "validator/synchronizer.h"
#include "validator/validator.h"

namespace mahimahi {
namespace {

class SynchronizerTest : public ::testing::Test {
 protected:
  SynchronizerTest() : builder_(4), dag_(builder_.committee()) {}

  // Builds rounds 1..rounds fully connected inside the builder (the
  // synchronizer under test gets blocks only when we offer them).
  void build(Round rounds) { builder_.build_fully_connected(rounds); }

  BlockPtr block_at(Round round, ValidatorId author) {
    return builder_.dag().slot(round, author).front();
  }

  DagBuilder builder_;  // source of valid blocks
  Dag dag_;             // the DAG under synchronization
};

TEST_F(SynchronizerTest, InOrderOfferInsertsImmediately) {
  build(2);
  Synchronizer sync(dag_, 1000);
  const auto outcome = sync.offer(block_at(1, 0));
  ASSERT_EQ(outcome.inserted.size(), 1u);
  EXPECT_TRUE(outcome.missing.empty());
  EXPECT_TRUE(dag_.contains(block_at(1, 0)->digest()));
}

TEST_F(SynchronizerTest, OutOfOrderOfferParksAndReportsMissing) {
  build(2);
  Synchronizer sync(dag_, 1000);
  const auto block = block_at(2, 1);
  const auto outcome = sync.offer(block);
  EXPECT_TRUE(outcome.inserted.empty());
  // All four round-1 parents are unknown (own-previous + 2f+1 quorum).
  EXPECT_GE(outcome.missing.size(), 3u);
  EXPECT_TRUE(sync.is_pending(block->digest()));
  EXPECT_FALSE(dag_.contains(block->digest()));
}

TEST_F(SynchronizerTest, ArrivingParentsCascadeInCausalOrder) {
  build(3);
  Synchronizer sync(dag_, 1000);
  // Offer a round-3 block first, then round-2, then the round-1 ancestry;
  // the last arrivals must unblock everything, parents before children.
  sync.offer(block_at(3, 0));
  sync.offer(block_at(2, 0));
  sync.offer(block_at(2, 1));
  sync.offer(block_at(2, 2));
  sync.offer(block_at(2, 3));

  std::vector<BlockPtr> inserted;
  for (ValidatorId v = 0; v < 4; ++v) {
    const auto outcome = sync.offer(block_at(1, v));
    inserted.insert(inserted.end(), outcome.inserted.begin(), outcome.inserted.end());
  }
  // Everything (4 + 4 + 1 blocks) is now in the DAG.
  EXPECT_EQ(inserted.size(), 9u);
  EXPECT_TRUE(dag_.contains(block_at(3, 0)->digest()));
  // Causal order within the cascade: every block's parents precede it.
  std::set<Digest> seen;
  for (const auto& block : inserted) {
    for (const auto& parent : block->parents()) {
      if (parent.round == 0) continue;  // genesis pre-exists
      EXPECT_TRUE(seen.contains(parent.digest))
          << block->ref().to_string() << " inserted before its parent";
    }
    seen.insert(block->digest());
  }
}

TEST_F(SynchronizerTest, DuplicateOffersAreNoOps) {
  build(2);
  Synchronizer sync(dag_, 1000);
  EXPECT_EQ(sync.offer(block_at(1, 0)).inserted.size(), 1u);
  EXPECT_TRUE(sync.offer(block_at(1, 0)).inserted.empty());

  const auto parked = block_at(2, 1);
  EXPECT_FALSE(sync.offer(parked).missing.empty());
  EXPECT_TRUE(sync.offer(parked).missing.empty()) << "re-offer must not re-request";
}

TEST_F(SynchronizerTest, PendingBufferIsBounded) {
  build(3);
  Synchronizer sync(dag_, /*max_pending=*/2);
  EXPECT_TRUE(sync.offer(block_at(2, 0)).inserted.empty());
  EXPECT_TRUE(sync.offer(block_at(2, 1)).inserted.empty());
  EXPECT_EQ(sync.pending_count(), 2u);
  // Third parked offer is dropped, not queued.
  sync.offer(block_at(2, 2));
  EXPECT_EQ(sync.pending_count(), 2u);
  EXPECT_FALSE(sync.is_pending(block_at(2, 2)->digest()));
}

TEST_F(SynchronizerTest, OutstandingListsEachMissingRefOnce) {
  build(2);
  Synchronizer sync(dag_, 1000);
  // Two round-2 blocks share round-1 parents; refs must not duplicate.
  sync.offer(block_at(2, 0));
  sync.offer(block_at(2, 1));
  const auto outstanding = sync.outstanding();
  std::set<Digest> unique;
  for (const auto& ref : outstanding) {
    EXPECT_TRUE(unique.insert(ref.digest).second) << "duplicate outstanding ref";
  }
  EXPECT_EQ(unique.size(), 4u);  // the four round-1 blocks
}

TEST_F(SynchronizerTest, PruneBelowSatisfiesSubHorizonRefsAndUnblocks) {
  build(6);
  Synchronizer sync(dag_, 1000);
  // Fill the DAG up to round 4 except validator 3's round-4 block.
  for (Round r = 1; r <= 4; ++r) {
    for (ValidatorId v = 0; v < 4; ++v) {
      if (r == 4 && v == 3) continue;
      sync.offer(block_at(r, v));
    }
  }
  // A round-5 block referencing the missing round-4 block parks.
  const auto child = block_at(5, 3);
  EXPECT_TRUE(sync.offer(child).inserted.empty());
  ASSERT_TRUE(sync.is_pending(child->digest()));

  // GC moves the horizon past round 4: the missing ref counts as satisfied
  // and the parked block inserts (its round-4 parents are exempt now).
  dag_.prune_below(5);
  const auto unblocked = sync.prune_below(5);
  ASSERT_EQ(unblocked.size(), 1u);
  EXPECT_EQ(unblocked[0]->digest(), child->digest());
  EXPECT_TRUE(dag_.contains(child->digest()));
  EXPECT_FALSE(sync.is_pending(child->digest()));
}

TEST_F(SynchronizerTest, PruneBelowDropsStalePendingBlocks) {
  build(3);
  Synchronizer sync(dag_, 1000);
  // Park a round-2 block (round-1 ancestry unknown).
  const auto stale = block_at(2, 0);
  sync.offer(stale);
  ASSERT_TRUE(sync.is_pending(stale->digest()));

  // The horizon moves past the parked block itself: it is dropped, not
  // inserted (it can never be delivered).
  dag_.prune_below(3);
  const auto unblocked = sync.prune_below(3);
  EXPECT_TRUE(unblocked.empty());
  EXPECT_FALSE(sync.is_pending(stale->digest()));
  EXPECT_FALSE(dag_.contains(stale->digest()));
}

TEST_F(SynchronizerTest, AncestorBelowPeerHorizonStaysPendingForever) {
  // The flip side of the GC exemption: OUR horizon exempts refs, but a ref
  // below a PEER's horizon (while ours is still 0) is just a missing parent
  // that no fetch will ever satisfy — the peer deleted it. The block parks,
  // its refs stay outstanding, and nothing ages out: the synchronizer has no
  // timeout and no give-up. This pins the stall that snapshot catch-up
  // (checkpoint/, Actions::horizon_notices) exists to break.
  build(4);
  Synchronizer sync(dag_, 1000);
  const auto block = block_at(3, 0);
  sync.offer(block);
  ASSERT_TRUE(sync.is_pending(block->digest()));
  const std::size_t outstanding = sync.outstanding().size();
  ASSERT_GT(outstanding, 0u);
  // No matter how often the driver retries, the picture never changes.
  for (int attempt = 0; attempt < 5; ++attempt) {
    EXPECT_TRUE(sync.offer(block).missing.empty()) << "re-offer must not re-request";
    EXPECT_TRUE(sync.is_pending(block->digest()));
    EXPECT_EQ(sync.outstanding().size(), outstanding);
  }
}

TEST(SynchronizerCatchup, CoreRetriesForeverBelowPeerHorizonWithoutSnapshots) {
  // Two-core pin of today's catch-up failure mode, end to end: a validator
  // whose ancestry walk descended to a peer's GC horizon keeps re-fetching
  // sub-horizon refs on every tick — the peer serves nothing (it pruned
  // them), the walk never completes, the committer head never moves. Only
  // the horizon notice (dropped here on purpose, modeling pre-checkpoint
  // behavior) leads out of the loop.
  Committee::TestSetup setup = Committee::make_test(4);
  DagBuilder builder(4);
  builder.build_fully_connected(40);

  ValidatorConfig config;
  config.observer = true;
  config.committer.gc_depth = 8;
  config.validation.verify_signature = false;
  config.validation.verify_coin_share = false;
  ValidatorCore ahead(setup.committee, setup.keypairs[0].private_key, config);
  ValidatorCore late(setup.committee, setup.keypairs[1].private_key, config);

  for (Round r = 1; r <= 40; ++r) {
    for (ValidatorId v = 0; v < 4; ++v) {
      const BlockPtr block = builder.dag().slot(r, v).front();
      ahead.on_block(block, v, 0);
    }
  }
  const Round horizon = ahead.dag().pruned_below();
  ASSERT_GT(horizon, 1u);

  // The late validator holds a block at the horizon; its missing parents are
  // below it. Drive fetch → (empty) response → tick retry for many cycles.
  Actions actions = late.on_block(builder.dag().slot(horizon, 0).front(), 0, 0);
  TimeMicros now = 0;
  std::uint64_t retries = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    for (const auto& request : actions.fetch_requests) {
      ++retries;
      const Actions reply = ahead.on_fetch_request(request.refs, 1, now);
      EXPECT_TRUE(reply.responses.empty()) << "peer cannot serve pruned history";
      EXPECT_FALSE(reply.horizon_notices.empty()) << "peer must point at its horizon";
      // Pre-checkpoint behavior: the notice goes nowhere.
    }
    now += config.fetch_retry_delay + 1;
    actions = late.on_tick(now);
  }
  EXPECT_GT(retries, 5u) << "the walk must keep retrying";
  EXPECT_EQ(late.committer().next_pending_slot().round, 1u) << "no progress, ever";
  EXPECT_TRUE(late.dag().get(builder.dag().slot(horizon, 0).front()->digest()) ==
              nullptr)
      << "the parked block can never insert";
}

TEST_F(SynchronizerTest, OffersBelowHorizonReportNoSubHorizonMissing) {
  build(4);
  Synchronizer sync(dag_, 1000);
  dag_.prune_below(4);
  // A round-4 block whose entire ancestry is below the horizon: nothing to
  // fetch, inserts immediately via the GC exemption.
  const auto block = block_at(4, 1);
  const auto outcome = sync.offer(block);
  for (const auto& ref : outcome.missing) {
    EXPECT_GE(ref.round, 3u) << "requested a ref below the GC horizon";
  }
  ASSERT_EQ(outcome.inserted.size(), 1u);
  EXPECT_TRUE(dag_.contains(block->digest()));
}

// A parent ref resolves only in the (round, author) cell it names: a block
// whose refs relabel other blocks as distinct round-(R-1) authors passes the
// structural 2f+1 rule on labels alone, and must never be inserted — neither
// when the relabelled parent is already present, nor when it arrives later.
BlockPtr relabelled(ValidatorId author, Round round, const std::vector<BlockPtr>& sources) {
  const auto setup = Committee::make_test(4, 42);
  std::vector<BlockRef> parents;
  for (ValidatorId a = 0; a < sources.size(); ++a) {
    parents.push_back(BlockRef{round - 1, a, sources[a]->digest()});
  }
  return std::make_shared<const Block>(
      Block::make(author, round, std::move(parents), {},
                  setup.committee.coin().share(author, round),
                  setup.keypairs[author].private_key));
}

TEST_F(SynchronizerTest, RelabelledPresentParentIsRejectedAtOffer) {
  build(2);
  Synchronizer sync(dag_, 1000);
  for (Round r = 1; r <= 2; ++r) {
    for (ValidatorId v = 0; v < 4; ++v) sync.offer(block_at(r, v));
  }
  // Round-1 blocks labelled as round-2 blocks of authors 0, 1 and 2.
  const BlockPtr forged = relabelled(1, 3, {block_at(1, 0), block_at(1, 1), block_at(1, 2)});
  ASSERT_EQ(validate_block_structure(*forged, builder_.committee()), BlockValidity::kValid);

  const auto outcome = sync.offer(forged);
  EXPECT_TRUE(outcome.inserted.empty());
  EXPECT_TRUE(outcome.missing.empty());
  EXPECT_FALSE(sync.is_pending(forged->digest()));
  EXPECT_FALSE(dag_.contains(forged->digest()));
}

TEST_F(SynchronizerTest, RelabelledParentArrivingLaterDropsTheWaiter) {
  build(1);
  Synchronizer sync(dag_, 1000);
  // Author 3's round-1 block labelled as author 0's.
  const BlockPtr forged = relabelled(1, 2, {block_at(1, 3), block_at(1, 1), block_at(1, 2)});
  EXPECT_EQ(sync.offer(forged).missing.size(), 3u);
  ASSERT_TRUE(sync.is_pending(forged->digest()));

  std::vector<BlockPtr> inserted;
  for (const ValidatorId v : {3u, 1u, 2u}) {
    const auto outcome = sync.offer(block_at(1, v));
    inserted.insert(inserted.end(), outcome.inserted.begin(), outcome.inserted.end());
  }
  EXPECT_EQ(inserted.size(), 3u);
  EXPECT_FALSE(sync.is_pending(forged->digest()));
  EXPECT_FALSE(dag_.contains(forged->digest()));
}

// GC satisfies a missing digest per waiter, by the round each waiter's own
// ref names: a lying ref that labels a live block below the horizon must not
// release an honest waiter whose ref names the block's real round.
TEST_F(SynchronizerTest, PruneJudgesEachWaiterByItsOwnLabels) {
  build(6);
  Synchronizer sync(dag_, 1000);
  for (Round r = 1; r <= 5; ++r) {
    for (ValidatorId v = 0; v < 4; ++v) {
      if (r == 5 && v == 0) continue;
      sync.offer(block_at(r, v));
    }
  }
  const BlockPtr withheld = block_at(5, 0);
  // The withheld round-5 block labelled as author 0's round-2 block, offered
  // first, then an honest round-6 block that names it correctly.
  const BlockPtr liar = relabelled(3, 3, {withheld, block_at(2, 1), block_at(2, 2)});
  ASSERT_EQ(validate_block_structure(*liar, builder_.committee()), BlockValidity::kValid);
  EXPECT_TRUE(sync.offer(liar).inserted.empty());
  const BlockPtr honest = block_at(6, 1);
  EXPECT_TRUE(sync.offer(honest).inserted.empty());
  ASSERT_TRUE(sync.is_pending(liar->digest()));
  ASSERT_TRUE(sync.is_pending(honest->digest()));

  dag_.prune_below(3);
  const auto unblocked = sync.prune_below(3);
  for (const auto& block : unblocked) EXPECT_TRUE(dag_.parents_present(*block));
  EXPECT_TRUE(sync.is_pending(honest->digest()));
  EXPECT_FALSE(dag_.contains(honest->digest()));
  const auto outstanding = sync.outstanding();
  ASSERT_EQ(outstanding.size(), 1u);
  EXPECT_EQ(outstanding.front(), withheld->ref());

  const auto outcome = sync.offer(withheld);
  ASSERT_EQ(outcome.inserted.size(), 2u);
  EXPECT_EQ(outcome.inserted.back()->digest(), honest->digest());
  for (const auto& block : outcome.inserted) EXPECT_TRUE(dag_.parents_present(*block));
}

}  // namespace
}  // namespace mahimahi
