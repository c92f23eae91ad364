// Unit tests for the sans-IO validator core: proposal rule, synchronizer
// integration, fetch retry, fetch bookkeeping at the GC horizon, mempool
// draining, equivocation mode, recovery.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <queue>

#include "common/rng.h"
#include "sim/dag_builder.h"
#include "types/validation.h"
#include "validator/pipeline.h"
#include "validator/validator.h"

namespace mahimahi {
namespace {

class ValidatorTest : public ::testing::Test {
 protected:
  ValidatorTest() : setup_(Committee::make_test(4)) {}

  ValidatorConfig config_for(ValidatorId id) {
    ValidatorConfig config;
    config.id = id;
    config.committer = mahi_mahi_5(1);
    return config;
  }

  std::unique_ptr<ValidatorCore> make_validator(ValidatorId id) {
    return std::make_unique<ValidatorCore>(setup_.committee,
                                           setup_.keypairs[id].private_key,
                                           config_for(id));
  }

  // Client transactions the way NodePipeline takes them: admit() into the
  // core's pool, then on_mempool_ready.
  static Actions submit(ValidatorCore& validator, std::vector<TxBatch> batches,
                        TimeMicros now) {
    validator.mempool_handle()->submit_all(std::move(batches));
    return validator.on_mempool_ready(now);
  }

  // Runs a fully-connected in-memory cluster of 4 validators, delivering
  // every broadcast to every peer. With min_round_delay = 0 and instant
  // delivery the cluster free-runs (each quorum immediately triggers the
  // next proposal), so delivery is capped at `max_round`: blocks beyond the
  // cap are dropped, which starves later quorums and ends the cascade.
  struct Cluster {
    std::vector<std::unique_ptr<ValidatorCore>> nodes;
    std::vector<CommittedSubDag> committed[4];
    TimeMicros now = 0;
    Round max_round = 20;

    void pump(std::vector<std::pair<ValidatorId, Actions>> initial) {
      std::vector<std::pair<ValidatorId, Actions>> queue = std::move(initial);
      while (!queue.empty()) {
        std::vector<std::pair<ValidatorId, Actions>> next;
        for (auto& [from, actions] : queue) {
          for (auto& sub : actions.committed) committed[from].push_back(sub);
          for (const auto& block : actions.broadcast) {
            if (block->round() > max_round) continue;
            for (ValidatorId to = 0; to < 4; ++to) {
              if (to == from) continue;
              Actions reaction = nodes[to]->on_block(block, from, now);
              if (!reaction.empty()) next.emplace_back(to, std::move(reaction));
            }
          }
        }
        queue = std::move(next);
      }
    }
  };

  Cluster make_cluster() {
    Cluster cluster;
    for (ValidatorId v = 0; v < 4; ++v) cluster.nodes.push_back(make_validator(v));
    return cluster;
  }

  Committee::TestSetup setup_;
};

TEST_F(ValidatorTest, ProposesRound1OnFirstTick) {
  auto validator = make_validator(0);
  const Actions actions = validator->on_tick(0);
  ASSERT_EQ(actions.broadcast.size(), 1u);
  EXPECT_EQ(actions.broadcast[0]->round(), 1u);
  EXPECT_EQ(actions.broadcast[0]->author(), 0u);
  // The proposal references all four genesis blocks.
  EXPECT_EQ(actions.broadcast[0]->parents().size(), 4u);
  EXPECT_EQ(validator->last_proposed_round(), 1u);
}

TEST_F(ValidatorTest, DoesNotReProposeSameRound) {
  auto validator = make_validator(0);
  validator->on_tick(0);
  const Actions again = validator->on_tick(10);
  EXPECT_TRUE(again.broadcast.empty());
}

TEST_F(ValidatorTest, AdvancesRoundOnQuorum) {
  auto cluster = make_cluster();
  // Everyone proposes round 1; deliveries cascade proposals for subsequent
  // rounds as quorums form.
  std::vector<std::pair<ValidatorId, Actions>> initial;
  for (ValidatorId v = 0; v < 4; ++v) {
    initial.emplace_back(v, cluster.nodes[v]->on_tick(0));
  }
  cluster.pump(std::move(initial));
  // With instant delivery the cluster free-runs: every validator reaches a
  // round well beyond 1 and all DAGs stay within one round of each other.
  for (ValidatorId v = 0; v < 4; ++v) {
    EXPECT_GT(cluster.nodes[v]->last_proposed_round(), 1u);
  }
}

TEST_F(ValidatorTest, RejectsInvalidBlocks) {
  auto validator = make_validator(0);
  // Forged signature: signed with the wrong key.
  std::vector<BlockRef> genesis_refs;
  for (const auto& g : validator->dag().blocks_at(0)) genesis_refs.push_back(g->ref());
  auto forged = std::make_shared<const Block>(
      Block::make(1, 1, genesis_refs, {}, setup_.committee.coin().share(1, 1),
                  setup_.keypairs[2].private_key));
  const Actions actions = validator->on_block(forged, 1, 0);
  EXPECT_TRUE(actions.inserted.empty());
  EXPECT_EQ(validator->blocks_rejected(), 1u);
  EXPECT_FALSE(validator->dag().contains(forged->digest()));
}

TEST_F(ValidatorTest, FetchesMissingParents) {
  auto v0 = make_validator(0);
  auto v1 = make_validator(1);

  // v1 proposes rounds 1 and 2 with help from v2, v3 (simulated directly).
  auto v2 = make_validator(2);
  auto v3 = make_validator(3);
  const auto b1 = v1->on_tick(0).broadcast[0];
  const auto b2 = v2->on_tick(0).broadcast[0];
  const auto b3 = v3->on_tick(0).broadcast[0];
  v1->on_block(b2, 2, 1);
  Actions v1_round2 = v1->on_block(b3, 3, 1);
  ASSERT_EQ(v1_round2.broadcast.size(), 1u);
  const auto round2_block = v1_round2.broadcast[0];
  ASSERT_EQ(round2_block->round(), 2u);

  // v0 receives only the round-2 block: parents are missing, so it must
  // fetch them from the sender.
  const Actions actions = v0->on_block(round2_block, 1, 2);
  EXPECT_TRUE(actions.inserted.empty());
  ASSERT_EQ(actions.fetch_requests.size(), 1u);
  EXPECT_EQ(actions.fetch_requests[0].peer, 1u);
  const auto requested = actions.fetch_requests[0].refs;
  EXPECT_GE(requested.size(), 2u);  // b1..b3 minus whatever v0 already has

  // v1 serves the fetch; v0 inserts the parents, which unblocks the pending
  // round-2 block.
  const Actions served = v1->on_fetch_request(requested, 0, 3);
  ASSERT_EQ(served.responses.size(), 1u);
  Actions final_actions;
  for (const auto& block : served.responses[0].blocks) {
    final_actions.merge(v0->on_block(block, 1, 4));
  }
  EXPECT_TRUE(v0->dag().contains(round2_block->digest()));
}

TEST_F(ValidatorTest, FetchRetryRotatesPeers) {
  auto v0 = make_validator(0);
  ValidatorConfig config = config_for(0);

  // Create a block with unknown parents by building a foreign mini-cluster.
  auto cluster = make_cluster();
  std::vector<std::pair<ValidatorId, Actions>> initial;
  initial.emplace_back(1, cluster.nodes[1]->on_tick(0));
  initial.emplace_back(2, cluster.nodes[2]->on_tick(0));
  initial.emplace_back(3, cluster.nodes[3]->on_tick(0));
  cluster.pump(std::move(initial));
  BlockPtr deep = nullptr;
  for (const auto& block : cluster.nodes[1]->dag().blocks_at(2)) {
    deep = block;
    break;
  }
  ASSERT_NE(deep, nullptr);

  Actions first = v0->on_block(deep, 1, 0);
  ASSERT_FALSE(first.fetch_requests.empty());
  EXPECT_EQ(first.fetch_requests[0].peer, 1u);

  // Before the retry delay: no new requests.
  EXPECT_TRUE(v0->on_tick(millis(100)).fetch_requests.empty());
  // After the retry delay the request is re-issued to another peer (the
  // block author first).
  const Actions retried = v0->on_tick(millis(1000));
  ASSERT_FALSE(retried.fetch_requests.empty());
}

// A Byzantine author references a parent it never sends. Once the GC
// horizon passes that parent the synchronizer stops waiting for it, and its
// fetch bookkeeping must go too: mm_fetch_inflight reads 0, not 1 forever.
TEST_F(ValidatorTest, HorizonMoveDropsFetchesForParentsThatNeverArrive) {
  DagBuilder builder(4);
  builder.build_fully_connected(30);

  ValidatorConfig config = config_for(0);
  config.observer = true;
  config.committer.gc_depth = 8;
  config.validation.verify_signature = false;
  config.validation.verify_coin_share = false;
  obs::Registry registry;
  NodePipeline::Env env;
  env.now = [] { return TimeMicros{0}; };
  env.send_fetch = [](ValidatorId, const std::vector<BlockRef>&) {};
  env.commit = [](const CommittedSubDag&, TimeMicros, CommitTrace*) {};
  NodePipeline pipeline(setup_.committee, setup_.keypairs[0].private_key, config, registry,
                        std::move(env), NodePipeline::Observers{.core_metrics = true}, "");
  pipeline.start(std::make_unique<NullWal>(), nullptr);
  const auto inflight = [&registry] {
    return registry.dump().gauge_value("mm_fetch_inflight");
  };

  // Round 5 of author 3, over three real round-4 parents and one forged one.
  std::vector<BlockRef> parents;
  for (ValidatorId a = 0; a < 3; ++a) {
    parents.push_back(builder.dag().slot(4, a).front()->ref());
  }
  Digest forged{};
  forged.bytes.fill(0xab);
  parents.push_back(BlockRef{4, 3, forged});
  const BlockPtr lying = std::make_shared<const Block>(
      Block::make(3, 5, std::move(parents), {}, setup_.committee.coin().share(3, 5),
                  setup_.keypairs[3].private_key));
  pipeline.on_blocks({{lying, 3}});
  EXPECT_EQ(inflight(), 4);

  for (Round r = 1; r <= 30; ++r) {
    for (ValidatorId v = 0; v < 4; ++v) {
      pipeline.on_blocks({{builder.dag().slot(r, v).front(), v}});
    }
  }
  ASSERT_GT(pipeline.core().dag().pruned_below(), 4u)
      << "the horizon must pass the forged parent";
  EXPECT_EQ(pipeline.core().inflight_fetches(), 0u);
  EXPECT_EQ(inflight(), 0);
}

TEST_F(ValidatorTest, MempoolDrainsIntoProposals) {
  auto validator = make_validator(0);
  TxBatch batch;
  batch.id = 42;
  batch.count = 10;
  // Transactions trigger an immediate proposal when a quorum for the
  // previous round is already available (here: genesis).
  const Actions actions = submit(*validator, {batch}, 0);
  ASSERT_EQ(actions.broadcast.size(), 1u);
  ASSERT_EQ(actions.broadcast[0]->batches().size(), 1u);
  EXPECT_EQ(actions.broadcast[0]->batches()[0].id, 42u);
  EXPECT_EQ(validator->mempool_size(), 0u);
  // A subsequent tick has nothing new to propose.
  EXPECT_TRUE(validator->on_tick(1).broadcast.empty());
}

TEST_F(ValidatorTest, BlockPayloadCapRespected) {
  ValidatorConfig config = config_for(0);
  config.max_block_batches = 2;
  ValidatorCore validator(setup_.committee, setup_.keypairs[0].private_key, config);
  std::vector<TxBatch> batches(5);
  for (std::size_t i = 0; i < 5; ++i) batches[i].id = i;
  const Actions actions = submit(validator, batches, 0);
  ASSERT_EQ(actions.broadcast.size(), 1u);
  EXPECT_EQ(actions.broadcast[0]->batches().size(), 2u);
  EXPECT_EQ(validator.mempool_size(), 3u);
}

TEST_F(ValidatorTest, SharedMempoolInstanceFeedsProposals) {
  // The TCP runtime's path: submissions are admitted into a shared pool from
  // outside the core (off the loop thread), and the core only learns "the
  // pool has work" — on_mempool_ready must then propose with those batches.
  auto pool = std::make_shared<ShardedMempool>();
  ValidatorConfig config = config_for(0);
  config.mempool_instance = pool;
  ValidatorCore validator(setup_.committee, setup_.keypairs[0].private_key, config);

  TxBatch batch;
  batch.id = (7ull << ShardedMempool::kClientKeyShift) | 1;
  batch.count = 5;
  ASSERT_TRUE(admitted(pool->submit(batch)));
  EXPECT_EQ(validator.mempool_size(), 1u);

  const Actions actions = validator.on_mempool_ready(0);
  ASSERT_EQ(actions.broadcast.size(), 1u);
  ASSERT_EQ(actions.broadcast[0]->batches().size(), 1u);
  EXPECT_EQ(actions.broadcast[0]->batches()[0].id, batch.id);
  EXPECT_EQ(validator.mempool_size(), 0u);
}

TEST_F(ValidatorTest, OversizedBatchStillProposed) {
  // Carry-over regression at the proposal level: one batch above the block
  // payload cap must still make it into a block (else its shard wedges).
  ValidatorConfig config = config_for(0);
  config.max_block_payload_bytes = 1024;
  ValidatorCore validator(setup_.committee, setup_.keypairs[0].private_key, config);
  TxBatch huge;
  huge.id = 1;
  huge.count = 100;
  huge.tx_bytes = 512;  // 51200 bytes > 1024 cap
  const Actions actions = submit(validator, {huge}, 0);
  ASSERT_EQ(actions.broadcast.size(), 1u);
  ASSERT_EQ(actions.broadcast[0]->batches().size(), 1u);
  EXPECT_EQ(validator.mempool_size(), 0u);
}

TEST_F(ValidatorTest, MempoolAdmissionRejectsDuplicates) {
  auto validator = make_validator(0);
  TxBatch batch;
  batch.id = 9;
  batch.count = 3;
  // Proposals fire on submission, so the duplicate must ride in the same
  // call to be observable as an admission reject.
  const Actions actions = submit(*validator, {batch, batch}, 0);
  ASSERT_EQ(actions.broadcast.size(), 1u);
  EXPECT_EQ(actions.broadcast[0]->batches().size(), 1u);
  EXPECT_EQ(validator->mempool().stats().duplicate, 1u);
}

TEST_F(ValidatorTest, MinRoundDelayPacesProposals) {
  ValidatorConfig config = config_for(0);
  config.min_round_delay = millis(100);
  ValidatorCore validator(setup_.committee, setup_.keypairs[0].private_key, config);
  EXPECT_EQ(validator.on_tick(0).broadcast.size(), 1u);  // first proposal free
  EXPECT_FALSE(validator.proposal_deadline().has_value()) << "nothing is held back";

  // Deliver a full round-1 quorum: proposal for round 2 must wait for the
  // pacing delay, and the core names the instant it may fire.
  const BlockPtr b1 = make_validator(1)->on_tick(0).broadcast.at(0);
  const BlockPtr b2 = make_validator(2)->on_tick(0).broadcast.at(0);
  const BlockPtr b3 = make_validator(3)->on_tick(0).broadcast.at(0);
  validator.on_block(b1, 1, millis(10));
  EXPECT_FALSE(validator.proposal_deadline().has_value()) << "no round-1 quorum yet";
  validator.on_block(b2, 2, millis(11));
  EXPECT_EQ(validator.proposal_deadline(), millis(100)) << "quorum ready, floor holds";
  const Actions quorum = validator.on_block(b3, 3, millis(12));
  EXPECT_TRUE(quorum.broadcast.empty()) << "paced: too early to propose round 2";
  EXPECT_TRUE(validator.on_tick(millis(100) - 1).broadcast.empty());
  EXPECT_EQ(validator.proposal_deadline(), millis(100));
  const Actions at_deadline = validator.on_tick(millis(100));
  ASSERT_EQ(at_deadline.broadcast.size(), 1u);
  EXPECT_EQ(at_deadline.broadcast[0]->round(), 2u);
  EXPECT_FALSE(validator.proposal_deadline().has_value()) << "cleared by the proposal";
}

TEST_F(ValidatorTest, DeadlineWakeUpsNeverBreakTheFloor) {
  // Four cores in virtual time, woken exactly at their proposal deadlines,
  // with random starts and link delays that stagger the deadlines. Every
  // held proposal fires at its deadline, and no two own proposals are
  // closer than the floor, skip-ahead included.
  const TimeMicros floor = millis(20);
  std::vector<std::unique_ptr<ValidatorCore>> nodes;
  for (ValidatorId v = 0; v < 4; ++v) {
    ValidatorConfig config = config_for(v);
    config.min_round_delay = floor;
    nodes.push_back(std::make_unique<ValidatorCore>(
        setup_.committee, setup_.keypairs[v].private_key, config));
  }
  struct Event {
    TimeMicros at;
    std::uint64_t seq;
    ValidatorId to;
    BlockPtr block;  // null: a wake-up at `to`'s deadline
    ValidatorId from = 0;
    bool operator>(const Event& other) const {
      return at != other.at ? at > other.at : seq > other.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t seq = 0;
  Rng rng(11);
  std::vector<std::vector<TimeMicros>> proposed_at(4);
  std::vector<std::optional<TimeMicros>> armed(4);
  std::uint64_t wakes_that_proposed = 0;

  const auto handle = [&](ValidatorId v, TimeMicros now, const Actions& actions) {
    for (const auto& block : actions.broadcast) {
      proposed_at[v].push_back(now);
      for (ValidatorId to = 0; to < 4; ++to) {
        if (to == v) continue;
        const TimeMicros delay = static_cast<TimeMicros>(rng.uniform(millis(30)));
        events.push(Event{now + delay, seq++, to, block, v});
      }
    }
    const std::optional<TimeMicros> deadline = nodes[v]->proposal_deadline();
    if (deadline) {
      EXPECT_GT(*deadline, now) << "a deadline is always in the future when set";
      if (deadline != armed[v]) events.push(Event{*deadline, seq++, v, nullptr});
    }
    armed[v] = deadline;
  };
  for (ValidatorId v = 0; v < 4; ++v) {
    const TimeMicros start = static_cast<TimeMicros>(rng.uniform(millis(10)));
    handle(v, start, nodes[v]->on_tick(start));
  }
  while (!events.empty()) {
    const Event event = events.top();
    events.pop();
    if (event.at > millis(1000)) break;
    if (event.block != nullptr) {
      handle(event.to, event.at, nodes[event.to]->on_block(event.block, event.from, event.at));
      continue;
    }
    const bool due = nodes[event.to]->proposal_deadline() == event.at;
    const Actions actions = nodes[event.to]->on_tick(event.at);
    if (due) {
      EXPECT_FALSE(actions.broadcast.empty()) << "v" << event.to << " slept through its deadline";
      wakes_that_proposed += !actions.broadcast.empty();
    }
    handle(event.to, event.at, actions);
  }
  EXPECT_GT(wakes_that_proposed, 40u);
  for (ValidatorId v = 0; v < 4; ++v) {
    EXPECT_GT(proposed_at[v].size(), 30u) << "v" << v;
    for (std::size_t i = 1; i < proposed_at[v].size(); ++i) {
      EXPECT_GE(proposed_at[v][i] - proposed_at[v][i - 1], floor) << "v" << v << " proposal " << i;
    }
  }
}

TEST_F(ValidatorTest, EquivocatorProducesTwins) {
  ValidatorConfig config = config_for(0);
  config.byzantine_equivocate = true;
  ValidatorCore validator(setup_.committee, setup_.keypairs[0].private_key, config);
  const Actions actions = validator.on_tick(0);
  ASSERT_EQ(actions.broadcast.size(), 2u);
  EXPECT_EQ(actions.broadcast[0]->round(), actions.broadcast[1]->round());
  EXPECT_EQ(actions.broadcast[0]->author(), actions.broadcast[1]->author());
  EXPECT_NE(actions.broadcast[0]->digest(), actions.broadcast[1]->digest());
  // Both are valid blocks from the committee's perspective.
  EXPECT_EQ(validate_block(*actions.broadcast[1], setup_.committee), BlockValidity::kValid);
}

TEST_F(ValidatorTest, RecoverRestoresProposerRound) {
  auto validator = make_validator(0);
  const auto own1 = validator->on_tick(0).broadcast[0];

  // A fresh core replaying the logged block must not re-propose round 1.
  auto recovered = make_validator(0);
  recovered->recover_block(own1);
  EXPECT_EQ(recovered->last_proposed_round(), 1u);
  const Actions tick = recovered->on_tick(1);
  EXPECT_TRUE(tick.broadcast.empty());
  EXPECT_TRUE(recovered->dag().contains(own1->digest()));
}

TEST_F(ValidatorTest, DuplicateDeliveryIsIdempotent) {
  auto v0 = make_validator(0);
  auto v1 = make_validator(1);
  const auto block = v1->on_tick(0).broadcast[0];
  // First delivery inserts v1's block and (genesis already forms a quorum)
  // triggers v0's own round-1 proposal.
  const Actions first = v0->on_block(block, 1, 0);
  ASSERT_EQ(first.inserted.size(), 2u);
  EXPECT_EQ(first.inserted[0]->author(), 1u);
  EXPECT_EQ(first.inserted[1]->author(), 0u);
  // Re-delivery is a no-op: nothing inserted, nothing proposed.
  const Actions second = v0->on_block(block, 1, 1);
  EXPECT_TRUE(second.inserted.empty());
  EXPECT_TRUE(second.broadcast.empty());
  EXPECT_EQ(v0->dag().block_count(), 6u);  // 4 genesis + v1's block + own proposal
}

// A parent ref resolves only in the (round, author) cell it names. These
// blocks relabel other blocks as distinct round-(R-1) authors: they pass the
// structural 2f+1 rule on labels alone, and must never enter the DAG.
BlockPtr relabelled(const Committee::TestSetup& setup, ValidatorId author, Round round,
                    const std::vector<BlockPtr>& sources) {
  std::vector<BlockRef> parents;
  for (ValidatorId a = 0; a < sources.size(); ++a) {
    parents.push_back(BlockRef{round - 1, a, sources[a]->digest()});
  }
  return std::make_shared<const Block>(
      Block::make(author, round, std::move(parents), {},
                  setup.committee.coin().share(author, round),
                  setup.keypairs[author].private_key));
}

TEST_F(ValidatorTest, RejectsRelabelledParentsAlreadyPresent) {
  auto v0 = make_validator(0);
  std::vector<BlockPtr> round1;
  for (ValidatorId v = 1; v < 4; ++v) {
    round1.push_back(make_validator(v)->on_tick(0).broadcast[0]);
    v0->on_block(round1.back(), v, 0);
  }
  // Genesis blocks labelled as the round-1 blocks of authors 0, 1 and 2.
  const auto genesis = v0->dag().blocks_at(0);
  const BlockPtr forged = relabelled(setup_, 1, 2, {genesis[0], genesis[1], genesis[2]});
  ASSERT_EQ(validate_block_structure(*forged, setup_.committee), BlockValidity::kValid);

  const Actions actions = v0->on_block(forged, 1, 1);
  EXPECT_TRUE(actions.inserted.empty());
  EXPECT_TRUE(actions.fetch_requests.empty());
  EXPECT_FALSE(v0->dag().contains(forged->digest()));
  EXPECT_EQ(v0->blocks_rejected(), 1u);
  EXPECT_EQ(v0->ingest_stats().structurally_rejected, 1u);
}

TEST_F(ValidatorTest, DropsWaiterWhenRelabelledParentArrivesByFetch) {
  auto v0 = make_validator(0);
  std::vector<BlockPtr> round1;  // authors 1, 2, 3
  for (ValidatorId v = 1; v < 4; ++v) {
    round1.push_back(make_validator(v)->on_tick(0).broadcast[0]);
  }
  // Author 3's round-1 block labelled as author 0's.
  const BlockPtr forged = relabelled(setup_, 1, 2, {round1[2], round1[0], round1[1]});
  const Actions parked = v0->on_block(forged, 1, 0);
  EXPECT_TRUE(parked.inserted.empty());
  ASSERT_EQ(parked.fetch_requests.size(), 1u);

  // The fetched parents arrive; the relabelled one lands in author 3's cell.
  for (const BlockPtr& block : round1) v0->on_block(block, block->author(), 1);
  for (const BlockPtr& block : round1) EXPECT_TRUE(v0->dag().contains(block->digest()));
  EXPECT_FALSE(v0->dag().contains(forged->digest()));
  EXPECT_EQ(v0->blocks_rejected(), 1u);
  EXPECT_EQ(v0->ingest_stats().structurally_rejected, 1u);
}

}  // namespace
}  // namespace mahimahi
