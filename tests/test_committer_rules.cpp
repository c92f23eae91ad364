// Decision-rule tests for the Mahi-Mahi committer (§3.2, Algorithms 1-3).
//
// Each test constructs a DAG realizing one of the situations of the paper's
// worked example (Appendix B) around the leader the coin actually elects,
// then checks the direct/indirect classification and the resulting commit
// sequence.
#include <gtest/gtest.h>

#include <set>

#include "core/committer.h"
#include "sim/dag_builder.h"

namespace mahimahi {
namespace {

// --- Wave geometry ----------------------------------------------------------

TEST(WaveGeometry, RoundRolesW5) {
  const CommitterOptions o = mahi_mahi_5();
  EXPECT_EQ(o.vote_round(10), 13u);     // Propose, Boost, Boost, Vote
  EXPECT_EQ(o.certify_round(10), 14u);  // ... Certify
}

TEST(WaveGeometry, RoundRolesW4) {
  const CommitterOptions o = mahi_mahi_4();
  EXPECT_EQ(o.vote_round(10), 12u);  // one Boost round removed
  EXPECT_EQ(o.certify_round(10), 13u);
}

TEST(WaveGeometry, RoundRolesW3) {
  CommitterOptions o;
  o.wave_length = 3;
  EXPECT_EQ(o.vote_round(10), 11u);  // no Boost rounds
  EXPECT_EQ(o.certify_round(10), 12u);
}

TEST(WaveGeometry, ProposeRoundsWithStride) {
  const CommitterOptions mm = mahi_mahi_5();
  EXPECT_TRUE(mm.is_propose_round(1));
  EXPECT_TRUE(mm.is_propose_round(2));  // overlapping waves: every round
  EXPECT_FALSE(mm.is_propose_round(0));

  const CommitterOptions cm = cordial_miners_shape(5);
  EXPECT_TRUE(cm.is_propose_round(1));
  EXPECT_FALSE(cm.is_propose_round(2));
  EXPECT_TRUE(cm.is_propose_round(6));
}

TEST(WaveGeometry, InvalidOptionsRejected) {
  DagBuilder b(4);
  CommitterOptions bad;
  bad.wave_length = 2;
  EXPECT_THROW(Committer(b.dag(), b.committee(), bad), std::invalid_argument);
  CommitterOptions too_many_leaders = mahi_mahi_5(5);
  EXPECT_THROW(Committer(b.dag(), b.committee(), too_many_leaders),
               std::invalid_argument);
}

// --- Direct commit ----------------------------------------------------------

class DirectRule : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DirectRule, FullyConnectedDagCommitsDirectly) {
  const std::uint32_t w = GetParam();
  DagBuilder b(4);
  CommitterOptions options;
  options.wave_length = w;
  options.leaders_per_round = 1;
  Committer committer(b.dag(), b.committee(), options);

  // Nothing commits before the certify round of wave 1 exists.
  b.build_fully_connected(w - 1);
  EXPECT_TRUE(committer.try_commit().empty());

  // Round w completes wave 1 (propose round 1, certify round w).
  b.build_fully_connected(w);
  const auto committed = committer.try_commit();
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_EQ(committed[0].slot, (SlotId{1, 0}));
  EXPECT_EQ(committed[0].leader->round(), 1u);
  EXPECT_EQ(committed[0].leader->author(), b.leader_of({1, 0}, options));
  EXPECT_EQ(committer.stats().direct_commits, 1u);
  EXPECT_EQ(committer.stats().indirect_commits, 0u);
}

INSTANTIATE_TEST_SUITE_P(WaveLengths, DirectRule, ::testing::Values(3u, 4u, 5u));

TEST(Committer, DeliversCausalHistoryInOrder) {
  DagBuilder b(4);
  const auto options = mahi_mahi_5(1);
  Committer committer(b.dag(), b.committee(), options);
  b.build_fully_connected(6);
  const auto committed = committer.try_commit();
  ASSERT_GE(committed.size(), 1u);

  const auto& first = committed[0];
  // The first sub-DAG contains the genesis blocks and ends with the leader.
  EXPECT_EQ(first.blocks.back()->digest(), first.leader->digest());
  EXPECT_EQ(first.blocks.front()->round(), 0u);
  // Causal order: rounds never decrease.
  for (std::size_t i = 1; i < first.blocks.size(); ++i) {
    EXPECT_LE(first.blocks[i - 1]->round(), first.blocks[i]->round());
  }
}

TEST(Committer, NoDoubleDelivery) {
  DagBuilder b(4);
  Committer committer(b.dag(), b.committee(), mahi_mahi_5(2));
  b.build_fully_connected(12);
  std::set<Digest> delivered;
  for (const auto& sub_dag : committer.try_commit()) {
    for (const auto& block : sub_dag.blocks) {
      EXPECT_TRUE(delivered.insert(block->digest()).second)
          << "block delivered twice: " << block->ref().to_string();
    }
  }
  // A second call with no new blocks delivers nothing.
  EXPECT_TRUE(committer.try_commit().empty());
}

TEST(Committer, IncrementalCommitsMatchOneShot) {
  const auto options = mahi_mahi_5(2);
  std::vector<BlockRef> incremental_leaders, oneshot_leaders;
  {
    DagBuilder b(4);
    Committer committer(b.dag(), b.committee(), options);
    for (Round r = 1; r <= 12; ++r) {
      b.build_fully_connected(r);
      for (const auto& sub_dag : committer.try_commit()) {
        incremental_leaders.push_back(sub_dag.leader->ref());
      }
    }
  }
  {
    DagBuilder b(4);
    Committer committer(b.dag(), b.committee(), options);
    b.build_fully_connected(12);
    for (const auto& sub_dag : committer.try_commit()) {
      oneshot_leaders.push_back(sub_dag.leader->ref());
    }
  }
  ASSERT_FALSE(oneshot_leaders.empty());
  // The incremental run decided at least as much; the one-shot sequence must
  // be a prefix of it (it is evaluated on the same final DAG).
  ASSERT_GE(incremental_leaders.size(), oneshot_leaders.size());
  for (std::size_t i = 0; i < oneshot_leaders.size(); ++i) {
    EXPECT_EQ(incremental_leaders[i], oneshot_leaders[i]);
  }
}

TEST(Committer, MultiLeaderSlotsConsumeInOrder) {
  DagBuilder b(4);
  const auto options = mahi_mahi_5(3);
  Committer committer(b.dag(), b.committee(), options);
  b.build_fully_connected(10);
  const auto committed = committer.try_commit();
  ASSERT_GE(committed.size(), 3u);
  // Slots arrive ordered by (round, leader offset).
  for (std::size_t i = 1; i < committed.size(); ++i) {
    EXPECT_LT(committed[i - 1].slot, committed[i].slot);
  }
  EXPECT_EQ(committed[0].slot, (SlotId{1, 0}));
  EXPECT_EQ(committed[1].slot, (SlotId{1, 1}));
  EXPECT_EQ(committed[2].slot, (SlotId{1, 2}));
  // Distinct leaders for same-round slots.
  EXPECT_NE(committed[0].leader->author(), committed[1].leader->author());
}

// --- Direct skip ------------------------------------------------------------

TEST(DirectSkip, CrashedLeaderSlotIsSkippedPromptly) {
  DagBuilder b(4);
  const auto options = mahi_mahi_5(1);
  const ValidatorId leader = b.leader_of({1, 0}, options);
  Committer committer(b.dag(), b.committee(), options);

  // The leader never produces a round-1 block; the other three (= 2f+1)
  // validators keep going.
  std::vector<ValidatorId> alive;
  for (ValidatorId v = 0; v < 4; ++v) {
    if (v != leader) alive.push_back(v);
  }
  for (Round r = 1; r <= 5; ++r) b.add_full_round(r, alive);

  EXPECT_TRUE(committer.try_commit().empty());  // nothing committable at slot 1
  ASSERT_FALSE(committer.decided_sequence().empty());
  const auto& decision = committer.decided_sequence().front();
  EXPECT_EQ(decision.slot, (SlotId{1, 0}));
  EXPECT_EQ(decision.kind, SlotDecision::Kind::kSkip);
  EXPECT_EQ(decision.via, SlotDecision::Via::kDirect);
  EXPECT_EQ(committer.stats().direct_skips, 1u);
}

TEST(DirectSkip, UnreferencedLeaderBlockIsSkipped) {
  DagBuilder b(4);
  const auto options = mahi_mahi_5(1);
  const ValidatorId leader = b.leader_of({1, 0}, options);
  Committer committer(b.dag(), b.committee(), options);

  // The leader proposes, but the adversary suppresses its block: no later
  // block ever references it, so every vote-round block is a non-vote.
  b.add_full_round(1);
  for (Round r = 2; r <= 5; ++r) b.add_adversarial_round(r, {leader});

  committer.try_commit();
  ASSERT_FALSE(committer.decided_sequence().empty());
  const auto& decision = committer.decided_sequence().front();
  EXPECT_EQ(decision.kind, SlotDecision::Kind::kSkip);
  EXPECT_EQ(decision.via, SlotDecision::Via::kDirect);
}

TEST(DirectSkip, DisabledSkipLeavesSlotForIndirectResolution) {
  // Cordial-Miners-shaped committer: no direct skip. A crashed leader stalls
  // the slot until an anchor from the next wave resolves it indirectly.
  DagBuilder b(4);
  const auto options = cordial_miners_shape(5);  // stride 5, 1 leader, no skip
  const ValidatorId leader = b.leader_of({1, 0}, options);
  Committer committer(b.dag(), b.committee(), options);

  std::vector<ValidatorId> alive;
  for (ValidatorId v = 0; v < 4; ++v) {
    if (v != leader) alive.push_back(v);
  }
  // Wave 1 completes (rounds 1..5) without the leader: slot must stay
  // undecided (no direct skip available).
  for (Round r = 1; r <= 5; ++r) b.add_full_round(r, alive);
  EXPECT_TRUE(committer.try_commit().empty());
  EXPECT_TRUE(committer.decided_sequence().empty());
  EXPECT_EQ(committer.next_pending_slot(), (SlotId{1, 0}));

  // Wave 2 (propose round 6, certify round 10) commits; its leader anchors
  // the indirect skip of wave 1.
  for (Round r = 6; r <= 10; ++r) b.add_full_round(r);
  committer.try_commit();
  ASSERT_GE(committer.decided_sequence().size(), 2u);
  EXPECT_EQ(committer.decided_sequence()[0].kind, SlotDecision::Kind::kSkip);
  EXPECT_EQ(committer.decided_sequence()[0].via, SlotDecision::Via::kIndirect);
  EXPECT_EQ(committer.decided_sequence()[1].kind, SlotDecision::Kind::kCommit);
}

// --- Equivocation (the L5b / L'5b scenario of Appendix B) --------------------

class EquivocationScenario : public ::testing::Test {
 protected:
  // Builds: leader equivocates at round 1 with blocks X and Y. Vote-round
  // blocks reference X or Y *first* according to `x_voters` (all others vote
  // Y). Returns (X, Y).
  std::pair<BlockPtr, BlockPtr> build(DagBuilder& b, const CommitterOptions& options,
                                      const std::set<ValidatorId>& x_voters) {
    const ValidatorId leader = b.leader_of({1, 0}, options);
    // Round 1: everyone proposes; the leader also equivocates.
    const auto round1 = b.add_full_round(1);
    TxBatch marker;
    marker.id = 0xeeee;
    std::vector<BlockRef> genesis_refs;
    for (const auto& g : b.dag().blocks_at(0)) genesis_refs.push_back(g->ref());
    const BlockPtr x = round1[leader];
    const BlockPtr y = b.add_block(leader, 1, genesis_refs, {marker});

    // Rounds 2 .. vote_round-1: connect everything EXCEPT X and Y (so the
    // vote round decides who saw which equivocation first, via direct refs).
    for (Round r = 2; r < options.vote_round(1); ++r) {
      std::vector<BlockRef> refs;
      for (const auto& block : b.dag().blocks_at(r - 1)) {
        if (block->digest() == x->digest() || block->digest() == y->digest()) continue;
        refs.push_back(block->ref());
      }
      for (ValidatorId v = 0; v < b.n(); ++v) b.add_block(v, r, refs);
    }

    // Vote round: each block lists its preferred equivocation FIRST (the
    // ordered DFS hits it before anything else), then a 2f+1 quorum.
    const Round vote_round = options.vote_round(1);
    for (ValidatorId v = 0; v < b.n(); ++v) {
      std::vector<BlockRef> refs;
      refs.push_back(x_voters.contains(v) ? x->ref() : y->ref());
      for (const auto& block : b.dag().blocks_at(vote_round - 1)) {
        refs.push_back(block->ref());
      }
      b.add_block(v, vote_round, refs);
    }
    // Certify round: fully connected.
    b.add_full_round(options.certify_round(1));
    return {x, y};
  }
};

TEST_F(EquivocationScenario, MinorityEquivocationSkippedMajorityCommitted) {
  // One vote for X, three for Y (the paper's L5b/L'5b): Y commits, X dies.
  DagBuilder b(4);
  const auto options = mahi_mahi_5(1);
  const auto [x, y] = build(b, options, /*x_voters=*/{0});
  Committer committer(b.dag(), b.committee(), options);
  committer.try_commit();

  ASSERT_FALSE(committer.decided_sequence().empty());
  const auto& decision = committer.decided_sequence().front();
  EXPECT_EQ(decision.kind, SlotDecision::Kind::kCommit);
  EXPECT_EQ(decision.via, SlotDecision::Via::kDirect);
  EXPECT_EQ(decision.ref.digest, y->digest()) << "the certified equivocation wins";
}

TEST_F(EquivocationScenario, SplitVotesCommitNeither) {
  // Two votes each: neither reaches 2f+1 certificates, neither can be
  // directly skipped alone... but both can never be certified, so the slot
  // resolves indirectly once a later anchor commits.
  DagBuilder b(4);
  const auto options = mahi_mahi_5(1);
  const auto [x, y] = build(b, options, /*x_voters=*/{0, 1});
  Committer committer(b.dag(), b.committee(), options);
  committer.try_commit();
  // Neither equivocation may ever be committed.
  for (const auto& decision : committer.decided_sequence()) {
    if (decision.slot == (SlotId{1, 0})) {
      EXPECT_NE(decision.kind, SlotDecision::Kind::kCommit);
    }
  }

  // Extend the DAG so an anchor commits; the slot must resolve to skip.
  for (Round r = options.certify_round(1) + 1; r <= options.certify_round(1) + 6; ++r) {
    b.add_full_round(r);
  }
  committer.try_commit();
  ASSERT_FALSE(committer.decided_sequence().empty());
  EXPECT_EQ(committer.decided_sequence().front().slot, (SlotId{1, 0}));
  EXPECT_EQ(committer.decided_sequence().front().kind, SlotDecision::Kind::kSkip);
}

TEST_F(EquivocationScenario, AtMostOneEquivocationEverCommits) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    DagBuilder b(4, seed);
    const auto options = mahi_mahi_4(1);
    const auto [x, y] = build(b, options, /*x_voters=*/{0, 2});
    for (Round r = options.certify_round(1) + 1; r <= options.certify_round(1) + 8; ++r) {
      b.add_full_round(r);
    }
    Committer committer(b.dag(), b.committee(), options);
    committer.try_commit();
    int commits_in_slot1 = 0;
    for (const auto& decision : committer.decided_sequence()) {
      if (decision.slot.round == 1 && decision.kind == SlotDecision::Kind::kCommit) {
        ++commits_in_slot1;
      }
    }
    EXPECT_LE(commits_in_slot1, 1) << "seed " << seed;
  }
}

// --- Indirect rule ----------------------------------------------------------

class IndirectScenario : public ::testing::Test {
 protected:
  // Builds a wave-1 DAG where the slot leader's block P collects exactly
  // `voters` votes, and at most one certificate (by the first voter's
  // certify block referencing exactly the voting blocks). With voters = 2f+1
  // and a single certificate the direct rule is inconclusive: commit needs
  // 2f+1 certificates, skip needs 2f+1 non-votes.
  BlockPtr build(DagBuilder& b, const CommitterOptions& options,
                 std::uint32_t voters) {
    const ValidatorId leader = b.leader_of({1, 0}, options);
    const auto round1 = b.add_full_round(1);
    const BlockPtr p = round1[leader];

    // Boost rounds: connect everything except P.
    for (Round r = 2; r < options.vote_round(1); ++r) {
      std::vector<BlockRef> refs;
      for (const auto& block : b.dag().blocks_at(r - 1)) {
        if (block->digest() == p->digest()) continue;
        refs.push_back(block->ref());
      }
      for (ValidatorId v = 0; v < b.n(); ++v) b.add_block(v, r, refs);
    }

    // Vote round: the first `voters` validators reference P directly (vote);
    // the rest do not (P is otherwise unreachable).
    const Round vote_round = options.vote_round(1);
    std::uint32_t voted = 0;
    std::vector<BlockPtr> vote_blocks;
    for (ValidatorId v = 0; v < b.n(); ++v) {
      std::vector<BlockRef> refs;
      if (voted < voters) {
        refs.push_back(p->ref());
        ++voted;
      }
      for (const auto& block : b.dag().blocks_at(vote_round - 1)) {
        refs.push_back(block->ref());
      }
      vote_blocks.push_back(b.add_block(v, vote_round, refs));
    }

    // Certify round: validator 0 references exactly the voting blocks (a
    // certificate iff voters >= 2f+1); everyone else references a quorum
    // containing at most 2f of the voters, so they are never certificates.
    const Round certify_round = options.certify_round(1);
    {
      std::vector<BlockRef> refs;
      for (std::uint32_t i = 0; i < voters; ++i) refs.push_back(vote_blocks[i]->ref());
      for (std::uint32_t i = voters; i < b.quorum(); ++i) {
        refs.push_back(vote_blocks[i]->ref());
      }
      b.add_block(0, certify_round, refs);
    }
    for (ValidatorId v = 1; v < b.n(); ++v) {
      std::vector<BlockRef> refs;
      // Reference the non-voters first, then voters up to a quorum, leaving
      // at most 2f voters in the parent set.
      for (ValidatorId u = b.n(); u-- > 0;) {
        if (refs.size() >= b.quorum()) break;
        refs.push_back(vote_blocks[u]->ref());
      }
      b.add_block(v, certify_round, refs);
    }
    return p;
  }
};

TEST_F(IndirectScenario, CertifiedLinkCommitsIndirectly) {
  DagBuilder b(4);
  const auto options = mahi_mahi_5(1);
  const BlockPtr p = build(b, options, /*voters=*/3);  // 2f+1 votes, 1 cert

  Committer committer(b.dag(), b.committee(), options);
  committer.try_commit();
  EXPECT_TRUE(committer.decided_sequence().empty())
      << "direct rule must be inconclusive with a single certificate";

  // Future rounds fully connected: a later wave commits and anchors slot 1.
  for (Round r = options.certify_round(1) + 1;
       r <= options.certify_round(1) + 2 * options.wave_length; ++r) {
    b.add_full_round(r);
  }
  committer.try_commit();
  ASSERT_FALSE(committer.decided_sequence().empty());
  const auto& decision = committer.decided_sequence().front();
  EXPECT_EQ(decision.slot, (SlotId{1, 0}));
  EXPECT_EQ(decision.kind, SlotDecision::Kind::kCommit);
  EXPECT_EQ(decision.via, SlotDecision::Via::kIndirect);
  EXPECT_EQ(decision.ref.digest, p->digest());
}

TEST_F(IndirectScenario, NoCertificateSkipsIndirectly) {
  DagBuilder b(4);
  const auto options = mahi_mahi_5(1);
  // Only f+1 = 2 votes: no certificate can exist, but 2 non-votes < 2f+1
  // also rules out a direct skip.
  build(b, options, /*voters=*/2);

  Committer committer(b.dag(), b.committee(), options);
  committer.try_commit();
  EXPECT_TRUE(committer.decided_sequence().empty());

  for (Round r = options.certify_round(1) + 1;
       r <= options.certify_round(1) + 2 * options.wave_length; ++r) {
    b.add_full_round(r);
  }
  committer.try_commit();
  ASSERT_FALSE(committer.decided_sequence().empty());
  const auto& decision = committer.decided_sequence().front();
  EXPECT_EQ(decision.slot, (SlotId{1, 0}));
  EXPECT_EQ(decision.kind, SlotDecision::Kind::kSkip);
  EXPECT_EQ(decision.via, SlotDecision::Via::kIndirect);
}

// --- Misc -------------------------------------------------------------------

TEST(Committer, SlotLeaderGatedOnCoinOpening) {
  DagBuilder b(4);
  const auto options = mahi_mahi_5(1);
  Committer committer(b.dag(), b.committee(), options);
  // Certify round of wave 1 is round 5; before 2f+1 round-5 blocks exist the
  // leader is unknown.
  b.build_fully_connected(4);
  EXPECT_FALSE(committer.slot_leader({1, 0}).has_value());
  b.add_full_round(5, {0, 1});
  EXPECT_FALSE(committer.slot_leader({1, 0}).has_value());
  b.add_full_round(5, {2});
  ASSERT_TRUE(committer.slot_leader({1, 0}).has_value());
  EXPECT_EQ(*committer.slot_leader({1, 0}), b.leader_of({1, 0}, options));
}

TEST(Committer, StatsAccumulate) {
  DagBuilder b(4);
  Committer committer(b.dag(), b.committee(), mahi_mahi_5(2));
  b.build_fully_connected(15);
  const auto committed = committer.try_commit();
  const auto& stats = committer.stats();
  EXPECT_EQ(stats.committed_slots(), committed.size());
  EXPECT_GT(stats.delivered_blocks, 0u);
  EXPECT_EQ(stats.direct_commits + stats.indirect_commits + stats.direct_skips +
                stats.indirect_skips,
            committer.decided_sequence().size());
}

}  // namespace
}  // namespace mahimahi
