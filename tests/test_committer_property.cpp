// Property tests for the committer: the Appendix C safety and liveness
// claims, checked over randomized DAGs and divergent local views.
//
//  * Prefix consistency (Lemmas 5-7, Theorem 1): validators with different
//    ancestry-closed views of the same global DAG deliver prefix-consistent
//    block sequences and agree on every decided slot.
//  * Integrity (Theorem 2): no block is delivered twice.
//  * At most one equivocation per slot commits (Lemma 2).
//  * Eventual decision in the random network model (Lemmas 13/14, 16/18/19).
//  * Incremental evaluation, in any causal arrival order and with or without
//    GC, decides and delivers exactly what one pass over the full DAG does.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/env.h"
#include "core/committer.h"
#include "sim/dag_builder.h"

namespace mahimahi {
namespace {

enum class NetModel { kRandom, kAdversarial };

struct ModelParams {
  std::uint32_t n = 4;
  std::uint32_t wave_length = 5;
  std::uint32_t leaders = 2;
  NetModel net = NetModel::kRandom;
  std::uint32_t crashed = 0;           // validators n-1, n-2, ... are crashed
  bool equivocator = false;            // validator 0 equivocates every round
  Round rounds = 24;

  std::string label() const {
    std::string out = "n" + std::to_string(n) + "_w" + std::to_string(wave_length) +
                      "_l" + std::to_string(leaders);
    out += net == NetModel::kRandom ? "_rand" : "_adv";
    if (crashed > 0) out += "_crash" + std::to_string(crashed);
    if (equivocator) out += "_equiv";
    return out;
  }
};

// Builds a global DAG under the given model. Returns the builder (which owns
// the committee and the full DAG).
std::unique_ptr<DagBuilder> build_global_dag(const ModelParams& params,
                                             std::uint64_t seed) {
  auto builder = std::make_unique<DagBuilder>(params.n, /*committee seed=*/7);
  Rng rng(seed);
  const CommitterOptions options{.wave_length = params.wave_length,
                                 .leaders_per_round = params.leaders};

  std::vector<ValidatorId> alive;
  for (ValidatorId v = 0; v < params.n; ++v) {
    if (v >= params.n - params.crashed) continue;
    alive.push_back(v);
  }

  for (Round r = 1; r <= params.rounds; ++r) {
    Dag& dag = builder->dag();
    // Previous-round authors with at least one block.
    std::vector<ValidatorId> previous;
    for (ValidatorId a = 0; a < params.n; ++a) {
      if (!dag.slot(r - 1, a).empty()) previous.push_back(a);
    }

    // The adversary tries to suppress the current leaders' previous-round
    // blocks (the leader-delay attack the after-the-fact election defeats).
    std::set<ValidatorId> suppressed;
    if (params.net == NetModel::kAdversarial && r >= 2) {
      for (std::uint32_t offset = 0; offset < params.leaders; ++offset) {
        suppressed.insert(builder->leader_of({r - 1, offset}, options));
      }
    }

    for (const ValidatorId author : alive) {
      // Choose 2f+1 distinct previous-round authors.
      std::vector<ValidatorId> preferred, fallback;
      for (const ValidatorId p : previous) {
        (suppressed.contains(p) ? fallback : preferred).push_back(p);
      }
      std::shuffle(preferred.begin(), preferred.end(), rng);
      std::shuffle(fallback.begin(), fallback.end(), rng);
      std::vector<ValidatorId> chosen;
      for (const ValidatorId p : preferred) {
        if (chosen.size() < builder->quorum()) chosen.push_back(p);
      }
      for (const ValidatorId p : fallback) {
        if (chosen.size() < builder->quorum()) chosen.push_back(p);
      }
      EXPECT_GE(chosen.size(), builder->quorum()) << "model cannot form a quorum";

      std::vector<BlockRef> refs;
      for (const ValidatorId p : chosen) {
        const auto& cell = dag.slot(r - 1, p);
        // Under equivocation, pick one of the equivocating blocks at random.
        refs.push_back(cell[rng.uniform(cell.size())]->ref());
      }
      // Also reference own previous block when not already chosen.
      if (!dag.slot(r - 1, author).empty() &&
          std::find(chosen.begin(), chosen.end(), author) == chosen.end()) {
        refs.push_back(dag.slot(r - 1, author).front()->ref());
      }
      builder->add_block(author, r, refs);

      if (params.equivocator && author == 0) {
        TxBatch marker;
        marker.id = 0xb0b0'0000 + r;
        builder->add_block(author, r, refs, {marker});
      }
    }
  }
  return builder;
}

// An ancestry-closed local view: all blocks up to `horizon`, plus a random
// subset of blocks at horizon+1 (their parents are all <= horizon).
Dag make_view(const DagBuilder& global, Round horizon, double tip_probability,
              Rng& rng) {
  Dag view(global.committee());
  const Dag& full = global.dag();
  for (Round r = 1; r <= horizon + 1; ++r) {
    for (const auto& block : full.blocks_at(r)) {
      if (r == horizon + 1 && rng.uniform_double() >= tip_probability) continue;
      view.insert(block);
    }
  }
  return view;
}

std::vector<BlockRef> refs_of(const std::vector<CommittedSubDag>& sub_dags) {
  std::vector<BlockRef> out;
  for (const auto& sub_dag : sub_dags) {
    for (const auto& block : sub_dag.blocks) out.push_back(block->ref());
  }
  return out;
}

std::vector<BlockRef> delivered_sequence(const Dag& view, const Committee& committee,
                                         const CommitterOptions& options) {
  Committer committer(view, committee, options);
  return refs_of(committer.try_commit());
}

class CommitterProperty : public ::testing::TestWithParam<ModelParams> {};

TEST_P(CommitterProperty, ViewsDeliverPrefixConsistentSequences) {
  const ModelParams params = GetParam();
  const CommitterOptions options{.wave_length = params.wave_length,
                                 .leaders_per_round = params.leaders};

  for (std::uint64_t seed = 1; seed <= property_iters(3); ++seed) {
    const auto global = build_global_dag(params, seed);
    if (::testing::Test::HasFatalFailure()) return;
    Rng rng(seed * 1000 + 17);

    // A spread of views: short horizons, ragged tips, and the full DAG.
    std::vector<std::vector<BlockRef>> sequences;
    for (const Round lag : {Round{0}, Round{2}, Round{5}, Round{9}}) {
      const Round horizon = params.rounds > lag ? params.rounds - lag : 1;
      const Dag view = make_view(*global, horizon, 0.5, rng);
      sequences.push_back(delivered_sequence(view, global->committee(), options));
    }

    // The full view must have delivered something by 24 rounds.
    EXPECT_FALSE(sequences.front().empty()) << params.label() << " seed " << seed;

    // Pairwise prefix consistency (Total Order across views).
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      for (std::size_t j = i + 1; j < sequences.size(); ++j) {
        const auto& a = sequences[i];
        const auto& b = sequences[j];
        const std::size_t common = std::min(a.size(), b.size());
        for (std::size_t k = 0; k < common; ++k) {
          ASSERT_EQ(a[k], b[k]) << params.label() << " seed " << seed << " views "
                                << i << "/" << j << " diverge at " << k;
        }
      }
    }
  }
}

TEST_P(CommitterProperty, DecidedSlotsAgreeAcrossViews) {
  const ModelParams params = GetParam();
  const CommitterOptions options{.wave_length = params.wave_length,
                                 .leaders_per_round = params.leaders};

  const auto global = build_global_dag(params, 99);
  if (::testing::Test::HasFatalFailure()) return;
  Rng rng(4242);

  std::map<SlotId, std::pair<SlotDecision::Kind, std::optional<Digest>>> agreed;
  for (const Round lag : {Round{0}, Round{3}, Round{7}}) {
    const Round horizon = params.rounds > lag ? params.rounds - lag : 1;
    const Dag view = make_view(*global, horizon, 0.3, rng);
    Committer committer(view, global->committee(), options);
    committer.try_commit();
    for (const auto& decision : committer.decided_sequence()) {
      const auto entry = std::make_pair(
          decision.kind, decision.kind == SlotDecision::Kind::kCommit
                             ? std::optional<Digest>(decision.ref.digest)
                             : std::nullopt);
      const auto [it, inserted] = agreed.emplace(decision.slot, entry);
      if (!inserted) {
        EXPECT_EQ(it->second.first, entry.first)
            << params.label() << " slot " << decision.slot.to_string();
        EXPECT_EQ(it->second.second, entry.second)
            << params.label() << " slot " << decision.slot.to_string();
      }
    }
  }
}

TEST_P(CommitterProperty, NoBlockDeliveredTwice) {
  const ModelParams params = GetParam();
  const CommitterOptions options{.wave_length = params.wave_length,
                                 .leaders_per_round = params.leaders};
  const auto global = build_global_dag(params, 5);
  if (::testing::Test::HasFatalFailure()) return;

  Committer committer(global->dag(), global->committee(), options);
  std::set<Digest> delivered;
  for (const auto& sub_dag : committer.try_commit()) {
    for (const auto& block : sub_dag.blocks) {
      EXPECT_TRUE(delivered.insert(block->digest()).second)
          << params.label() << ": " << block->ref().to_string();
    }
  }
}

TEST_P(CommitterProperty, AtMostOneCommitPerSlot) {
  const ModelParams params = GetParam();
  const CommitterOptions options{.wave_length = params.wave_length,
                                 .leaders_per_round = params.leaders};
  const auto global = build_global_dag(params, 31);
  if (::testing::Test::HasFatalFailure()) return;

  Committer committer(global->dag(), global->committee(), options);
  committer.try_commit();
  std::set<SlotId> seen;
  for (const auto& decision : committer.decided_sequence()) {
    EXPECT_TRUE(seen.insert(decision.slot).second)
        << "slot decided twice: " << decision.slot.to_string();
  }
}

TEST_P(CommitterProperty, SlotsEventuallyDecide) {
  const ModelParams params = GetParam();
  if (params.net == NetModel::kAdversarial && params.wave_length < 4) return;
  const CommitterOptions options{.wave_length = params.wave_length,
                                 .leaders_per_round = params.leaders};
  const auto global = build_global_dag(params, 77);
  if (::testing::Test::HasFatalFailure()) return;

  Committer committer(global->dag(), global->committee(), options);
  committer.try_commit();
  // Everything older than ~3 waves behind the tip must be decided (the tail
  // cannot: its certify rounds do not exist yet).
  const Round expected_decided = params.rounds - 3 * params.wave_length;
  EXPECT_GT(committer.next_pending_slot().round, expected_decided) << params.label();
}

INSTANTIATE_TEST_SUITE_P(
    Models, CommitterProperty,
    ::testing::Values(
        ModelParams{.n = 4, .wave_length = 5, .leaders = 2, .net = NetModel::kRandom},
        ModelParams{.n = 4, .wave_length = 4, .leaders = 2, .net = NetModel::kRandom},
        ModelParams{.n = 4, .wave_length = 5, .leaders = 1, .net = NetModel::kAdversarial},
        ModelParams{.n = 7, .wave_length = 5, .leaders = 3, .net = NetModel::kRandom},
        ModelParams{.n = 7, .wave_length = 4, .leaders = 1, .net = NetModel::kAdversarial},
        ModelParams{.n = 7, .wave_length = 4, .leaders = 2, .net = NetModel::kRandom,
                    .crashed = 2},
        ModelParams{.n = 4, .wave_length = 5, .leaders = 2, .net = NetModel::kRandom,
                    .crashed = 1},
        ModelParams{.n = 4, .wave_length = 5, .leaders = 2, .net = NetModel::kRandom,
                    .equivocator = true},
        ModelParams{.n = 7, .wave_length = 4, .leaders = 2, .net = NetModel::kRandom,
                    .equivocator = true},
        ModelParams{.n = 10, .wave_length = 5, .leaders = 2, .net = NetModel::kRandom},
        ModelParams{.n = 10, .wave_length = 4, .leaders = 3, .net = NetModel::kRandom,
                    .crashed = 3}),
    [](const ::testing::TestParamInfo<ModelParams>& info) { return info.param.label(); });

// A global DAG in which validator 0 signs twin blocks every round, each over
// its own random 2f+1 parent set, so the twins reach later rounds along
// different paths and split the votes. Every other author references a random
// 2f+1 subset of the previous round's authors (plus its own previous block),
// taking a random twin wherever it references validator 0.
std::unique_ptr<DagBuilder> build_split_twin_dag(std::uint32_t n, Round rounds,
                                                 std::uint64_t seed) {
  auto builder = std::make_unique<DagBuilder>(n, /*committee seed=*/11);
  Rng rng(seed);
  const auto random_parents = [&](Round r, ValidatorId author) {
    const Dag& dag = builder->dag();
    std::vector<ValidatorId> previous(n);
    for (ValidatorId a = 0; a < n; ++a) previous[a] = a;
    std::shuffle(previous.begin(), previous.end(), rng);
    previous.resize(builder->quorum());
    if (std::find(previous.begin(), previous.end(), author) == previous.end()) {
      previous.push_back(author);
    }
    std::vector<BlockRef> refs;
    for (const ValidatorId p : previous) {
      const auto& cell = dag.slot(r - 1, p);
      refs.push_back(cell[rng.uniform(cell.size())]->ref());
    }
    return refs;
  };
  for (Round r = 1; r <= rounds; ++r) {
    for (ValidatorId author = 0; author < n; ++author) {
      builder->add_block(author, r, random_parents(r, author));
      if (author != 0) continue;
      TxBatch marker;
      marker.id = 0x7717'0000 + r;
      builder->add_block(author, r, random_parents(r, author), {marker});
    }
  }
  return builder;
}

// Inserts the global DAG's blocks one at a time, calling try_commit after
// each, and prunes at the gc_depth horizon of the consumed head the way
// ValidatorCore::maybe_gc does. The arrival order is causal and random: one
// block in eight is held back until nothing else is ready, and the blocks no
// other block references arrive last. A block that arrives below the horizon
// is dropped, as the validator drops it.
std::pair<std::vector<DecidedSlot>, std::vector<BlockRef>> commit_incrementally(
    const DagBuilder& global, const CommitterOptions& options, Rng& rng) {
  std::vector<BlockPtr> blocks;
  std::set<Digest> referenced;
  for (Round r = 1; r <= global.dag().highest_round(); ++r) {
    for (const auto& block : global.dag().blocks_at(r)) {
      blocks.push_back(block);
      for (const BlockRef& parent : block->parents()) referenced.insert(parent.digest);
    }
  }
  std::vector<BlockPtr> pending, unreferenced;
  std::set<Digest> held;
  for (const BlockPtr& block : blocks) {
    (referenced.contains(block->digest()) ? pending : unreferenced).push_back(block);
    if (rng.uniform(8) == 0) held.insert(block->digest());
  }

  Dag view(global.committee());
  Committer committer(view, global.committee(), options);
  std::vector<BlockRef> delivered;
  const auto arrive = [&](const BlockPtr& block) {
    if (block->round() < view.pruned_below()) return;
    view.insert(block);
    for (const BlockRef& ref : refs_of(committer.try_commit())) delivered.push_back(ref);
    const Round head = committer.next_pending_slot().round;
    if (options.gc_depth > 0 && head > options.gc_depth &&
        head - options.gc_depth > view.pruned_below()) {
      view.prune_below(head - options.gc_depth);
      committer.prune_below(head - options.gc_depth);
    }
  };
  while (!pending.empty()) {
    std::vector<std::size_t> ready, eager;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (!view.parents_present(*pending[i])) continue;
      ready.push_back(i);
      if (!held.contains(pending[i]->digest())) eager.push_back(i);
    }
    const auto& choices = eager.empty() ? ready : eager;
    const std::size_t pick = choices[rng.uniform(choices.size())];
    const BlockPtr block = pending[pick];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    arrive(block);
  }
  for (const BlockPtr& block : unreferenced) arrive(block);
  return {committer.decided_sequence(), std::move(delivered)};
}

TEST(CommitterEquivalence, IncrementalMatchesOneShotUnderSplitTwins) {
  struct Case {
    std::uint32_t n;
    CommitterOptions options;
  };
  std::vector<Case> cases;
  for (const Round gc_depth : {Round{0}, Round{6}}) {
    for (CommitterOptions options : {mahi_mahi_5(2), mahi_mahi_4(1), mahi_mahi_4(3)}) {
      options.gc_depth = gc_depth;
      cases.push_back({4, options});
      cases.push_back({7, options});
    }
  }

  for (const Case& c : cases) {
    const std::string label = "n" + std::to_string(c.n) + "_w" +
                              std::to_string(c.options.wave_length) + "_l" +
                              std::to_string(c.options.leaders_per_round) + "_gc" +
                              std::to_string(c.options.gc_depth);
    for (std::uint64_t seed = 1; seed <= property_iters(3); ++seed) {
      const auto global = build_split_twin_dag(c.n, 30, seed);
      Committer one_shot(global->dag(), global->committee(), c.options);
      const std::vector<BlockRef> expected_delivered = refs_of(one_shot.try_commit());
      const auto& expected_decided = one_shot.decided_sequence();
      ASSERT_GT(expected_decided.size(), 10u) << label << " seed " << seed;

      Rng rng(seed * 7919 + c.n);
      const auto [decided, delivered] = commit_incrementally(*global, c.options, rng);
      ASSERT_EQ(decided.size(), expected_decided.size()) << label << " seed " << seed;
      for (std::size_t i = 0; i < decided.size(); ++i) {
        EXPECT_TRUE(same_outcome(decided[i], expected_decided[i]))
            << label << " seed " << seed << ": " << decided[i].to_string() << " vs "
            << expected_decided[i].to_string();
      }
      EXPECT_EQ(delivered, expected_delivered) << label << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace mahimahi
