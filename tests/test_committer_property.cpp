// Property tests for the committer: the Appendix C safety and liveness
// claims, checked over randomized DAGs and divergent local views.
//
//  * Prefix consistency (Lemmas 5-7, Theorem 1): validators with different
//    ancestry-closed views of the same global DAG deliver prefix-consistent
//    block sequences and agree on every decided slot.
//  * Integrity (Theorem 2): no block is delivered twice.
//  * At most one equivocation per slot commits (Lemma 2).
//  * Eventual decision in the random network model (Lemmas 13/14, 16/18/19).
#include <gtest/gtest.h>

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

std::vector<BlockRef> delivered_sequence(const Dag& view, const Committee& committee,
                                         const CommitterOptions& options) {
  Committer committer(view, committee, options);
  std::vector<BlockRef> out;
  for (const auto& sub_dag : committer.try_commit()) {
    for (const auto& block : sub_dag.blocks) out.push_back(block->ref());
  }
  return out;
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

}  // namespace
}  // namespace mahimahi
