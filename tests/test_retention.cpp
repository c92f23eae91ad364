// Retention: nothing a validator keeps pins a block once its round falls
// below the GC horizon. The decided log holds slot identities (DecidedSlot),
// not leader blocks, so memory is bounded by gc_depth rather than by uptime.
//
// Every case drives a commit rule over a seeded DAG whose blocks carry real
// payloads, prunes at the gc_depth horizon of the consumed head (as
// ValidatorCore::maybe_gc does), keeps only weak_ptrs to the committed leader
// blocks, and checks that every leader below the horizon was released.
//
// The commit rule's vote memo is bounded by the consumed head instead, with
// or without GC; the last case checks it on a gc_depth = 0 sim run.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/tusk.h"
#include "common/rng.h"
#include "core/committer.h"
#include "sim/dag_builder.h"
#include "sim/harness.h"
#include "validator/validator.h"

namespace mahimahi {
namespace {

constexpr Round kGcDepth = 10;
constexpr Round kRounds = 80;
constexpr std::size_t kPayloadBytes = 2048;

Round gc_horizon(SlotId head) { return head.round > kGcDepth ? head.round - kGcDepth : 0; }

// Seeded block source for a 4-validator committee: each round, every author
// references its own previous block plus a random 2f+1 subset of the
// previous round, and carries one payload batch. The source's own DAG is
// pruned at the consumer's horizon, so it pins nothing below it either.
class PayloadStream {
 public:
  explicit PayloadStream(std::uint64_t seed) : rng_(seed) {}

  const Committee& committee() const { return builder_.committee(); }

  std::vector<BlockPtr> next_round() {
    const Round round = ++round_;
    const Dag& dag = builder_.dag();
    std::vector<BlockPtr> out;
    for (ValidatorId author = 0; author < builder_.n(); ++author) {
      std::vector<ValidatorId> previous(builder_.n());
      for (ValidatorId a = 0; a < builder_.n(); ++a) previous[a] = a;
      std::shuffle(previous.begin(), previous.end(), rng_);
      previous.resize(builder_.quorum());
      if (std::find(previous.begin(), previous.end(), author) == previous.end()) {
        previous.push_back(author);
      }
      std::vector<BlockRef> parents;
      for (const ValidatorId p : previous) {
        parents.push_back(dag.slot(round - 1, p).front()->ref());
      }
      TxBatch batch;
      batch.id = (static_cast<std::uint64_t>(author) << 32) | round;
      batch.payload.assign(kPayloadBytes, static_cast<std::uint8_t>(round));
      out.push_back(builder_.add_block(author, round, std::move(parents), {batch}));
    }
    return out;
  }

  void prune_below(Round horizon) { builder_.dag().prune_below(horizon); }

 private:
  DagBuilder builder_{4};
  Rng rng_;
  Round round_ = 0;
};

// Weak handles on committed leader blocks, with their rounds.
class LeaderWatch {
 public:
  void track(const BlockPtr& leader) {
    ASSERT_NE(leader, nullptr);
    leaders_.emplace_back(leader->round(), leader);
  }

  // Every tracked leader below `horizon` must have been released.
  void expect_released_below(Round horizon, const std::string& label) const {
    std::size_t checked = 0;
    for (const auto& [round, leader] : leaders_) {
      if (round >= horizon) continue;
      ++checked;
      EXPECT_TRUE(leader.expired())
          << label << ": leader at round " << round << " still pinned below horizon "
          << horizon;
    }
    EXPECT_GE(checked, 10u) << label << ": too few leaders below the horizon";
  }

 private:
  std::vector<std::pair<Round, std::weak_ptr<const Block>>> leaders_;
};

CommitterOptions retention_options() {
  CommitterOptions options = mahi_mahi_5(2);
  options.gc_depth = kGcDepth;
  return options;
}

TEST(Retention, CommitterReleasesLeadersBelowHorizon) {
  PayloadStream stream(1);
  Dag dag(stream.committee());
  Committer committer(dag, stream.committee(), retention_options());
  LeaderWatch watch;
  for (Round r = 1; r <= kRounds; ++r) {
    for (const BlockPtr& block : stream.next_round()) dag.insert(block);
    for (const auto& sub_dag : committer.try_commit()) watch.track(sub_dag.leader);
    const Round horizon = gc_horizon(committer.next_pending_slot());
    if (horizon > dag.pruned_below()) {
      dag.prune_below(horizon);
      committer.prune_below(horizon);
      stream.prune_below(horizon);
    }
  }
  EXPECT_GT(committer.decided_sequence().size(), 100u);
  watch.expect_released_below(dag.pruned_below(), "committer");
}

TEST(Retention, TuskReleasesLeadersBelowHorizon) {
  PayloadStream stream(3);
  Dag dag(stream.committee());
  TuskCommitter tusk(dag, stream.committee());
  LeaderWatch watch;
  for (Round r = 1; r <= kRounds; ++r) {
    for (const BlockPtr& block : stream.next_round()) dag.insert(block);
    for (const auto& sub_dag : tusk.try_commit()) watch.track(sub_dag.leader);
    const Round horizon = gc_horizon(tusk.next_pending_slot());
    if (horizon > dag.pruned_below()) {
      dag.prune_below(horizon);
      tusk.prune_below(horizon);
      stream.prune_below(horizon);
    }
  }
  watch.expect_released_below(dag.pruned_below(), "tusk");
}

// A checkpoint install adopts the decided log as identities: the restored
// entries hold no blocks, so leaders the installed suffix carried are
// released once the installer's own horizon passes them.
TEST(Retention, CheckpointInstallKeepsIdentitiesNotBlocks) {
  PayloadStream stream(4);
  const auto setup = Committee::make_test(4);  // same seed as the stream's builder
  ValidatorConfig config;
  config.observer = true;
  config.committer.gc_depth = kGcDepth;
  config.validation.verify_signature = false;
  config.validation.verify_coin_share = false;
  ValidatorCore source(setup.committee, setup.keypairs[0].private_key, config);
  ValidatorCore target(setup.committee, setup.keypairs[1].private_key, config);

  const auto feed = [&](ValidatorCore& core, const std::vector<BlockPtr>& blocks,
                        LeaderWatch* watch) {
    for (const BlockPtr& block : blocks) {
      const Actions actions = core.on_block(block, block->author(), 0);
      if (watch == nullptr) continue;
      for (const auto& sub_dag : actions.committed) watch->track(sub_dag.leader);
    }
  };

  for (Round r = 1; r <= kRounds / 2; ++r) {
    feed(source, stream.next_round(), nullptr);
    stream.prune_below(source.dag().pruned_below());
  }

  LeaderWatch watch;
  {
    const CheckpointData cut = source.capture_checkpoint();
    ASSERT_GT(cut.horizon, 0u);
    target.install_checkpoint(cut, 0);
    std::size_t installed_leaders = 0;
    for (const auto& d : target.committer().decided_sequence()) {
      if (d.kind != SlotDecision::Kind::kCommit || d.ref.round < cut.horizon) continue;
      watch.track(target.dag().get(d.ref));
      ++installed_leaders;
    }
    EXPECT_GT(installed_leaders, 0u);
  }

  for (Round r = kRounds / 2 + 1; r <= kRounds; ++r) {
    const std::vector<BlockPtr> blocks = stream.next_round();
    feed(source, blocks, nullptr);
    feed(target, blocks, &watch);
    stream.prune_below(
        std::min(source.dag().pruned_below(), target.dag().pruned_below()));
  }

  // The installed log agrees with the live one it was cut from, entry by
  // entry, although neither holds a block.
  const auto& live = source.committer().decided_sequence();
  const auto& installed = target.committer().decided_sequence();
  ASSERT_EQ(live.size(), installed.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_TRUE(same_outcome(live[i], installed[i]))
        << live[i].to_string() << " vs " << installed[i].to_string();
  }
  watch.expect_released_below(target.dag().pruned_below(), "checkpoint install");
}

// At gc_depth = 0 the DAG keeps every round, but the vote memo keeps only
// the target rounds at or above the consumed head: a few waves of them, not
// one per round of uptime.
TEST(Retention, VoteMemoStaysWithinAFewWavesWithoutGc) {
  sim::SimConfig config;
  config.protocol = sim::Protocol::kMahiMahi5;
  config.n = 4;
  config.wan = false;
  config.uniform_latency = millis(20);
  config.load_tps = 500;
  config.duration = seconds(25);
  config.warmup = seconds(2);
  config.seed = 17;
  const CommitterOptions options = mahi_mahi_5(config.leaders_per_round);
  ASSERT_EQ(options.gc_depth, 0u);
  config.committer_override = options;

  const sim::SimResult result = sim::run_simulation(config);
  EXPECT_GE(result.max_round, 150u);
  EXPECT_GE(result.total_blocks,
            static_cast<std::uint64_t>(result.max_round) * (config.n - 1));

  // A target round's traversals start at its vote round and stop above it:
  // at most n blocks in each of wave_length - 2 rounds, per slot leader.
  const std::int64_t per_round =
      options.leaders_per_round * config.n * (options.wave_length - 2);
  ASSERT_NE(result.metrics.find("mm_vote_memo_entries"), nullptr);
  const std::int64_t entries = result.metrics.gauge_value("mm_vote_memo_entries");
  EXPECT_LE(entries, 3 * static_cast<std::int64_t>(options.wave_length) * per_round)
      << "vote memo of " << entries << " entries after " << result.max_round
      << " rounds";
}

}  // namespace
}  // namespace mahimahi
