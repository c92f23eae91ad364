// NodePipeline: the one Actions dispatch both drivers run.
//
// Driven here through a fake Env that logs every send, and a Wal under the
// test's control with group-commit semantics: an on_durable ack covers only
// the records appended before the call, and runs once a flush() lands them.
// The properties under test:
//   * own proposals, an equivocator's twins included, reach broadcast only
//     after the ack that covers their append, and never when the log dies
//     before its flush (a crash);
//   * fetch responses carry blocks already in the DAG and are not gated;
//   * the dispatch order is pinned (the simulator's RNG stream depends on it);
//   * recover() on a log the pipeline wrote restores the proposer round, so
//     the restarted validator re-proposes nothing.
#include <gtest/gtest.h>

#include <deque>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "validator/pipeline.h"

namespace mahimahi {
namespace {

using Events = std::vector<std::string>;

// Appends log an event; acks wait for a flush that covers them, unless the
// log acks inline.
class ManualWal : public Wal {
 public:
  ManualWal(Events& events, bool inline_acks, std::unique_ptr<Wal> inner = nullptr)
      : events_(events), inline_acks_(inline_acks), inner_(std::move(inner)) {}

  void append_block(const Block& block, bool own) override {
    events_.push_back(own ? "append own" : "append");
    if (inner_ != nullptr) inner_->append_block(block, own);
    ++appended_;
  }
  void sync() override { flush(); }
  void on_durable(std::function<void()> done) override {
    acks_.push_back({appended_, std::move(done)});
    if (inline_acks_) flush();
    run_covered();
  }
  // Lands everything appended so far.
  void flush() {
    if (inner_ != nullptr) inner_->sync();
    durable_ = appended_;
    run_covered();
  }

 private:
  void run_covered() {
    while (!acks_.empty() && acks_.front().first <= durable_) {
      auto done = std::move(acks_.front().second);
      acks_.pop_front();
      done();
    }
  }

  Events& events_;
  const bool inline_acks_;
  std::unique_ptr<Wal> inner_;
  std::uint64_t appended_ = 0;
  std::uint64_t durable_ = 0;
  std::deque<std::pair<std::uint64_t, std::function<void()>>> acks_;
};

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : setup_(Committee::make_test(4)) {}

  std::unique_ptr<NodePipeline> make_pipeline(bool equivocate = false,
                                               const std::string& store_dir = "") {
    ValidatorConfig config;
    config.id = 0;
    config.committer = mahi_mahi_5(1);
    config.byzantine_equivocate = equivocate;
    NodePipeline::Env env;
    env.now = [this] { return now_; };
    env.broadcast = [this](const std::vector<BlockPtr>& group) {
      events_.push_back("broadcast " + std::to_string(group.size()));
      for (const auto& block : group) broadcast_.push_back(block);
    };
    env.send_blocks = [this](ValidatorId peer, const std::vector<BlockPtr>&) {
      events_.push_back("blocks " + std::to_string(peer));
    };
    env.send_fetch = [this](ValidatorId peer, const std::vector<BlockRef>&) {
      events_.push_back("fetch " + std::to_string(peer));
    };
    env.send_horizon = [this](ValidatorId peer, Round) {
      events_.push_back("horizon " + std::to_string(peer));
    };
    env.checkpoint.send = [this](ValidatorId peer, BytesView) {
      events_.push_back("checkpoint " + std::to_string(peer));
    };
    env.commit = [this](const CommittedSubDag&, TimeMicros, CommitTrace*) {
      events_.push_back("commit");
    };
    env.replay_commit = [](const CommittedSubDag&) {};
    return std::make_unique<NodePipeline>(setup_.committee, setup_.keypairs[0].private_key,
                                          config, registry_, std::move(env),
                                          NodePipeline::Observers{}, store_dir);
  }

  // Starts `pipeline` on a ManualWal and returns the log for flushing.
  ManualWal& start(NodePipeline& pipeline, bool inline_acks,
                   std::unique_ptr<Wal> inner = nullptr) {
    auto wal = std::make_unique<ManualWal>(events_, inline_acks, std::move(inner));
    ManualWal& handle = *wal;
    pipeline.start(std::move(wal), nullptr);
    return handle;
  }

  bool broadcast_seen() const {
    for (const auto& event : events_) {
      if (event.rfind("broadcast", 0) == 0) return true;
    }
    return false;
  }

  Committee::TestSetup setup_;
  obs::Registry registry_;
  Events events_;
  std::vector<BlockPtr> broadcast_;
  TimeMicros now_ = 0;
};

TEST_F(PipelineTest, OwnProposalBroadcastsOnlyAfterItsAppendIsDurable) {
  auto pipeline = make_pipeline();
  ManualWal& wal = start(*pipeline, /*inline_acks=*/false);
  pipeline->perform(pipeline->core().on_tick(now_));
  EXPECT_EQ(events_, (Events{"append own"}));
  EXPECT_FALSE(broadcast_seen()) << "broadcast before the covering flush";

  wal.flush();
  EXPECT_EQ(events_, (Events{"append own", "broadcast 1"}));
  ASSERT_EQ(broadcast_.size(), 1u);
  EXPECT_EQ(broadcast_[0]->round(), 1u);
}

TEST_F(PipelineTest, EquivocatorTwinsBroadcastAsOneGroupAfterTheAck) {
  auto pipeline = make_pipeline(/*equivocate=*/true);
  ManualWal& wal = start(*pipeline, /*inline_acks=*/false);
  pipeline->perform(pipeline->core().on_tick(now_));
  EXPECT_EQ(events_, (Events{"append own", "append own"}));
  EXPECT_FALSE(broadcast_seen());

  wal.flush();
  EXPECT_EQ(events_, (Events{"append own", "append own", "broadcast 2"}));
  ASSERT_EQ(broadcast_.size(), 2u);
  EXPECT_EQ(broadcast_[0]->round(), broadcast_[1]->round());
  EXPECT_NE(broadcast_[0]->digest(), broadcast_[1]->digest());
}

TEST_F(PipelineTest, CrashBeforeTheFlushNeverSends) {
  for (const bool equivocate : {false, true}) {
    events_.clear();
    auto pipeline = make_pipeline(equivocate);
    start(*pipeline, /*inline_acks=*/false);
    pipeline->perform(pipeline->core().on_tick(now_));
    pipeline.reset();  // the process dies with its log unflushed
    EXPECT_FALSE(broadcast_seen()) << "equivocate=" << equivocate;
    EXPECT_TRUE(broadcast_.empty());
  }
}

TEST_F(PipelineTest, FetchResponsesAreNotGated) {
  auto pipeline = make_pipeline();
  ManualWal& wal = start(*pipeline, /*inline_acks=*/false);
  Actions actions = pipeline->core().on_tick(now_);
  const BlockPtr own = actions.broadcast.at(0);
  actions.responses.push_back({2, {own}});
  pipeline->perform(std::move(actions));
  EXPECT_EQ(events_, (Events{"append own", "blocks 2"}));

  wal.flush();
  EXPECT_EQ(events_, (Events{"append own", "blocks 2", "broadcast 1"}));
}

TEST_F(PipelineTest, DispatchOrderIsPinned) {
  // WAL first, then the simulator's send order: broadcast, fetches,
  // responses, commits, horizon notices, checkpoint requests.
  auto pipeline = make_pipeline();
  start(*pipeline, /*inline_acks=*/true);
  Actions actions = pipeline->core().on_tick(now_);
  const BlockPtr own = actions.broadcast.at(0);
  actions.fetch_requests.push_back({1, {own->ref()}});
  actions.responses.push_back({2, {own}});
  actions.committed.push_back(CommittedSubDag{SlotId{1, 0}, own, {own}});
  actions.horizon_notices.push_back({3, 7});
  actions.checkpoint_requests.push_back(1);
  pipeline->perform(std::move(actions));
  EXPECT_EQ(events_, (Events{"append own", "broadcast 1", "fetch 1", "blocks 2", "commit",
                             "horizon 3", "checkpoint 1"}));
  EXPECT_EQ(registry_.counter("mm_fetch_requests_total").value(), 1u);
  EXPECT_EQ(registry_.counter("mm_checkpoint_requests_total").value(), 1u);
}

TEST_F(PipelineTest, RecoverRestoresTheProposerRound) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("mahi_pipeline_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    auto pipeline = make_pipeline(false, dir.string());
    start(*pipeline, /*inline_acks=*/true, std::make_unique<SegmentedWal>(dir.string()));
    pipeline->perform(pipeline->core().on_tick(now_));
  }
  ASSERT_EQ(broadcast_.size(), 1u);
  const BlockPtr proposed = broadcast_[0];

  // Restarted from the log it wrote: the proposal is back in the DAG and the
  // proposer round with it, so the next tick re-proposes nothing.
  events_.clear();
  broadcast_.clear();
  auto restarted = make_pipeline(false, dir.string());
  const auto replay = restarted->recover();
  EXPECT_EQ(replay.records, 1u);
  EXPECT_EQ(registry_.counter("mm_wal_replayed_blocks_total").value(), 1u);
  EXPECT_EQ(restarted->core().last_proposed_round(), proposed->round());
  EXPECT_TRUE(restarted->core().knows_block(proposed->ref()));
  start(*restarted, /*inline_acks=*/true);
  restarted->perform(restarted->core().on_tick(now_ += millis(500)));
  EXPECT_FALSE(broadcast_seen()) << "the restarted validator re-proposed";
  EXPECT_EQ(restarted->core().dag().slot(proposed->round(), 0).size(), 1u);

  // Without the log, the same tick would propose round 1 again: the
  // equivocation recovery prevents.
  auto amnesiac = make_pipeline();
  start(*amnesiac, /*inline_acks=*/true);
  amnesiac->perform(amnesiac->core().on_tick(now_));
  ASSERT_EQ(broadcast_.size(), 1u);
  EXPECT_EQ(broadcast_[0]->round(), proposed->round());
  EXPECT_NE(broadcast_[0]->digest(), proposed->digest());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mahimahi
