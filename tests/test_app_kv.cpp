// Tests for the replicated key-value application layer: state machine
// determinism, command codec, exactly-once execution across client
// resubmission, Byzantine-payload tolerance, and end-to-end replica
// convergence over a live validator cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "app/replicated_kv.h"
#include "sim/dag_builder.h"
#include "validator/validator.h"

namespace mahimahi::app {
namespace {

// --------------------------------------------------------------------------
// KvStore
// --------------------------------------------------------------------------

TEST(KvStore, PutGetDelete) {
  KvStore store;
  EXPECT_TRUE(store.apply(KvCommand::put("a", "1")));
  EXPECT_TRUE(store.apply(KvCommand::put("b", "2")));
  EXPECT_EQ(store.get("a"), "1");
  EXPECT_EQ(store.get("b"), "2");
  EXPECT_EQ(store.size(), 2u);

  EXPECT_TRUE(store.apply(KvCommand::del("a")));
  EXPECT_FALSE(store.get("a").has_value());
  EXPECT_EQ(store.size(), 1u);
}

TEST(KvStore, OverwriteBumpsVersion) {
  KvStore store;
  store.apply(KvCommand::put("k", "v1"));
  const auto v1 = store.version();
  store.apply(KvCommand::put("k", "v2"));
  EXPECT_EQ(store.get("k"), "v2");
  EXPECT_EQ(store.version(), v1 + 1);
}

TEST(KvStore, NoopAndMissingDeleteDoNotChangeState) {
  KvStore store;
  store.apply(KvCommand::put("k", "v"));
  const auto digest = store.state_digest();
  EXPECT_FALSE(store.apply(KvCommand{}));                 // noop
  EXPECT_FALSE(store.apply(KvCommand::del("missing")));   // delete of absent key
  EXPECT_EQ(store.state_digest(), digest);
}

TEST(KvStore, StateDigestIsContentDeterministic) {
  KvStore a, b;
  a.apply(KvCommand::put("x", "1"));
  a.apply(KvCommand::put("y", "2"));
  b.apply(KvCommand::put("x", "1"));
  b.apply(KvCommand::put("y", "2"));
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(KvStore, StateDigestReflectsHistoryLength) {
  // Same final contents, different number of applied commands -> different
  // digest (version is part of the state), which is what lets replicas
  // detect divergence in executed-command counts, not just contents.
  KvStore a, b;
  a.apply(KvCommand::put("x", "1"));
  b.apply(KvCommand::put("x", "0"));
  b.apply(KvCommand::put("x", "1"));
  EXPECT_EQ(a.get("x"), b.get("x"));
  EXPECT_NE(a.state_digest(), b.state_digest());
}

// --------------------------------------------------------------------------
// Command codec
// --------------------------------------------------------------------------

TEST(KvCommandCodec, RoundTrip) {
  const std::vector<KvCommand> commands = {
      KvCommand::put("alpha", "1"), KvCommand::del("beta"), KvCommand{},
      KvCommand::put("", ""),  // empty key/value are legal
  };
  const Bytes payload = encode_kv_payload(commands);
  const auto decoded = decode_kv_payload({payload.data(), payload.size()});
  EXPECT_EQ(decoded, commands);
}

TEST(KvCommandCodec, NonKvPayloadDecodesEmpty) {
  const Bytes opaque = to_bytes("arbitrary benchmark filler bytes");
  EXPECT_TRUE(decode_kv_payload({opaque.data(), opaque.size()}).empty());
  EXPECT_TRUE(decode_kv_payload({}).empty());
}

TEST(KvCommandCodec, CorruptKvPayloadThrows) {
  Bytes payload = encode_kv_payload({KvCommand::put("k", "v")});
  payload.resize(payload.size() - 1);  // truncate inside the command
  EXPECT_THROW(decode_kv_payload({payload.data(), payload.size()}), serde::SerdeError);

  Bytes bad_op = encode_kv_payload({KvCommand::put("k", "v")});
  bad_op[5] = 0x7f;  // first command's op byte (magic=4B, varint count=1B)
  EXPECT_THROW(decode_kv_payload({bad_op.data(), bad_op.size()}), serde::SerdeError);
}

TEST(KvCommandCodec, TrailingGarbageRejected) {
  Bytes payload = encode_kv_payload({KvCommand::put("k", "v")});
  payload.push_back(0);
  EXPECT_THROW(decode_kv_payload({payload.data(), payload.size()}), serde::SerdeError);
}

// --------------------------------------------------------------------------
// ReplicatedKv over committed sub-DAGs
// --------------------------------------------------------------------------

TxBatch kv_batch(std::uint64_t id, const std::vector<KvCommand>& commands) {
  TxBatch batch;
  batch.id = id;
  batch.count = static_cast<std::uint32_t>(commands.size());
  batch.payload = encode_kv_payload(commands);
  return batch;
}

CommittedSubDag subdag_of(const std::vector<BlockPtr>& blocks) {
  CommittedSubDag subdag;
  subdag.slot = SlotId{blocks.back()->round(), 0};
  subdag.leader = blocks.back();
  subdag.blocks = blocks;
  return subdag;
}

TEST(ReplicatedKv, AppliesCommandsInSubDagOrder) {
  DagBuilder builder(4);
  const auto genesis = builder.dag().blocks_at(0);
  std::vector<BlockRef> genesis_refs;
  for (const auto& g : genesis) genesis_refs.push_back(g->ref());

  const auto b1 = builder.add_block(
      0, 1, genesis_refs,
      {kv_batch(1, {KvCommand::put("k", "first"), KvCommand::put("other", "x")})});
  const auto b2 = builder.add_block(1, 1, genesis_refs,
                                    {kv_batch(2, {KvCommand::put("k", "second")})});

  ReplicatedKv replica;
  EXPECT_EQ(replica.apply_subdag(subdag_of({b1, b2})), 3u);
  // b2's put executes after b1's: last writer in sub-DAG order wins.
  EXPECT_EQ(replica.store().get("k"), "second");
  EXPECT_EQ(replica.store().get("other"), "x");
}

TEST(ReplicatedKv, DeduplicatesResubmittedBatch) {
  DagBuilder builder(4);
  const auto genesis = builder.dag().blocks_at(0);
  std::vector<BlockRef> genesis_refs;
  for (const auto& g : genesis) genesis_refs.push_back(g->ref());

  // The client resubmitted the same batch to two validators (§2.3); both
  // copies committed in different blocks.
  const auto batch = kv_batch(7, {KvCommand::put("ctr", "1")});
  const auto b1 = builder.add_block(0, 1, genesis_refs, {batch});
  const auto b2 = builder.add_block(1, 1, genesis_refs, {batch});

  ReplicatedKv replica;
  EXPECT_EQ(replica.apply_subdag(subdag_of({b1})), 1u);
  EXPECT_EQ(replica.apply_subdag(subdag_of({b2})), 0u);
  EXPECT_EQ(replica.batches_deduplicated(), 1u);
  EXPECT_EQ(replica.store().version(), 1u);
}

TEST(ReplicatedKv, DistinctBatchesWithSameIdBothExecute) {
  // Batch ids are only unique per client; content identity must distinguish
  // two different commands that happen to share an id.
  DagBuilder builder(4);
  const auto genesis = builder.dag().blocks_at(0);
  std::vector<BlockRef> genesis_refs;
  for (const auto& g : genesis) genesis_refs.push_back(g->ref());

  const auto b1 =
      builder.add_block(0, 1, genesis_refs, {kv_batch(1, {KvCommand::put("a", "1")})});
  const auto b2 =
      builder.add_block(1, 1, genesis_refs, {kv_batch(1, {KvCommand::put("b", "2")})});

  ReplicatedKv replica;
  replica.apply_subdag(subdag_of({b1, b2}));
  EXPECT_EQ(replica.store().get("a"), "1");
  EXPECT_EQ(replica.store().get("b"), "2");
  EXPECT_EQ(replica.batches_deduplicated(), 0u);
}

TEST(ReplicatedKv, MalformedPayloadDoesNotPoisonReplica) {
  DagBuilder builder(4);
  const auto genesis = builder.dag().blocks_at(0);
  std::vector<BlockRef> genesis_refs;
  for (const auto& g : genesis) genesis_refs.push_back(g->ref());

  TxBatch corrupt = kv_batch(9, {KvCommand::put("x", "y")});
  corrupt.payload.resize(corrupt.payload.size() - 1);
  const auto good = kv_batch(10, {KvCommand::put("ok", "yes")});
  const auto block = builder.add_block(0, 1, genesis_refs, {corrupt, good});

  ReplicatedKv replica;
  EXPECT_EQ(replica.apply_subdag(subdag_of({block})), 1u);
  EXPECT_EQ(replica.malformed_batches(), 1u);
  EXPECT_EQ(replica.store().get("ok"), "yes");
  EXPECT_FALSE(replica.store().get("x").has_value());
}

TEST(ReplicatedKv, OpaqueBenchmarkBatchesAreIgnored) {
  DagBuilder builder(4);
  const auto genesis = builder.dag().blocks_at(0);
  std::vector<BlockRef> genesis_refs;
  for (const auto& g : genesis) genesis_refs.push_back(g->ref());

  TxBatch filler;  // empty payload: pure bandwidth accounting
  filler.id = 1;
  filler.count = 100;
  const auto block = builder.add_block(0, 1, genesis_refs, {filler});

  ReplicatedKv replica;
  EXPECT_EQ(replica.apply_subdag(subdag_of({block})), 0u);
  EXPECT_EQ(replica.store().size(), 0u);
  EXPECT_EQ(replica.malformed_batches(), 0u);
}

// --------------------------------------------------------------------------
// End-to-end: replicas over a live cluster converge
// --------------------------------------------------------------------------

class KvClusterTest : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  // wave length from the test parameter; 4 validators, 1 leader per round.
  static constexpr std::uint32_t kN = 4;
};

TEST_P(KvClusterTest, ReplicasConvergeToIdenticalState) {
  const auto setup = Committee::make_test(kN);
  std::vector<std::unique_ptr<ValidatorCore>> nodes;
  for (ValidatorId v = 0; v < kN; ++v) {
    ValidatorConfig config;
    config.id = v;
    config.committer = CommitterOptions{.wave_length = GetParam(), .leaders_per_round = 2};
    nodes.push_back(std::make_unique<ValidatorCore>(setup.committee,
                                                    setup.keypairs[v].private_key,
                                                    config));
  }

  std::vector<ReplicatedKv> replicas(kN);
  std::vector<std::vector<Digest>> digest_history(kN);

  auto absorb = [&](ValidatorId v, Actions actions,
                    std::vector<std::pair<ValidatorId, BlockPtr>>& wire) {
    for (const auto& subdag : actions.committed) {
      replicas[v].apply_subdag(subdag);
      digest_history[v].push_back(replicas[v].state_digest());
    }
    for (const auto& block : actions.broadcast) wire.emplace_back(v, block);
  };

  // Drive 40 ticks; inject a KV command stream at validator (tick % n).
  std::vector<std::pair<ValidatorId, BlockPtr>> wire;
  std::uint64_t next_id = 1;
  for (int tick = 0; tick < 40; ++tick) {
    const TimeMicros now = millis(tick * 10);
    const ValidatorId origin = tick % kN;
    const std::string key = "key-" + std::to_string(tick % 5);
    nodes[origin]->mempool_handle()->submit(
        kv_batch(next_id++, {KvCommand::put(key, std::to_string(tick))}));
    absorb(origin, nodes[origin]->on_mempool_ready(now), wire);
    for (ValidatorId v = 0; v < kN; ++v) absorb(v, nodes[v]->on_tick(now), wire);
    // Deliver everything broadcast this tick to every peer.
    std::vector<std::pair<ValidatorId, BlockPtr>> current;
    std::swap(current, wire);
    // With min_round_delay = 0 and instant delivery each proposal cascades
    // into the next round indefinitely; cap the delivered round so the
    // drain loop terminates (plenty of rounds for several waves to commit).
    constexpr Round kMaxRound = 30;
    while (!current.empty()) {
      std::vector<std::pair<ValidatorId, BlockPtr>> next;
      for (const auto& [from, block] : current) {
        if (block->round() > kMaxRound) continue;
        for (ValidatorId to = 0; to < kN; ++to) {
          if (to == from) continue;
          absorb(to, nodes[to]->on_block(block, from, now), next);
        }
      }
      current = std::move(next);
    }
  }

  // Every replica committed something, and the per-commit digest histories
  // agree on their common prefix — identical states after identical
  // committed prefixes (Total Order -> SMR).
  std::size_t min_commits = digest_history[0].size();
  for (ValidatorId v = 0; v < kN; ++v) {
    ASSERT_GT(digest_history[v].size(), 0u) << "validator " << v << " never committed";
    min_commits = std::min(min_commits, digest_history[v].size());
  }
  for (std::size_t i = 0; i < min_commits; ++i) {
    for (ValidatorId v = 1; v < kN; ++v) {
      ASSERT_EQ(digest_history[v][i], digest_history[0][i])
          << "divergence at commit " << i << " on validator " << v;
    }
  }
  // And state is non-trivial.
  EXPECT_GT(replicas[0].commands_applied(), 0u);
}

INSTANTIATE_TEST_SUITE_P(WaveLengths, KvClusterTest, ::testing::Values(4u, 5u));

}  // namespace
}  // namespace mahimahi::app
