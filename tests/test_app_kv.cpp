// Tests for the replicated key-value application layer: state machine
// determinism, command codec, exactly-once execution across client
// resubmission, Byzantine-payload tolerance, and end-to-end replica
// convergence over a live validator cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "app/replicated_kv.h"
#include "common/env.h"
#include "common/rng.h"
#include "crypto/blake2b.h"
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
// KvStore against a reference model
// --------------------------------------------------------------------------

// The store's documented semantics and encodings, written the plain way: an
// ordered map of contents, an ordered set for the delta window.
struct KvModel {
  std::map<std::string, std::string> entries;
  std::set<std::string> touched;
  std::uint64_t version = 0;

  bool apply(const KvCommand& command) {
    switch (command.op) {
      case KvCommand::Op::kPut:
        entries[command.key] = command.value;
        break;
      case KvCommand::Op::kDelete:
        if (entries.erase(command.key) == 0) return false;
        break;
      case KvCommand::Op::kNoop:
        return false;
    }
    ++version;
    touched.insert(command.key);
    return true;
  }

  // apply_delta(): the carried keys and version; the window keeps its keys.
  void apply_delta(const KvModel& source) {
    for (const std::string& key : source.touched) {
      const auto it = source.entries.find(key);
      if (it != source.entries.end()) {
        entries[key] = it->second;
      } else {
        entries.erase(key);
      }
    }
    version = source.version;
  }

  Bytes snapshot() const {
    serde::Writer w;
    w.u64(version);
    w.varint(entries.size());
    for (const auto& [key, value] : entries) {
      w.bytes(as_bytes_view(key));
      w.bytes(as_bytes_view(value));
    }
    return std::move(w).take();
  }

  Bytes delta() const {
    serde::Writer w;
    w.u64(version);
    w.varint(touched.size());
    for (const std::string& key : touched) {
      w.bytes(as_bytes_view(key));
      const auto it = entries.find(key);
      w.u8(it != entries.end() ? 1 : 0);
      if (it != entries.end()) w.bytes(as_bytes_view(it->second));
    }
    return std::move(w).take();
  }

  Digest digest() const {
    const Bytes encoded = snapshot();
    return crypto::Blake2b::hash256({encoded.data(), encoded.size()});
  }
};

void expect_matches(const KvStore& store, const KvModel& model, const std::string& key,
                    const std::string& label) {
  const auto it = model.entries.find(key);
  EXPECT_EQ(store.get(key), it == model.entries.end()
                                ? std::nullopt
                                : std::optional<std::string>(it->second))
      << label << " key " << key;
  EXPECT_EQ(store.size(), model.entries.size()) << label;
  EXPECT_EQ(store.version(), model.version) << label;
}

// A cut: both encodings byte for byte, the digest, and the base + delta
// reconstruction. Closes the window on both sides and returns the new base.
Bytes check_cut(KvStore& store, KvModel& model, const Bytes& base,
                const std::string& label) {
  const Bytes snapshot = store.snapshot_bytes();
  const Bytes delta = store.delta_bytes();
  EXPECT_EQ(snapshot, model.snapshot()) << label;
  EXPECT_EQ(delta, model.delta()) << label;
  EXPECT_EQ(store.state_digest(), model.digest()) << label;
  EXPECT_EQ(store.touched_count(), model.touched.size()) << label;
  KvStore rebuilt = KvStore::restore({base.data(), base.size()});
  rebuilt.apply_delta({delta.data(), delta.size()});
  EXPECT_EQ(rebuilt.state_digest(), store.state_digest()) << label;
  EXPECT_EQ(rebuilt.size(), store.size()) << label;
  store.clear_delta_window();
  model.touched.clear();
  EXPECT_EQ(store.touched_count(), 0u) << label;
  EXPECT_EQ(store.delta_bytes(), model.delta()) << label;
  return snapshot;
}

KvCommand random_command(Rng& rng) {
  // A small keyspace, so one window sees a key put, deleted and put again.
  std::string key = "k" + std::to_string(rng.uniform(12));
  if (rng.uniform(8) == 0) key += std::string(rng.uniform(40), 'x');
  switch (rng.uniform(10)) {
    case 0:
      return KvCommand{};
    case 1: case 2: case 3:
      return KvCommand::del(std::move(key));
    default:
      return KvCommand::put(std::move(key),
                            std::string(rng.uniform(24), static_cast<char>('a' + rng.uniform(26))));
  }
}

TEST(KvStoreProperty, MatchesReferenceModelAcrossCuts) {
  const std::uint64_t iters = property_iters(40);
  for (std::uint64_t iter = 0; iter < iters; ++iter) {
    Rng rng(0xC0FFEE + iter);
    KvStore store;
    KvModel model;
    KvModel base_model;  // the state at the last cut, window empty
    Bytes base = model.snapshot();
    const std::size_t steps = 200 + rng.uniform(400);
    for (std::size_t step = 0; step < steps; ++step) {
      const std::string label = "iter " + std::to_string(iter) + " step " + std::to_string(step);
      switch (rng.uniform(40)) {
        case 0:
        case 1:
          base = check_cut(store, model, base, label);
          base_model = model;
          break;
        case 2:
          // SerialExecutor::install_snapshot: move-assign a restored store.
          base = check_cut(store, model, base, label + " (install)");
          base_model = model;
          store = KvStore::restore({base.data(), base.size()});
          break;
        case 3: {
          // Mid-window copy and move: the copy rebuilds its index and window;
          // the moves carry both over.
          KvStore copy(store);
          KvStore moved(std::move(copy));
          store = std::move(moved);
          break;
        }
        case 4: {
          // apply_delta onto a store whose own window is open: the carried
          // keys land, and the target's window keeps its own keys.
          KvStore target = KvStore::restore({base.data(), base.size()});
          KvModel target_model = base_model;
          for (int i = 0; i < 6; ++i) {
            const KvCommand command = random_command(rng);
            EXPECT_EQ(target.apply(command), target_model.apply(command)) << label;
          }
          const Bytes delta = store.delta_bytes();
          target.apply_delta({delta.data(), delta.size()});
          target_model.apply_delta(model);
          EXPECT_EQ(target.snapshot_bytes(), target_model.snapshot()) << label << " (target)";
          EXPECT_EQ(target.delta_bytes(), target_model.delta()) << label << " (target)";
          EXPECT_EQ(target.size(), target_model.entries.size()) << label << " (target)";
          break;
        }
        default: {
          const KvCommand command = random_command(rng);
          EXPECT_EQ(store.apply(command), model.apply(command)) << label;
          expect_matches(store, model, command.key, label);
          break;
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
    check_cut(store, model, base, "iter " + std::to_string(iter) + " final");
  }
}

TEST(KvStoreProperty, WindowReportsDeleteThenPutAndPutThenDelete) {
  KvStore store;
  KvModel model;
  for (const KvCommand& command :
       {KvCommand::put("a", "1"), KvCommand::put("b", "2"), KvCommand::put("c", "3")}) {
    store.apply(command);
    model.apply(command);
  }
  Bytes base = check_cut(store, model, model.snapshot(), "setup");
  // a: delete then put; d: put then delete; z: delete of a key never present.
  for (const KvCommand& command :
       {KvCommand::del("a"), KvCommand::put("a", "1b"), KvCommand::put("d", "4"),
        KvCommand::del("d"), KvCommand::del("z")}) {
    EXPECT_EQ(store.apply(command), model.apply(command));
    expect_matches(store, model, command.key, "window");
  }
  EXPECT_EQ(store.touched_count(), 2u);  // a and d; z changed nothing
  EXPECT_FALSE(store.get("d").has_value());
  EXPECT_FALSE(store.get("z").has_value());
  base = check_cut(store, model, base, "cut");
  // The tombstone of d is gone with the window: a later delete is a no-op.
  EXPECT_FALSE(store.apply(KvCommand::del("d")));
  EXPECT_EQ(store.touched_count(), 0u);
}

// Snapshots and deltas list keys strictly ascending; a peer's bytes that do
// not are malformed, not silently merged.
Bytes kv_snapshot(std::uint64_t version,
                  const std::vector<std::pair<std::string, std::string>>& entries) {
  serde::Writer w;
  w.u64(version);
  w.varint(entries.size());
  for (const auto& [key, value] : entries) {
    w.bytes(as_bytes_view(key));
    w.bytes(as_bytes_view(value));
  }
  return std::move(w).take();
}

Bytes kv_delta(std::uint64_t version, const std::vector<std::string>& keys) {
  serde::Writer w;
  w.u64(version);
  w.varint(keys.size());
  for (const std::string& key : keys) {
    w.bytes(as_bytes_view(key));
    w.u8(1);
    w.bytes(as_bytes_view(std::string("v")));
  }
  return std::move(w).take();
}

TEST(KvStore, RestoreAndApplyDeltaRejectRepeatedKey) {
  const Bytes good = kv_snapshot(2, {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(KvStore::restore({good.data(), good.size()}).size(), 2u);
  const Bytes repeated = kv_snapshot(2, {{"a", "1"}, {"a", "2"}});
  EXPECT_THROW(KvStore::restore({repeated.data(), repeated.size()}), serde::SerdeError);

  KvStore store = KvStore::restore({good.data(), good.size()});
  const Bytes delta = kv_delta(3, {"b", "b"});
  EXPECT_THROW(store.apply_delta({delta.data(), delta.size()}), serde::SerdeError);
}

TEST(KvStore, RestoreAndApplyDeltaRejectDescendingKeys) {
  const Bytes descending = kv_snapshot(2, {{"b", "2"}, {"a", "1"}});
  EXPECT_THROW(KvStore::restore({descending.data(), descending.size()}), serde::SerdeError);

  KvStore store;
  const Bytes good = kv_delta(2, {"a", "b"});
  store.apply_delta({good.data(), good.size()});
  EXPECT_EQ(store.size(), 2u);
  const Bytes delta = kv_delta(3, {"c", "b"});
  EXPECT_THROW(store.apply_delta({delta.data(), delta.size()}), serde::SerdeError);
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
