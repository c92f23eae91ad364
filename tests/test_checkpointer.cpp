// Checkpointer share ingress (validator/checkpointer.h): the admission
// window, the early buffer, the payload check, threshold aggregation, and a
// certificate that forms while its cut is still being written.
//
// Four observer cores fed the same fully connected DAG reach identical
// decided logs, so their checkpointers sign identical cut payloads. Each
// checkpointer's hooks record the frames it sends and hold its write tasks
// until a test runs them; the tests carry share frames between validators
// by hand.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "checkpoint/cert.h"
#include "checkpoint/checkpoint.h"
#include "sim/dag_builder.h"
#include "validator/checkpointer.h"

namespace mahimahi {
namespace {

constexpr std::uint32_t kN = 4;
constexpr Round kRounds = 40;
constexpr Round kGcDepth = 8;
constexpr Round kInterval = 1;  // a boundary per round: many crossings

struct Node {
  obs::Registry registry;
  std::unique_ptr<ValidatorCore> core;
  std::unique_ptr<Checkpointer> checkpointer;
  std::vector<std::pair<ValidatorId, Bytes>> sent;  // (peer, frame)
  std::vector<Checkpointer::WriteTask> writes;      // held until run
  Round fed = 0;

  std::uint64_t counter(const char* name) const {
    return registry.dump().counter_value(name);
  }
  // Payloads of the share frames sent to `peer`, in send order.
  std::vector<Bytes> shares_to(ValidatorId peer) const {
    std::vector<Bytes> out;
    for (const auto& [to, frame] : sent) {
      if (to == peer && frame.at(0) == Checkpointer::kShareFrame) {
        out.emplace_back(frame.begin() + 1, frame.end());
      }
    }
    return out;
  }
};

std::uint64_t cut_index_of(const Bytes& share) {
  return decode_cut_share({share.data(), share.size()}).payload.cut_index;
}

class CheckpointerShares : public ::testing::Test {
 protected:
  CheckpointerShares() { builder_.build_fully_connected(kRounds); }

  void make_nodes(const std::string& store_dir = {}) {
    for (ValidatorId v = 0; v < kN; ++v) {
      auto& node = *nodes_.emplace_back(std::make_unique<Node>());
      ValidatorConfig vc;
      vc.id = v;
      vc.observer = true;
      vc.committer.gc_depth = kGcDepth;
      vc.checkpoint_interval = kInterval;
      vc.validation.verify_signature = false;
      vc.validation.verify_coin_share = false;
      node.core = std::make_unique<ValidatorCore>(setup_.committee,
                                                  setup_.keypairs[v].private_key, vc);
      Checkpointer::Hooks hooks;
      hooks.send = [&node](ValidatorId peer, BytesView frame) {
        node.sent.emplace_back(peer, Bytes(frame.begin(), frame.end()));
      };
      hooks.write = [&node](Checkpointer::WriteTask task) {
        node.writes.push_back(std::move(task));
      };
      node.checkpointer = std::make_unique<Checkpointer>(
          setup_.committee, *node.core, setup_.keypairs[v].private_key, node.registry,
          nullptr, std::move(hooks), v == 0 ? store_dir : std::string{});
      node.checkpointer->start(nullptr);
    }
  }

  // Delivers rounds (fed, last] to validator v the way the runtime and the simulator do:
  // crossings per committed sub-DAG, then at the consumption head.
  void feed(ValidatorId v, Round last) {
    Node& node = *nodes_[v];
    for (Round r = node.fed + 1; r <= last; ++r) {
      for (ValidatorId author = 0; author < kN; ++author) {
        const BlockPtr& block = builder_.dag().slot(r, author).front();
        const Actions actions = node.core->on_block(block, author, 0);
        for (const auto& sub_dag : actions.committed) {
          node.checkpointer->advance(sub_dag.slot, actions);
        }
        node.checkpointer->advance(node.core->committer().next_pending_slot(), actions);
      }
    }
    node.fed = last;
  }

  // Next boundary validator v will cross: one share broadcast per crossing.
  std::uint64_t next_cut_index(ValidatorId v) const {
    return 1 + nodes_[v]->shares_to((v + 1) % kN).size();
  }

  void deliver(ValidatorId to, const Bytes& share) {
    nodes_[to]->checkpointer->on_share({share.data(), share.size()});
  }

  // A validly signed share by `author` over a payload nobody else signs.
  Bytes forged_share(ValidatorId author, std::uint64_t cut_index) const {
    CutPayload payload;
    payload.cut_index = cut_index;
    payload.app_digest.bytes[0] = 0xee;
    return encode_cut_share(sign_cut(payload, author, setup_.keypairs[author].private_key));
  }

  // A share that fails signature verification.
  Bytes unsigned_share(ValidatorId author, std::uint64_t cut_index) const {
    CutShare share;
    share.payload.cut_index = cut_index;
    share.author = author;
    return encode_cut_share(share);
  }

  Committee::TestSetup setup_ = Committee::make_test(kN);
  DagBuilder builder_{kN};
  std::vector<std::unique_ptr<Node>> nodes_;
};

TEST_F(CheckpointerShares, FarFutureAndLongPastCutIndicesAreDropped) {
  make_nodes();
  feed(0, kRounds);
  const std::uint64_t next = next_cut_index(0);
  ASSERT_GT(next, 17u) << "too few crossings to leave a past window behind";
  const char* rejected = "mm_checkpoint_cert_shares_rejected_total";

  // Out of the window: dropped before the signature is even checked.
  deliver(0, unsigned_share(1, next - 17));
  deliver(0, unsigned_share(1, next + 65));
  EXPECT_EQ(nodes_[0]->counter(rejected), 0u);

  // The window's edges are admitted, so their bad signatures count.
  deliver(0, unsigned_share(1, next - 16));
  deliver(0, unsigned_share(1, next + 64));
  EXPECT_EQ(nodes_[0]->counter(rejected), 2u);
}

TEST_F(CheckpointerShares, EarlyBufferDedupsByAuthorAndHoldsOnePerValidator) {
  make_nodes();
  for (ValidatorId v = 1; v < kN; ++v) feed(v, kRounds);
  feed(0, kRounds / 2);
  const std::uint64_t k = next_cut_index(0) + 2;  // not crossed yet at v0
  ASSERT_LT(k, next_cut_index(1));
  const char* rejected = "mm_checkpoint_cert_shares_rejected_total";
  const char* certs = "mm_checkpoint_certs_total";

  // Every peer's honest share for k, then a second, forged share by the
  // same author: the buffer keeps the first per author and drops the rest.
  for (ValidatorId v = 1; v < kN; ++v) {
    for (const Bytes& share : nodes_[v]->shares_to(0)) {
      if (cut_index_of(share) == k) deliver(0, share);
    }
    deliver(0, forged_share(v, k));
  }
  // The n-th author slot: a forged share under v0's own key.
  deliver(0, forged_share(0, k));
  EXPECT_EQ(nodes_[0]->counter(rejected), 0u) << "buffered shares are not checked yet";

  // Crossing k checks the buffer against v0's own payload: the three honest
  // shares aggregate, the forged one is rejected, the deduped copies never
  // reach the check.
  const std::uint64_t certs_before = nodes_[0]->counter(certs);
  feed(0, kRounds);
  EXPECT_EQ(nodes_[0]->counter(rejected), 1u);
  EXPECT_EQ(nodes_[0]->counter(certs), certs_before + 1)
      << "only k had peer shares, and they formed exactly one certificate";
}

TEST_F(CheckpointerShares, MismatchedPayloadIsRejectedAndNeverAggregates) {
  make_nodes();
  feed(0, kRounds);
  const std::uint64_t k = next_cut_index(0) - 1;  // crossed: v0 has its payload
  deliver(0, forged_share(1, k));
  deliver(0, forged_share(2, k));
  EXPECT_EQ(nodes_[0]->counter("mm_checkpoint_cert_shares_rejected_total"), 2u);
  EXPECT_EQ(nodes_[0]->counter("mm_checkpoint_certs_total"), 0u);
}

TEST_F(CheckpointerShares, CertificateFormsAtExactlyTwoFPlusOneShares) {
  make_nodes();
  for (ValidatorId v = 0; v < kN; ++v) feed(v, kRounds);
  const Bytes last_of_v1 = nodes_[1]->shares_to(0).back();
  const std::uint64_t k = cut_index_of(last_of_v1);
  const auto share_of = [&](ValidatorId v) {
    for (const Bytes& share : nodes_[v]->shares_to(0)) {
      if (cut_index_of(share) == k) return share;
    }
    ADD_FAILURE() << "v" << v << " signed no share for cut " << k;
    return Bytes{};
  };
  const char* certs = "mm_checkpoint_certs_total";

  // v0's own share is the first of 2f+1 = 3.
  deliver(0, share_of(1));
  EXPECT_EQ(nodes_[0]->counter(certs), 0u);
  deliver(0, share_of(2));
  EXPECT_EQ(nodes_[0]->counter(certs), 1u);
  deliver(0, share_of(3));
  deliver(0, share_of(2));
  EXPECT_EQ(nodes_[0]->counter(certs), 1u) << "a certificate forms once";
  EXPECT_EQ(nodes_[0]->counter("mm_checkpoint_cert_shares_rejected_total"), 0u);
}

TEST_F(CheckpointerShares, CertificateFormedDuringTheCutWriteAttachesWhenItLands) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("mahi_checkpointer_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  make_nodes(dir.string());
  for (ValidatorId v = 0; v < kN; ++v) feed(v, 12);
  Node& v0 = *nodes_[0];
  ASSERT_EQ(v0.writes.size(), 1u) << "one cut write in flight, the rest skipped";
  // The cut in flight is the first boundary v0 crossed.
  const std::uint64_t k = cut_index_of(v0.shares_to(1).front());
  ASSERT_GE(k + 16, next_cut_index(0)) << "k must still be in the share window";
  for (ValidatorId v = 1; v <= 2; ++v) {
    for (const Bytes& share : nodes_[v]->shares_to(0)) {
      if (cut_index_of(share) == k) deliver(0, share);
    }
  }
  EXPECT_EQ(v0.counter("mm_checkpoint_certs_total"), 1u);
  EXPECT_EQ(v0.checkpointer->chain_links(), 0u) << "the cut has not landed yet";

  // The write lands; its completion attaches the waiting certificate and
  // queues the sidecar write.
  const auto done = v0.writes.front()();
  ASSERT_TRUE(done);
  done();
  EXPECT_EQ(v0.checkpointer->chain_links(), 1u);
  EXPECT_EQ(v0.checkpointer->certified_links(), 1u);
  ASSERT_EQ(v0.writes.size(), 2u);
  EXPECT_FALSE(v0.writes.back()());
  const std::uint64_t sequence = v0.checkpointer->sequence();
  EXPECT_TRUE(std::filesystem::exists(CheckpointStore::cert_path(dir.string(), sequence)));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mahimahi
