// Quickstart: four validators reach consensus in-process.
//
// Demonstrates the core public API without any networking:
//   1. create a test committee (4 validators, f = 1),
//   2. instantiate sans-IO ValidatorCores,
//   3. hand-deliver every broadcast block to every peer,
//   4. submit transactions and watch the total-order commit stream.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <deque>

#include "validator/validator.h"

using namespace mahimahi;

int main() {
  // A deterministic 4-validator committee. In production, keys come from a
  // key ceremony; here each validator's keypair derives from a test seed.
  auto setup = Committee::make_test(/*n=*/4);
  std::printf("committee: n=%u f=%u quorum=2f+1=%u\n", setup.committee.size(),
              setup.committee.f(), setup.committee.quorum_threshold());

  // One ValidatorCore per validator, running Mahi-Mahi with a wave length of
  // 5 rounds and 2 leader slots per round (the paper's default).
  std::vector<std::unique_ptr<ValidatorCore>> validators;
  for (ValidatorId v = 0; v < 4; ++v) {
    ValidatorConfig config;
    config.id = v;
    config.committer = mahi_mahi_5(/*leaders=*/2);
    validators.push_back(std::make_unique<ValidatorCore>(
        setup.committee, setup.keypairs[v].private_key, config));
  }

  // Submit a few client transactions to validator 0. The returned Actions
  // carry the proposal that includes them.
  std::deque<std::pair<ValidatorId, Actions>> work;
  TimeMicros now = 0;
  TxBatch batch;
  batch.id = 1;
  batch.count = 3;                       // three 512-byte transactions
  batch.payload = to_bytes("hello mahi-mahi");
  validators[0]->mempool_handle()->submit(batch);
  work.emplace_back(0, validators[0]->on_mempool_ready(now));

  // Drive the cluster: perform every action a core emits — deliver broadcast
  // blocks to all peers, serve fetch requests — instantly. The cores do the
  // rest: propose, validate, advance rounds, and commit.
  std::uint64_t committed_blocks = 0, committed_txs = 0;
  for (ValidatorId v = 0; v < 4; ++v) {
    work.emplace_back(v, validators[v]->on_tick(now));
  }
  while (!work.empty() && now < 200) {
    auto [from, actions] = std::move(work.front());
    work.pop_front();
    ++now;

    // Validator 0 narrates its own commit stream (all validators agree on
    // it — that is the whole point).
    if (from == 0) {
      for (const auto& sub_dag : actions.committed) {
        std::printf("committed slot %-10s leader=%s  (%zu blocks, %llu txs)\n",
                    sub_dag.slot.to_string().c_str(),
                    sub_dag.leader->ref().to_string().c_str(), sub_dag.blocks.size(),
                    static_cast<unsigned long long>(sub_dag.transaction_count()));
        committed_blocks += sub_dag.blocks.size();
        committed_txs += sub_dag.transaction_count();
      }
    }

    for (const auto& block : actions.broadcast) {
      for (ValidatorId to = 0; to < 4; ++to) {
        if (to == from) continue;
        Actions reaction = validators[to]->on_block(block, from, now);
        if (!reaction.empty()) work.emplace_back(to, std::move(reaction));
      }
    }
    for (const auto& request : actions.fetch_requests) {
      Actions served = validators[request.peer]->on_fetch_request(request.refs, from, now);
      if (!served.empty()) work.emplace_back(request.peer, std::move(served));
    }
    for (const auto& response : actions.responses) {
      for (const auto& block : response.blocks) {
        Actions reaction = validators[response.peer]->on_block(block, from, now);
        if (!reaction.empty()) work.emplace_back(response.peer, std::move(reaction));
      }
    }
  }

  std::printf("\nvalidator 0 committed %llu blocks / %llu transactions; "
              "DAG reached round %llu\n",
              static_cast<unsigned long long>(committed_blocks),
              static_cast<unsigned long long>(committed_txs),
              static_cast<unsigned long long>(validators[0]->dag().highest_round()));
  return committed_txs > 0 ? 0 : 1;
}
