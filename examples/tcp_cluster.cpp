// Real networking: a 4-validator cluster over localhost TCP with WALs.
//
// Each validator is a NodeRuntime — an epoll event-loop thread driving the
// same sans-IO ValidatorCore used in simulation, with length-prefixed frames
// over raw TCP (the C++ analogue of the paper's tokio + raw-TCP stack, §4)
// and a write-ahead log for crash recovery.
//
// The example submits load for a few seconds, kills validator 3, restarts
// it from its WAL, and shows that it rejoins and the cluster keeps
// committing.
//
// Build & run:  ./build/examples/tcp_cluster
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "net/node_runtime.h"

using namespace mahimahi;
using namespace mahimahi::net;
using namespace std::chrono_literals;

namespace {

std::unique_ptr<NodeRuntime> make_node(const Committee::TestSetup& setup, ValidatorId id,
                                       const std::vector<NodeAddress>& addresses,
                                       const std::string& wal_path) {
  NodeRuntimeConfig config;
  config.validator.id = id;
  config.validator.committer = mahi_mahi_5(2);
  config.validator.min_round_delay = millis(20);
  config.peers = addresses;
  config.wal_path = wal_path;
  return std::make_unique<NodeRuntime>(setup.committee, setup.keypairs[id].private_key,
                                       config);
}

}  // namespace

int main() {
  auto setup = Committee::make_test(4);

  // Fixed localhost ports for the demo.
  std::vector<NodeAddress> addresses(4);
  for (int i = 0; i < 4; ++i) addresses[i].port = static_cast<std::uint16_t>(19331 + i);

  const auto wal_dir = std::filesystem::temp_directory_path();
  std::vector<std::string> wal_paths;
  for (int i = 0; i < 4; ++i) {
    auto path = wal_dir / ("mahi_example_node" + std::to_string(i) + ".wal");
    std::filesystem::remove_all(path);  // fresh demo (each WAL is a directory)
    wal_paths.push_back(path.string());
  }

  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  for (ValidatorId v = 0; v < 4; ++v) {
    nodes.push_back(make_node(setup, v, addresses, wal_paths[v]));
  }
  for (auto& node : nodes) node->start();
  std::printf("4 validators listening on 127.0.0.1:%u..%u, WALs in %s\n",
              addresses[0].port, addresses[3].port, wal_dir.c_str());

  // Open-loop client: 200 tx/s to each validator for 3 seconds.
  std::uint64_t batch_id = 0;
  for (int tick_count = 0; tick_count < 30; ++tick_count) {
    for (auto& node : nodes) {
      TxBatch batch;
      batch.id = ++batch_id;
      batch.count = 20;
      batch.submitted_at = steady_now_micros();
      node->submit({batch});
    }
    std::this_thread::sleep_for(100ms);
  }
  std::this_thread::sleep_for(500ms);
  for (const auto& node : nodes) {
    std::printf("validator %u: committed %llu txs, %llu blocks, round %llu\n",
                node->id(), static_cast<unsigned long long>(node->committed_transactions()),
                static_cast<unsigned long long>(node->committed_blocks()),
                static_cast<unsigned long long>(node->highest_round()));
  }

  // Crash validator 3 and restart it from the WAL.
  std::printf("\n-- crashing validator 3 and restarting from WAL --\n");
  const auto committed_before = nodes[0]->committed_transactions();
  nodes[3]->stop();
  nodes[3].reset();
  nodes[3] = make_node(setup, 3, addresses, wal_paths[3]);
  nodes[3]->start();
  std::printf("validator 3 recovered at round %llu\n",
              static_cast<unsigned long long>(nodes[3]->highest_round()));

  for (int tick_count = 0; tick_count < 20; ++tick_count) {
    TxBatch batch;
    batch.id = ++batch_id;
    batch.count = 20;
    batch.submitted_at = steady_now_micros();
    nodes[0]->submit({batch});
    std::this_thread::sleep_for(100ms);
  }
  std::this_thread::sleep_for(500ms);

  const auto committed_after = nodes[0]->committed_transactions();
  std::printf("cluster committed %llu more txs after the restart\n",
              static_cast<unsigned long long>(committed_after - committed_before));
  for (auto& node : nodes) node->stop();
  return committed_after > committed_before ? 0 : 1;
}
