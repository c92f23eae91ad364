// Cluster smoke: an N-validator localhost TCP cluster that must commit.
//
// The CI-facing cousin of tcp_cluster.cpp: everything is env-parameterized
// so the nightly workflow can run the same binary at shapes a per-push job
// cannot afford (50 validators) without a rebuild:
//
//   MAHIMAHI_SMOKE_VALIDATORS  committee size                (default 4)
//   MAHIMAHI_SMOKE_SECONDS     load duration in seconds      (default 10)
//   MAHIMAHI_SMOKE_EXECUTE     1 = execution engine on: real KV batches,
//                              execute_app                   (default 0)
//   MAHIMAHI_SMOKE_EXEC_THREADS  the engine's execution_threads; 0 = the
//                              caller-runs engine on the loop (default 1)
//   MAHIMAHI_SMOKE_METRICS     path: write validator 0's full Prometheus
//                              dump here for artifact upload   (default off)
//
// Exit 0 only when every validator committed transactions; with
// MAHIMAHI_SMOKE_EXECUTE also when every validator executed commands with
// zero declared-access violations.
//
// Build & run:  ./build/cluster_smoke
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "client/kv_batches.h"
#include "net/node_runtime.h"
#include "net/tcp.h"
#include "obs/export.h"

using namespace mahimahi;
using namespace mahimahi::net;
using namespace std::chrono_literals;

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  return (end != nullptr && *end == '\0') ? value : fallback;
}

}  // namespace

int main() {
  const auto n = static_cast<std::uint32_t>(env_u64("MAHIMAHI_SMOKE_VALIDATORS", 4));
  const auto seconds = env_u64("MAHIMAHI_SMOKE_SECONDS", 10);
  const bool execute = env_u64("MAHIMAHI_SMOKE_EXECUTE", 0) != 0;
  const char* metrics_path = std::getenv("MAHIMAHI_SMOKE_METRICS");

  auto setup = Committee::make_test(n);

  // Pre-claim ephemeral ports with short-lived listeners: every node needs
  // the full mesh upfront, and fixed ports collide on busy CI runners.
  std::vector<NodeAddress> addresses(n);
  {
    EventLoop probe_loop;
    std::vector<std::unique_ptr<TcpListener>> probes;
    for (std::uint32_t i = 0; i < n; ++i) {
      probes.push_back(
          std::make_unique<TcpListener>(probe_loop, 0, [](TcpConnectionPtr) {}));
      addresses[i].port = probes.back()->port();
    }
  }

  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  for (ValidatorId v = 0; v < n; ++v) {
    NodeRuntimeConfig config;
    config.validator.id = v;
    config.validator.committer = mahi_mahi_5(2);
    // Large committees exchange more blocks per round; pace rounds a little
    // slower so a CI runner's cores keep up with 50 event loops.
    config.validator.min_round_delay = n >= 16 ? millis(100) : millis(20);
    if (execute) {
      config.validator.execute_app = true;
      config.validator.execution_threads =
          static_cast<std::size_t>(env_u64("MAHIMAHI_SMOKE_EXEC_THREADS", 1));
    }
    config.peers = addresses;
    nodes.push_back(std::make_unique<NodeRuntime>(
        setup.committee, setup.keypairs[v].private_key, config));
  }
  for (auto& node : nodes) node->start();
  std::printf("cluster_smoke: %u validators, %llus%s\n", n,
              static_cast<unsigned long long>(seconds),
              execute ? ", execution on" : "");

  // Open-loop load: one batch per validator per 100ms tick. With execution
  // on, batches are real encoded KV commands at a 25% declared-conflict
  // rate, so the engine schedules genuine multi-wave plans.
  client::KvWorkload workload;
  workload.conflict_percent = 25;
  Rng rng(7);
  std::uint64_t sequence = 0;
  for (std::uint64_t tick = 0; tick < seconds * 10; ++tick) {
    for (std::uint32_t v = 0; v < n; ++v) {
      ++sequence;
      TxBatch batch;
      if (execute) {
        batch = client::synth_kv_batch(workload, v, sequence, rng);
      } else {
        batch.count = 8;
      }
      batch.id = (static_cast<std::uint64_t>(v) << 40) | sequence;
      batch.submitted_at = steady_now_micros();
      nodes[v]->submit({batch});
    }
    std::this_thread::sleep_for(100ms);
  }
  std::this_thread::sleep_for(1s);

  bool ok = true;
  for (const auto& node : nodes) {
    const std::uint64_t committed = node->committed_transactions();
    const auto exec_stats = node->execution_stats();
    if (committed == 0) ok = false;
    if (execute && (exec_stats.commands_applied == 0 ||
                    exec_stats.access_violations != 0)) {
      ok = false;
    }
    if (node->id() == 0 || committed == 0) {
      std::printf(
          "validator %u: committed %llu txs, round %llu, exec commands %llu, "
          "waves %llu, early %llu\n",
          node->id(), static_cast<unsigned long long>(committed),
          static_cast<unsigned long long>(node->highest_round()),
          static_cast<unsigned long long>(exec_stats.commands_applied),
          static_cast<unsigned long long>(exec_stats.waves),
          static_cast<unsigned long long>(exec_stats.early_deliveries));
    }
  }

  if (metrics_path != nullptr && *metrics_path != '\0') {
    std::ofstream out(metrics_path, std::ios::trunc);
    out << obs::render_prometheus(nodes[0]->metrics_registry().dump());
    std::printf("cluster_smoke: metrics dump -> %s\n", metrics_path);
  }

  for (auto& node : nodes) node->stop();
  std::printf("cluster_smoke: %s\n", ok ? "OK" : "FAIL: a validator made no progress");
  return ok ? 0 : 1;
}
