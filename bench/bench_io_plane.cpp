// I/O-plane cost: an 11-validator loopback TCP committee — group commit +
// fsync WAL, verification inline on the loop thread — measured in SYSCALLS
// PER COMMITTED BLOCK rather than wall time.
//
// Wall time on a loopback cluster mostly measures the scheduler; the kernel
// entries each committed block costs are a stable unit. The counters here
// come straight from the runtime's own accounting
// (NodeRuntime::io_plane_report):
//
//   NetSyscallsPerBlock  data-plane entries: one recv/sendmsg per call made
//                        on epoll readiness;
//   WalSyscallsPerBlock  group-flush entries on the WAL writer thread: one
//                        write + one fsync per group;
//   SyscallsPerBlock     the sum, the headline metric.
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/options.h"
#include "net/node_runtime.h"
#include "types/committee.h"

namespace {

using namespace mahimahi;
using namespace mahimahi::net;
namespace fs = std::filesystem;

constexpr ValidatorId kValidators = 11;      // 10+ peers per the acceptance bar
constexpr std::uint64_t kTargetBlocks = 33;  // committed blocks per node (~3 waves)

std::string bench_dir(const char* tag) {
  return (fs::temp_directory_path() /
          (std::string("mahi_bench_io_") + tag + "_" + std::to_string(::getpid())))
      .string();
}

void BM_IoPlaneCluster(benchmark::State& state) {
  const std::string dir = bench_dir("cluster");
  for (auto _ : state) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto setup = Committee::make_test(kValidators);

    // Pre-claim ephemeral ports so every node knows every peer's address
    // before any of them starts.
    std::vector<NodeAddress> addresses(kValidators);
    {
      EventLoop probe_loop;
      std::vector<std::unique_ptr<TcpListener>> probes;
      for (ValidatorId i = 0; i < kValidators; ++i) {
        probes.push_back(
            std::make_unique<TcpListener>(probe_loop, 0, [](TcpConnectionPtr) {}));
        addresses[i].port = probes.back()->port();
      }
    }

    // Co-located committee on a small machine: one shared verifier cache
    // (every block verifies once, not 11 times) and inline verification, so
    // the loop thread's work is dominated by the thing under test —
    // multiplexing 20 sockets and feeding the WAL.
    auto cache = std::make_shared<VerifierCache>();
    std::vector<std::unique_ptr<NodeRuntime>> nodes;
    for (ValidatorId v = 0; v < kValidators; ++v) {
      NodeRuntimeConfig config;
      config.validator.id = v;
      config.validator.committer = mahi_mahi_5(1);
      config.validator.min_round_delay = millis(10);
      config.validator.signature_cache = cache;
      config.validator.wal_group_commit = true;
      config.validator.wal_fsync = true;
      config.peers = addresses;
      config.wal_path = dir + "/v" + std::to_string(v) + ".wal";
      config.tick_interval = millis(10);
      config.verify_threads = 0;
      nodes.push_back(std::make_unique<NodeRuntime>(
          setup.committee, setup.keypairs[v].private_key, config));
    }
    for (auto& node : nodes) node->start();
    TxBatch batch;
    batch.id = 7;
    batch.count = 10;
    nodes[0]->submit({batch});

    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
    bool done = false;
    while (!done && std::chrono::steady_clock::now() < deadline) {
      done = true;
      for (auto& node : nodes) {
        if (node->committed_blocks() < kTargetBlocks) {
          done = false;
          break;
        }
      }
      if (!done) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    // Counters are read BEFORE stop(): shutdown drains and closes everything,
    // and those teardown syscalls are not part of the steady-state cost.
    std::uint64_t net_syscalls = 0;
    std::uint64_t wal_syscalls = 0;
    std::uint64_t blocks = 0;
    for (auto& node : nodes) {
      const auto report = node->io_plane_report();
      net_syscalls += report.submit_syscalls;
      wal_syscalls += report.wal_flush_syscalls;
      blocks += node->committed_blocks();
    }
    for (auto& node : nodes) node->stop();
    nodes.clear();
    fs::remove_all(dir);
    if (!done) {
      state.SkipWithError("cluster missed the commit target before the deadline");
      break;
    }

    state.counters["Blocks"] = static_cast<double>(blocks);
    state.counters["NetSyscallsPerBlock"] =
        static_cast<double>(net_syscalls) / static_cast<double>(blocks);
    state.counters["WalSyscallsPerBlock"] =
        static_cast<double>(wal_syscalls) / static_cast<double>(blocks);
    state.counters["SyscallsPerBlock"] =
        static_cast<double>(net_syscalls + wal_syscalls) / static_cast<double>(blocks);
    state.SetItemsProcessed(static_cast<std::int64_t>(blocks));
  }
}

BENCHMARK(BM_IoPlaneCluster)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
