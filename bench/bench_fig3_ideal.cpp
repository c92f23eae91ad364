// Figure 3: comparative throughput-latency under ideal conditions.
//
// WAN, 10 and 50 validators, no faults, 512 B transactions, 2 leaders per
// round for Mahi-Mahi. Sweeps offered load per protocol and prints the
// latency-throughput curve — the same series as the paper's Figure 3.
//
// Paper reference points (absolute numbers are testbed-specific; the SHAPE
// is what this harness reproduces — see
// docs/BENCHMARKS.md#paper-figure-benches-protocol-level-via-the-simulator):
//   10 nodes: peak ~100-130k tx/s; latency Tusk 3.5s, CM 1.5s, MM-5 1.1s,
//             MM-4 0.9s.
//   50 nodes: CM/MM >350k tx/s, Tusk ~125k; latency Tusk 3.5s, CM 2.6s,
//             MM-5 2.0s, MM-4 1.5s.
#include <cstdio>
#include <vector>

#include "sim/harness.h"

using namespace mahimahi;
using namespace mahimahi::sim;

int main() {
  std::printf("=== Figure 3: throughput-latency, ideal WAN conditions ===\n");
  std::printf("%-16s %4s %9s | %9s %8s %8s %8s\n", "protocol", "n", "load",
              "tx/s", "avg", "p50", "p95");

  const std::vector<Protocol> protocols = {Protocol::kTusk, Protocol::kCordialMiners,
                                           Protocol::kMahiMahi5, Protocol::kMahiMahi4};

  for (const std::uint32_t n : {10u, 50u}) {
    const std::vector<double> loads =
        n == 10 ? std::vector<double>{5'000, 25'000, 50'000, 75'000, 100'000, 125'000}
                : std::vector<double>{25'000, 100'000, 200'000, 300'000, 350'000};
    for (const Protocol protocol : protocols) {
      for (const double load : loads) {
        SimConfig config;
        config.protocol = protocol;
        config.n = n;
        config.leaders_per_round = 2;
        config.wan = true;
        config.load_tps = load;
        config.duration = n == 10 ? seconds(20) : seconds(15);
        config.warmup = n == 10 ? seconds(5) : seconds(4);
        config.seed = 42;
        const SimResult result = run_simulation(config);
        std::printf("%-16s %4u %9.0f | %9.0f %7.3fs %7.3fs %7.3fs\n",
                    to_string(protocol).c_str(), n, load, result.committed_tps,
                    result.avg_latency_s, result.p50_latency_s, result.p95_latency_s);
        std::fflush(stdout);
      }
      std::printf("\n");
    }
  }
  return 0;
}
