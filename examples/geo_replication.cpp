// Geo-replication: compares the four protocols on the paper's 5-region WAN.
//
// Runs Mahi-Mahi-4, Mahi-Mahi-5, Cordial Miners, and Tusk on a simulated
// 10-validator deployment spread over Ohio, Oregon, Cape Town, Hong Kong,
// and Milan (the paper's §5.1 setup), at a moderate fixed load, and prints a
// miniature version of Figure 3's comparison.
//
// Build & run:  ./build/examples/geo_replication
#include <cstdio>

#include "sim/harness.h"

using namespace mahimahi;
using namespace mahimahi::sim;

int main() {
  std::printf("10 validators across 5 AWS regions, 10k tx/s, 512 B txs\n");
  std::printf("%-16s %10s %10s %10s %10s\n", "protocol", "tx/s", "avg lat", "p50",
              "p95");

  bool committed = true;
  for (const Protocol protocol : {Protocol::kMahiMahi4, Protocol::kMahiMahi5,
                                  Protocol::kCordialMiners, Protocol::kTusk}) {
    SimConfig config;
    config.protocol = protocol;
    config.n = 10;
    config.wan = true;  // the 5-region latency matrix
    config.load_tps = 10'000;
    config.duration = seconds(20);
    config.warmup = seconds(5);
    const SimResult result = run_simulation(config);
    committed &= result.committed_tps > 0;
    std::printf("%-16s %10.0f %9.3fs %9.3fs %9.3fs\n", to_string(protocol).c_str(),
                result.committed_tps, result.avg_latency_s, result.p50_latency_s,
                result.p95_latency_s);
  }

  std::printf(
      "\nExpected shape (paper, Fig. 3): Mahi-Mahi-4 < Mahi-Mahi-5 < Cordial "
      "Miners < Tusk.\n");
  return committed ? 0 : 1;
}
