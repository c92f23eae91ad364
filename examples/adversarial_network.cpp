// Adversarial schedules: asynchrony attacks against a running cluster.
//
// The defining property of Mahi-Mahi is liveness under an asynchronous
// adversary (§1, §2.1): delays may be arbitrary, but nothing the scheduler
// does can break safety, and commits resume whenever delivery allows. This
// example runs three attacks from sim/adversary.h against a 10-validator
// WAN deployment and prints what each one costs:
//
//   * a 3-second network partition (no quorum on either side -> commits
//     stall, then the backlog drains after the heal);
//   * sustained delay bursts on every link (the "continuously active"
//     asynchronous adversary the 5-round wave is parameterized for);
//   * a targeted DoS that delays one validator's blocks by ~1s (its leader
//     slots get directly skipped; everyone else proceeds).
//
// Build & run:  ./build/examples/adversarial_network
#include <cstdio>
#include <memory>

#include "sim/harness.h"

using namespace mahimahi;
using namespace mahimahi::sim;

namespace {

// Runs one attack and prints its row; true when the cluster kept agreement
// and committed transactions.
bool run_attack(const char* name, std::shared_ptr<Adversary> adversary) {
  SimConfig config;
  config.protocol = Protocol::kMahiMahi5;
  config.n = 10;
  config.wan = true;
  config.load_tps = 10'000;
  config.duration = seconds(22);
  config.warmup = seconds(2);
  config.record_sequences = true;
  config.adversary = std::move(adversary);

  const SimResult result = run_simulation(config);

  bool agreement = true;
  for (std::size_t i = 0; i < result.sequences.size() && agreement; ++i) {
    for (std::size_t j = i + 1; j < result.sequences.size() && agreement; ++j) {
      const auto& a = result.sequences[i];
      const auto& b = result.sequences[j];
      for (std::size_t k = 0; k < std::min(a.size(), b.size()); ++k) {
        if (a[k] != b[k]) {
          agreement = false;
          break;
        }
      }
    }
  }

  std::printf("%-22s %9.0f %8.3fs %8.3fs %8.3fs %6llu %10s\n", name,
              result.committed_tps, result.avg_latency_s, result.p50_latency_s,
              result.p95_latency_s,
              static_cast<unsigned long long>(result.commit_stats.skipped_slots()),
              agreement ? "ok" : "VIOLATED");
  return agreement && result.committed_tps > 0;
}

}  // namespace

int main() {
  std::printf("Mahi-Mahi-5, 10 validators (WAN), 10k tx/s offered\n\n");
  std::printf("%-22s %9s %9s %9s %9s %6s %10s\n", "attack", "tx/s", "avg", "p50",
              "p95", "skips", "agreement");

  bool ok = run_attack("none", nullptr);
  ok &= run_attack("partition 8s-11s",
                   std::make_shared<PartitionAdversary>(5, seconds(8), seconds(11)));
  ok &= run_attack("bursts 1s/3s <=800ms",
                   std::make_shared<BurstDelayAdversary>(seconds(3), seconds(1), millis(800)));
  ok &= run_attack("targeted v0 +900ms",
                   std::make_shared<TargetedDelayAdversary>(std::set<ValidatorId>{0},
                                                            millis(900)));

  std::printf(
      "\nEvery attack costs latency, none costs safety: the delivered\n"
      "sequences stay prefix-consistent across all validators. The partition\n"
      "stalls commits while active (tail latency absorbs the outage); bursts\n"
      "stretch the average; the targeted victim's slots are directly skipped\n"
      "while the remaining nine validators commit normally.\n");
  return ok ? 0 : 1;
}
