// Ablations of Mahi-Mahi's design choices.
//
// A: overlapping waves (a wave every round) vs strided waves (one wave per
//    wave_length rounds) — strided degenerates into Cordial Miners' cadence.
// B: the direct skip rule, on vs off, under crash faults — off reproduces
//    Cordial Miners' head-of-line blocking.
// C: wave length 3 — safe but not live under adversarial scheduling
//    (Appendix C note): the adversary suppresses elected leaders and no slot
//    ever directly commits, while the random schedule still commits.
#include <cstdio>

#include "core/committer.h"
#include "sim/dag_builder.h"
#include "sim/harness.h"

using namespace mahimahi;
using namespace mahimahi::sim;

namespace {

SimResult run_with(CommitterOptions options, std::uint32_t crashed) {
  SimConfig config;
  config.protocol = Protocol::kMahiMahi5;  // overridden below
  config.committer_override = options;
  config.n = 10;
  config.crashed = crashed;
  config.wan = true;
  config.load_tps = 5'000;
  config.duration = seconds(20);
  config.warmup = seconds(5);
  config.seed = 21;
  return run_simulation(config);
}

void ablation_wave_stride() {
  std::printf("--- A: overlapping vs strided waves (w=5, 2 leaders, no faults) ---\n");
  for (const Round stride : {Round{1}, Round{5}}) {
    CommitterOptions options = mahi_mahi_5(2);
    options.wave_stride = stride;
    const SimResult result = run_with(options, 0);
    std::printf("stride=%llu  %s\n", static_cast<unsigned long long>(stride),
                result.to_string().c_str());
  }
  std::printf("\n");
}

void ablation_direct_skip() {
  std::printf("--- B: direct skip rule under 3 crash faults (w=5, 2 leaders) ---\n");
  for (const bool direct_skip : {true, false}) {
    CommitterOptions options = mahi_mahi_5(2);
    options.direct_skip = direct_skip;
    const SimResult result = run_with(options, 3);
    std::printf("direct_skip=%-5s %s\n", direct_skip ? "on" : "off",
                result.to_string().c_str());
  }
  std::printf("\n");
}

void ablation_wave_length_3() {
  std::printf("--- C: wave length 3 — liveness under schedule control ---\n");
  // DAG-model experiment (no timing): count direct commits over 60 rounds
  // under the random schedule vs the leader-suppressing adversary.
  for (const bool adversarial : {false, true}) {
    DagBuilder builder(4, 11);
    Rng rng(33);
    CommitterOptions options;
    options.wave_length = 3;
    options.leaders_per_round = 1;
    for (Round r = 1; r <= 60; ++r) {
      if (adversarial && r >= 2) {
        builder.add_adversarial_round(r, {builder.leader_of({r - 1, 0}, options)});
      } else {
        builder.add_random_network_round(r, rng);
      }
    }
    Committer committer(builder.dag(), builder.committee(), options);
    committer.try_commit();
    const auto& stats = committer.stats();
    std::printf(
        "w=3 %-12s direct=%llu indirect=%llu skips=%llu first-pending-round=%llu\n",
        adversarial ? "adversarial" : "random",
        static_cast<unsigned long long>(stats.direct_commits),
        static_cast<unsigned long long>(stats.indirect_commits),
        static_cast<unsigned long long>(stats.skipped_slots()),
        static_cast<unsigned long long>(committer.next_pending_slot().round));
  }
  std::printf("(adversarial w=3: expect commits ~0 and the pending round stuck "
              "near 1 — the\n common-core guarantee of Lemma 10 needs two rounds "
              "between propose and vote.)\n\n");
}

void ablation_gc_depth() {
  std::printf("--- D: garbage-collection depth (w=5, 2 leaders, no faults) ---\n");
  std::printf("%-10s %12s %10s %10s\n", "gc_depth", "dag blocks", "tps", "avg lat");
  for (const Round depth : {Round{0}, Round{32}, Round{8}}) {
    CommitterOptions options = mahi_mahi_5(2);
    options.gc_depth = depth;
    const SimResult result = run_with(options, 0);
    std::printf("%-10llu %12llu %10.0f %9.3fs\n",
                static_cast<unsigned long long>(depth),
                static_cast<unsigned long long>(result.total_blocks),
                result.committed_tps, result.avg_latency_s);
  }
  std::printf("(the deterministic delivery cut bounds the retained DAG at roughly\n"
              " n * (gc_depth + pipeline) blocks with no cost to throughput,\n"
              " latency, or agreement — see tests/test_gc.cpp)\n\n");
}

}  // namespace

int main() {
  std::printf("=== Ablations ===\n\n");
  ablation_wave_stride();
  ablation_direct_skip();
  ablation_wave_length_3();
  ablation_gc_depth();
  return 0;
}
