// Committer configuration (§3, §5).
#pragma once

#include <cstdint>

#include "types/ids.h"

namespace mahimahi {

// The GC depth deployed validators run at: the TCP benchmark's committee
// (bench/e2e) sets 50, and the simulator gives every protocol that applies
// the delivery cut the same depth, so both environments prune alike.
inline constexpr Round kDefaultGcDepth = 50;

struct CommitterOptions {
  // Rounds per wave: Propose, Boost*, Vote, Certify. The paper ships 5
  // (maximum asynchronous commit probability) and 4 (lower latency under the
  // random network model). 3 is safe but not live under asynchrony
  // (Appendix C note); it is provided for the ablation benches.
  std::uint32_t wave_length = 5;

  // Leader slots per round (§3.1). The paper evaluates 1-3 and defaults to 2.
  std::uint32_t leaders_per_round = 2;

  // Distance between consecutive propose rounds. Mahi-Mahi starts a wave
  // every round (stride 1, overlapping waves, Fig. 1 right). A stride equal
  // to wave_length yields non-overlapping waves — the Cordial Miners shape.
  Round wave_stride = 1;

  // The direct skip rule (§3.2 step 2). Disabling it forces crashed/withheld
  // leader slots to be resolved indirectly via a later anchor, reproducing
  // Cordial Miners' head-of-line blocking under faults (claim C3 ablation).
  bool direct_skip = true;

  // First propose round. Round 0 is genesis and never hosts slots.
  Round first_slot_round = 1;

  // Deterministic garbage collection depth (0 = unbounded history, the
  // paper's pseudocode). When > 0, a committed leader at round R delivers
  // only causal-history blocks with round >= R - gc_depth; anything older
  // that was never delivered is excluded — identically at every validator,
  // because the cut depends only on the agreed leader sequence. This is
  // what makes pruning safe: once the consumed-slot head passes round H,
  // rounds below H - gc_depth can never be delivered by any future leader,
  // so the validator can drop them (Dag::prune_below) without any risk of
  // two validators delivering different histories. gc_depth is a protocol
  // parameter: all validators must agree on it.
  Round gc_depth = 0;

  bool valid() const {
    return wave_length >= 3 && leaders_per_round >= 1 && wave_stride >= 1 &&
           first_slot_round >= 1;
  }

  // Round role mapping for the wave proposing at `r` (Fig. 1 left).
  Round vote_round(Round propose_round) const { return propose_round + wave_length - 2; }
  Round certify_round(Round propose_round) const {
    return propose_round + wave_length - 1;
  }

  bool is_propose_round(Round r) const {
    return r >= first_slot_round && (r - first_slot_round) % wave_stride == 0;
  }

  // The first leader slot at or after round `r`: offset 0 of the first
  // propose round >= max(r, first_slot_round). Canonical-cut boundaries
  // (checkpoint/cert.h) are defined with this, so every validator maps a
  // cut index to the same slot.
  SlotId first_slot_at_or_after(Round r) const {
    Round target = r < first_slot_round ? first_slot_round : r;
    const Round steps = (target - first_slot_round + wave_stride - 1) / wave_stride;
    return SlotId{first_slot_round + steps * wave_stride, 0};
  }
};

// Canonical configurations used across examples, tests and benches.
inline CommitterOptions mahi_mahi_5(std::uint32_t leaders = 2) {
  return CommitterOptions{.wave_length = 5, .leaders_per_round = leaders};
}
inline CommitterOptions mahi_mahi_4(std::uint32_t leaders = 2) {
  return CommitterOptions{.wave_length = 4, .leaders_per_round = leaders};
}
// The Cordial Miners shape: uncertified DAG, one leader every wave_length
// rounds, no direct skip (see src/baselines/cordial_miners.h).
inline CommitterOptions cordial_miners_shape(std::uint32_t wave_length = 5) {
  return CommitterOptions{.wave_length = wave_length,
                          .leaders_per_round = 1,
                          .wave_stride = wave_length,
                          .direct_skip = false};
}

}  // namespace mahimahi
