// Cross-validator commit forensics: one structured trace per committed wave.
//
// Aggregate histograms say commits are slow; a commit trace says *why this
// one* was — which author's block arrived last and closed the wave, how the
// arrival offsets spread across the committee, and how the local pipeline
// (apply → durable → execute) broke down after the decision. The
// runtime keeps a bounded buffer of recent traces and serves them as JSON on
// /trace/commits; the sim records the same traces in virtual time, so
// straggler attribution is deterministic and property-testable.
//
// CommitForensics is single-threaded by design: the runtime drives it only
// from the loop thread (commit application, WAL acks, the admin renderer all
// run there), the sim from its single driver thread.
#pragma once

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "core/decision.h"

namespace mahimahi {

// One committed wave, as seen by this validator.
struct CommitTrace {
  SlotId slot;                       // committed leader slot
  ValidatorId leader_author = 0;
  TimeMicros committed_at = 0;       // driver clock (steady live, virtual sim)
  std::uint64_t blocks = 0;          // newly delivered blocks in the sub-DAG
  std::uint64_t transactions = 0;

  // Per-block arrivals in causal order (leader last), offsets relative to
  // the earliest stamped arrival in the sub-DAG. `stamped` is false when the
  // arrival predates the forensics window (recovered or aged-out blocks).
  struct Arrival {
    ValidatorId author = 0;
    Round round = 0;
    TimeMicros offset_micros = 0;
    bool stamped = false;
    bool closed_wave = false;  // the last stamped arrival: what the commit waited for
  };
  std::vector<Arrival> arrivals;
  TimeMicros first_arrival = 0;      // absolute stamp the offsets are relative to

  // The straggler attribution: author/round of the block whose arrival
  // closed the wave, and how long after first_arrival it landed.
  ValidatorId closing_author = 0;
  Round closing_round = 0;
  TimeMicros closing_offset_micros = 0;

  // Post-decision breakdown, durations in micros. 0 = not applicable (or
  // instantaneous); durable/execute fill in asynchronously when the WAL ack
  // or execution handoff lands.
  TimeMicros apply_micros = 0;
  TimeMicros durable_micros = 0;
  TimeMicros execute_micros = 0;

  // Internal bookkeeping for the asynchronous fields; not rendered.
  bool durable_pending = false;
  bool execute_pending = false;
};

// Deterministic JSON rendering: {"traces":[...]} with a fixed field order
// and integer-only values (the sim forensics test compares these strings
// byte for byte across seeded runs).
std::string commit_traces_json(const std::deque<CommitTrace>& traces);

class CommitForensics {
 public:
  struct Options {
    // Recent commits kept for /trace/commits; older traces age out.
    std::size_t trace_capacity = 64;
    // FIFO bound on the digest -> arrival stamp table (same idiom as the
    // tracer's insert table): blocks that never commit age out, not leak.
    std::size_t arrival_capacity = 1 << 16;
  };

  // (Separate default constructor: GCC rejects `Options = {}` default
  // arguments for nested aggregates with deferred member initializers.)
  CommitForensics() : CommitForensics(Options{}) {}
  explicit CommitForensics(Options options);

  // Stamps a block's arrival (DAG insert time on the recording validator).
  void block_arrived(const Digest& digest, TimeMicros at);

  // Builds and stores the trace for a committed sub-DAG. The returned
  // reference is valid until the next call (fill apply/pending flags
  // on it immediately).
  CommitTrace& on_committed(const CommittedSubDag& sub_dag, TimeMicros committed_at);

  // Resolves durable_micros (= now - committed_at) for every trace still
  // marked durable_pending — the group-commit WAL ack covers all commits
  // that happened since the previous flush.
  void durable_ack(TimeMicros now);

  // Resolves execute_micros for the oldest pending trace of `slot`.
  void execute_done(SlotId slot, TimeMicros now);

  const std::deque<CommitTrace>& traces() const { return traces_; }
  std::string to_json() const { return commit_traces_json(traces_); }

 private:
  Options options_;
  std::deque<CommitTrace> traces_;
  std::unordered_map<Digest, TimeMicros, DigestHasher> arrivals_;
  std::deque<Digest> arrival_fifo_;
};

}  // namespace mahimahi
