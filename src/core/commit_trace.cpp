#include "core/commit_trace.h"

#include <algorithm>
#include <cstdio>

namespace mahimahi {

namespace {

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out.append(buf, static_cast<std::size_t>(n));
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace

std::string commit_traces_json(const std::deque<CommitTrace>& traces) {
  std::string out = "{\"traces\":[";
  bool first_trace = true;
  for (const CommitTrace& trace : traces) {
    if (!first_trace) out.push_back(',');
    first_trace = false;
    out += "{\"slot\":{\"round\":";
    append_u64(out, trace.slot.round);
    out += ",\"leader_offset\":";
    append_u64(out, trace.slot.leader_offset);
    out += "},\"leader\":";
    append_u64(out, trace.leader_author);
    out += ",\"committed_at\":";
    append_i64(out, trace.committed_at);
    out += ",\"blocks\":";
    append_u64(out, trace.blocks);
    out += ",\"transactions\":";
    append_u64(out, trace.transactions);
    out += ",\"first_arrival\":";
    append_i64(out, trace.first_arrival);
    out += ",\"closing\":{\"author\":";
    append_u64(out, trace.closing_author);
    out += ",\"round\":";
    append_u64(out, trace.closing_round);
    out += ",\"offset_micros\":";
    append_i64(out, trace.closing_offset_micros);
    out += "},\"apply_micros\":";
    append_i64(out, trace.apply_micros);
    out += ",\"durable_micros\":";
    append_i64(out, trace.durable_micros);
    out += ",\"execute_micros\":";
    append_i64(out, trace.execute_micros);
    out += ",\"arrivals\":[";
    bool first_arrival = true;
    for (const CommitTrace::Arrival& arrival : trace.arrivals) {
      if (!first_arrival) out.push_back(',');
      first_arrival = false;
      out += "{\"author\":";
      append_u64(out, arrival.author);
      out += ",\"round\":";
      append_u64(out, arrival.round);
      out += ",\"offset_micros\":";
      append_i64(out, arrival.offset_micros);
      out += ",\"stamped\":";
      out += arrival.stamped ? "true" : "false";
      out += ",\"closed_wave\":";
      out += arrival.closed_wave ? "true" : "false";
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

CommitForensics::CommitForensics(Options options) : options_(options) {}

void CommitForensics::block_arrived(const Digest& digest, TimeMicros at) {
  auto [it, inserted] = arrivals_.try_emplace(digest, at);
  if (!inserted) return;  // re-delivery: the first arrival is the one that counts
  arrival_fifo_.push_back(digest);
  if (arrival_fifo_.size() > options_.arrival_capacity) {
    arrivals_.erase(arrival_fifo_.front());
    arrival_fifo_.pop_front();
  }
}

CommitTrace& CommitForensics::on_committed(const CommittedSubDag& sub_dag,
                                           TimeMicros committed_at) {
  CommitTrace trace;
  trace.slot = sub_dag.slot;
  trace.leader_author = sub_dag.leader != nullptr ? sub_dag.leader->author() : 0;
  trace.committed_at = committed_at;
  trace.blocks = sub_dag.blocks.size();
  trace.transactions = sub_dag.transaction_count();

  // First pass: earliest stamped arrival anchors the offsets.
  TimeMicros first = 0;
  bool any_stamped = false;
  for (const BlockPtr& block : sub_dag.blocks) {
    const auto it = arrivals_.find(block->digest());
    if (it == arrivals_.end()) continue;
    if (!any_stamped || it->second < first) first = it->second;
    any_stamped = true;
  }
  trace.first_arrival = any_stamped ? first : 0;

  // Second pass: offsets, plus the closing (latest stamped) arrival — the
  // block the wave was actually waiting for.
  std::size_t closing_index = sub_dag.blocks.size();
  TimeMicros closing_at = 0;
  trace.arrivals.reserve(sub_dag.blocks.size());
  for (std::size_t i = 0; i < sub_dag.blocks.size(); ++i) {
    const BlockPtr& block = sub_dag.blocks[i];
    CommitTrace::Arrival arrival;
    arrival.author = block->author();
    arrival.round = block->round();
    const auto it = arrivals_.find(block->digest());
    if (it != arrivals_.end()) {
      arrival.stamped = true;
      arrival.offset_micros = it->second - first;
      // >= so ties resolve to the causally-latest block (leader last).
      if (closing_index == sub_dag.blocks.size() || it->second >= closing_at) {
        closing_index = i;
        closing_at = it->second;
      }
    }
    trace.arrivals.push_back(arrival);
  }
  if (closing_index < trace.arrivals.size()) {
    CommitTrace::Arrival& closing = trace.arrivals[closing_index];
    closing.closed_wave = true;
    trace.closing_author = closing.author;
    trace.closing_round = closing.round;
    trace.closing_offset_micros = closing.offset_micros;
  }

  traces_.push_back(std::move(trace));
  if (traces_.size() > options_.trace_capacity) traces_.pop_front();
  return traces_.back();
}

void CommitForensics::durable_ack(TimeMicros now) {
  // Pending traces are the newest: every ack resolves all of them.
  for (auto it = traces_.rbegin(); it != traces_.rend() && it->durable_pending; ++it) {
    it->durable_pending = false;
    it->durable_micros = std::max<TimeMicros>(0, now - it->committed_at);
  }
}

void CommitForensics::execute_done(SlotId slot, TimeMicros now) {
  for (CommitTrace& trace : traces_) {
    if (!trace.execute_pending || !(trace.slot == slot)) continue;
    trace.execute_pending = false;
    trace.execute_micros = std::max<TimeMicros>(0, now - trace.committed_at);
    return;
  }
}

}  // namespace mahimahi
