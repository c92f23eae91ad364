#include "obs/trace.h"

#include "types/block.h"

namespace mahimahi::obs {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kDecode: return "decode";
    case Stage::kStructural: return "structural";
    case Stage::kCryptoVerify: return "crypto_verify";
    case Stage::kInsertQueue: return "insert_queue";
    case Stage::kDagInsert: return "dag_insert";
    case Stage::kCommitWait: return "commit_wait";
    case Stage::kWalDurable: return "wal_durable";
    case Stage::kExecute: return "execute";
    case Stage::kCount: break;
  }
  return "unknown";
}

LifecycleTracer::LifecycleTracer(Registry& registry) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stage_micros_[i] = &registry.histogram(
        std::string("mm_stage_") + stage_name(static_cast<Stage>(i)) + "_micros",
        std::string("Per-block latency of the ") + stage_name(static_cast<Stage>(i)) +
            " pipeline stage, microseconds");
  }
  finality_micros_ = &registry.histogram(
      "mm_finality_micros",
      "End-to-end finality: batch submit stamp to commit, weighted by transactions");
  nonmonotonic_ = &registry.counter(
      "mm_trace_nonmonotonic_total",
      "Lifecycle deltas that came out negative (clamped to 0); should be zero");
  finality_skipped_ = &registry.counter(
      "mm_trace_finality_unstamped_total",
      "Committed batches without a submit stamp, excluded from mm_finality_micros");
}

void LifecycleTracer::block_inserted(const Digest& digest, TimeMicros now) {
  auto [it, inserted] = inserted_at_.try_emplace(digest, now);
  if (!inserted) return;  // replay/duplicate insert keeps the first stamp
  insert_order_.push_back(digest);
  while (insert_order_.size() > kMaxTrackedBlocks) {
    inserted_at_.erase(insert_order_.front());
    insert_order_.pop_front();
  }
}

void LifecycleTracer::sub_dag_committed(const CommittedSubDag& sub_dag, TimeMicros now,
                                        bool record_finality) {
  for (const BlockPtr& block : sub_dag.blocks) {
    auto it = inserted_at_.find(block->digest());
    if (it != inserted_at_.end()) {
      record_stage(Stage::kCommitWait, now - it->second);
      // Leave the stamp in place: other paths (e.g. the FIFO) clean it up.
      // Erasing here keeps the table small on the common path, and a block
      // commits exactly once, so the stamp is spent.
      inserted_at_.erase(it);
    }
    if (!record_finality) continue;
    for (const TxBatch& batch : block->batches()) {
      batch_delivered(batch.submitted_at, batch.count, now);
    }
  }
}

void LifecycleTracer::batch_delivered(TimeMicros submitted_at, std::uint32_t count,
                                      TimeMicros now) {
  const std::uint64_t weight = count == 0 ? 1 : count;
  if (submitted_at <= 0) {
    finality_skipped_->add(weight);
    return;
  }
  if (now < submitted_at) {
    nonmonotonic_->add(weight);
    finality_micros_->record(0, weight);
  } else {
    finality_micros_->record(now - submitted_at, weight);
  }
}

}  // namespace mahimahi::obs
