#include "wal/group_commit_wal.h"

#include <cstdlib>
#include <exception>
#include <utility>

#include "common/log.h"
#include "common/thread_name.h"

namespace mahimahi {

namespace {

std::chrono::microseconds chrono_micros(TimeMicros t) {
  return std::chrono::microseconds(t);
}

}  // namespace

GroupCommitWal::GroupCommitWal(std::unique_ptr<SegmentedWal> inner,
                               GroupCommitWalOptions options, AckExecutor ack_executor)
    : options_(options), ack_executor_(std::move(ack_executor)), inner_(std::move(inner)) {
  writer_ = std::thread([this] { writer_main(); });
}

GroupCommitWal::~GroupCommitWal() { shutdown(); }

void GroupCommitWal::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  writer_wake_.notify_all();
  if (writer_.joinable()) writer_.join();
}

void GroupCommitWal::stage_record(const Bytes& framed) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Bounded staging: block until the writer drains (disk backpressure must
  // reach the appender, not grow an unbounded buffer). An oversized record
  // is taken into an empty buffer anyway so it cannot wedge the appender.
  caller_wake_.wait(lock, [this, &framed] {
    return stopping_ || staged_.size() + framed.size() <= options_.max_staged_bytes ||
           staged_.empty();
  });
  if (stopping_) return;
  if (staged_.empty()) group_opened_at_ = std::chrono::steady_clock::now();
  staged_.insert(staged_.end(), framed.begin(), framed.end());
  ++staged_records_;
  ++appended_seq_;
  lock.unlock();
  writer_wake_.notify_one();
}

void GroupCommitWal::append_block(const Block& block, bool own) {
  // Encoding happens on the appender's thread — it is pure CPU over an
  // immutable block and keeps the staged bytes byte-identical to what the
  // inline SegmentedWal would have written at this point in the sequence.
  stage_record(wal_encode_block_record(block, own));
}

void GroupCommitWal::sync() {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t target = appended_seq_;
  // Already durable: return without arming flush_requested_ — the writer
  // only clears the flag when it takes a group, so a stale request would
  // make the NEXT group flush immediately and skip the interval batching.
  if (durable_seq_ >= target) return;
  flush_requested_ = true;
  writer_wake_.notify_one();
  caller_wake_.wait(lock, [this, target] { return stopping_ || durable_seq_ >= target; });
}

void GroupCommitWal::on_durable(std::function<void()> done) {
  // Always routed through the writer thread, even when the covering records
  // are already durable: a single dispatcher makes ack completion order total
  // (registration order), so gated sends can never overtake each other.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_acks_.push_back({appended_seq_, std::move(done)});
  }
  writer_wake_.notify_one();
}

std::uint64_t GroupCommitWal::groups_flushed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return groups_flushed_;
}

std::uint64_t GroupCommitWal::records_appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appended_seq_;
}

std::uint64_t GroupCommitWal::records_flushed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_flushed_;
}

std::uint64_t GroupCommitWal::flush_micros() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return flush_micros_;
}

void GroupCommitWal::writer_main() {
  set_thread_name("mm-wal");
  if (!options_.log_context.empty()) set_log_context(options_.log_context);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    writer_wake_.wait(lock, [this] {
      return stopping_ || !staged_.empty() ||
             (!pending_acks_.empty() && pending_acks_.front().seq <= durable_seq_);
    });

    if (!staged_.empty()) {
      // A group is open. Hold it until the flush interval elapses, the byte
      // budget trips, a barrier asks for an immediate flush, or shutdown —
      // records arriving meanwhile join the group for free.
      const auto deadline = group_opened_at_ + chrono_micros(options_.flush_interval);
      while (!stopping_ && !flush_requested_ &&
             staged_.size() < options_.group_byte_budget &&
             std::chrono::steady_clock::now() < deadline) {
        writer_wake_.wait_until(lock, deadline);
      }

      Bytes group;
      group.swap(staged_);
      const std::uint64_t group_records = staged_records_;
      staged_records_ = 0;
      const std::uint64_t flushed_through = appended_seq_;
      flush_requested_ = false;
      lock.unlock();

      // One durable landing for the whole group, off the appender's thread:
      // one write + sync.
      const TimeMicros start = steady_now_micros();
      try {
        inner_->append_group_durable({group.data(), group.size()});
      } catch (const std::exception& error) {
        // The group may not be on disk, so no ack it covers may ever fire.
        MM_LOG(kError) << "WAL group flush failed: " << error.what();
        std::abort();
      }
      const TimeMicros spent = steady_now_micros() - start;

      lock.lock();
      durable_seq_ = flushed_through;
      ++groups_flushed_;
      records_flushed_ += group_records;
      flush_micros_ += static_cast<std::uint64_t>(spent);
      caller_wake_.notify_all();
    }

    // Dispatch every covered ack, in registration order. Acks are pushed in
    // seq order, so the covered ones form a prefix.
    std::vector<PendingAck> due;
    while (!pending_acks_.empty() && pending_acks_.front().seq <= durable_seq_) {
      due.push_back(std::move(pending_acks_.front()));
      pending_acks_.pop_front();
    }
    if (!due.empty()) {
      lock.unlock();
      for (auto& ack : due) {
        if (ack_executor_) {
          ack_executor_(std::move(ack.done));
        } else {
          ack.done();
        }
      }
      lock.lock();
    }

    // Shutdown completes only after the final group landed and every ack it
    // covers was dispatched.
    if (stopping_ && staged_.empty() && pending_acks_.empty()) return;
  }
}

}  // namespace mahimahi
