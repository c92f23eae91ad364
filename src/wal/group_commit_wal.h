// Group-commit decorator over the WAL's SegmentedWal layout.
//
// An inline SegmentedWal pays a write + sync on the appender's thread for
// every insertion batch — on a deployed validator that thread is the event
// loop, so a slow disk serializes consensus behind log I/O. This decorator
// moves the file entirely off the appender's thread:
//
//   append_block (appender thread) encode the record, copy it into a bounded
//                                 staging buffer, return immediately
//   writer    (dedicated thread)  waits out the flush interval (or a byte
//                                 budget, whichever trips first), then lands
//                                 the whole group as ONE write + sync and
//                                 completes the durability acks it covers
//
// Because both writers share the wal_encode_* record framing, a
// group-committed log is byte-identical to the inline log for the same
// append sequence — recovery (SegmentedWal::replay) cannot tell them apart,
// and a torn tail still truncates to a clean record boundary.
//
// A group that fails to land (flush or fsync error) stops the process before
// any ack it covers fires: the appender has moved on and cannot be told, and
// a restart replays exactly the durable prefix.
//
// Threading contract: append_block / on_durable come from ONE appender
// thread (the runtime's event loop); sync() — a full blocking
// durability barrier, meant for shutdown paths — may come from any thread
// except the writer's. Acks run on the writer thread, or are handed to the
// ack executor when one is configured (the TCP runtime posts them to its
// event loop).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/time.h"
#include "wal/segmented_wal.h"

namespace mahimahi {

struct GroupCommitWalOptions {
  // Longest a staged record waits before its group flushes. 0 = the writer
  // flushes as soon as it is free — still a group commit: everything that
  // arrived during the previous write + sync lands together.
  TimeMicros flush_interval = millis(1);
  // Staged bytes that trip a flush before the interval elapses.
  std::size_t group_byte_budget = 1 << 20;
  // Hard bound on the staging buffer. Appends block (backpressure on the
  // appender) once the buffer holds this much — an unbounded buffer would
  // hide a dying disk until the process OOMs.
  std::size_t max_staged_bytes = 64 << 20;
  // Non-empty: the writer thread's MM_LOG context (see common/log.h), e.g.
  // "v3/wal" — makes its lines attributable in multi-validator cluster logs.
  std::string log_context;
};

class GroupCommitWal : public Wal {
 public:
  // Runs a durability ack somewhere; null = on the writer thread.
  using AckExecutor = std::function<void(std::function<void()>)>;

  GroupCommitWal(std::unique_ptr<SegmentedWal> inner, GroupCommitWalOptions options,
                 AckExecutor ack_executor = nullptr);
  // Drains every staged record (one final group) and joins the writer.
  ~GroupCommitWal() override;

  GroupCommitWal(const GroupCommitWal&) = delete;
  GroupCommitWal& operator=(const GroupCommitWal&) = delete;

  void append_block(const Block& block, bool own) override;
  // Blocking durability barrier: returns once everything appended before the
  // call is on disk. Shutdown/teardown path — the hot path never calls this;
  // it rides the interval/budget flushes and on_durable acks instead.
  void sync() override;
  // Registers an ack covering every record appended so far. Fires after the
  // covering flush (in registration order), via the ack executor when one is
  // set; fires immediately (same dispatch) when already durable.
  void on_durable(std::function<void()> done) override;

  // Drains and joins the writer early (idempotent; the destructor calls it).
  // After shutdown the inner SegmentedWal is still owned and readable; appends
  // are a programming error.
  void shutdown();

  // Introspection (thread-safe).
  std::uint64_t groups_flushed() const;
  std::uint64_t records_appended() const;
  std::uint64_t records_flushed() const;
  // Total micros the writer spent inside write + sync — the disk time that
  // no longer runs on the appender's thread.
  std::uint64_t flush_micros() const;
  // Syscalls spent landing groups (see SegmentedWal::syscalls; the writer
  // never calls the layout's own sync()).
  std::uint64_t group_flush_syscalls() const { return inner_->syscalls(); }

 private:
  // Shared append body: blocks for staging space, copies the framed record
  // in, and wakes the writer.
  void stage_record(const Bytes& framed);
  void writer_main();

  const GroupCommitWalOptions options_;
  const AckExecutor ack_executor_;
  std::unique_ptr<SegmentedWal> inner_;

  mutable std::mutex mutex_;
  std::condition_variable writer_wake_;   // writer waits: work or stop
  std::condition_variable caller_wake_;   // appenders/barriers wait: space or durability
  Bytes staged_;                          // framed records awaiting the next group
  std::uint64_t staged_records_ = 0;      // records in staged_
  std::uint64_t appended_seq_ = 0;        // records ever appended
  std::uint64_t durable_seq_ = 0;         // records on disk
  std::chrono::steady_clock::time_point group_opened_at_{};  // first staged record
  bool flush_requested_ = false;          // sync(): flush now, skip the interval
  bool stopping_ = false;
  struct PendingAck {
    std::uint64_t seq;
    std::function<void()> done;
  };
  std::deque<PendingAck> pending_acks_;  // popped front-first as groups land

  std::uint64_t groups_flushed_ = 0;
  std::uint64_t records_flushed_ = 0;
  std::uint64_t flush_micros_ = 0;

  std::thread writer_;
};

}  // namespace mahimahi
