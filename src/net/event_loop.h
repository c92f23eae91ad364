// Minimal epoll-based event loop.
//
// Single-threaded reactor: file-descriptor callbacks, a timer heap, and a
// thread-safe task queue (eventfd wakeup) for cross-thread posts. Each
// NodeRuntime owns one loop running on its own thread — the C++ analogue of
// the paper's one-tokio-runtime-per-validator setup.
//
// Timers are microsecond-precise: the loop blocks in epoll_pwait2 with a
// nanosecond timeout up to the earliest due timer, and its thread runs at
// 1 ns timer slack (the kernel's default defers wake-ups by up to 50 µs),
// so a timer fires within tens of µs of its due time, never before it.
// NodeRuntime's round-pacing wake-up relies on this: rounding the wait to
// whole milliseconds would make every paced proposal up to 1 ms late.
//
// Connection bytes move on epoll readiness: each TcpConnection registers its
// fd here and makes its own recv/sendmsg calls, counting them into the
// loop's IoPlaneStats.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/time.h"

struct epoll_event;

namespace mahimahi::net {

// Data-plane syscall accounting: kernel entries made for connection bytes
// vs logical operations completed. Bumped on the loop thread by
// TcpConnection; relaxed atomics so any thread may read. epoll waits are the
// loop's multiplexing cost, counted by EventLoop::wait_syscalls instead.
struct IoPlaneStats {
  std::atomic<std::uint64_t> submit_syscalls{0};  // recv/sendmsg calls
  std::atomic<std::uint64_t> send_ops{0};         // gathered sends that moved bytes
  std::atomic<std::uint64_t> recv_ops{0};         // reads that delivered bytes
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_received{0};

  void note_send(std::uint64_t bytes) {
    send_ops.fetch_add(1, std::memory_order_relaxed);
    bytes_sent.fetch_add(bytes, std::memory_order_relaxed);
  }
  void note_recv(std::uint64_t bytes) {
    recv_ops.fetch_add(1, std::memory_order_relaxed);
    bytes_received.fetch_add(bytes, std::memory_order_relaxed);
  }
};

class EventLoop {
 public:
  using FdCallback = std::function<void(std::uint32_t epoll_events)>;
  using Task = std::function<void()>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers `fd` for the given epoll events (EPOLLIN/EPOLLOUT/...).
  void add_fd(int fd, std::uint32_t events, FdCallback callback);
  void modify_fd(int fd, std::uint32_t events);
  void remove_fd(int fd);

  // One-shot timer; returns an id usable with cancel_timer.
  std::uint64_t schedule(TimeMicros delay, Task task);
  void cancel_timer(std::uint64_t id);

  // Thread-safe: enqueue a task to run on the loop thread. Tasks always go
  // through the queue, even when posted from the loop thread itself: queue
  // order is delivery order, which callers rely on (e.g. commit handlers
  // must see sub-DAGs in consensus order — inline execution could reenter
  // and reorder them). Only cross-thread posts write the wakeup eventfd: a
  // post made on the loop thread — from a callback, a timer or another
  // posted task — runs in the current iteration's drain, before the loop
  // next blocks, at no syscall cost.
  void post(Task task);

  // True when called from the thread currently inside run(). For asserting
  // single-threaded invariants (e.g. "the validator core only ever runs on
  // the loop thread").
  bool in_loop_thread() const;

  // Runs until stop() is called (from any thread).
  void run();
  void stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }

  // Data-plane counters of the connections on this loop.
  IoPlaneStats& io_stats() { return io_stats_; }
  const IoPlaneStats& io_stats() const { return io_stats_; }

  // Multiplexing cost: epoll waits made by run(), reported separately from
  // the data-plane submit_syscalls.
  std::uint64_t wait_syscalls() const {
    return wait_syscalls_.load(std::memory_order_relaxed);
  }
  // Time the loop thread spent executing callbacks/timers/posted tasks (not
  // blocked in the epoll wait). The "bounded loop-thread time" metric for
  // committee-scale smoke tests.
  TimeMicros busy_micros() const { return busy_micros_.load(std::memory_order_relaxed); }

  // Observer invoked on the loop thread after every iteration with that
  // tick's busy slice and end stamp — the loop-stall watchdog's feed
  // (obs/watchdog.h). Set before run(); not thread-safe against a running
  // loop.
  using TickObserver = std::function<void(TimeMicros busy_micros, TimeMicros now)>;
  void set_tick_observer(TickObserver observer) { tick_observer_ = std::move(observer); }

 private:
  void drain_posted();
  void fire_due_timers();
  // Until the earliest timer is due, capped at 100 ms.
  TimeMicros next_timeout_micros() const;
  // Blocks for events until the earliest timer is due: one epoll_pwait2
  // with a nanosecond timeout (epoll_wait on kernels without it).
  int wait(epoll_event* events, int capacity);

  IoPlaneStats io_stats_;
  std::atomic<std::uint64_t> wait_syscalls_{0};
  std::atomic<TimeMicros> busy_micros_{0};
  TickObserver tick_observer_;

  bool precise_wait_ = true;  // epoll_pwait2 is available
  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::thread::id> loop_thread_id_{};

  std::unordered_map<int, FdCallback> fd_callbacks_;

  struct Timer {
    TimeMicros due;
    std::uint64_t id;
    bool operator>(const Timer& other) const {
      return due != other.due ? due > other.due : id > other.id;
    }
  };
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::unordered_map<std::uint64_t, Task> timer_tasks_;
  std::uint64_t next_timer_id_ = 1;

  std::mutex posted_mutex_;
  std::vector<Task> posted_;
};

}  // namespace mahimahi::net
