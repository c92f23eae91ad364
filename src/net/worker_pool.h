// A small fixed-size thread pool for CPU-bound pipeline stages, and the
// single-drain queue (SerialDrain) every NodeRuntime stage feeds it through.
//
// NodeRuntime uses the pool to run frame decoding and batched signature
// verification off the event-loop thread (the paper's tokio runtime pipelines
// the same way): workers consume submitted tasks, and each task posts its
// results back to the owning EventLoop. The pool itself knows nothing about
// blocks — it is a plain task queue.
//
// A pool of zero threads is a caller-runs executor: submit() runs the task on
// the submitting thread before returning. The stages above it run the same
// code either way; only the thread they run on changes.
//
// stop() (also run by the destructor) lets in-flight tasks finish, discards
// tasks still queued, and joins the threads. Tasks submitted after stop()
// are discarded, with or without threads.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mahimahi::obs {
class FlightRecorder;
}

namespace mahimahi::net {

class WorkerPool {
 public:
  using Task = std::function<void()>;

  // log_context, when non-empty, becomes each worker thread's MM_LOG context
  // (see common/log.h) so cluster-test log lines are attributable. With a
  // recorder, each worker labels its flight-recorder ring "worker" at thread
  // start, before it records anything. thread_name, when non-empty, names
  // each worker thread (common/thread_name.h).
  explicit WorkerPool(std::size_t threads, std::string log_context = "",
                      obs::FlightRecorder* recorder = nullptr,
                      std::string thread_name = "");
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Thread-safe. Runs `task` on the caller when the pool has no threads.
  void submit(Task task);

  void stop();

  std::size_t thread_count() const { return threads_.size(); }

 private:
  void worker_main();

  std::string log_context_;
  obs::FlightRecorder* recorder_;
  std::string thread_name_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

// The single-drain pattern (docs/THREADING.md): producers on any thread
// queue items, and at most one drain task per queue runs on the pool at a
// time, taking chunks in enqueue order until the queue is empty. One drain
// at a time is what keeps a stage's output in arrival order — two drains
// racing could post their results to the loop thread inverted.
//
// The drain callback runs without the lock held, so it may itself push into
// the same queue (the running drain picks the items up). A drain task holds
// `this`: stop the pool (joining its threads) before destroying the queue.
template <typename T>
class SerialDrain {
 public:
  using Drain = std::function<void(std::vector<T>)>;
  // Items one pass may take (at least 1), evaluated under the lock before
  // every take; without a callback a pass takes everything queued.
  using ChunkLimit = std::function<std::size_t()>;

  SerialDrain(WorkerPool& pool, Drain drain, ChunkLimit chunk_limit = {})
      : pool_(pool), drain_(std::move(drain)), chunk_limit_(std::move(chunk_limit)) {}

  SerialDrain(const SerialDrain&) = delete;
  SerialDrain& operator=(const SerialDrain&) = delete;

  // Queues `items` and schedules a drain unless one is already running.
  void push(std::vector<T> items) {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.insert(queue_.end(), std::make_move_iterator(items.begin()),
                  std::make_move_iterator(items.end()));
    schedule(lock);
  }

  // Queues one item unless `bound` items are already waiting. Returns false
  // (and queues nothing) when the item was shed.
  bool push_bounded(T item, std::size_t bound) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (queue_.size() >= bound) return false;
    queue_.push_back(std::move(item));
    schedule(lock);
    return true;
  }

 private:
  void schedule(std::unique_lock<std::mutex>& lock) {
    if (scheduled_) return;
    scheduled_ = true;
    lock.unlock();
    pool_.submit([this] { run(); });
  }

  // The one active drain: scheduled_ stays true until the queue is empty.
  void run() {
    for (;;) {
      std::vector<T> chunk;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty()) {
          scheduled_ = false;
          return;
        }
        const std::size_t take =
            chunk_limit_ ? std::min(queue_.size(), chunk_limit_()) : queue_.size();
        // A deque, so a bounded take costs O(chunk) while a deep backlog
        // keeps arriving at the back.
        const auto end = queue_.begin() + static_cast<std::ptrdiff_t>(take);
        chunk.assign(std::make_move_iterator(queue_.begin()), std::make_move_iterator(end));
        queue_.erase(queue_.begin(), end);
      }
      drain_(std::move(chunk));
    }
  }

  WorkerPool& pool_;
  Drain drain_;
  ChunkLimit chunk_limit_;
  std::mutex mutex_;
  std::deque<T> queue_;     // guarded by mutex_
  bool scheduled_ = false;  // guarded by mutex_
};

}  // namespace mahimahi::net
