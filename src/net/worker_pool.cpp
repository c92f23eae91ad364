#include "net/worker_pool.h"

#include "common/log.h"
#include "common/thread_name.h"
#include "obs/flight_recorder.h"

namespace mahimahi::net {

WorkerPool::WorkerPool(std::size_t threads, std::string log_context,
                       obs::FlightRecorder* recorder, std::string thread_name)
    : log_context_(std::move(log_context)),
      recorder_(recorder),
      thread_name_(std::move(thread_name)) {
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_main(); });
  }
}

WorkerPool::~WorkerPool() { stop(); }

void WorkerPool::submit(Task task) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) return;
  if (threads_.empty()) {
    lock.unlock();
    task();  // caller-runs: the zero-worker pool
    return;
  }
  queue_.push_back(std::move(task));
  lock.unlock();
  wake_.notify_one();
}

void WorkerPool::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    queue_.clear();
  }
  wake_.notify_all();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

void WorkerPool::worker_main() {
  if (!thread_name_.empty()) set_thread_name(thread_name_.c_str());
  if (!log_context_.empty()) set_log_context(log_context_);
  if (recorder_ != nullptr) recorder_->label_thread("worker");
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace mahimahi::net
