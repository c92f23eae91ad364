#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/log.h"

namespace mahimahi::net {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
  wakeup_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeup_fd_ < 0) throw std::runtime_error("eventfd failed");
  add_fd(wakeup_fd_, EPOLLIN, [this](std::uint32_t) {
    std::uint64_t value;
    while (::read(wakeup_fd_, &value, sizeof(value)) > 0) {
    }
  });
}

EventLoop::~EventLoop() {
  {
    // Destroy registered callbacks while the loop is still alive and the
    // member map is already empty: a closure may hold the last shared_ptr
    // to a TcpConnection whose destructor re-enters remove_fd(). With the
    // swap, that re-entrant call sees an empty map and is a no-op instead
    // of mutating a hashtable that is mid-teardown.
    std::unordered_map<int, FdCallback> doomed;
    doomed.swap(fd_callbacks_);
  }
  if (wakeup_fd_ >= 0) ::close(wakeup_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::add_fd(int fd, std::uint32_t events, FdCallback callback) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
    throw std::runtime_error("epoll_ctl ADD failed");
  }
  fd_callbacks_[fd] = std::move(callback);
}

void EventLoop::modify_fd(int fd, std::uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) != 0) {
    MM_LOG(kWarn) << "epoll_ctl MOD failed for fd " << fd;
  }
}

void EventLoop::remove_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  const auto it = fd_callbacks_.find(fd);
  if (it == fd_callbacks_.end()) return;
  // Defer the closure's destruction until after the erase: it may hold the
  // last shared_ptr to a TcpConnection whose destructor calls remove_fd()
  // again (which must then find a consistent map and no entry for `fd`).
  FdCallback doomed = std::move(it->second);
  fd_callbacks_.erase(it);
}

std::uint64_t EventLoop::schedule(TimeMicros delay, Task task) {
  const std::uint64_t id = next_timer_id_++;
  timers_.push(Timer{steady_now_micros() + delay, id});
  timer_tasks_.emplace(id, std::move(task));
  return id;
}

void EventLoop::cancel_timer(std::uint64_t id) { timer_tasks_.erase(id); }

void EventLoop::post(Task task) {
  {
    std::lock_guard<std::mutex> lock(posted_mutex_);
    posted_.push_back(std::move(task));
  }
  if (in_loop_thread()) return;  // drained before the loop blocks again
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto written = ::write(wakeup_fd_, &one, sizeof(one));
}

bool EventLoop::in_loop_thread() const {
  return loop_thread_id_.load(std::memory_order_relaxed) == std::this_thread::get_id();
}

void EventLoop::drain_posted() {
  // Until empty: tasks posted by the tasks being run (loop-thread posts skip
  // the wakeup write) must not wait for the next epoll_wait.
  std::vector<Task> tasks;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(posted_mutex_);
      if (posted_.empty()) return;
      tasks.swap(posted_);
    }
    for (auto& task : tasks) task();
    tasks.clear();
  }
}

void EventLoop::fire_due_timers() {
  const TimeMicros now = steady_now_micros();
  while (!timers_.empty() && timers_.top().due <= now) {
    const std::uint64_t id = timers_.top().id;
    timers_.pop();
    const auto it = timer_tasks_.find(id);
    if (it == timer_tasks_.end()) continue;  // cancelled
    Task task = std::move(it->second);
    timer_tasks_.erase(it);
    task();
  }
}

TimeMicros EventLoop::next_timeout_micros() const {
  const TimeMicros kMaxWait = millis(100);
  if (timers_.empty()) return kMaxWait;
  return std::clamp<TimeMicros>(timers_.top().due - steady_now_micros(), 0, kMaxWait);
}

int EventLoop::wait(epoll_event* events, int capacity) {
  const TimeMicros timeout = next_timeout_micros();
  if (precise_wait_) {
    const timespec spec{static_cast<time_t>(timeout / 1'000'000),
                        static_cast<long>(timeout % 1'000'000) * 1000};
    const int count = ::epoll_pwait2(epoll_fd_, events, capacity, &spec, nullptr);
    if (count >= 0 || errno != ENOSYS) return count;
    precise_wait_ = false;  // a pre-5.11 kernel: whole milliseconds, rounded up
  }
  return ::epoll_wait(epoll_fd_, events, capacity, static_cast<int>((timeout + 999) / 1000));
}

void EventLoop::run() {
  running_.store(true);
  stop_requested_.store(false);
  loop_thread_id_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  // Timers here are due at the microsecond; the default timer slack would
  // let the kernel defer each timed wait by up to 50 µs.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  epoll_event events[64];
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    const int count = wait(events, 64);
    wait_syscalls_.fetch_add(1, std::memory_order_relaxed);
    if (count < 0 && errno != EINTR) {
      MM_LOG(kError) << "epoll wait failed: " << std::strerror(errno);
      break;
    }
    const TimeMicros busy_start = steady_now_micros();
    for (int i = 0; i < count; ++i) {
      const int fd = events[i].data.fd;
      const auto it = fd_callbacks_.find(fd);
      if (it == fd_callbacks_.end()) continue;
      // Copy: the callback may remove (and erase) itself.
      FdCallback callback = it->second;
      callback(events[i].events);
    }
    fire_due_timers();
    drain_posted();
    const TimeMicros busy_end = steady_now_micros();
    busy_micros_.fetch_add(busy_end - busy_start, std::memory_order_relaxed);
    if (tick_observer_) tick_observer_(busy_end - busy_start, busy_end);
  }
  loop_thread_id_.store(std::thread::id{}, std::memory_order_relaxed);
  running_.store(false);
}

void EventLoop::stop() {
  stop_requested_.store(true);
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto written = ::write(wakeup_fd_, &one, sizeof(one));
}

}  // namespace mahimahi::net
