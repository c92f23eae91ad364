#include "wal/wal_ring.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <stdexcept>

#include "common/uring.h"

namespace mahimahi {

#if MAHIMAHI_IOURING

struct WalUring::Impl {
  explicit Impl() : ring(8) {}
  MiniUring ring;
  // Read by runtime-stats callers while the writer thread flushes.
  std::atomic<std::uint64_t> groups{0};
  std::atomic<std::uint64_t> syscalls{0};
};

WalUring::WalUring() = default;
WalUring::~WalUring() = default;

bool WalUring::supported() { return uring_runtime_supported(); }

std::unique_ptr<WalUring> WalUring::create() {
  if (!uring_runtime_supported()) return nullptr;
  try {
    std::unique_ptr<WalUring> ring(new WalUring());
    ring->impl_ = std::make_unique<Impl>();
    return ring;
  } catch (const std::exception&) {
    return nullptr;
  }
}

std::uint64_t WalUring::append_fsync(int fd, BytesView data) {
  constexpr std::uint64_t kWriteOp = 1;
  constexpr std::uint64_t kFsyncOp = 2;
  Impl& impl = *impl_;
  const std::uint64_t enters_before = impl.ring.enter_syscalls();

  if (!impl.ring.prep_write(fd, data.data(), static_cast<unsigned>(data.size()),
                            kWriteOp, /*link=*/true) ||
      !impl.ring.prep_fsync(fd, kFsyncOp)) {
    // 8-entry ring with at most 2 in flight: cannot happen, but fail loudly
    // rather than lose a group.
    throw std::runtime_error("WalUring: submission queue unavailable");
  }

  // One enter submits the pair and waits; the loop only iterates when the
  // two completions land in separate reaps.
  std::int64_t write_res = INT64_MIN;
  std::int64_t fsync_res = INT64_MIN;
  unsigned seen = 0;
  while (seen < 2) {
    const int rc = impl.ring.submit(/*wait_for=*/2 - seen);
    if (rc < 0) throw std::runtime_error("WalUring: io_uring_enter failed");
    MiniUring::Cqe cqes[4];
    const std::size_t count = impl.ring.reap(cqes, 4);
    for (std::size_t i = 0; i < count; ++i) {
      if (cqes[i].user_data == kWriteOp) {
        write_res = cqes[i].res;
        ++seen;
      } else if (cqes[i].user_data == kFsyncOp) {
        fsync_res = cqes[i].res;
        ++seen;
      }
    }
  }

  std::uint64_t spent = impl.ring.enter_syscalls() - enters_before;
  const std::size_t len = data.size();
  if (write_res == static_cast<std::int64_t>(len) && fsync_res != 0) {
    // The write landed but the sync failed. Never retry it: the kernel may
    // already have dropped the dirty pages, so a second fsync can succeed
    // for data that is gone.
    impl.syscalls.fetch_add(spent, std::memory_order_relaxed);
    throw std::runtime_error("WalUring: fsync failed");
  }
  if (write_res != static_cast<std::int64_t>(len)) {
    // Short write or write error: the link broke, so the fsync came back
    // -ECANCELED without running. Both completions were observed, so the
    // written prefix is known exactly — finish the remainder classically.
    std::size_t done = write_res > 0 ? static_cast<std::size_t>(write_res) : 0;
    while (done < len) {
      const ssize_t wrote = ::write(fd, data.data() + done, len - done);
      ++spent;
      if (wrote < 0) {
        if (errno == EINTR) continue;
        impl.syscalls.fetch_add(spent, std::memory_order_relaxed);
        throw std::runtime_error("WalUring: write fallback failed");
      }
      done += static_cast<std::size_t>(wrote);
    }
    ++spent;
    if (::fsync(fd) != 0) {
      impl.syscalls.fetch_add(spent, std::memory_order_relaxed);
      throw std::runtime_error("WalUring: fsync fallback failed");
    }
  }
  impl.groups.fetch_add(1, std::memory_order_relaxed);
  impl.syscalls.fetch_add(spent, std::memory_order_relaxed);
  return spent;
}

std::uint64_t WalUring::groups() const {
  return impl_->groups.load(std::memory_order_relaxed);
}

std::uint64_t WalUring::syscalls() const {
  return impl_->syscalls.load(std::memory_order_relaxed);
}

#else  // !MAHIMAHI_IOURING

struct WalUring::Impl {};

WalUring::WalUring() = default;
WalUring::~WalUring() = default;

bool WalUring::supported() { return false; }

std::unique_ptr<WalUring> WalUring::create() { return nullptr; }

std::uint64_t WalUring::append_fsync(int, BytesView) {
  throw std::runtime_error("WalUring compiled out");
}

std::uint64_t WalUring::groups() const { return 0; }

std::uint64_t WalUring::syscalls() const { return 0; }

#endif  // MAHIMAHI_IOURING

}  // namespace mahimahi
