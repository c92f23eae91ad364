// WAL group flushes over io_uring: one linked write→fsync SQE pair per
// group, so a durable group costs a single io_uring_enter instead of the
// classic write + fsync syscall pair — and the pair is ordered by the kernel
// (the fsync runs only after the write completed in full).
//
// Owned by the GroupCommitWal and driven exclusively from its writer thread
// (one ring per thread — common/uring.h contract); the loop's socket ring is
// a different instance on a different thread. Attached to the inner
// SegmentedWal, which routes append_group_durable through it. The bytes
// on disk are identical to the classic path: an O_APPEND write at offset -1
// appends exactly like the stdio path it replaces.
#pragma once

#include <cstdint>
#include <memory>

#include "common/bytes.h"

namespace mahimahi {

class WalUring {
 public:
  // Compiled in (MAHIMAHI_IOURING) and the kernel probe passed.
  static bool supported();
  // nullptr when unsupported or ring setup fails — callers keep the classic
  // write+fsync path.
  static std::unique_ptr<WalUring> create();
  ~WalUring();

  WalUring(const WalUring&) = delete;
  WalUring& operator=(const WalUring&) = delete;

  // Durably appends `data` to `fd` (an O_APPEND file whose stdio buffer the
  // caller already flushed): blocks until both the write and the linked
  // fsync complete. A short write (which breaks the link and cancels the
  // fsync) is completed via classic write + fsync calls, so on return the
  // group is on disk. A failed write or fsync throws std::runtime_error; a
  // failed fsync is never retried. Returns the syscalls spent on this group
  // (normally 1).
  std::uint64_t append_fsync(int fd, BytesView data);

  std::uint64_t groups() const;    // groups landed through the ring
  std::uint64_t syscalls() const;  // enters + any classic fallback calls

 private:
  WalUring();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mahimahi
