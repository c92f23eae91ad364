// The WAL's on-disk layout: the record stream of wal/wal.h, rolled across
// bounded segment files so checkpointing can retire history.
//
// The stream (shared wal_encode_* framing) is split into `seg-<index>.wal`
// files under one directory; concatenating the segments yields exactly the
// records appended, in order:
//
//   * appends go to the highest-index (active) segment; when the active
//     segment exceeds the byte/record budget, it is sealed (flush + optional
//     fsync) and the next index opens — a record never splits across files;
//   * a MANIFEST file names the lowest live segment. It is only rewritten
//     (crash-atomically: tmp + fsync + rename) by retire_segments_below(),
//     BEFORE the retired files are unlinked — a crash mid-retire leaves
//     stale files below the manifest base, which replay ignores and the next
//     retire removes;
//   * replay walks segments base..max in order with one shared scratch
//     buffer. A torn tail is expected only in the LAST segment (crashes tear
//     the active file) and is truncated to the last whole record; a corrupt
//     record in an earlier segment is disk damage — replay stops there and
//     reports it so the caller can fall back to an older checkpoint.
//
// A run without checkpoints never calls roll_segment or
// retire_segments_below: its log is every segment from index 0.
//
// Every flush and fsync result is checked. A failure throws and is never
// retried (after a failed fsync the kernel may already have dropped the
// dirty pages, so a retry can report success for data that is gone), so no
// caller ever acknowledges a record that may not be durable.
//
// Thread safety: all mutating members take an internal mutex. The checkpoint
// writer rolls/retires from the loop thread while the group-commit writer
// thread is appending groups.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "wal/wal.h"

namespace mahimahi {

struct SegmentedWalOptions {
  // Seal the active segment once it holds at least this many bytes. A single
  // oversized record (or group-commit group) still lands whole — segments
  // may exceed the budget by one append.
  std::uint64_t segment_bytes = 4 << 20;
  // Record-count budget tripping a roll before the byte budget (0 = none).
  std::uint64_t segment_records = 0;
  // Upgrade sync() from fflush (durable across a process crash — the page
  // cache survives) to fflush + fsync (durable across a machine crash).
  // fsync costs milliseconds on real disks, which is exactly the latency the
  // group-commit decorator amortizes and moves off the appender's thread.
  bool fsync_on_sync = false;
};

class SegmentedWal : public Wal {
 public:
  // Opens (creating the directory if needed) the segmented log at `dir`.
  // Appends resume on the highest existing segment. Throws on failure,
  // including when `dir` names something other than a directory.
  explicit SegmentedWal(std::string dir, SegmentedWalOptions options = {});
  ~SegmentedWal() override;

  SegmentedWal(const SegmentedWal&) = delete;
  SegmentedWal& operator=(const SegmentedWal&) = delete;

  void append_block(const Block& block, bool own) override;
  // Flushes (and fsyncs, per options) the active segment. A no-op when
  // nothing was appended since the last sync, so a driver may call
  // on_durable several times per appended batch and pay the disk once.
  void sync() override;

  // Lands one group durably: on return the bytes are written and synced
  // (one write + one fsync, after the usual roll check). The group-commit
  // writer flushes through this.
  void append_group_durable(BytesView group);

  // Syscall accounting: kernel entries spent making records durable —
  // sync()'s and each group flush's write (+ fsync). With groups_durable()
  // it backs the syscalls-per-record columns in bench_wal/bench_io_plane.
  std::uint64_t syscalls() const { return syscalls_.load(std::memory_order_relaxed); }
  std::uint64_t groups_durable() const {
    return groups_durable_.load(std::memory_order_relaxed);
  }

  // Seals the active segment and opens the next index (no-op on an empty
  // active segment). The checkpoint writer calls this at the cut: every
  // record of the cut is in a sealed segment, so once the checkpoint file is
  // durable the sealed prefix can retire. Returns the active index after the
  // call — replay of [returned index, ...) plus the checkpoint covers
  // everything.
  std::uint64_t roll_segment();

  // Deletes sealed segments with index < keep_from after atomically
  // rewriting the manifest base. Never touches the active segment
  // (keep_from is clamped to it).
  void retire_segments_below(std::uint64_t keep_from);

  std::uint64_t active_segment() const;
  std::uint64_t base_segment() const;
  std::uint64_t segments_retired() const;

  // Replay visitor: called per intact record in log order.
  using Visitor = std::function<void(BlockPtr block, bool own)>;

  struct ReplayResult {
    std::uint64_t records = 0;
    std::uint64_t segments = 0;   // files visited
    bool corrupt_tail = false;    // torn tail (last segment) or mid-log damage
  };

  // Replays segments manifest-base..max in index order. An absent directory
  // is an empty log. A gap in the index sequence or a corrupt record in a
  // non-final segment stops the replay with corrupt_tail set (the caller
  // falls back to an older checkpoint); a torn tail of the final segment is
  // dropped and, with `truncate_corrupt_tail`, cut off the file so the next
  // append lands on a clean record boundary. Throws when `dir` exists but is
  // not a directory (e.g. a monolithic log from an older binary), and when a
  // non-empty record passes its CRC but does not decode (e.g. a block under
  // an older domain tag): starting from an empty or cut log instead would
  // re-propose rounds and equivocate. A zero-length record is a torn tail.
  static ReplayResult replay(const std::string& dir, const Visitor& visitor,
                             bool truncate_corrupt_tail = true);

  static std::string segment_path(const std::string& dir, std::uint64_t index);
  // Lowest live segment per the manifest; 0 when the manifest is absent or
  // unreadable (replay then starts at the lowest file present).
  static std::uint64_t read_manifest(const std::string& dir);
  // Sorted indexes of the segment files present on disk.
  static std::vector<std::uint64_t> list_segments(const std::string& dir);

 private:
  void open_active_locked(std::uint64_t index);
  void flush_active_locked();
  void seal_active_locked();
  void roll_if_over_budget_locked(std::size_t incoming_bytes);
  void write_locked(BytesView framed);
  void write_manifest_locked(std::uint64_t base);

  const std::string dir_;
  const SegmentedWalOptions options_;

  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;           // the active segment
  std::uint64_t active_index_ = 0;
  std::uint64_t base_index_ = 0;
  std::uint64_t active_bytes_ = 0;      // size of the active segment file
  std::uint64_t active_records_ = 0;    // records appended to it this session
  std::uint64_t segments_retired_ = 0;
  bool dirty_ = false;                  // appended since the last flush
  std::atomic<std::uint64_t> syscalls_{0};
  std::atomic<std::uint64_t> groups_durable_{0};
};

}  // namespace mahimahi
