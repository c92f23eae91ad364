// Write-ahead log tailored to the consensus protocol (§4).
//
// Record framing: [u32 payload_len][u32 crc32(payload)][payload], where the
// payload is [u8 type][body]. Recovery scans from the start and stops at the
// first truncated or corrupt record (torn writes at the tail are expected
// after a crash and are discarded).
//
// Logged state is exactly what a validator needs to rejoin safely: every
// block admitted to its DAG (in insertion = causal order) with an own/remote
// marker, so replay rebuilds the DAG and the proposer round without
// re-equivocating. Commits are not logged: replaying the blocks re-derives
// them.
//
// One on-disk layout holds that stream: wal/segmented_wal.h, rolling segment
// files under one directory, with SegmentedWal::replay as the only recovery
// entry point. A run without checkpoints simply never cuts or retires.
//
// Durability model: append_block stages a record; sync() makes everything
// staged durable. Inline implementations (NullWal, MemoryWal, SegmentedWal)
// complete on_durable() synchronously — append, sync, ack, all on the
// caller's thread. wal/group_commit_wal.h adds the off-thread variant:
// appends stage into a buffer, a writer thread flushes groups, and the ack
// arrives later. NodePipeline (validator/pipeline.h), the one driver of a
// validator's log, gates every own-block send on on_durable() (the
// non-equivocation contract) and works with either.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "types/block.h"

namespace mahimahi {

enum class WalRecordType : std::uint8_t {
  kReceivedBlock = 1,
  kOwnBlock = 2,
};

// Record encoding, shared by every WAL writer so that a log is byte-identical
// no matter which of them wrote it (group-commit recovery equivalence rests
// on this). Each helper returns one fully framed record:
// [u32 len][u32 crc][payload].
Bytes wal_frame_record(BytesView payload);
Bytes wal_encode_block_record(const Block& block, bool own);

class Wal {
 public:
  virtual ~Wal() = default;
  virtual void append_block(const Block& block, bool own) = 0;
  virtual void sync() = 0;

  // Runs `done` once every record appended before this call is durable.
  // Inline implementations sync and invoke it before returning — so a driver
  // gating its proposal broadcast on the ack degenerates to the classic
  // append → sync → send sequence, and a NullWal (no persistence, nothing to
  // wait for) can never wedge the proposal path. A group-commit WAL
  // completes the ack from its writer thread after the covering flush. A
  // failed sync throws before `done` runs: a record that may not be on disk
  // is never acknowledged.
  virtual void on_durable(std::function<void()> done) {
    sync();
    done();
  }
};

// No-op WAL for tests and the simulator. on_durable acks synchronously
// (inherited default with a no-op sync): with nothing persisted there is
// nothing to wait for.
class NullWal : public Wal {
 public:
  void append_block(const Block&, bool) override {}
  void sync() override {}
};

// In-memory log: appended blocks land in a store that outlives the Wal, as a
// disk outlives its process (the simulator's crash model without a
// wal_dir; NodePipeline::recover replays it). Appends copy; sync is free.
class MemoryWal : public Wal {
 public:
  using Store = std::vector<BlockPtr>;
  explicit MemoryWal(Store& store) : store_(store) {}
  void append_block(const Block& block, bool) override {
    store_.push_back(std::make_shared<const Block>(block));
  }
  void sync() override {}

 private:
  Store& store_;
};

}  // namespace mahimahi
