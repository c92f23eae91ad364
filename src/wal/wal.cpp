#include "wal/wal.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "common/crc32.h"
#include "common/log.h"
#include "serde/serde.h"
#include "wal/wal_ring.h"

namespace mahimahi {

namespace {

// Fills in the [u32 len][u32 crc] header of a record whose payload already
// follows it in `record`.
void seal_record(Bytes& record) {
  const BytesView payload{record.data() + 8, record.size() - 8};
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload);
  std::memcpy(record.data(), &len, 4);
  std::memcpy(record.data() + 4, &crc, 4);
}

}  // namespace

Bytes wal_frame_record(BytesView payload) {
  Bytes framed(8 + payload.size());
  std::memcpy(framed.data() + 8, payload.data(), payload.size());
  seal_record(framed);
  return framed;
}

Bytes wal_encode_block_record(const Block& block, bool own) {
  // One exact-size pass: header space, record type, then the block encoded
  // straight into the record.
  const std::size_t block_size = block.encoded_size();
  serde::Writer w(8 + 1 + serde::varint_size(block_size) + block_size);
  w.u64(0);  // [u32 len][u32 crc], sealed below
  w.u8(static_cast<std::uint8_t>(own ? WalRecordType::kOwnBlock
                                     : WalRecordType::kReceivedBlock));
  w.varint(block_size);
  block.serialize_into(w);
  Bytes record = std::move(w).take();
  seal_record(record);
  return record;
}

Bytes wal_encode_commit_record(SlotId slot) {
  serde::Writer w;
  w.u8(static_cast<std::uint8_t>(WalRecordType::kCommittedSlot));
  w.varint(slot.round);
  w.u32(slot.leader_offset);
  return wal_frame_record({w.data().data(), w.data().size()});
}

FileWal::FileWal(std::string path, bool fsync_on_sync)
    : path_(std::move(path)), fsync_on_sync_(fsync_on_sync) {
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) throw std::runtime_error("FileWal: cannot open " + path_);
}

FileWal::~FileWal() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

void FileWal::append_framed(BytesView framed) {
  if (std::fwrite(framed.data(), 1, framed.size(), file_) != framed.size()) {
    throw std::runtime_error("FileWal: short write to " + path_);
  }
  bytes_written_ += framed.size();
}

void FileWal::append_block(const Block& block, bool own) {
  const Bytes framed = wal_encode_block_record(block, own);
  append_framed({framed.data(), framed.size()});
}

void FileWal::append_commit(SlotId slot) {
  const Bytes framed = wal_encode_commit_record(slot);
  append_framed({framed.data(), framed.size()});
}

void FileWal::sync() {
  std::fflush(file_);
  if (fsync_on_sync_) ::fsync(::fileno(file_));
  sync_syscalls_.fetch_add(fsync_on_sync_ ? 2 : 1, std::memory_order_relaxed);
}

bool FileWal::wal_ring_active() const { return ring_ != nullptr && fsync_on_sync_; }

void FileWal::append_group_durable(BytesView group) {
  groups_durable_.fetch_add(1, std::memory_order_relaxed);
  if (wal_ring_active()) {
    // Any stdio-buffered bytes must hit the fd before the ring write lands
    // behind them (O_APPEND orders the two at the kernel). In steady state
    // the stdio buffer is empty and this flush is free.
    std::fflush(file_);
    const std::uint64_t spent = ring_->append_fsync(::fileno(file_), group);
    group_flush_syscalls_.fetch_add(spent, std::memory_order_relaxed);
    bytes_written_ += group.size();
    return;
  }
  append_framed(group);
  sync();
  // fflush issues the write; fsync is the second entry when enabled.
  group_flush_syscalls_.fetch_add(fsync_on_sync_ ? 2 : 1, std::memory_order_relaxed);
}

FileWal::ReplayResult FileWal::replay(const std::string& path, const Visitor& visitor,
                                      bool truncate_corrupt_tail) {
  Bytes scratch;
  return replay_with_scratch(path, visitor, truncate_corrupt_tail, scratch);
}

FileWal::ReplayResult FileWal::replay_with_scratch(const std::string& path,
                                                   const Visitor& visitor,
                                                   bool truncate_corrupt_tail,
                                                   Bytes& scratch) {
  ReplayResult result;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return result;  // absent log = empty log

  Bytes& payload = scratch;
  for (;;) {
    std::uint8_t header[8];
    const std::size_t header_read = std::fread(header, 1, 8, file);
    if (header_read != 8) {
      // 0 bytes = clean EOF. A partial header is a torn tail like any other:
      // it must be flagged (and truncated) or the next append would land
      // after the garbage and orphan everything behind it.
      if (header_read != 0) result.corrupt_tail = true;
      break;
    }
    std::uint32_t len, crc;
    std::memcpy(&len, header, 4);
    std::memcpy(&crc, header + 4, 4);
    if (len > 64 * 1024 * 1024) {  // corrupt length field
      result.corrupt_tail = true;
      break;
    }
    payload.resize(len);
    if (std::fread(payload.data(), 1, len, file) != len) {
      result.corrupt_tail = true;  // torn record
      break;
    }
    if (crc32({payload.data(), payload.size()}) != crc) {
      result.corrupt_tail = true;
      break;
    }

    try {
      serde::Reader r({payload.data(), payload.size()});
      const auto type = static_cast<WalRecordType>(r.u8());
      switch (type) {
        case WalRecordType::kOwnBlock:
        case WalRecordType::kReceivedBlock: {
          // Decode straight out of the scratch buffer: copying the
          // length-prefixed block bytes into their own heap allocation per
          // record made long replays allocation-bound.
          const std::uint64_t encoded_len = r.varint();
          if (encoded_len > r.remaining()) {
            throw serde::SerdeError("block record length exceeds payload");
          }
          const BytesView encoded = r.raw(static_cast<std::size_t>(encoded_len));
          auto block = std::make_shared<const Block>(Block::deserialize(encoded));
          if (visitor.on_block) {
            visitor.on_block(std::move(block), type == WalRecordType::kOwnBlock);
          }
          break;
        }
        case WalRecordType::kCommittedSlot: {
          SlotId slot;
          slot.round = r.varint();
          slot.leader_offset = r.u32();
          if (visitor.on_commit) visitor.on_commit(slot);
          break;
        }
        default:
          throw serde::SerdeError("unknown WAL record type");
      }
    } catch (const serde::SerdeError&) {
      result.corrupt_tail = true;
      break;
    }
    ++result.records;
    result.valid_bytes += 8 + len;
  }
  std::fclose(file);

  if (result.corrupt_tail && truncate_corrupt_tail) {
    std::error_code ec;
    std::filesystem::resize_file(path, result.valid_bytes, ec);
    if (ec) {
      MM_LOG(kWarn) << "WAL truncation failed for " << path << ": " << ec.message();
    }
  }
  return result;
}

}  // namespace mahimahi
