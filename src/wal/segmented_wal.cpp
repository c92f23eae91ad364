#include "wal/segmented_wal.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "common/crc32.h"
#include "common/fsio.h"
#include "common/log.h"
#include "serde/serde.h"

namespace mahimahi {

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr std::uint32_t kManifestMagic = 0x4d4d5347;  // "MMSG"

// Throws when `dir` exists but is not a directory: most likely a monolithic
// log written by an older binary. Treating it as an empty log would make the
// validator forget its own proposals and equivocate.
void require_directory_or_absent(const std::string& dir) {
  std::error_code ec;
  const auto status = std::filesystem::status(dir, ec);
  if (std::filesystem::exists(status) && !std::filesystem::is_directory(status)) {
    throw std::runtime_error("SegmentedWal: " + dir +
                             " is not a directory (a monolithic log from an older "
                             "binary? it cannot be replayed)");
  }
}

[[noreturn]] void throw_io_error(const char* op, const std::string& path) {
  throw std::runtime_error(std::string("SegmentedWal: ") + op + " failed on " + path +
                           ": " + std::strerror(errno));
}

struct SegmentScan {
  std::uint64_t records = 0;
  std::uint64_t valid_bytes = 0;  // prefix that parsed cleanly
  bool corrupt_tail = false;      // a torn/corrupt record was discarded
};

// Feeds the intact records of one segment file to the visitor. The payload
// buffer is shared across every segment of a replay, so replay pays no
// per-record heap allocation once it warmed up to the largest record.
SegmentScan scan_segment(const std::string& path, const SegmentedWal::Visitor& visitor,
                         bool truncate_corrupt_tail, Bytes& payload) {
  SegmentScan result;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return result;

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
    // Every record a writer appends has at least its type byte, so a zero
    // length is a torn tail too: after a crash some filesystems leave the
    // grown end of the file zero-filled, and eight zero bytes would otherwise
    // pass as an empty record (crc32 of no bytes is 0).
    if (len == 0 || len > 64 * 1024 * 1024) {  // torn or corrupt length field
      result.corrupt_tail = true;
      break;
    }
    payload.resize(len);
    if (std::fread(payload.data(), 1, len, file) != len ||
        crc32({payload.data(), payload.size()}) != crc) {
      result.corrupt_tail = true;  // torn or damaged record
      break;
    }

    // The CRC matched over a non-empty payload, so these are the bytes a
    // writer wrote: a record that does not decode comes from another binary
    // (an older block domain tag, an unknown record type), never from a
    // crash. Cutting it off as a torn tail would drop the validator's own
    // blocks and let it sign a second block for a round it already
    // broadcast, so replay refuses the log.
    BlockPtr block;
    WalRecordType type;
    try {
      serde::Reader r({payload.data(), payload.size()});
      type = static_cast<WalRecordType>(r.u8());
      if (type != WalRecordType::kOwnBlock && type != WalRecordType::kReceivedBlock) {
        throw serde::SerdeError("unknown WAL record type");
      }
      // Decode straight out of the scratch buffer: copying the
      // length-prefixed block bytes into their own heap allocation per
      // record made long replays allocation-bound.
      const std::uint64_t encoded_len = r.varint();
      if (encoded_len > r.remaining()) {
        throw serde::SerdeError("block record length exceeds payload");
      }
      const BytesView encoded = r.raw(static_cast<std::size_t>(encoded_len));
      block = std::make_shared<const Block>(Block::deserialize(encoded));
    } catch (const serde::SerdeError& error) {
      std::fclose(file);
      throw std::runtime_error("SegmentedWal: record " + std::to_string(result.records) +
                               " of " + path + " passes its CRC but does not decode (" +
                               error.what() + "): a log from another binary cannot be replayed");
    }
    if (visitor) visitor(std::move(block), type == WalRecordType::kOwnBlock);
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

}  // namespace

std::string SegmentedWal::segment_path(const std::string& dir, std::uint64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08" PRIu64 ".wal", index);
  return (std::filesystem::path(dir) / name).string();
}

std::uint64_t SegmentedWal::read_manifest(const std::string& dir) {
  const auto path = std::filesystem::path(dir) / kManifestName;
  std::FILE* file = std::fopen(path.string().c_str(), "rb");
  if (file == nullptr) return 0;
  std::uint8_t buffer[64];
  const std::size_t n = std::fread(buffer, 1, sizeof(buffer), file);
  std::fclose(file);
  try {
    serde::Reader r({buffer, n});
    if (r.u32() != kManifestMagic) return 0;
    return r.varint();
  } catch (const serde::SerdeError&) {
    return 0;  // a torn manifest rewrite: fall back to "everything is live"
  }
}

std::vector<std::uint64_t> SegmentedWal::list_segments(const std::string& dir) {
  std::vector<std::uint64_t> indexes;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const auto index = parse_indexed_name(entry.path().filename().string(), "seg-",
                                          ".wal", /*pad_width=*/8);
    if (index.has_value()) indexes.push_back(*index);
  }
  std::sort(indexes.begin(), indexes.end());
  return indexes;
}

SegmentedWal::SegmentedWal(std::string dir, SegmentedWalOptions options)
    : dir_(std::move(dir)), options_(options) {
  require_directory_or_absent(dir_);
  std::filesystem::create_directories(dir_);
  std::lock_guard<std::mutex> lock(mutex_);
  base_index_ = read_manifest(dir_);
  const auto existing = list_segments(dir_);
  std::uint64_t active = base_index_;
  for (const std::uint64_t index : existing) active = std::max(active, index);
  open_active_locked(active);
}

SegmentedWal::~SegmentedWal() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

void SegmentedWal::open_active_locked(std::uint64_t index) {
  const std::string path = segment_path(dir_, index);
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) throw std::runtime_error("SegmentedWal: cannot open " + path);
  active_index_ = index;
  active_records_ = 0;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  active_bytes_ = ec ? 0 : size;
}

void SegmentedWal::flush_active_locked() {
  if (std::fflush(file_) != 0) throw_io_error("flush", segment_path(dir_, active_index_));
  if (options_.fsync_on_sync && ::fsync(::fileno(file_)) != 0) {
    throw_io_error("fsync", segment_path(dir_, active_index_));
  }
  dirty_ = false;
}

void SegmentedWal::seal_active_locked() {
  flush_active_locked();
  std::FILE* sealed = file_;
  file_ = nullptr;
  if (std::fclose(sealed) != 0) throw_io_error("close", segment_path(dir_, active_index_));
}

void SegmentedWal::roll_if_over_budget_locked(std::size_t incoming_bytes) {
  if (active_bytes_ == 0) return;  // never roll an empty segment
  const bool over_bytes = active_bytes_ + incoming_bytes > options_.segment_bytes;
  const bool over_records =
      options_.segment_records > 0 && active_records_ >= options_.segment_records;
  if (!over_bytes && !over_records) return;
  seal_active_locked();
  open_active_locked(active_index_ + 1);
}

void SegmentedWal::write_locked(BytesView framed) {
  roll_if_over_budget_locked(framed.size());
  if (std::fwrite(framed.data(), 1, framed.size(), file_) != framed.size()) {
    throw std::runtime_error("SegmentedWal: short write to " +
                             segment_path(dir_, active_index_));
  }
  dirty_ = true;
  active_bytes_ += framed.size();
  ++active_records_;
}

void SegmentedWal::append_block(const Block& block, bool own) {
  const Bytes framed = wal_encode_block_record(block, own);
  std::lock_guard<std::mutex> lock(mutex_);
  write_locked({framed.data(), framed.size()});
}

void SegmentedWal::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!dirty_) return;
  flush_active_locked();
  // fflush issues the write; fsync is the second entry when enabled.
  syscalls_.fetch_add(options_.fsync_on_sync ? 2 : 1, std::memory_order_relaxed);
}

void SegmentedWal::append_group_durable(BytesView group) {
  // Held across the I/O, like sync(): the checkpoint writer must not roll or
  // retire segments under a landing group.
  std::lock_guard<std::mutex> lock(mutex_);
  groups_durable_.fetch_add(1, std::memory_order_relaxed);
  write_locked(group);
  flush_active_locked();
  syscalls_.fetch_add(options_.fsync_on_sync ? 2 : 1, std::memory_order_relaxed);
}

std::uint64_t SegmentedWal::roll_segment() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_bytes_ > 0) {
    seal_active_locked();
    open_active_locked(active_index_ + 1);
  }
  return active_index_;
}

void SegmentedWal::retire_segments_below(std::uint64_t keep_from) {
  std::lock_guard<std::mutex> lock(mutex_);
  keep_from = std::min(keep_from, active_index_);
  if (keep_from <= base_index_) return;
  // Manifest first: once it is durable, replay never looks below keep_from,
  // so a crash between here and the unlinks only strands dead files.
  write_manifest_locked(keep_from);
  bool removed_any = false;
  for (std::uint64_t index = base_index_; index < keep_from; ++index) {
    std::error_code ec;
    if (std::filesystem::remove(segment_path(dir_, index), ec)) {
      ++segments_retired_;
      removed_any = true;
    }
    if (ec) {
      MM_LOG(kWarn) << "SegmentedWal: failed to retire segment " << index << ": "
                    << ec.message();
    }
  }
  // Persist the unlinks too (the manifest rename above is already durable):
  // a resurrected dead segment would be harmless to replay, but repeatedly
  // losing the removals would defeat the disk-bound the retirement exists
  // for.
  if (removed_any) fsync_dir(dir_);
  base_index_ = keep_from;
}

void SegmentedWal::write_manifest_locked(std::uint64_t base) {
  serde::Writer w;
  w.u32(kManifestMagic);
  w.varint(base);
  // The shared helper fsyncs file AND directory: the manifest must be
  // durably in place before any segment it retires is unlinked.
  write_file_atomic((std::filesystem::path(dir_) / kManifestName).string(),
                    {w.data().data(), w.data().size()}, "SegmentedWal");
}

std::uint64_t SegmentedWal::active_segment() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_index_;
}

std::uint64_t SegmentedWal::base_segment() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return base_index_;
}

std::uint64_t SegmentedWal::segments_retired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_retired_;
}

SegmentedWal::ReplayResult SegmentedWal::replay(const std::string& dir,
                                                const Visitor& visitor,
                                                bool truncate_corrupt_tail) {
  require_directory_or_absent(dir);
  ReplayResult result;
  const std::uint64_t base = read_manifest(dir);
  std::vector<std::uint64_t> indexes = list_segments(dir);
  std::erase_if(indexes, [base](std::uint64_t index) { return index < base; });
  if (indexes.empty()) return result;

  Bytes scratch;  // shared across segments: one warm buffer for the whole log
  std::uint64_t expected = indexes.front();
  for (std::size_t i = 0; i < indexes.size(); ++i, ++expected) {
    if (indexes[i] != expected) {
      // A hole in the sequence: everything past it is unreachable history
      // (mid-log damage, not a crash artifact — crashes only tear the tail).
      MM_LOG(kWarn) << "SegmentedWal: segment " << expected << " missing in " << dir;
      result.corrupt_tail = true;
      return result;
    }
    const bool last = i + 1 == indexes.size();
    const SegmentScan scan =
        scan_segment(segment_path(dir, indexes[i]), visitor,
                     /*truncate_corrupt_tail=*/last && truncate_corrupt_tail, scratch);
    result.records += scan.records;
    ++result.segments;
    if (scan.corrupt_tail) {
      result.corrupt_tail = true;
      if (!last) {
        MM_LOG(kWarn) << "SegmentedWal: corrupt record mid-log in segment "
                      << indexes[i] << " of " << dir;
        return result;  // do not replay past the damage
      }
    }
  }
  return result;
}

}  // namespace mahimahi
