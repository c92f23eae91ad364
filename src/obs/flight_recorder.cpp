#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "common/log.h"

namespace mahimahi::obs {

namespace {

// Dump file layout (all integers little-endian):
//   "MMFR" u32-version
//   u32 ring_count
//   per ring: u32 ring_index, u64 thread_tag, char label[16], u32 count,
//             count * { u64 time, u64 type, u64 a, u64 b }
constexpr char kMagic[4] = {'M', 'M', 'F', 'R'};
constexpr std::uint32_t kVersion = 1;

// Small per-thread cache of (recorder -> ring) so a thread recording into a
// handful of recorders (co-located validators in one process) stays off the
// registration mutex. Ring pointers outlive the recorder's last record call,
// but a destroyed recorder's address can be reused — entries are invalidated
// by the recorder's destructor.
struct TlsEntry {
  const void* owner = nullptr;
  void* ring = nullptr;
};
thread_local std::array<TlsEntry, 4> tls_rings{};
thread_local std::size_t tls_next = 0;

std::uint64_t this_thread_tag() {
  return static_cast<std::uint64_t>(::gettid());
}

void append_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

// --- crash-handler state (process-global, signal-safe) -----------------------

std::atomic<FlightRecorder*> g_crash_recorder{nullptr};
char g_crash_dir[256] = ".";

// Appends the decimal rendering of v to buf at pos (no snprintf: the crash
// path must stay async-signal-safe).
void append_decimal(char* buf, std::size_t& pos, std::size_t cap, std::uint64_t v) {
  char digits[20];
  std::size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0 && pos + 1 < cap) buf[pos++] = digits[--n];
}

void crash_handler(int signo) {
  FlightRecorder* recorder = g_crash_recorder.load(std::memory_order_acquire);
  if (recorder != nullptr) {
    char path[320];
    std::size_t pos = 0;
    const char* dir = g_crash_dir;
    while (*dir != '\0' && pos + 1 < sizeof(path)) path[pos++] = *dir++;
    const char prefix[] = "/flightrec-crash-";
    for (const char* p = prefix; *p != '\0' && pos + 1 < sizeof(path); ++p) path[pos++] = *p;
    append_decimal(path, pos, sizeof(path), static_cast<std::uint64_t>(::getpid()));
    const char suffix[] = ".bin";
    for (const char* p = suffix; *p != '\0' && pos + 1 < sizeof(path); ++p) path[pos++] = *p;
    path[pos] = '\0';
    const int fd = ::open(path, O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd >= 0) {
      recorder->write_to_fd(fd);
      ::close(fd);
    }
  }
  // SA_RESETHAND restored the default disposition; re-raise so the process
  // still dies with the original signal (core dumps and exit codes intact).
  ::raise(signo);
}

// Writes all of `size` bytes, retrying short writes. Signal-safe.
int write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n <= 0) return -1;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return 0;
}

}  // namespace

std::string_view flight_event_name(FlightEventType type) {
  switch (type) {
    case FlightEventType::kNone: return "none";
    case FlightEventType::kFrameRx: return "frame_rx";
    case FlightEventType::kFrameTx: return "frame_tx";
    case FlightEventType::kBlockAdmit: return "block_admit";
    case FlightEventType::kBlockInsert: return "block_insert";
    case FlightEventType::kCommit: return "commit";
    case FlightEventType::kWalFlush: return "wal_flush";
    case FlightEventType::kCheckpointCut: return "checkpoint_cut";
    case FlightEventType::kStall: return "stall";
    case FlightEventType::kSnapshot: return "snapshot";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(Options options)
    : capacity_(std::bit_ceil(std::max<std::size_t>(options.ring_capacity, 8))),
      mask_(capacity_ - 1) {}

FlightRecorder::~FlightRecorder() {
  if (g_crash_recorder.load(std::memory_order_relaxed) == this) {
    g_crash_recorder.store(nullptr, std::memory_order_release);
  }
  // Drop any TLS cache entries pointing at this recorder on the destroying
  // thread. Other threads' stale entries are harmless as long as callers
  // stop recording before destruction (the runtime joins its threads first);
  // the owner-pointer check alone cannot save a use-after-free, this just
  // keeps the common single-threaded test pattern clean across recorders.
  for (TlsEntry& entry : tls_rings) {
    if (entry.owner == this) entry = TlsEntry{};
  }
}

void FlightRecorder::record(FlightEventType type, TimeMicros at, std::uint64_t a,
                            std::uint64_t b) {
  Ring& ring = ring_for_this_thread();
  const std::uint64_t seq = ring.head.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring.slots[seq & mask_];
  slot.time.store(static_cast<std::uint64_t>(at), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  // Publish last: a reader that acquires a tag matching its expected
  // sequence observes the payload stores above.
  slot.tag.store((seq << 8) | static_cast<std::uint64_t>(type), std::memory_order_release);
}

void FlightRecorder::record_now(FlightEventType type, std::uint64_t a, std::uint64_t b) {
  record(type, steady_now_micros(), a, b);
}

void FlightRecorder::label_thread(std::string_view label) {
  for (const TlsEntry& entry : tls_rings) {
    if (entry.owner == this) return;  // already registered: labels are immutable
  }
  register_thread(label);
}

FlightRecorder::Ring& FlightRecorder::ring_for_this_thread() {
  for (const TlsEntry& entry : tls_rings) {
    if (entry.owner == this) return *static_cast<Ring*>(entry.ring);
  }
  return *register_thread();
}

FlightRecorder::Ring* FlightRecorder::register_thread(std::string_view label) {
  const std::uint64_t tag = this_thread_tag();
  Ring* ring = nullptr;
  {
    std::lock_guard<std::mutex> lock(register_mutex_);
    auto it = ring_by_thread_.find(tag);
    if (it != ring_by_thread_.end()) {
      ring = it->second;
    } else {
      const std::size_t count = ring_count_.load(std::memory_order_relaxed);
      if (count < kMaxRings) {
        rings_[count] = std::make_unique<Ring>(capacity_);
        ring = rings_[count].get();
        ring->thread_tag = tag;
        // An unlabelled thread's view may have a null data(), which memcpy
        // must never see, even with n == 0.
        const std::size_t n = std::min(label.size(), ring->label.size() - 1);
        if (n > 0) std::memcpy(ring->label.data(), label.data(), n);
        // Publish after the ring is fully constructed, label included:
        // snapshot() and the signal handler iterate [0, ring_count) against
        // this release.
        ring_count_.store(count + 1, std::memory_order_release);
      } else {
        // Past the cap, threads share rings round-robin; fetch_add heads
        // keep multi-writer rings correct, events just interleave.
        ring = rings_[tag % kMaxRings].get();
      }
      ring_by_thread_[tag] = ring;
    }
  }
  // Rotate into the TLS cache (evicts the oldest of 4 entries).
  tls_rings[tls_next % tls_rings.size()] = TlsEntry{this, ring};
  ++tls_next;
  return ring;
}

void FlightRecorder::append_ring_events(const Ring& ring, std::uint32_t index,
                                        std::vector<FlightEvent>& out) const {
  const std::uint64_t head = ring.head.load(std::memory_order_acquire);
  const std::uint64_t start = head > capacity_ ? head - capacity_ : 0;
  const std::string label(ring.label.data());
  for (std::uint64_t seq = start; seq < head; ++seq) {
    const Slot& slot = ring.slots[seq & mask_];
    const std::uint64_t tag = slot.tag.load(std::memory_order_acquire);
    // A mismatched sequence means the slot is mid-overwrite (or was lapped
    // between the head load and here): drop it rather than misreport.
    if ((tag >> 8) != seq) continue;
    FlightEvent event;
    event.at = static_cast<TimeMicros>(slot.time.load(std::memory_order_relaxed));
    event.type = static_cast<FlightEventType>(tag & 0xff);
    event.a = slot.a.load(std::memory_order_relaxed);
    event.b = slot.b.load(std::memory_order_relaxed);
    event.ring = index;
    event.thread_tag = ring.thread_tag;
    event.label = label;
    out.push_back(std::move(event));
  }
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  const std::size_t count = ring_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < count; ++i) append_ring_events(*rings_[i], i, out);
  // Chronological merge; stable so same-stamp events keep per-ring order.
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& x, const FlightEvent& y) { return x.at < y.at; });
  return out;
}

Bytes FlightRecorder::snapshot_binary() const {
  Bytes out;
  out.insert(out.end(), kMagic, kMagic + 4);
  append_u32(out, kVersion);
  const std::size_t count = ring_count_.load(std::memory_order_acquire);
  append_u32(out, static_cast<std::uint32_t>(count));
  std::vector<FlightEvent> events;
  for (std::size_t i = 0; i < count; ++i) {
    events.clear();
    append_ring_events(*rings_[i], static_cast<std::uint32_t>(i), events);
    append_u32(out, static_cast<std::uint32_t>(i));
    append_u64(out, rings_[i]->thread_tag);
    out.insert(out.end(), rings_[i]->label.begin(), rings_[i]->label.end());
    append_u32(out, static_cast<std::uint32_t>(events.size()));
    for (const FlightEvent& event : events) {
      append_u64(out, static_cast<std::uint64_t>(event.at));
      append_u64(out, static_cast<std::uint64_t>(event.type));
      append_u64(out, event.a);
      append_u64(out, event.b);
    }
  }
  return out;
}

bool FlightRecorder::dump_to_file(const std::string& path) const {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    MM_LOG(kWarn) << "flight recorder: cannot open dump file " << path;
    return false;
  }
  const int rc = write_to_fd(fd);
  ::close(fd);
  if (rc != 0) MM_LOG(kWarn) << "flight recorder: short write to " << path;
  return rc == 0;
}

int FlightRecorder::write_to_fd(int fd) const {
  // Stack-only serialization in ring-sized chunks: this runs inside fatal
  // signal handlers, so no allocation and no locks.
  unsigned char header[12];
  std::memcpy(header, kMagic, 4);
  for (int i = 0; i < 4; ++i) header[4 + i] = static_cast<unsigned char>(kVersion >> (8 * i));
  const std::size_t count = ring_count_.load(std::memory_order_acquire);
  for (int i = 0; i < 4; ++i) header[8 + i] = static_cast<unsigned char>(count >> (8 * i));
  if (write_all(fd, header, sizeof(header)) != 0) return -1;

  for (std::size_t r = 0; r < count; ++r) {
    const Ring& ring = *rings_[r];
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    const std::uint64_t start = head > capacity_ ? head - capacity_ : 0;
    // First pass counts survivors so the ring header is exact; the window
    // between passes can drop a survivor (lapped meanwhile) — pad with
    // kNone events rather than lie about the count.
    std::uint32_t survivors = 0;
    for (std::uint64_t seq = start; seq < head; ++seq) {
      if ((ring.slots[seq & mask_].tag.load(std::memory_order_acquire) >> 8) == seq) ++survivors;
    }
    unsigned char ring_header[4 + 8 + 16 + 4];
    std::size_t pos = 0;
    for (int i = 0; i < 4; ++i) ring_header[pos++] = static_cast<unsigned char>(r >> (8 * i));
    for (int i = 0; i < 8; ++i)
      ring_header[pos++] = static_cast<unsigned char>(ring.thread_tag >> (8 * i));
    std::memcpy(ring_header + pos, ring.label.data(), 16);
    pos += 16;
    for (int i = 0; i < 4; ++i)
      ring_header[pos++] = static_cast<unsigned char>(survivors >> (8 * i));
    if (write_all(fd, ring_header, sizeof(ring_header)) != 0) return -1;

    std::uint32_t written = 0;
    unsigned char record[32];
    for (std::uint64_t seq = start; seq < head && written < survivors; ++seq) {
      const Slot& slot = ring.slots[seq & mask_];
      const std::uint64_t tag = slot.tag.load(std::memory_order_acquire);
      if ((tag >> 8) != seq) continue;
      const std::uint64_t words[4] = {slot.time.load(std::memory_order_relaxed), tag & 0xff,
                                      slot.a.load(std::memory_order_relaxed),
                                      slot.b.load(std::memory_order_relaxed)};
      for (int w = 0; w < 4; ++w) {
        for (int i = 0; i < 8; ++i)
          record[w * 8 + i] = static_cast<unsigned char>(words[w] >> (8 * i));
      }
      if (write_all(fd, record, sizeof(record)) != 0) return -1;
      ++written;
    }
    std::memset(record, 0, sizeof(record));  // kNone padding
    for (; written < survivors; ++written) {
      if (write_all(fd, record, sizeof(record)) != 0) return -1;
    }
  }
  return 0;
}

std::vector<FlightEvent> FlightRecorder::decode(BytesView data) {
  std::size_t pos = 0;
  const auto need = [&](std::size_t n) {
    if (data.size() - pos < n) throw std::runtime_error("flightrec dump truncated");
  };
  const auto read_u32 = [&]() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = v << 8 | data[pos + static_cast<std::size_t>(i)];
    pos += 4;
    return v;
  };
  const auto read_u64 = [&]() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = v << 8 | data[pos + static_cast<std::size_t>(i)];
    pos += 8;
    return v;
  };

  need(4);
  if (std::memcmp(data.data(), kMagic, 4) != 0)
    throw std::runtime_error("flightrec dump: bad magic");
  pos += 4;
  if (read_u32() != kVersion) throw std::runtime_error("flightrec dump: unknown version");
  const std::uint32_t ring_count = read_u32();
  std::vector<FlightEvent> out;
  for (std::uint32_t r = 0; r < ring_count; ++r) {
    const std::uint32_t ring_index = read_u32();
    const std::uint64_t thread_tag = read_u64();
    need(16);
    char label[17];
    std::memcpy(label, data.data() + pos, 16);
    label[16] = '\0';
    pos += 16;
    const std::uint32_t event_count = read_u32();
    for (std::uint32_t e = 0; e < event_count; ++e) {
      FlightEvent event;
      event.at = static_cast<TimeMicros>(read_u64());
      event.type = static_cast<FlightEventType>(read_u64() & 0xff);
      event.a = read_u64();
      event.b = read_u64();
      event.ring = ring_index;
      event.thread_tag = thread_tag;
      event.label = label;
      if (event.type != FlightEventType::kNone) out.push_back(std::move(event));
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& x, const FlightEvent& y) { return x.at < y.at; });
  return out;
}

void FlightRecorder::install_crash_handler(FlightRecorder* recorder, std::string directory) {
  if (!directory.empty()) {
    const std::size_t n = std::min(directory.size(), sizeof(g_crash_dir) - 1);
    std::memcpy(g_crash_dir, directory.data(), n);
    g_crash_dir[n] = '\0';
  }
  g_crash_recorder.store(recorder, std::memory_order_release);
  if (recorder == nullptr) return;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &crash_handler;
  // One shot: the handler dumps, the default disposition then kills us on
  // the re-raise (no handler recursion if the dump itself faults).
  action.sa_flags = SA_RESETHAND;
  sigemptyset(&action.sa_mask);
  for (const int signo : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT}) {
    ::sigaction(signo, &action, nullptr);
  }
}

}  // namespace mahimahi::obs
