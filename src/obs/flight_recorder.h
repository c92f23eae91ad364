// Flight recorder: always-on, per-thread lock-free ring buffers of compact
// structured events, stamped on the pipeline handoffs and dumped on demand —
// the "what was this node doing in the two seconds before it stalled"
// answer that aggregate histograms cannot give.
//
// Design constraints, in order:
//
//   * Recording is wait-free and costs well under 50 ns (gated by
//     bench_obs): claim a slot with one relaxed fetch_add on the calling
//     thread's own ring head, then four relaxed stores and one release
//     store. No lock, no branch on a shared cache line, no allocation.
//   * One ring per recording thread. A thread's first record registers a
//     ring (mutex, once) and caches the pointer in a small thread-local
//     table, so steady-state recording never synchronizes with other
//     threads. Rings are never destroyed before the recorder, so a cached
//     pointer can never dangle.
//   * Snapshots from any thread, at any time, without stopping writers.
//     Each slot carries its claim sequence in a release-published tag; the
//     reader drops slots whose tag does not match the index it expects
//     (mid-overwrite), so a snapshot is a consistent-enough view for
//     forensics without ever blocking the pipeline. Every access is through
//     std::atomic — the recorder stays clean under TSan with writers live.
//   * The binary dump path (write_to_fd) is async-signal-safe: no
//     allocation, no locks, only ::write on a caller-supplied fd — so a
//     fatal-signal handler (install_crash_handler) can leave a
//     flightrec-*.bin artifact on the way down.
//
// scripts/render_flightrec.py merges a dump's per-thread rings into one
// chronological timeline; FlightRecorder::decode does the same in-process
// for tests and tools.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/time.h"

namespace mahimahi::obs {

// Compact event vocabulary; `a`/`b` payload meaning per type (the renderer
// knows these too):
//   kFrameRx       a = peer id,        b = payload bytes
//   kFrameTx       a = peer id (or ~0 for broadcast), b = payload bytes
//   kBlockAdmit    a = author,         b = round     (frame admitted to verify)
//   kBlockInsert   a = author,         b = round     (DAG insert)
//   kCommit        a = leader author,  b = slot round
//   kWalFlush      a = records,        b = bytes (0 when unknown)
//   kCheckpointCut a = cut round,      b = cut index
//   kStall         a = busy micros,    b = stall budget micros
//   kSnapshot      a = reason (0 = on-demand, 1 = stall, 2 = signal)
enum class FlightEventType : std::uint8_t {
  kNone = 0,
  kFrameRx = 1,
  kFrameTx = 2,
  kBlockAdmit = 3,
  kBlockInsert = 4,
  kCommit = 5,
  kWalFlush = 6,
  kCheckpointCut = 7,
  kStall = 8,
  kSnapshot = 9,
};

// Stable short name for rendering ("frame_rx", "commit", ...).
std::string_view flight_event_name(FlightEventType type);

// One decoded event, as returned by snapshot()/decode().
struct FlightEvent {
  TimeMicros at = 0;
  FlightEventType type = FlightEventType::kNone;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t ring = 0;         // ring (thread) index within the recorder
  std::uint64_t thread_tag = 0;   // OS thread id of the ring's owner
  std::string label;              // thread label, when one was set
};

class FlightRecorder {
 public:
  struct Options {
    // Slots per thread ring; rounded up to a power of two. 4096 32-byte
    // slots = 128 KiB per recording thread — minutes of steady-state
    // pipeline events, seconds under overload.
    std::size_t ring_capacity = 4096;
  };

  // (Separate default constructor: GCC rejects `Options = {}` default
  // arguments for nested aggregates with deferred member initializers.)
  FlightRecorder() : FlightRecorder(Options{}) {}
  explicit FlightRecorder(Options options);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // The hot path: stamps an event into the calling thread's ring. `at` is
  // the caller's clock (steady micros in the runtime) so events slot into
  // the same timeline as the tracer spans.
  void record(FlightEventType type, TimeMicros at, std::uint64_t a = 0, std::uint64_t b = 0);

  // Convenience overload that self-stamps with steady_now_micros().
  void record_now(FlightEventType type, std::uint64_t a = 0, std::uint64_t b = 0);

  // Names the calling thread's ring in dumps ("loop", "worker", "wal", …).
  // Truncated to 15 chars. The label is written when the ring is registered,
  // before the ring is published to readers, and never changes afterwards:
  // call this before the thread's first record. Once the thread has a ring
  // (labelled or not) the call is a no-op, so concurrent snapshots never
  // read a label mid-write.
  void label_thread(std::string_view label);

  // Merged chronological view of every ring (oldest surviving event first).
  // Any thread; writers keep writing.
  std::vector<FlightEvent> snapshot() const;

  // The dump file format (magic "MMFR", version 1), as bytes — what the
  // /flightrec admin endpoint serves and dump_to_file writes.
  Bytes snapshot_binary() const;

  // Writes the binary dump to `path` (O_TRUNC). Returns false on I/O error.
  bool dump_to_file(const std::string& path) const;

  // Async-signal-safe dump: only ::write(fd) — no locks, no allocation.
  // Returns 0 on success, -1 on a short or failed write.
  int write_to_fd(int fd) const;

  // Parses a binary dump back into chronological events (renderer/tests).
  // Throws std::runtime_error on a malformed dump.
  static std::vector<FlightEvent> decode(BytesView data);

  // Installs SIGSEGV/SIGBUS/SIGFPE/SIGABRT handlers that dump `recorder`
  // to directory/flightrec-crash-<pid>.bin and re-raise. One recorder
  // process-wide (last install wins); pass nullptr to disarm.
  static void install_crash_handler(FlightRecorder* recorder, std::string directory);

  // Number of rings registered so far (one per recording thread).
  std::size_t ring_count() const { return ring_count_.load(std::memory_order_acquire); }

 private:
  // A slot is four atomic words. The writer publishes `tag` last (release)
  // holding (sequence << 8) | type; a reader that acquires a tag whose
  // sequence matches the index it expects gets the matching payload words.
  struct Slot {
    std::atomic<std::uint64_t> tag{0};
    std::atomic<std::uint64_t> time{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
  };

  struct Ring {
    explicit Ring(std::size_t capacity) : slots(capacity) {}
    std::atomic<std::uint64_t> head{0};
    std::uint64_t thread_tag = 0;
    std::array<char, 16> label{};  // NUL-terminated; immutable once published
    std::vector<Slot> slots;
  };

  // Fixed upper bound on recording threads; registration past it reuses
  // rings round-robin (multi-writer rings stay correct, merely mixed).
  static constexpr std::size_t kMaxRings = 64;

  Ring& ring_for_this_thread();
  // Finds or registers the calling thread's ring; a newly registered ring
  // carries `label` from before its publication.
  Ring* register_thread(std::string_view label = {});
  void append_ring_events(const Ring& ring, std::uint32_t index,
                          std::vector<FlightEvent>& out) const;

  std::size_t capacity_;  // power of two
  std::uint64_t mask_;
  mutable std::mutex register_mutex_;
  std::array<std::unique_ptr<Ring>, kMaxRings> rings_;
  std::atomic<std::size_t> ring_count_{0};
  // Registration-time map so a thread evicted from the TLS cache re-finds
  // its ring instead of registering a duplicate. Mutex-guarded, cold path.
  std::unordered_map<std::uint64_t, Ring*> ring_by_thread_;
};

}  // namespace mahimahi::obs
