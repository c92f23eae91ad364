// I/O plane tests: the epoll data plane's wire contract and a wide
// (50-validator) TCP cluster smoke test.
//
// The wire contract: a send_frame schedule puts exactly its length-prefixed
// frames on the wire, and a byte stream — however fragmented — parses back
// into exactly its frames. Each test drives one side of a connection through
// TcpConnection and keeps the other side a plain blocking socket, so the
// observed byte stream is ground truth, not another instance of the code
// under test.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "net/node_runtime.h"
#include "support/local_ports.h"

namespace mahimahi::net {
namespace {

using namespace std::chrono_literals;

bool wait_for(const std::function<bool()>& predicate,
              std::chrono::milliseconds deadline = 15000ms) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return predicate();
}

// Frame sizes chosen to hit the seams: empty frames (header-only pending
// writes), single bytes, 16 KiB plus both neighbors, and a frame larger
// than one 64 KiB recv chunk (reassembly across reads).
const std::vector<std::size_t>& pathological_sizes() {
  static const std::vector<std::size_t> sizes = {
      0, 1, 3, 5, 0, 128, 16 * 1024 - 1, 16 * 1024, 16 * 1024 + 1, 2, 96 * 1024 + 7, 4, 0,
  };
  return sizes;
}

// One deterministic pseudo-random payload per frame index, shared by sender
// and verifier.
Bytes frame_payload(std::size_t index, std::size_t size) {
  Bytes payload(size);
  std::uint32_t x = 0x9e3779b9u * static_cast<std::uint32_t>(index + 1);
  for (std::size_t i = 0; i < size; ++i) {
    x = x * 1664525u + 1013904223u;
    payload[i] = static_cast<std::uint8_t>(x >> 24);
  }
  return payload;
}

// Egress: a TcpConnection sends a pathological frame schedule; a plain
// blocking socket captures the raw byte stream, which must be exactly the
// schedule's length-prefixed frames.
TEST(IoPlane, EgressWireBytesAreTheFrameSchedule) {
  // Raw listening socket: the receiving side must not be the code under
  // test.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);

  std::size_t expected_bytes = 0;
  for (std::size_t i = 0; i < pathological_sizes().size(); ++i) {
    expected_bytes += 4 + pathological_sizes()[i];
  }

  // Blocking reader thread drains everything the sender puts on the wire.
  Bytes captured;
  std::thread reader([&] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    std::uint8_t chunk[4096];
    while (captured.size() < expected_bytes) {
      const ssize_t got = ::read(fd, chunk, sizeof(chunk));
      if (got <= 0) break;
      captured.insert(captured.end(), chunk, chunk + got);
    }
    ::close(fd);
  });

  EventLoop loop;
  TcpConnectionPtr sender;
  std::atomic<bool> sent{false};
  tcp_connect(loop, "127.0.0.1", ntohs(addr.sin_port), [&](TcpConnectionPtr conn) {
    ASSERT_NE(conn, nullptr);
    sender = conn;
    sender->start([](BytesView) {}, [] {});
    for (std::size_t i = 0; i < pathological_sizes().size(); ++i) {
      sender->send_frame(frame_payload(i, pathological_sizes()[i]));
    }
    sent = true;
  });
  std::thread runner([&] { loop.run(); });
  EXPECT_TRUE(wait_for([&] { return sent.load(); }));
  reader.join();
  loop.stop();
  runner.join();
  ::close(listen_fd);

  ASSERT_EQ(captured.size(), expected_bytes);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < pathological_sizes().size(); ++i) {
    std::uint32_t length;
    std::memcpy(&length, captured.data() + offset, 4);
    ASSERT_EQ(length, pathological_sizes()[i]);
    const Bytes expected = frame_payload(i, pathological_sizes()[i]);
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                           captured.begin() + static_cast<std::ptrdiff_t>(offset + 4)));
    offset += 4 + length;
  }
}

// Ingress: a raw socket writes the wire image of the same schedule,
// fragmented adversarially (including splits inside length headers), to a
// TcpConnection. The parsed frame sequence must be exactly the schedule.
TEST(IoPlane, IngressParsesFragmentedBytesIntoTheFrameSchedule) {
  // Build the wire image once.
  Bytes wire;
  for (std::size_t i = 0; i < pathological_sizes().size(); ++i) {
    const Bytes payload = frame_payload(i, pathological_sizes()[i]);
    const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
    const std::size_t at = wire.size();
    wire.resize(at + 4);
    std::memcpy(wire.data() + at, &length, 4);
    wire.insert(wire.end(), payload.begin(), payload.end());
  }

  EventLoop loop;
  std::mutex mutex;
  std::vector<Bytes> frames;
  TcpConnectionPtr accepted;
  TcpListener listener(loop, 0, [&](TcpConnectionPtr conn) {
    accepted = conn;
    conn->start(
        [&](BytesView frame) {
          std::lock_guard<std::mutex> g(mutex);
          frames.emplace_back(frame.begin(), frame.end());
        },
        [] {});
  });
  std::thread runner([&] { loop.run(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(listener.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // Adversarial fragmentation: a fixed schedule of tiny and odd-sized writes
  // with yields between them, so frames arrive split across reads at every
  // alignment.
  static const std::size_t kChunks[] = {1, 2, 1, 3, 7, 1, 4, 64, 1, 2, 513, 4096, 31};
  std::size_t sent = 0;
  std::size_t step = 0;
  while (sent < wire.size()) {
    const std::size_t want = std::min(kChunks[step++ % std::size(kChunks)], wire.size() - sent);
    ssize_t wrote = ::send(fd, wire.data() + sent, want, MSG_NOSIGNAL);
    ASSERT_GT(wrote, 0);
    sent += static_cast<std::size_t>(wrote);
    if (step % 3 == 0) std::this_thread::sleep_for(1ms);
  }

  EXPECT_TRUE(wait_for([&] {
    std::lock_guard<std::mutex> g(mutex);
    return frames.size() >= pathological_sizes().size();
  }));
  ::close(fd);
  loop.stop();
  runner.join();

  std::lock_guard<std::mutex> g(mutex);
  ASSERT_EQ(frames.size(), pathological_sizes().size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_EQ(frames[i], frame_payload(i, pathological_sizes()[i])) << "frame " << i;
  }
}

// 50-validator TCP cluster smoke test. Wide committees are where loop
// multiplexing is stressed (each loop tick serves 98 sockets); the test
// asserts the protocol still commits with agreement and that the loop thread
// is not degenerating into a busy spin.
TEST(WideCluster, FiftyValidatorsCommitWithAgreement) {
  constexpr ValidatorId kValidators = 50;
  auto setup = Committee::make_test(kValidators);

  // Co-located wide cluster on a small machine: share one verifier cache
  // (every block verifies once, not 50 times) and keep verification inline
  // so the test exercises loop-thread multiplexing, not the worker pool.
  auto cache = std::make_shared<VerifierCache>();
  std::mutex mutex;
  std::vector<std::vector<BlockRef>> sequences(kValidators);
  std::chrono::steady_clock::time_point started;  // the last attempt's start
  auto nodes = test::start_cluster(
      kValidators,
      [&](std::vector<NodeAddress> addresses) {
        test::Cluster built;
        for (ValidatorId v = 0; v < kValidators; ++v) {
          NodeRuntimeConfig config;
          config.validator.id = v;
          config.validator.committer = mahi_mahi_5(1);
          config.validator.min_round_delay = millis(20);
          config.validator.signature_cache = cache;
          config.peers = addresses;
          config.tick_interval = millis(25);
          config.verify_threads = 0;
          built.push_back(std::make_unique<NodeRuntime>(
              setup.committee, setup.keypairs[v].private_key, config));
          built.back()->set_commit_handler([&, v](const CommittedSubDag& sub_dag) {
            std::lock_guard<std::mutex> g(mutex);
            for (const auto& block : sub_dag.blocks) sequences[v].push_back(block->ref());
          });
        }
        started = std::chrono::steady_clock::now();
        return built;
      },
      kValidators);
  TxBatch batch;
  batch.id = 7;
  batch.count = 10;
  nodes[0]->submit({batch});

  // Every node commits something (one core shared by 50 nodes: be patient).
  EXPECT_TRUE(wait_for(
      [&] {
        std::lock_guard<std::mutex> g(mutex);
        for (const auto& sequence : sequences) {
          if (sequence.empty()) return false;
        }
        return true;
      },
      120000ms));
  const auto wall_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                               std::chrono::steady_clock::now() - started)
                               .count();

  // Bounded loop-thread time. Two failure shapes, two detectors:
  //   * a busy-spinning loop (poll returning immediately forever) shows as
  //     runaway wait syscalls — bound the average wake rate;
  //   * a loop wedged in processing shows as busy time rivaling the wall
  //     clock. The busy counter measures wall time inside callbacks, so on
  //     one contended core it includes preemption — only the full wall clock
  //     is a sound ceiling, not a tight fraction of it.
  for (ValidatorId v = 0; v < kValidators; ++v) {
    const auto report = nodes[v]->io_plane_report();
    EXPECT_LT(report.wait_syscalls, static_cast<std::uint64_t>(wall_micros) / 100)
        << "node " << v << " loop woke >10k/s";
    EXPECT_LT(report.loop_busy_micros, static_cast<std::uint64_t>(wall_micros))
        << "node " << v << " loop thread ran hot";
  }
  for (auto& node : nodes) node->stop();

  // Commit agreement: all sequences agree on their common prefix.
  std::lock_guard<std::mutex> g(mutex);
  for (ValidatorId v = 1; v < kValidators; ++v) {
    const std::size_t common = std::min(sequences[0].size(), sequences[v].size());
    for (std::size_t k = 0; k < common; ++k) {
      ASSERT_EQ(sequences[0][k], sequences[v][k]) << "node " << v << " diverges at slot " << k;
    }
  }
}

}  // namespace
}  // namespace mahimahi::net
