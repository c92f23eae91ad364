// Networking tests: event loop, TCP framing, and full localhost clusters of
// NodeRuntimes reaching consensus over real sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <mutex>
#include <thread>

#include "client/kv_batches.h"
#include "net/node_runtime.h"
#include "obs/flight_recorder.h"
#include "support/local_ports.h"

namespace mahimahi::net {
namespace {

using namespace std::chrono_literals;

// Polls `predicate` until true or the deadline passes.
bool wait_for(const std::function<bool()>& predicate,
              std::chrono::milliseconds deadline = 15000ms) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return predicate();
}

// Blocking one-shot HTTP/1.1 GET against the admin endpoint on loopback.
// Like a real scraper, the client stops once Content-Length bytes of body
// have arrived (the server holds the connection open until the peer closes).
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  std::size_t body_needed = std::string::npos;  // headers + Content-Length body
  for (;;) {
    if (body_needed == std::string::npos) {
      const auto header_end = response.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        std::size_t content_length = 0;
        const auto field = response.find("Content-Length: ");
        if (field != std::string::npos && field < header_end)
          content_length = std::stoul(response.substr(field + 16));
        body_needed = header_end + 4 + content_length;
      }
    }
    if (body_needed != std::string::npos && response.size() >= body_needed) break;
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

// Sends an arbitrary byte payload to the admin port and reads whatever comes
// back until the server stops sending (bad-request paths: no Content-Length
// contract to honor).
std::string http_raw(int port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n = ::send(fd, payload.data() + sent, payload.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  std::size_t body_needed = std::string::npos;
  for (;;) {
    if (body_needed == std::string::npos) {
      const auto header_end = response.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        std::size_t content_length = 0;
        const auto field = response.find("Content-Length: ");
        if (field != std::string::npos && field < header_end)
          content_length = std::stoul(response.substr(field + 16));
        body_needed = header_end + 4 + content_length;
      }
    }
    if (body_needed != std::string::npos && response.size() >= body_needed) break;
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(IngestBatchCap, AdaptiveBatchSizing) {
  // No limits configured: unbounded drain.
  EXPECT_GT(ingest_batch_cap(0, 0, 0), 1u << 20);
  // Pure count cap.
  EXPECT_EQ(ingest_batch_cap(64, 0, 0), 64u);
  EXPECT_EQ(ingest_batch_cap(64, millis(2), 0), 64u);  // no cost estimate yet
  // Latency budget shrinks the batch once the per-block cost is known:
  // 2ms budget / 100us per block = 20 blocks.
  EXPECT_EQ(ingest_batch_cap(64, millis(2), 100), 20u);
  // The budget never shrinks the drain below the amortization floor: tiny
  // batches lose the RLC batch-verification amortization, so a cap derived
  // from slow-looking per-block costs must not collapse to 1 and pin the
  // cost there (the bistable trap — see ingest_batch_cap).
  EXPECT_EQ(ingest_batch_cap(64, millis(2), millis(50)), kVerifyAmortizationFloor);
  EXPECT_EQ(ingest_batch_cap(64, millis(2), 400), kVerifyAmortizationFloor);  // 5 < floor
  // The floor yields to the hard count cap when that is smaller...
  EXPECT_EQ(ingest_batch_cap(4, millis(2), millis(50)), 4u);
  // ...and the count cap still binds however cheap blocks are.
  EXPECT_EQ(ingest_batch_cap(64, millis(1000), 1), 64u);
  // Budget-only configuration (max_batch = 0).
  EXPECT_EQ(ingest_batch_cap(0, millis(1), 100), 10u);
}

TEST(EventLoop, PostedTasksRunOnLoopThread) {
  EventLoop loop;
  std::thread runner([&] { loop.run(); });
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    loop.post([&counter] { ++counter; });
  }
  EXPECT_TRUE(wait_for([&] { return counter.load() == 100; }));
  loop.stop();
  runner.join();
}

TEST(EventLoop, TimersFireInOrder) {
  EventLoop loop;
  std::thread runner([&] { loop.run(); });
  std::mutex mutex;
  std::vector<int> order;
  loop.post([&] {
    loop.schedule(millis(30), [&] {
      std::lock_guard<std::mutex> g(mutex);
      order.push_back(2);
    });
    loop.schedule(millis(10), [&] {
      std::lock_guard<std::mutex> g(mutex);
      order.push_back(1);
    });
  });
  EXPECT_TRUE(wait_for([&] {
    std::lock_guard<std::mutex> g(mutex);
    return order.size() == 2;
  }));
  loop.stop();
  runner.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, CancelledTimerDoesNotFire) {
  EventLoop loop;
  std::thread runner([&] { loop.run(); });
  std::atomic<bool> fired{false};
  std::atomic<bool> late_fired{false};
  loop.post([&] {
    const auto id = loop.schedule(millis(20), [&] { fired = true; });
    loop.cancel_timer(id);
    loop.schedule(millis(40), [&] { late_fired = true; });
  });
  EXPECT_TRUE(wait_for([&] { return late_fired.load(); }));
  EXPECT_FALSE(fired.load());
  loop.stop();
  runner.join();
}

TEST(EventLoop, LoopThreadPostsRunBeforeTheLoopBlocks) {
  // Loop-thread posts skip the wakeup write; the drain must still run them —
  // including a post made from inside a posted task, and one made from a
  // timer — in the same iteration, without another epoll_wait.
  EventLoop loop;
  std::thread runner([&] { loop.run(); });
  std::vector<int> order;  // touched on the loop thread only
  std::uint64_t waits_before = 0, waits_after = 0;
  std::atomic<bool> posted_chain_done{false};
  loop.post([&] {  // cross-thread: wakes the loop
    waits_before = loop.wait_syscalls();
    order.push_back(1);
    loop.post([&] {
      order.push_back(2);
      loop.post([&] {
        order.push_back(3);
        waits_after = loop.wait_syscalls();
        posted_chain_done = true;
      });
    });
  });
  const bool posted_chain_ran = wait_for([&] { return posted_chain_done.load(); });

  std::uint64_t timer_waits = 0, timer_post_waits = 0;
  std::atomic<bool> timer_chain_done{false};
  loop.post([&] {
    loop.schedule(millis(5), [&] {
      timer_waits = loop.wait_syscalls();
      loop.post([&] {
        timer_post_waits = loop.wait_syscalls();
        timer_chain_done = true;
      });
    });
  });
  const bool timer_chain_ran = wait_for([&] { return timer_chain_done.load(); });
  loop.stop();
  runner.join();
  ASSERT_TRUE(posted_chain_ran);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(waits_after, waits_before);
  ASSERT_TRUE(timer_chain_ran);
  EXPECT_EQ(timer_post_waits, timer_waits);
}

TEST(WorkerPool, ZeroThreadsRunTasksOnTheCallerUntilStopped) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  int runs = 0;
  std::thread::id ran_on;
  pool.submit([&] {
    ++runs;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(runs, 1);  // ran before submit() returned
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  pool.stop();
  pool.submit([&] { ++runs; });
  EXPECT_EQ(runs, 1);  // discarded after stop(), as with threads
}

TEST(SerialDrain, OneDrainAtATimeInEnqueueOrder) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{3}}) {
    WorkerPool pool(threads);
    std::mutex mutex;
    std::vector<int> seen;
    std::size_t largest_chunk = 0;
    std::atomic<int> active{0};
    std::atomic<bool> overlapped{false};
    SerialDrain<int> drain(
        pool,
        [&](std::vector<int> chunk) {
          if (active.fetch_add(1) != 0) overlapped = true;
          {
            std::lock_guard<std::mutex> g(mutex);
            largest_chunk = std::max(largest_chunk, chunk.size());
            seen.insert(seen.end(), chunk.begin(), chunk.end());
          }
          active.fetch_sub(1);
        },
        [] { return std::size_t{3}; });
    // Producers race each other; each one's items must stay in order.
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&drain, p] {
        for (int i = 0; i < 100; ++i) drain.push({p * 1000 + i});
      });
    }
    for (auto& producer : producers) producer.join();
    const bool all_seen = wait_for([&] {
      std::lock_guard<std::mutex> g(mutex);
      return seen.size() == 300;
    });
    pool.stop();  // joins the drain before `drain` goes out of scope
    ASSERT_TRUE(all_seen) << threads << " threads";
    std::lock_guard<std::mutex> g(mutex);
    EXPECT_FALSE(overlapped.load()) << threads << " threads";
    EXPECT_LE(largest_chunk, 3u);
    std::vector<int> last(3, -1);
    for (const int item : seen) {
      EXPECT_EQ(item % 1000, last[item / 1000] + 1) << "producer " << item / 1000;
      last[item / 1000] = item % 1000;
    }
  }
}

TEST(SerialDrain, ZeroWorkerDrainFinishesReentrantPushesBeforeReturning) {
  WorkerPool pool(0);
  std::vector<int> seen;
  SerialDrain<int>* self = nullptr;
  SerialDrain<int> drain(pool, [&](std::vector<int> chunk) {
    for (const int item : chunk) {
      seen.push_back(item);
      if (item < 3) self->push({item + 1});  // queued; the running drain takes it
    }
  });
  self = &drain;
  drain.push({0});
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SerialDrain, BoundedPushShedsAtTheBound) {
  WorkerPool pool(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  std::atomic<bool> draining{false};
  std::vector<int> seen;
  SerialDrain<int> drain(pool, [&](std::vector<int> chunk) {
    draining = true;
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return released; });
    seen.insert(seen.end(), chunk.begin(), chunk.end());
  });
  ASSERT_TRUE(drain.push_bounded(0, 3));
  EXPECT_TRUE(wait_for([&] { return draining.load(); }));  // 0 taken, drain held
  EXPECT_TRUE(drain.push_bounded(1, 3));
  EXPECT_TRUE(drain.push_bounded(2, 3));
  EXPECT_TRUE(drain.push_bounded(3, 3));
  EXPECT_FALSE(drain.push_bounded(4, 3));  // three already waiting: shed
  {
    std::lock_guard<std::mutex> g(mutex);
    released = true;
  }
  cv.notify_all();
  const bool all_seen = wait_for([&] {
    std::lock_guard<std::mutex> g(mutex);
    return seen.size() == 4;
  });
  pool.stop();  // joins the drain before `drain` goes out of scope
  ASSERT_TRUE(all_seen);
  std::lock_guard<std::mutex> g(mutex);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
}

TEST(FlightRecorderRace, LabelsArePublishedWithTheirRing) {
  // Writers label and record while a reader snapshots continuously (a TSan
  // target: the label must be written before the ring is published). A
  // ring is never visible without its label, and a second label_thread on a
  // registered ring changes nothing.
  obs::FlightRecorder recorder(obs::FlightRecorder::Options{256});
  constexpr int kWriters = 4;
  std::atomic<bool> writers_done{false};
  std::atomic<std::uint64_t> mislabelled{0};
  std::thread reader([&] {
    while (!writers_done.load()) {
      const Bytes dump = recorder.snapshot_binary();
      for (const auto& event : obs::FlightRecorder::decode({dump.data(), dump.size()})) {
        if (event.label != "writer" + std::to_string(event.a)) mislabelled.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&recorder, t] {
      recorder.label_thread("writer" + std::to_string(t));
      for (std::uint64_t i = 0; i < 2000; ++i) {
        recorder.record(obs::FlightEventType::kBlockAdmit, static_cast<TimeMicros>(i),
                        static_cast<std::uint64_t>(t), i);
        if (i == 1000) recorder.label_thread("relabelled");  // no-op
      }
    });
  }
  for (auto& writer : writers) writer.join();
  writers_done = true;
  reader.join();
  EXPECT_EQ(mislabelled.load(), 0u);
  EXPECT_EQ(recorder.ring_count(), static_cast<std::size_t>(kWriters));
  for (const auto& event : recorder.snapshot()) {
    EXPECT_EQ(event.label, "writer" + std::to_string(event.a));
  }
}

TEST(Tcp, EchoRoundTrip) {
  EventLoop loop;
  std::mutex mutex;
  std::vector<Bytes> server_frames, client_frames;
  TcpConnectionPtr server_side;

  TcpListener listener(loop, 0, [&](TcpConnectionPtr connection) {
    server_side = connection;
    // A raw pointer, not the shared_ptr: the connection owns this handler,
    // so capturing its owner would form a cycle that leaks both.
    connection->start(
        [&, raw = connection.get()](BytesView frame) {
          {
            std::lock_guard<std::mutex> g(mutex);
            server_frames.emplace_back(frame.begin(), frame.end());
          }
          raw->send_frame(frame);  // echo
        },
        [] {});
  });

  std::thread runner([&] { loop.run(); });
  TcpConnectionPtr client;
  std::atomic<bool> connected{false};
  loop.post([&] {
    tcp_connect(loop, "127.0.0.1", listener.port(), [&](TcpConnectionPtr connection) {
      client = connection;
      client->start(
          [&](BytesView frame) {
            std::lock_guard<std::mutex> g(mutex);
            client_frames.emplace_back(frame.begin(), frame.end());
          },
          [] {});
      connected = true;
    });
  });
  ASSERT_TRUE(wait_for([&] { return connected.load(); }));

  const Bytes small = to_bytes("hello consensus");
  Bytes large(300000, 0xcd);  // forces multiple reads/writes
  loop.post([&] {
    client->send_frame({small.data(), small.size()});
    client->send_frame({large.data(), large.size()});
  });

  ASSERT_TRUE(wait_for([&] {
    std::lock_guard<std::mutex> g(mutex);
    return client_frames.size() == 2;
  }));
  std::lock_guard<std::mutex> g(mutex);
  EXPECT_EQ(server_frames[0], small);
  EXPECT_EQ(client_frames[0], small);
  EXPECT_EQ(client_frames[1], large);

  loop.stop();
  runner.join();
}

// Frames larger than a read chunk arrive in a buffer reserved to exactly
// their size, which the handler may take over (no copy, and no multi-MB
// capacity left behind on the connection); frames around them are intact.
TEST(Tcp, LargeFramesArriveInExactOwnedBuffers) {
  EventLoop loop;
  std::mutex mutex;
  struct Received {
    Bytes bytes;
    bool owned = false;
    std::size_t capacity = 0;
  };
  std::vector<Received> received;
  TcpConnectionPtr server_side;

  TcpListener listener(loop, 0, [&](TcpConnectionPtr connection) {
    server_side = connection;
    connection->start(
        [&](const TcpConnection::Frame& frame) {
          Received r;
          if (frame.owner != nullptr) {
            // Take the buffer, as the verify stage does.
            const std::size_t offset = static_cast<std::size_t>(frame.bytes.data() - frame.owner->data());
            Bytes taken = std::move(*frame.owner);
            r.bytes.assign(taken.begin() + static_cast<std::ptrdiff_t>(offset), taken.end());
            r.owned = true;
            r.capacity = taken.capacity();
          } else {
            r.bytes.assign(frame.bytes.begin(), frame.bytes.end());
          }
          std::lock_guard<std::mutex> g(mutex);
          received.push_back(std::move(r));
        },
        [] {});
  });

  std::thread runner([&] { loop.run(); });
  TcpConnectionPtr client;
  std::atomic<bool> connected{false};
  loop.post([&] {
    tcp_connect(loop, "127.0.0.1", listener.port(), [&](TcpConnectionPtr connection) {
      client = connection;
      client->start([](BytesView) {}, [] {});
      connected = true;
    });
  });
  ASSERT_TRUE(wait_for([&] { return connected.load(); }));

  std::vector<Bytes> sent;
  for (const std::size_t size : {100u, 3000000u, 7u, 1000000u, 70000u, 5u}) {
    Bytes frame(size);
    for (std::size_t i = 0; i < size; ++i) frame[i] = static_cast<std::uint8_t>(i * 7 + size);
    sent.push_back(std::move(frame));
  }
  loop.post([&] {
    for (const Bytes& frame : sent) client->send_frame({frame.data(), frame.size()});
  });
  ASSERT_TRUE(wait_for([&] {
    std::lock_guard<std::mutex> g(mutex);
    return received.size() == sent.size();
  }));
  std::lock_guard<std::mutex> g(mutex);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i].bytes, sent[i]) << "frame " << i;
    if (sent[i].size() >= 1000000) {
      EXPECT_TRUE(received[i].owned) << "frame " << i;
      EXPECT_EQ(received[i].capacity, 4 + sent[i].size()) << "frame " << i;
    }
  }

  loop.stop();
  runner.join();
}

class TcpClusterTest : public ::testing::Test {
 protected:
  TcpClusterTest() : setup_(Committee::make_test(4)) {}

  std::unique_ptr<NodeRuntime> make_node(ValidatorId v,
                                         const std::string& wal_path = {}) {
    NodeRuntimeConfig config;
    config.validator.id = v;
    config.validator.committer = mahi_mahi_5(1);
    config.validator.committer.gc_depth = gc_depth_;
    config.validator.checkpoint_interval = checkpoint_interval_;
    config.validator.wal_segment_bytes = 64 * 1024;
    config.validator.min_round_delay = min_round_delay_;
    config.peers = addresses_;
    config.tick_interval = millis(10);
    config.wal_path = wal_path;
    config.verify_threads = verify_threads_;
    config.validator.signature_cache = shared_cache_;
    config.validator.wal_group_commit = wal_group_commit_;
    config.validator.execute_app = execute_app_;
    config.validator.execution_threads = execution_threads_;
    config.admin_port = admin_port_;
    config.loop_stall_budget = loop_stall_budget_;
    config.flightrec_dir = flightrec_dir_;
    return std::make_unique<NodeRuntime>(setup_.committee,
                                         setup_.keypairs[v].private_key, config);
  }

  // Worker-pool stages by default; 0 runs the same stages on the loop thread.
  std::size_t verify_threads_ = 2;
  // Checkpoint subsystem knobs (off by default — no behavior change).
  Round gc_depth_ = 0;
  Round checkpoint_interval_ = 0;
  TimeMicros min_round_delay_ = millis(5);
  // Write-side knob: the group-commit WAL writer thread.
  bool wal_group_commit_ = false;
  // Execution engine (off by default); threads > 0 runs its merge thread.
  bool execute_app_ = false;
  std::size_t execution_threads_ = 0;
  // When set, all runtimes share one verification cache (co-located setup).
  std::shared_ptr<VerifierCache> shared_cache_;
  // Admin/metrics endpoint; -1 = disabled, 0 = ephemeral port.
  int admin_port_ = -1;
  // Flight-recorder knobs: a tiny budget makes every busy tick a "stall",
  // and a dump directory arms the watchdog's auto-dump.
  TimeMicros loop_stall_budget_ = millis(250);
  std::string flightrec_dir_;

  // Builds a 4-node localhost cluster and starts its first `started` nodes;
  // support/local_ports.h picks the ports, and picks again if one is taken.
  // `prepare` sees the nodes before any of them starts (commit handlers).
  // The chosen addresses stay in addresses_, so a node restarted later
  // (make_node) rejoins the same mesh instead of a freshly-probed one.
  std::vector<std::unique_ptr<NodeRuntime>> start_cluster(
      const std::vector<std::string>& wal_paths = {}, std::size_t started = 4,
      const std::function<void(std::vector<std::unique_ptr<NodeRuntime>>&)>& prepare =
          {}) {
    bool retry = false;
    return test::start_cluster(
        4,
        [&](std::vector<NodeAddress> addresses) {
          // An attempt that failed to bind may have logged blocks already.
          if (retry) {
            for (const auto& path : wal_paths) std::filesystem::remove_all(path);
          }
          retry = true;
          addresses_ = std::move(addresses);
          std::vector<std::unique_ptr<NodeRuntime>> nodes;
          for (ValidatorId v = 0; v < 4; ++v) {
            nodes.push_back(
                make_node(v, wal_paths.empty() ? std::string{} : wal_paths[v]));
          }
          if (prepare) prepare(nodes);
          return nodes;
        },
        started);
  }

  Committee::TestSetup setup_;
  std::vector<NodeAddress> addresses_;
};

TEST_F(TcpClusterTest, FourNodesCommitTransactions) {
  auto nodes = start_cluster();

  // Submit transactions to every node.
  for (ValidatorId v = 0; v < 4; ++v) {
    TxBatch batch;
    batch.id = 1000 + v;
    batch.count = 25;
    batch.submitted_at = steady_now_micros();
    nodes[v]->submit({batch});
  }

  // All nodes commit all 100 transactions.
  EXPECT_TRUE(wait_for([&] {
    for (const auto& node : nodes) {
      if (node->committed_transactions() < 100) return false;
    }
    return true;
  })) << "committed: " << nodes[0]->committed_transactions() << ", "
      << nodes[1]->committed_transactions() << ", " << nodes[2]->committed_transactions()
      << ", " << nodes[3]->committed_transactions();

  EXPECT_GT(nodes[0]->highest_round(), 5u);
  for (auto& node : nodes) node->stop();

  // Submission went through the sharded pool's front door without rejects.
  for (const auto& node : nodes) {
    EXPECT_EQ(node->submit_rejected(), 0u);
    EXPECT_GE(node->mempool_stats().accepted, 1u);
  }

  // The worker pool carried the ingestion pipeline: every peer block was
  // decoded and screened off the loop thread.
  for (const auto& node : nodes) {
    const IngestStats stats = node->ingest_stats();
    EXPECT_GT(stats.verified + stats.cache_hits, 0u) << "node " << node->id();
    EXPECT_EQ(stats.crypto_rejected, 0u);
    EXPECT_EQ(stats.structurally_rejected, 0u);
    EXPECT_EQ(node->decode_errors(), 0u);
    // The commit rule's slot outcomes reach the registry: a healthy
    // committee commits leaders directly.
    EXPECT_GT(node->metrics_registry().dump().gauge_value("mm_slot_direct_commits"), 0)
        << "node " << node->id();
  }
}

// A port someone else holds fails start() instead of aborting the process,
// and test::start_cluster moves the whole cluster to fresh ports.
TEST_F(TcpClusterTest, TakenPortFailsStartAndClusterMovesToFreshPorts) {
  EventLoop blocker_loop;
  std::unique_ptr<TcpListener> blocker;
  int attempts = 0;
  auto nodes = test::start_cluster(
      4,
      [&](std::vector<NodeAddress> addresses) {
        if (++attempts == 1) {
          blocker = std::make_unique<TcpListener>(blocker_loop, addresses[2].port,
                                                  [](TcpConnectionPtr) {});
        }
        addresses_ = std::move(addresses);
        test::Cluster built;
        for (ValidatorId v = 0; v < 4; ++v) built.push_back(make_node(v));
        return built;
      },
      4);
  EXPECT_EQ(attempts, 2);
  EXPECT_NE(addresses_[2].port, blocker->port());

  TxBatch batch;
  batch.id = 4242;
  batch.count = 10;
  nodes[1]->submit({batch});
  EXPECT_TRUE(wait_for([&] {
    for (const auto& node : nodes) {
      if (node->committed_transactions() < 10) return false;
    }
    return true;
  }));
  for (auto& node : nodes) node->stop();
}

TEST_F(TcpClusterTest, AdminEndpointServesMetricsMidRun) {
  admin_port_ = 0;  // ephemeral admin listener on every node
  auto nodes = start_cluster();

  // Every node published an admin port distinct from its consensus port.
  for (const auto& node : nodes) ASSERT_GT(node->admin_port(), 0);

  for (ValidatorId v = 0; v < 4; ++v) {
    TxBatch batch;
    batch.id = 7000 + v;
    batch.count = 25;
    batch.submitted_at = steady_now_micros();
    nodes[v]->submit({batch});
  }
  ASSERT_TRUE(wait_for([&] {
    for (const auto& node : nodes) {
      if (node->committed_transactions() < 100) return false;
    }
    return true;
  }));

  // Scrape mid-run: consensus keeps ticking while the admin plane serves.
  // One scrape must cover the whole pipeline — ingest, DAG, commit-latency
  // breakdown, finality, WAL, mempool, I/O plane, and the watchdog.
  const std::string text = http_get(nodes[0]->admin_port(), "/metrics");
  ASSERT_NE(text.find("HTTP/1.1 200 OK"), std::string::npos) << text.substr(0, 200);
  EXPECT_NE(text.find("text/plain; version=0.0.4"), std::string::npos);
  for (const char* needle : {
           "mm_committed_transactions_total", "mm_committed_blocks_total",
           "mm_highest_round", "mm_stage_decode_micros_bucket",
           "mm_stage_crypto_verify_micros_bucket", "mm_stage_dag_insert_micros_bucket",
           "mm_stage_commit_wait_micros_bucket", "mm_stage_execute_micros_sum",
           "mm_finality_micros_count", "mm_mempool_accepted_total",
           "mm_io_bytes_sent_total", "mm_loop_tick_busy_micros_bucket",
           "mm_loop_max_stall_micros", "validator=\"0\"",
       }) {
    EXPECT_NE(text.find(needle), std::string::npos) << "missing: " << needle;
  }
  // The value of the first sample line of `name` in a text scrape.
  const auto sample = [](const std::string& scrape, const std::string& name) {
    const auto pos = scrape.find("\n" + name);
    if (pos == std::string::npos) return std::uint64_t{0};
    return static_cast<std::uint64_t>(std::stoull(scrape.substr(scrape.find(' ', pos) + 1)));
  };
  // Commits happened, so the finality histogram holds real samples: the
  // cluster submit path stamps submitted_at at the client.
  ASSERT_NE(text.find("mm_finality_micros_count"), std::string::npos);
  EXPECT_GT(sample(text, "mm_finality_micros_count"), 0u);

  // Anti-entropy re-offers each node's latest block every resync_interval.
  // Peers that already retained it still decode and hash the frame before
  // dropping it; the redelivered counters show that cost on /metrics.
  const auto redelivered = [&](const NodeRuntime& node) {
    return node.metrics_registry().dump().counter_value("mm_ingest_redelivered_frames_total");
  };
  EXPECT_TRUE(wait_for([&] { return redelivered(*nodes[0]) > 0; }))
      << "no redelivered frame after several resync intervals";
  const std::string later = http_get(nodes[0]->admin_port(), "/metrics");
  EXPECT_GT(sample(later, "mm_ingest_redelivered_frames_total"), 0u);
  EXPECT_GT(sample(later, "mm_ingest_redelivered_bytes_total"), 0u);

  // JSON flavor parses far enough to carry the same counters.
  const std::string json = http_get(nodes[1]->admin_port(), "/metrics.json");
  EXPECT_NE(json.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("\"mm_committed_transactions_total\""), std::string::npos);

  // Unknown paths get a 404, and the connection still closes cleanly.
  const std::string missing = http_get(nodes[2]->admin_port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  // The cluster is still healthy after serving scrapes.
  for (ValidatorId v = 0; v < 4; ++v) {
    TxBatch batch;
    batch.id = 7100 + v;
    batch.count = 5;
    batch.submitted_at = steady_now_micros();
    nodes[v]->submit({batch});
  }
  EXPECT_TRUE(wait_for([&] {
    for (const auto& node : nodes) {
      if (node->committed_transactions() < 120) return false;
    }
    return true;
  }));
  for (auto& node : nodes) node->stop();
}

TEST_F(TcpClusterTest, AdminIntrospectionStatusTracesAndFlightrec) {
  admin_port_ = 0;
  auto nodes = start_cluster();
  for (ValidatorId v = 0; v < 4; ++v) {
    TxBatch batch;
    batch.id = 7200 + v;
    batch.count = 25;
    batch.submitted_at = steady_now_micros();
    nodes[v]->submit({batch});
  }
  ASSERT_TRUE(wait_for([&] {
    for (const auto& node : nodes) {
      if (node->committed_transactions() < 100) return false;
    }
    return true;
  }));

  // /status: live node state as JSON, including connectivity and the head.
  const std::string status = http_get(nodes[0]->admin_port(), "/status");
  ASSERT_NE(status.find("HTTP/1.1 200 OK"), std::string::npos) << status.substr(0, 200);
  EXPECT_NE(status.find("application/json"), std::string::npos);
  for (const char* needle : {
           "\"validator\":0", "\"ticking\":true", "\"highest_round\":",
           "\"head\":{\"round\":", "\"committed_transactions\":",
           "\"peers\":[{\"id\":0,\"connected\":true}",
           "\"mempool\":{\"batches\":", "\"checkpoint\":{\"active\":",
           "\"flightrec\":{\"rings\":", "\"commit_traces\":",
           "\"slots\":{\"direct_commits\":",
       }) {
    EXPECT_NE(status.find(needle), std::string::npos) << "missing: " << needle;
  }
  // Every peer link is up on a healthy 4-node mesh.
  EXPECT_EQ(status.find("\"connected\":false"), std::string::npos);

  // /trace/commits: the forensics buffer, wave attribution included. The
  // cluster has committed dozens of waves, so traces carry real arrivals.
  const std::string traces = http_get(nodes[1]->admin_port(), "/trace/commits");
  ASSERT_NE(traces.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(traces.find("application/json"), std::string::npos);
  for (const char* needle : {
           "{\"traces\":[", "\"slot\":{\"round\":", "\"closing\":{\"author\":",
           "\"closed_wave\":true", "\"arrivals\":[", "\"durable_micros\":",
       }) {
    EXPECT_NE(traces.find(needle), std::string::npos) << "missing: " << needle;
  }

  // /flightrec: a binary snapshot of the recorder, decodable as-is, holding
  // pipeline events from the loop and worker threads plus the on-demand
  // snapshot marker the endpoint itself stamps.
  const std::string dump = http_get(nodes[2]->admin_port(), "/flightrec");
  ASSERT_NE(dump.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(dump.find("application/octet-stream"), std::string::npos);
  const auto body_start = dump.find("\r\n\r\n") + 4;
  const Bytes body(dump.begin() + static_cast<std::ptrdiff_t>(body_start), dump.end());
  ASSERT_GE(body.size(), 12u);
  const auto events = obs::FlightRecorder::decode({body.data(), body.size()});
  ASSERT_FALSE(events.empty());
  bool saw_commit = false, saw_snapshot = false, saw_loop_label = false;
  for (const auto& event : events) {
    saw_commit |= event.type == obs::FlightEventType::kCommit;
    saw_snapshot |= event.type == obs::FlightEventType::kSnapshot;
    saw_loop_label |= event.label == "loop";
  }
  EXPECT_TRUE(saw_commit);
  EXPECT_TRUE(saw_snapshot);
  EXPECT_TRUE(saw_loop_label);

  for (auto& node : nodes) node->stop();
}

TEST_F(TcpClusterTest, AdminRejectsBadRequests) {
  admin_port_ = 0;
  auto nodes = start_cluster();
  ASSERT_TRUE(wait_for([&] { return nodes[0]->admin_port() > 0; }));
  const int port = nodes[0]->admin_port();

  // Non-GET methods: 405, with the connection still answering cleanly.
  const std::string post =
      http_raw(port, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(post.find("405 Method Not Allowed"), std::string::npos);

  // A malformed request line (not even HTTP) gets the same deterministic
  // rejection instead of a hung or dropped connection.
  const std::string garbage = http_raw(port, "\x01\x02garbage\r\n\r\n");
  EXPECT_NE(garbage.find("405"), std::string::npos);

  // An oversized request (no terminator, 10 KiB of header spill) draws a
  // 413 once it crosses the 8 KiB cap — told why, not silently dropped.
  const std::string oversized =
      http_raw(port, "GET /metrics HTTP/1.1\r\n" + std::string(10 * 1024, 'x'));
  EXPECT_NE(oversized.find("413 Content Too Large"), std::string::npos);

  // The admin plane still serves real scrapes afterwards.
  const std::string ok = http_get(port, "/status");
  EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos);
  for (auto& node : nodes) node->stop();
}

TEST_F(TcpClusterTest, WatchdogStallAutoDumpsFlightRecorder) {
  // A 1 us budget makes the first busy tick a "stall"; the watchdog must
  // leave a decodable flightrec-v<id>-<n>.bin in the configured directory.
  loop_stall_budget_ = 1;
  flightrec_dir_ = ::testing::TempDir() + "flightrec_stall_test";
  std::filesystem::remove_all(flightrec_dir_);
  std::filesystem::create_directories(flightrec_dir_);
  auto nodes = start_cluster();
  for (ValidatorId v = 0; v < 4; ++v) {
    TxBatch batch;
    batch.id = 7300 + v;
    batch.count = 25;
    batch.submitted_at = steady_now_micros();
    nodes[v]->submit({batch});
  }
  ASSERT_TRUE(wait_for([&] { return nodes[0]->flightrec_stall_dumps() > 0; }));
  for (auto& node : nodes) node->stop();

  // The dump is on disk, carries the magic, and decodes into a timeline
  // that includes the stall marker and the stall-triggered snapshot stamp.
  std::vector<std::filesystem::path> dumps;
  for (const auto& entry : std::filesystem::directory_iterator(flightrec_dir_)) {
    if (entry.path().filename().string().rfind("flightrec-v0-", 0) == 0) {
      dumps.push_back(entry.path());
    }
  }
  ASSERT_FALSE(dumps.empty());
  std::ifstream in(dumps.front(), std::ios::binary);
  const Bytes data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  ASSERT_GE(data.size(), 12u);
  EXPECT_EQ(std::memcmp(data.data(), "MMFR", 4), 0);
  const auto events = obs::FlightRecorder::decode({data.data(), data.size()});
  ASSERT_FALSE(events.empty());
  bool saw_stall = false, saw_stall_snapshot = false;
  for (const auto& event : events) {
    saw_stall |= event.type == obs::FlightEventType::kStall;
    saw_stall_snapshot |=
        event.type == obs::FlightEventType::kSnapshot && event.a == 1;
  }
  EXPECT_TRUE(saw_stall);
  EXPECT_TRUE(saw_stall_snapshot);
  std::filesystem::remove_all(flightrec_dir_);
}

// Destroys a running cluster with KV load in flight and the execution
// engine's merge thread busy. The merge thread posts execute_done through
// the event loop, so stop() must join it while loop_ is still alive (the
// pipeline that owns the engine is declared before the loop and would
// otherwise outlive it); the TSan leg turns a violation into a failure.
TEST_F(TcpClusterTest, ExecEngineShutdownUnderLoadJoinsBeforeLoopDies) {
  execute_app_ = true;
  execution_threads_ = 1;
  Rng rng(7);
  client::KvWorkload workload;
  std::uint64_t sequence = 0;
  // A few teardowns: each one races the merge thread at a different point.
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto nodes = start_cluster();
    const auto submit_load = [&] {
      for (ValidatorId v = 0; v < 4; ++v) {
        std::vector<TxBatch> batches;
        for (int i = 0; i < 4; ++i) {
          batches.push_back(
              client::synth_kv_batch(workload, v, sequence++, rng, steady_now_micros()));
        }
        nodes[v]->submit(std::move(batches));
      }
    };
    // Keep the stream flowing until every engine has executed something.
    EXPECT_TRUE(wait_for([&] {
      submit_load();
      for (const auto& node : nodes) {
        if (node->execution_stats().subdags == 0) return false;
      }
      return true;
    }));
    submit_load();
    nodes.clear();  // ~NodeRuntime -> stop() mid-stream
  }
}

TEST_F(TcpClusterTest, SharedVerifierCacheSkipsRepeatVerification) {
  // Four co-located runtimes sharing one (internally locked) cache: each
  // block pays ed25519 once process-wide; the other three runtimes' verify
  // workers hit the cache.
  shared_cache_ = std::make_shared<VerifierCache>();
  auto nodes = start_cluster();
  TxBatch batch;
  batch.id = 77;
  batch.count = 10;
  nodes[1]->submit({batch});
  EXPECT_TRUE(wait_for([&] {
    for (const auto& node : nodes) {
      if (node->committed_transactions() < 10) return false;
    }
    return true;
  }));
  for (auto& node : nodes) node->stop();
  EXPECT_GT(shared_cache_->hits(), 0u);
  EXPECT_GT(shared_cache_->misses(), 0u);
  // Worker-side hits surface in the combined pipeline counters.
  std::uint64_t total_cache_hits = 0;
  for (const auto& node : nodes) total_cache_hits += node->ingest_stats().cache_hits;
  EXPECT_GT(total_cache_hits, 0u);
}

TEST_F(TcpClusterTest, InlineVerificationCommitsIdentically) {
  // verify_threads = 0: a caller-runs pool, so the same staged code — decode,
  // the crypto stage, egress encode — runs on the loop thread. The cluster
  // must commit and agree exactly as with workers.
  verify_threads_ = 0;
  std::mutex mutex;
  std::vector<std::vector<BlockRef>> sequences(4);
  auto nodes = start_cluster({}, 4, [&](auto& built) {
    for (ValidatorId v = 0; v < 4; ++v) {
      built[v]->set_commit_handler([&, v](const CommittedSubDag& sub_dag) {
        std::lock_guard<std::mutex> g(mutex);
        for (const auto& block : sub_dag.blocks) sequences[v].push_back(block->ref());
      });
    }
  });
  TxBatch batch;
  batch.id = 55;
  batch.count = 20;
  nodes[2]->submit({batch});
  EXPECT_TRUE(wait_for([&] {
    for (const auto& node : nodes) {
      if (node->committed_transactions() < 20) return false;
    }
    return true;
  }));
  for (auto& node : nodes) node->stop();
  for (const auto& node : nodes) {
    // Every peer block went through the screen on the loop thread.
    const IngestStats stats = node->ingest_stats();
    EXPECT_GT(stats.verified + stats.cache_hits, 0u) << "node " << node->id();
    EXPECT_GT(node->egress_frames_encoded(), 0u) << "node " << node->id();
    // The stages ran on the loop thread without relabelling its ring.
    bool saw_admit = false;
    for (const auto& event : node->flight_recorder().snapshot()) {
      EXPECT_EQ(event.label, "loop") << obs::flight_event_name(event.type);
      saw_admit |= event.type == obs::FlightEventType::kBlockAdmit;
    }
    EXPECT_TRUE(saw_admit) << "node " << node->id();
  }
  std::lock_guard<std::mutex> g(mutex);
  for (int i = 1; i < 4; ++i) {
    const std::size_t common = std::min(sequences[0].size(), sequences[i].size());
    ASSERT_GT(common, 0u);
    for (std::size_t k = 0; k < common; ++k) {
      ASSERT_EQ(sequences[0][k], sequences[i][k])
          << "node 0 and node " << i << " diverge at position " << k;
    }
  }
}

TEST_F(TcpClusterTest, LateStartingNodeJoinsViaAntiEntropy) {
  // Start only three of four nodes; they commit on their own (2f+1 quorum).
  // The fourth starts late: its peers' broadcasts predate its sockets, so
  // everything must reach it through the periodic tip offers plus fetch.
  auto nodes = start_cluster({}, 3);
  TxBatch batch;
  batch.id = 3;
  batch.count = 30;
  nodes[0]->submit({batch});
  ASSERT_TRUE(wait_for([&] { return nodes[0]->committed_transactions() >= 30; }));

  const Round rounds_before_join = nodes[0]->highest_round();
  EXPECT_GT(rounds_before_join, 4u);
  nodes[3]->start();
  // The late node reaches the cluster's round frontier and commits.
  EXPECT_TRUE(wait_for([&] {
    return nodes[3]->highest_round() >= rounds_before_join &&
           nodes[3]->committed_transactions() >= 30;
  })) << "late node stuck at round " << nodes[3]->highest_round();
  for (auto& node : nodes) node->stop();
}

TEST_F(TcpClusterTest, CommitSequencesAgreeAcrossNodes) {
  std::mutex mutex;
  std::vector<std::vector<BlockRef>> sequences(4);
  auto nodes = start_cluster({}, 4, [&](auto& built) {
    for (ValidatorId v = 0; v < 4; ++v) {
      built[v]->set_commit_handler([&, v](const CommittedSubDag& sub_dag) {
        std::lock_guard<std::mutex> g(mutex);
        for (const auto& block : sub_dag.blocks) sequences[v].push_back(block->ref());
      });
    }
  });
  for (ValidatorId v = 0; v < 4; ++v) {
    TxBatch batch;
    batch.id = v;
    batch.count = 10;
    nodes[v]->submit({batch});
  }
  EXPECT_TRUE(wait_for([&] {
    std::lock_guard<std::mutex> g(mutex);
    for (const auto& sequence : sequences) {
      if (sequence.size() < 30) return false;
    }
    return true;
  }));
  for (auto& node : nodes) node->stop();

  std::lock_guard<std::mutex> g(mutex);
  for (int i = 1; i < 4; ++i) {
    const std::size_t common = std::min(sequences[0].size(), sequences[i].size());
    for (std::size_t k = 0; k < common; ++k) {
      ASSERT_EQ(sequences[0][k], sequences[i][k])
          << "node 0 and node " << i << " diverge at position " << k;
    }
  }
}

TEST_F(TcpClusterTest, EgressOffloadEncodesOffLoopAndCommits) {
  // Default configuration: outbound blocks are encoded once on the worker
  // pool into shared frames. The cluster must commit exactly as before, and
  // the encode counter proves the path was taken.
  auto nodes = start_cluster();
  for (ValidatorId v = 0; v < 4; ++v) {
    TxBatch batch;
    batch.id = 900 + v;
    batch.count = 10;
    nodes[v]->submit({batch});
  }
  EXPECT_TRUE(wait_for([&] {
    for (const auto& node : nodes) {
      if (node->committed_transactions() < 40) return false;
    }
    return true;
  }));
  for (auto& node : nodes) node->stop();
  for (const auto& node : nodes) {
    // At least one frame per own proposal went through the worker-side
    // encoder (offers and fetch responses add more).
    EXPECT_GT(node->egress_frames_encoded(), 0u) << "node " << node->id();
  }
}

TEST_F(TcpClusterTest, GroupCommitWalClusterCommitsAndRestartsCleanly) {
  // The full write-side pipeline under real sockets: egress encode on the
  // worker pool, WAL appends through the group-commit writer thread,
  // proposal broadcasts gated on durability acks. This is a TSan target (the
  // net suite): it race-checks the loop ↔ WAL-writer handoff. A node is then
  // restarted from its group-committed log — recovery must be as good as
  // from an inline log.
  wal_group_commit_ = true;
  const auto dir = std::filesystem::temp_directory_path();
  std::vector<std::string> wal_paths;
  for (int i = 0; i < 4; ++i) {
    auto path = dir / ("mahi_tcp_gcwal_" + std::to_string(::getpid()) + "_" +
                       std::to_string(i) + ".wal");
    std::filesystem::remove_all(path);
    wal_paths.push_back(path.string());
  }

  auto nodes = start_cluster(wal_paths);
  for (ValidatorId v = 0; v < 4; ++v) {
    EXPECT_TRUE(nodes[v]->wal_group_commit_active());
    TxBatch batch;
    batch.id = 700 + v;
    batch.count = 10;
    nodes[v]->submit({batch});
  }
  ASSERT_TRUE(wait_for([&] {
    for (const auto& node : nodes) {
      if (node->committed_transactions() < 40) return false;
    }
    return true;
  })) << "committed: " << nodes[0]->committed_transactions();

  for (const auto& node : nodes) {
    EXPECT_GT(node->wal_groups_flushed(), 0u) << "node " << node->id();
    EXPECT_GT(node->egress_frames_encoded(), 0u) << "node " << node->id();
  }

  // Restart node 2 from its group-committed WAL.
  const Round round_before = nodes[2]->highest_round();
  nodes[2]->stop();
  nodes[2].reset();
  nodes[2] = make_node(2, wal_paths[2]);
  nodes[2]->start();
  EXPECT_GE(nodes[2]->highest_round(), 1u);  // recovered history

  TxBatch more;
  more.id = 777;
  more.count = 15;
  nodes[0]->submit({more});
  EXPECT_TRUE(wait_for([&] {
    return nodes[0]->committed_transactions() >= 55 &&
           nodes[2]->highest_round() > round_before;
  })) << "post-restart commits stalled";

  for (auto& node : nodes) {
    if (node) node->stop();
  }
  // Every log replays cleanly end to end (group boundaries are invisible).
  for (const auto& path : wal_paths) {
    const auto replay = SegmentedWal::replay(path, [](BlockPtr, bool) {});
    EXPECT_GT(replay.records, 0u) << path;
    std::filesystem::remove_all(path);
  }
}

TEST_F(TcpClusterTest, CheckpointClusterLateJoinerCatchesUpViaSnapshot) {
  // End-to-end snapshot catch-up over real sockets (and the TSan target for
  // the checkpoint writer's cross-thread handoffs): three nodes run with GC
  // + checkpointing until their horizons are far past genesis, then the
  // fourth starts from nothing. Its ancestry walk dead-ends below everyone's
  // horizon; the kHorizon / kCheckpointRequest / kCheckpointChain handshake
  // ships a threshold-certified base+delta chain, the joiner installs it as
  // a trust root and rejoins consensus.
  gc_depth_ = 20;
  checkpoint_interval_ = 5;
  min_round_delay_ = millis(10);

  const auto dir = std::filesystem::temp_directory_path();
  std::vector<std::string> wal_dirs;
  for (int i = 0; i < 4; ++i) {
    auto path = dir / ("mahi_tcp_ckpt_" + std::to_string(::getpid()) + "_" +
                       std::to_string(i));
    std::filesystem::remove_all(path);
    wal_dirs.push_back(path.string());
  }

  auto nodes = start_cluster(wal_dirs, 3);

  // Keep load flowing so rounds (and the GC horizon) advance.
  std::uint64_t batch_id = 9000;
  const auto feed = [&] {
    TxBatch batch;
    batch.id = ++batch_id;
    batch.count = 5;
    nodes[0]->submit({batch});
  };
  feed();
  ASSERT_TRUE(wait_for([&] {
    feed();
    return nodes[0]->highest_round() > 2 * gc_depth_ + 10 &&
           nodes[0]->checkpoints_written() > 0 &&
           nodes[0]->checkpoint_certs() > 0;
  })) << "cluster never built a certified checkpointable history; round "
      << nodes[0]->highest_round();

  // The late joiner starts from genesis, far below every peer's horizon.
  nodes[3]->start();
  EXPECT_TRUE(wait_for([&] {
    feed();
    return nodes[3]->snapshot_catchups() >= 1;
  })) << "the snapshot handshake never completed";

  // The catch-up traveled as a threshold-certified base+delta chain: the
  // serving side prefers its certified chain prefix, so the joiner's install
  // must be a trust-root (certified) one, never the legacy faith path.
  EXPECT_GE(nodes[3]->certified_snapshot_installs(), 1u)
      << "install fell back to the uncertified legacy path ("
      << nodes[3]->uncertified_snapshot_installs() << " uncertified)";

  // Installed state turns into live participation: the joiner tracks the
  // cluster's rounds and delivers commits.
  EXPECT_TRUE(wait_for([&] {
    feed();
    return nodes[3]->committed_blocks() > 0 &&
           nodes[3]->highest_round() + gc_depth_ > nodes[0]->highest_round();
  })) << "joiner installed a snapshot but never rejoined; joiner round "
      << nodes[3]->highest_round() << " vs " << nodes[0]->highest_round();

  // Someone served the snapshot, and the joiner persisted it as its own
  // recovery point (base record + certificate sidecar).
  std::uint64_t served = 0;
  for (ValidatorId v = 0; v < 3; ++v) served += nodes[v]->checkpoints_served();
  EXPECT_GE(served, 1u);
  EXPECT_FALSE(CheckpointStore::list(wal_dirs[3]).empty());

  // The servers ran the incremental layout: with interval 5 and the default
  // delta bound, most cuts land as delta links rather than full snapshots.
  std::uint64_t delta_cuts = 0;
  for (ValidatorId v = 0; v < 3; ++v) delta_cuts += nodes[v]->checkpoint_delta_cuts();
  EXPECT_GT(delta_cuts, 0u);

  for (auto& node : nodes) node->stop();
  for (const auto& path : wal_dirs) std::filesystem::remove_all(path);
}

TEST_F(TcpClusterTest, SurvivesNodeRestartWithWal) {
  const auto dir = std::filesystem::temp_directory_path();
  std::vector<std::string> wal_paths;
  for (int i = 0; i < 4; ++i) {
    auto path = dir / ("mahi_tcp_wal_" + std::to_string(::getpid()) + "_" +
                       std::to_string(i) + ".wal");
    std::filesystem::remove_all(path);
    wal_paths.push_back(path.string());
  }

  auto nodes = start_cluster(wal_paths);
  TxBatch batch;
  batch.id = 7;
  batch.count = 40;
  nodes[1]->submit({batch});
  ASSERT_TRUE(wait_for([&] { return nodes[0]->committed_transactions() >= 40; }));

  const Round round_before = nodes[3]->highest_round();
  // Restart node 3 from its WAL: it must rejoin without equivocating and
  // keep committing.
  nodes[3]->stop();
  nodes[3].reset();
  nodes[3] = make_node(3, wal_paths[3]);  // same mesh addresses, same WAL
  nodes[3]->start();
  EXPECT_GE(nodes[3]->highest_round(), 1u);  // recovered history

  TxBatch more;
  more.id = 8;
  more.count = 15;
  nodes[0]->submit({more});
  EXPECT_TRUE(wait_for([&] {
    return nodes[0]->committed_transactions() >= 55 &&
           nodes[3]->highest_round() > round_before;
  })) << "post-restart commits stalled";

  for (auto& node : nodes) {
    if (node) node->stop();
  }
  for (const auto& path : wal_paths) std::filesystem::remove_all(path);
}

TEST_F(TcpClusterTest, MonolithicWalFileIsRefusedAtConstruction) {
  // An older binary logged to one regular file at wal_path. Starting from an
  // empty log instead would re-propose rounds that file already holds and
  // equivocate, so construction must throw.
  addresses_.assign(4, NodeAddress{"127.0.0.1", 1});
  const auto path = std::filesystem::temp_directory_path() /
                    ("mahi_tcp_monolithic_" + std::to_string(::getpid()) + ".wal");
  { std::ofstream(path, std::ios::binary) << "an old monolithic log"; }
  EXPECT_THROW(make_node(0, path.string()), std::runtime_error);
  EXPECT_TRUE(std::filesystem::is_regular_file(path)) << "the old log must be left alone";
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mahimahi::net
