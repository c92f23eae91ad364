// Loopback ports for multi-node test clusters.
//
// Every node must know the whole mesh before any node starts, so a cluster
// test picks its ports up front and binds them later. Two things can take a
// picked port in between:
//  * an outgoing connection: the kernel assigns source ports from the
//    ephemeral range (/proc/sys/net/ipv4/ip_local_port_range), and parallel
//    cluster tests dial thousands of connections;
//  * another test process that picked the same port.
// pick_local_ports() draws from below the ephemeral range, which rules out
// the first; start_cluster() starts again on fresh ports when a listener
// cannot bind, which handles the second.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "net/node_runtime.h"

namespace mahimahi::test {

// The first port of the kernel's ephemeral range (Linux default if unreadable).
inline int ephemeral_port_floor() {
  std::ifstream in("/proc/sys/net/ipv4/ip_local_port_range");
  int low = 0, high = 0;
  return in >> low >> high && low > 1024 ? low : 32768;
}

// Can a loopback listener bind `port` now? Uses the listener's SO_REUSEADDR,
// so a port whose old connections linger in TIME_WAIT counts as free.
inline bool loopback_port_free(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  const bool bound =
      ::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) == 0;
  ::close(fd);
  return bound;
}

// `count` distinct ports below the ephemeral range that were free when
// checked, drawn at random so parallel test processes rarely collide.
inline std::vector<std::uint16_t> pick_local_ports(std::size_t count) {
  const int ceiling = ephemeral_port_floor();
  const int floor = ceiling > 12000 ? 10000 : 1025;
  std::mt19937 rng(std::random_device{}());
  std::uniform_int_distribution<int> draw(floor, ceiling - 1);
  std::set<std::uint16_t> chosen;
  std::vector<std::uint16_t> ports;
  for (int tries = 0; ports.size() < count; ++tries) {
    if (tries > 100000) throw std::runtime_error("no free loopback ports");
    const auto port = static_cast<std::uint16_t>(draw(rng));
    if (chosen.insert(port).second && loopback_port_free(port)) ports.push_back(port);
  }
  return ports;
}

using Cluster = std::vector<std::unique_ptr<net::NodeRuntime>>;

// Builds a cluster of `size` nodes on fresh loopback ports with `build` and
// starts its first `started` nodes in order. If a node cannot bind its port,
// the attempt is stopped and the whole cluster is built again on new ports;
// `build` must therefore produce a fresh cluster on every call.
inline Cluster start_cluster(
    std::size_t size, const std::function<Cluster(std::vector<net::NodeAddress>)>& build,
    std::size_t started) {
  constexpr int kAttempts = 8;
  for (int attempt = 1;; ++attempt) {
    std::vector<net::NodeAddress> addresses(size);
    const std::vector<std::uint16_t> ports = pick_local_ports(size);
    for (std::size_t i = 0; i < size; ++i) addresses[i].port = ports[i];
    Cluster nodes = build(std::move(addresses));
    try {
      for (std::size_t i = 0; i < started; ++i) nodes[i]->start();
      return nodes;
    } catch (const std::runtime_error&) {
      if (attempt == kAttempts) throw;
      for (auto& node : nodes) node->stop();
    }
  }
}

}  // namespace mahimahi::test
