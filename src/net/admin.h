// Lightweight admin HTTP endpoint on the validator's TCP plane.
//
// Serves GET /metrics (Prometheus text format) and GET /metrics.json from
// the loop thread, over raw-mode TcpConnections — so it shares the loop's
// lifecycle and adds no thread. The HTTP dialect is deliberately minimal: parse the
// request line, ignore headers, answer with Content-Length and
// Connection: close, wait for the peer to hang up. curl, Prometheus
// scrapers, and the cluster tests all speak it.
//
// Anything beyond a well-formed GET within the size cap gets a 4xx or the
// connection dropped; the endpoint binds to loopback (like the consensus
// listener) and is for operators, not the public internet.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "net/tcp.h"

namespace mahimahi::net {

class AdminServer {
 public:
  // Returns the response body for `path` and may set `content_type`
  // (defaults to text/plain); std::nullopt = 404. Runs on the loop thread.
  using Renderer =
      std::function<std::optional<std::string>(std::string_view path, std::string& content_type)>;

  // port 0 binds an ephemeral port (see port()). Throws like TcpListener on
  // bind failure. Must be constructed and destroyed on the loop thread (or
  // while the loop is not running).
  AdminServer(EventLoop& loop, std::uint16_t port, Renderer renderer);
  ~AdminServer();

  std::uint16_t port() const { return listener_->port(); }

 private:
  // Per-connection accumulation state, keyed by the connection itself.
  struct Pending {
    TcpConnectionPtr connection;
    std::string request;
    bool responded = false;
  };

  void on_connection(TcpConnectionPtr connection);
  void on_bytes(TcpConnection* key, BytesView bytes);
  std::string respond(const std::string& request_line);

  EventLoop& loop_;
  Renderer renderer_;
  std::unique_ptr<TcpListener> listener_;
  std::unordered_map<TcpConnection*, Pending> connections_;
};

}  // namespace mahimahi::net
