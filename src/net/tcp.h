// Framed, non-blocking TCP transport over the event loop.
//
// Wire format per frame: [u32 length][payload]; the payload's first byte is
// a message type (see node_runtime.h). Connections buffer partial reads and
// writes; oversized frames kill the connection (peer protocol violation).
//
// A connection registers its fd with the loop's epoll set and makes its own
// recv/sendmsg syscalls on readiness, counting them into the loop's
// IoPlaneStats. Each sendmsg gathers the queued frame slices, up to the
// gather cap in tcp.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "net/event_loop.h"

struct iovec;  // <sys/uio.h>

namespace mahimahi::net {

// An immutable, refcounted outbound frame payload. Encoded once (possibly on
// a worker thread), then shared by every connection sending it: a broadcast
// to n-1 peers queues n-1 views of one buffer instead of n-1 copies.
using SharedFrame = std::shared_ptr<const Bytes>;

inline SharedFrame make_shared_frame(Bytes payload) {
  return std::make_shared<const Bytes>(std::move(payload));
}

// An established connection (either accepted or dialed).
class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  static constexpr std::size_t kMaxFrameBytes = 64 * 1024 * 1024;

  // One received frame. When the frame spanned several reads it arrives in
  // a buffer sized for exactly this frame, and `owner` points at that
  // buffer: the handler may move it out to keep the frame without copying
  // (the frame then sits at `bytes.data() - owner->data()` in it). Converts
  // to BytesView for handlers that only look.
  struct Frame {
    BytesView bytes;
    Bytes* owner = nullptr;
    operator BytesView() const { return bytes; }
  };

  using FrameHandler = std::function<void(const Frame& frame)>;
  using CloseHandler = std::function<void()>;
  using RawHandler = std::function<void(BytesView bytes)>;

  // Takes ownership of the (already non-blocking) socket fd.
  TcpConnection(EventLoop& loop, int fd);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Registers with the loop; handlers fire on the loop thread.
  void start(FrameHandler on_frame, CloseHandler on_close);

  // Raw (unframed) mode: ingress bytes are delivered to on_bytes exactly as
  // received — no [u32 length] framing, no frame-size cap — and egress goes
  // through send_raw(). The admin/metrics HTTP endpoint runs on this; the
  // consensus plane never does. Choose start() or start_raw() once, before
  // any bytes move; there is no switching a live connection.
  void start_raw(RawHandler on_bytes, CloseHandler on_close);

  // Queues a frame (length prefix added). Loop thread only. The BytesView
  // overload copies the payload once; the SharedFrame overload only bumps a
  // refcount — use it when one encoded frame fans out to several peers.
  void send_frame(BytesView payload);
  void send_frame(SharedFrame payload);

  // Queues bytes with no length prefix (raw mode). Loop thread only.
  void send_raw(SharedFrame payload);

  void close();
  bool closed() const { return fd_ < 0; }
  int fd() const { return fd_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  // One queued outbound frame: the length prefix plus a refcounted,
  // immutable payload. `sent` counts bytes of (header + payload) already on
  // the wire, so a partial send resumes mid-frame. header_len is 4 for
  // framed writes and 0 for raw-mode writes (send_raw).
  struct PendingWrite {
    std::array<std::uint8_t, 4> header{};
    std::uint8_t header_len = 4;
    SharedFrame payload;
    std::size_t sent = 0;
  };

  void handle_events(std::uint32_t events);
  void handle_readable();
  void handle_writable();
  // Fills `iov` (capacity `max`) with the queue's unsent header/payload
  // slices. Returns the count.
  std::size_t gather_unsent(iovec* iov, std::size_t max) const;
  // Accounts `count` wire bytes as sent and pops fully-sent frames.
  void retire_sent(std::size_t count);
  void update_interest();
  void dispatch(const Frame& frame);
  // Dispatches complete frames in data[offset, size); advances `offset` past
  // them. Returns false when the connection closed mid-parse.
  bool parse_frames(const std::uint8_t* data, std::size_t size, std::size_t& offset);
  // Appends received bytes to read_buffer_, never past the end of a pending
  // partial frame, and parses after each append.
  void append_and_parse(const std::uint8_t* data, std::size_t size);
  // Dispatches the complete frames in read_buffer_; a trailing partial frame
  // moves to the front and the buffer is sized for exactly that frame.
  void parse_buffered();

  EventLoop& loop_;
  IoPlaneStats& io_stats_;
  int fd_;
  bool registered_ = false;
  bool raw_ = false;
  FrameHandler on_frame_;
  RawHandler on_raw_;
  CloseHandler on_close_;
  // Persistent ingress state: recv lands in the reusable scratch chunk (no
  // 64 KiB stack buffer, allocated once per connection), partial frames
  // accumulate in read_buffer_, and read_consumed_ tracks the parsed prefix
  // so consumption is O(1) instead of an erase-memmove per readable event.
  // frame_end_ is nonzero while read_buffer_ starts with a partial frame: the
  // buffer size at which that frame completes. The buffer is reserved to
  // exactly that size and handed to the frame handler whole, so a multi-MB
  // block costs one allocation (no doubling series) and its capacity leaves
  // with it instead of staying with the connection.
  Bytes ingress_scratch_;
  Bytes read_buffer_;
  std::size_t read_consumed_ = 0;
  std::size_t frame_end_ = 0;
  std::deque<PendingWrite> write_queue_;
  bool want_write_ = false;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

using TcpConnectionPtr = std::shared_ptr<TcpConnection>;

// Listening socket; accepts connections and hands them to the callback.
class TcpListener {
 public:
  using AcceptHandler = std::function<void(TcpConnectionPtr connection)>;

  TcpListener(EventLoop& loop, std::uint16_t port, AcceptHandler on_accept);
  ~TcpListener();

  std::uint16_t port() const { return port_; }

 private:
  void handle_accept();

  EventLoop& loop_;
  int fd_ = -1;
  std::uint16_t port_;
  AcceptHandler on_accept_;
};

// Asynchronous dial to 127.0.0.1-style host:port; invokes the callback with
// nullptr on failure (caller schedules the retry).
void tcp_connect(EventLoop& loop, const std::string& host, std::uint16_t port,
                 std::function<void(TcpConnectionPtr)> on_done);

}  // namespace mahimahi::net
