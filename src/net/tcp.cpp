#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <limits.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/log.h"

namespace mahimahi::net {

namespace {

// Recv chunk size for the readiness path, and the threshold past which the
// partial-frame buffer compacts its consumed prefix (large enough that a
// compaction amortizes over many frames, small enough to bound slack).
constexpr std::size_t kIngressChunkBytes = 64 * 1024;
// Capacity an idle read buffer may keep between bursts.
constexpr std::size_t kMaxIdleBufferBytes = 4 * kIngressChunkBytes;
// Gather cap for one batched sendmsg: a burst of small frames to one peer
// collapses into one syscall almost regardless of burst size. IOV_MAX is
// 1024 on Linux; the clamp keeps a pathological libc value off the stack.
constexpr std::size_t kMaxGatherIovecs = IOV_MAX < 1024 ? IOV_MAX : 1024;

void set_non_blocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_no_delay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// --- TcpConnection -----------------------------------------------------------

TcpConnection::TcpConnection(EventLoop& loop, int fd)
    : loop_(loop), io_stats_(loop.io_stats()), fd_(fd) {
  set_non_blocking(fd_);
  set_no_delay(fd_);
}

TcpConnection::~TcpConnection() {
  // Destructor path: no handlers may fire (the owner is already going away,
  // and shared_from_this is unavailable here).
  on_frame_ = nullptr;
  on_close_ = nullptr;
  close();
}

void TcpConnection::start(FrameHandler on_frame, CloseHandler on_close) {
  on_frame_ = std::move(on_frame);
  on_close_ = std::move(on_close);
  if (registered_) return;  // re-binding handlers (e.g. after a handshake)
  registered_ = true;
  auto self = shared_from_this();
  loop_.add_fd(fd_, EPOLLIN, [self](std::uint32_t events) { self->handle_events(events); });
}

void TcpConnection::start_raw(RawHandler on_bytes, CloseHandler on_close) {
  raw_ = true;
  on_raw_ = std::move(on_bytes);
  // Registration and close handling are identical to framed mode; only the
  // parse/dispatch step differs.
  start(nullptr, std::move(on_close));
}

void TcpConnection::handle_events(std::uint32_t events) {
  if (closed()) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    close();
    return;
  }
  if (events & EPOLLIN) handle_readable();
  if (closed()) return;
  if (events & EPOLLOUT) handle_writable();
}

void TcpConnection::handle_readable() {
  // Reusable per-connection scratch: one 64 KiB heap chunk for the life of
  // the connection instead of a per-call stack buffer.
  if (ingress_scratch_.empty()) ingress_scratch_.resize(kIngressChunkBytes);
  for (;;) {
    const ssize_t received =
        ::recv(fd_, ingress_scratch_.data(), ingress_scratch_.size(), 0);
    io_stats_.submit_syscalls.fetch_add(1, std::memory_order_relaxed);
    if (received > 0) {
      bytes_received_ += static_cast<std::uint64_t>(received);
      io_stats_.note_recv(static_cast<std::uint64_t>(received));
      append_and_parse(ingress_scratch_.data(), static_cast<std::size_t>(received));
      if (closed()) return;
      continue;
    }
    if (received == 0) {  // orderly shutdown
      close();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close();
    return;
  }
}

void TcpConnection::dispatch(const Frame& frame) {
  if (!on_frame_) return;
  // Copy before invoking: the handler may rebind on_frame_ (handshake
  // identification), which would otherwise destroy the closure that is
  // currently executing.
  const FrameHandler handler = on_frame_;
  handler(frame);
}

bool TcpConnection::parse_frames(const std::uint8_t* data, std::size_t size,
                                 std::size_t& offset) {
  while (size - offset >= 4) {
    std::uint32_t length;
    std::memcpy(&length, data + offset, 4);
    if (length > kMaxFrameBytes) {
      MM_LOG(kWarn) << "oversized frame (" << length << " bytes); closing connection";
      close();
      return false;
    }
    if (size - offset - 4 < length) break;
    dispatch(Frame{{data + offset + 4, length}});
    if (closed()) return false;  // handler may close
    offset += 4 + length;
  }
  return true;
}

void TcpConnection::append_and_parse(const std::uint8_t* data, std::size_t size) {
  while (size > 0 && !closed()) {
    std::size_t take = size;
    if (frame_end_ > read_buffer_.size()) take = std::min(take, frame_end_ - read_buffer_.size());
    read_buffer_.insert(read_buffer_.end(), data, data + take);
    data += take;
    size -= take;
    parse_buffered();
  }
}

void TcpConnection::parse_buffered() {
  if (raw_) {
    if (read_buffer_.size() == read_consumed_) return;
    // Hand the whole unconsumed buffer to the raw handler. Detach it first:
    // the handler may send_raw or close, and must not observe a buffer it is
    // currently being handed a view into.
    Bytes chunk;
    chunk.swap(read_buffer_);
    const std::size_t offset = read_consumed_;
    read_consumed_ = 0;
    if (on_raw_) {
      const RawHandler handler = on_raw_;
      handler({chunk.data() + offset, chunk.size() - offset});
    }
    return;
  }
  if (frame_end_ != 0) {
    if (read_buffer_.size() < frame_end_) return;
    // The buffer holds exactly the frame it was sized for: give it away.
    Bytes owned;
    owned.swap(read_buffer_);
    frame_end_ = 0;
    read_consumed_ = 0;
    dispatch(Frame{{owned.data() + 4, owned.size() - 4}, &owned});
    return;
  }
  std::size_t offset = read_consumed_;
  if (!parse_frames(read_buffer_.data(), read_buffer_.size(), offset)) return;
  read_consumed_ = offset;
  if (read_consumed_ == read_buffer_.size()) {
    read_buffer_.clear();  // O(1), keeps capacity for the next burst...
    read_consumed_ = 0;
    // ...but only a few chunks' worth.
    if (read_buffer_.capacity() > kMaxIdleBufferBytes) Bytes().swap(read_buffer_);
    return;
  }
  std::uint32_t length = 0;
  const bool header = read_buffer_.size() - read_consumed_ >= 4;
  if (header) std::memcpy(&length, read_buffer_.data() + read_consumed_, 4);
  if (!header || 4 + static_cast<std::size_t>(length) <= kIngressChunkBytes) {
    // A small partial frame completes within a chunk or two: let it
    // accumulate, compacting the consumed prefix once it is large enough to
    // amortize the move.
    if (read_consumed_ >= kIngressChunkBytes) {
      read_buffer_.erase(read_buffer_.begin(),
                         read_buffer_.begin() + static_cast<std::ptrdiff_t>(read_consumed_));
      read_consumed_ = 0;
    }
    return;
  }
  // A large partial frame (parse_frames bounded its length): move it into a
  // buffer of exactly its size.
  frame_end_ = 4 + static_cast<std::size_t>(length);
  Bytes exact;
  exact.reserve(frame_end_);
  exact.assign(read_buffer_.begin() + static_cast<std::ptrdiff_t>(read_consumed_),
               read_buffer_.end());
  read_buffer_.swap(exact);
  read_consumed_ = 0;
}

void TcpConnection::send_frame(BytesView payload) {
  send_frame(make_shared_frame(Bytes(payload.begin(), payload.end())));
}

void TcpConnection::send_frame(SharedFrame payload) {
  if (closed() || payload == nullptr) return;
  PendingWrite pending;
  const std::uint32_t length = static_cast<std::uint32_t>(payload->size());
  std::memcpy(pending.header.data(), &length, 4);
  pending.payload = std::move(payload);
  write_queue_.push_back(std::move(pending));
  handle_writable();  // opportunistic immediate flush
}

void TcpConnection::send_raw(SharedFrame payload) {
  if (closed() || payload == nullptr || payload->empty()) return;
  PendingWrite pending;
  pending.header_len = 0;  // no length prefix: bytes go out exactly as given
  pending.payload = std::move(payload);
  write_queue_.push_back(std::move(pending));
  handle_writable();
}

std::size_t TcpConnection::gather_unsent(iovec* iov, std::size_t max) const {
  std::size_t count = 0;
  for (const PendingWrite& pending : write_queue_) {
    if (count + 2 > max) break;
    std::size_t skip = pending.sent;
    if (skip < pending.header_len) {
      iov[count++] = {const_cast<std::uint8_t*>(pending.header.data() + skip),
                      pending.header_len - skip};
      skip = 0;
    } else {
      skip -= pending.header_len;
    }
    if (skip < pending.payload->size()) {
      iov[count++] = {const_cast<std::uint8_t*>(pending.payload->data() + skip),
                      pending.payload->size() - skip};
    }
  }
  return count;
}

void TcpConnection::retire_sent(std::size_t count) {
  bytes_sent_ += count;
  while (count > 0 && !write_queue_.empty()) {
    PendingWrite& head = write_queue_.front();
    const std::size_t total = head.header_len + head.payload->size();
    const std::size_t take = std::min(count, total - head.sent);
    head.sent += take;
    count -= take;
    if (head.sent == total) write_queue_.pop_front();
  }
  // Zero-payload edge case: a fully-sent head contributes no iovecs, so pop
  // it even when no bytes were attributed to it.
  while (!write_queue_.empty()) {
    const PendingWrite& head = write_queue_.front();
    if (head.sent < head.header_len + head.payload->size()) break;
    write_queue_.pop_front();
  }
}

void TcpConnection::handle_writable() {
  while (!write_queue_.empty()) {
    // Gather the queue head into one sendmsg: each pending frame contributes
    // its unsent header and payload slices, so a burst of small frames costs
    // one syscall instead of one per frame, and no frame is ever copied into
    // a connection-private buffer.
    std::array<iovec, kMaxGatherIovecs> iov;
    const std::size_t iov_count = gather_unsent(iov.data(), iov.size());
    if (iov_count == 0) {  // fully-sent head (empty payload edge case)
      write_queue_.pop_front();
      continue;
    }

    msghdr message{};
    message.msg_iov = iov.data();
    message.msg_iovlen = iov_count;
    const ssize_t sent = ::sendmsg(fd_, &message, MSG_NOSIGNAL);
    io_stats_.submit_syscalls.fetch_add(1, std::memory_order_relaxed);
    if (sent < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close();
      return;
    }
    if (sent == 0) break;  // defensive: never spin on a zero-byte send
    io_stats_.note_send(static_cast<std::uint64_t>(sent));
    retire_sent(static_cast<std::size_t>(sent));
  }
  if (write_queue_.empty()) {
    if (want_write_) {
      want_write_ = false;
      update_interest();
    }
  } else if (!want_write_) {
    want_write_ = true;
    update_interest();
  }
}

void TcpConnection::update_interest() {
  loop_.modify_fd(fd_, want_write_ ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
}

void TcpConnection::close() {
  if (closed()) return;
  // The close handler may drop the owner's last shared_ptr to this object
  // (e.g. a peer table resetting its slot); keep the object alive until this
  // function returns. In the destructor path the lock yields nullptr, but
  // handlers are already cleared there.
  const TcpConnectionPtr guard = weak_from_this().lock();
  if (registered_) loop_.remove_fd(fd_);
  ::close(fd_);
  fd_ = -1;
  if (on_close_) {
    CloseHandler handler = std::move(on_close_);
    on_close_ = nullptr;
    handler();
  }
}

// --- TcpListener ---------------------------------------------------------------

TcpListener::TcpListener(EventLoop& loop, std::uint16_t port, AcceptHandler on_accept)
    : loop_(loop), port_(port), on_accept_(std::move(on_accept)) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&address), sizeof(address)) != 0) {
    ::close(fd_);
    throw std::runtime_error("bind() failed on port " + std::to_string(port));
  }
  if (port == 0) {
    socklen_t len = sizeof(address);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&address), &len);
    port_ = ntohs(address.sin_port);
  }
  if (::listen(fd_, 128) != 0) {
    ::close(fd_);
    throw std::runtime_error("listen() failed");
  }
  set_non_blocking(fd_);
  loop_.add_fd(fd_, EPOLLIN, [this](std::uint32_t) { handle_accept(); });
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) {
    loop_.remove_fd(fd_);
    ::close(fd_);
  }
}

void TcpListener::handle_accept() {
  for (;;) {
    const int client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client < 0) return;  // EAGAIN or transient error
    on_accept_(std::make_shared<TcpConnection>(loop_, client));
  }
}

// --- tcp_connect ---------------------------------------------------------------

void tcp_connect(EventLoop& loop, const std::string& host, std::uint16_t port,
                 std::function<void(TcpConnectionPtr)> on_done) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    on_done(nullptr);
    return;
  }
  set_non_blocking(fd);

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    ::close(fd);
    on_done(nullptr);
    return;
  }

  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address));
  if (rc == 0) {
    on_done(std::make_shared<TcpConnection>(loop, fd));
    return;
  }
  if (errno != EINPROGRESS) {
    ::close(fd);
    on_done(nullptr);
    return;
  }

  // Wait for writability, then check SO_ERROR.
  auto callback = std::make_shared<std::function<void(std::uint32_t)>>();
  *callback = [&loop, fd, on_done = std::move(on_done)](std::uint32_t) {
    loop.remove_fd(fd);
    int error = 0;
    socklen_t len = sizeof(error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len);
    if (error != 0) {
      ::close(fd);
      on_done(nullptr);
      return;
    }
    on_done(std::make_shared<TcpConnection>(loop, fd));
  };
  loop.add_fd(fd, EPOLLOUT, [callback](std::uint32_t events) { (*callback)(events); });
}

}  // namespace mahimahi::net
