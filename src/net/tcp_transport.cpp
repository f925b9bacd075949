#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/log.hpp"

namespace dauct::net {

namespace {

bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_exact(int fd, std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
  return addr;
}

}  // namespace

TcpNode::TcpNode(NodeId self, TcpPeers peers) : self_(self), peers_(peers) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("TcpNode: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(peers_.host, peers_.port_of(self_));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("TcpNode: bind() failed on port " +
                             std::to_string(peers_.port_of(self_)));
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("TcpNode: listen() failed");
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

TcpNode::~TcpNode() { shutdown(); }

void TcpNode::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR) continue;
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard lock(readers_mutex_);
    accepted_fds_.push_back(fd);
    readers_.emplace_back([this, fd] { reader_loop(fd); });
  }
}

void TcpNode::reader_loop(int fd) {
  // Frames: u32 body length + body (see net/message.hpp).
  for (;;) {
    std::uint8_t len_buf[4];
    if (!read_exact(fd, len_buf, 4)) break;
    const std::uint32_t body_len = static_cast<std::uint32_t>(len_buf[0]) |
                                   static_cast<std::uint32_t>(len_buf[1]) << 8 |
                                   static_cast<std::uint32_t>(len_buf[2]) << 16 |
                                   static_cast<std::uint32_t>(len_buf[3]) << 24;
    if (body_len > kMaxFrameBytes) {
      DAUCT_WARN("tcp: oversized frame (" << body_len << " bytes); dropping peer");
      break;
    }
    Bytes frame(4 + body_len);
    std::memcpy(frame.data(), len_buf, 4);
    if (body_len > 0 && !read_exact(fd, frame.data() + 4, body_len)) break;
    try {
      if (auto decoded = decode_frame(BytesView(frame))) {
        inbox_.push(std::move(decoded->message));
      }
    } catch (const std::length_error&) {
      DAUCT_WARN("tcp: malformed frame; dropping peer");
      break;
    }
  }
  // The fd is closed centrally in shutdown(): closing here would race with
  // shutdown()'s wake-up ::shutdown() on a recycled descriptor.
}

int TcpNode::connect_to(NodeId peer) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  // A closed outbound socket lingers in TIME_WAIT on its ephemeral port.
  // Flagged reusable, it cannot block a later listener (which sets
  // SO_REUSEADDR too) that picks the same port.
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(peers_.host, peers_.port_of(peer));
  // Peers start concurrently; retry briefly while the listener comes up.
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    if (errno != ECONNREFUSED && errno != EINTR) break;
    ::usleep(20'000);
  }
  ::close(fd);
  return -1;
}

bool TcpNode::send(Message msg) {
  const NodeId to = msg.to;
  if (to == self_) {  // self-delivery shortcut (no socket round-trip)
    return inbox_.push(std::move(msg));
  }
  std::lock_guard lock(out_mutex_);
  auto it = out_fds_.find(to);
  if (it == out_fds_.end()) {
    const int fd = connect_to(to);
    if (fd < 0) {
      DAUCT_WARN("tcp: connect to node " << to << " failed");
      return false;
    }
    it = out_fds_.emplace(to, fd).first;
  }
  const Bytes frame = encode_frame(msg);
  if (!write_all(it->second, frame.data(), frame.size())) {
    // The cached connection died (peer restarted, RST in flight): retry once
    // over a fresh one before reporting failure.
    ::close(it->second);
    out_fds_.erase(it);
    const int fd = connect_to(to);
    if (fd < 0) return false;
    if (!write_all(fd, frame.data(), frame.size())) {
      ::close(fd);
      return false;
    }
    out_fds_.emplace(to, fd);
  }
  return true;
}

void TcpNode::reset_peer(NodeId peer) {
  std::lock_guard lock(out_mutex_);
  const auto it = out_fds_.find(peer);
  if (it == out_fds_.end()) return;
  ::close(it->second);
  out_fds_.erase(it);
}

void TcpNode::shutdown() {
  if (stopping_.exchange(true)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard lock(out_mutex_);
    for (auto& [peer, fd] : out_fds_) ::close(fd);
    out_fds_.clear();
  }
  inbox_.close();
  std::vector<std::thread> readers;
  std::vector<int> accepted;
  {
    std::lock_guard lock(readers_mutex_);
    // Wake blocked readers: shutting down the accepted sockets makes their
    // recv() return 0/err immediately (waiting for the peer to close would
    // deadlock when nodes in one process shut down sequentially).
    for (int fd : accepted_fds_) ::shutdown(fd, SHUT_RDWR);
    accepted.swap(accepted_fds_);
    readers.swap(readers_);
  }
  for (auto& t : readers) t.join();
  for (int fd : accepted) ::close(fd);
}

std::uint16_t pick_base_port(std::uint16_t span) {
  const auto pid = static_cast<std::uint32_t>(::getpid());
  return static_cast<std::uint16_t>(20'000 + (pid * 131) % (20'000 - span));
}

}  // namespace dauct::net
