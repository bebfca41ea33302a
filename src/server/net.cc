#include "server/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

#include "util/fault_injection.h"
#include "util/metrics.h"

namespace livegraph {

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    rx_bytes_ = other.rx_bytes_;
    tx_bytes_ = other.tx_bytes_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Socket::ReadFull(void* data, size_t size) {
  if (faults::Action fault = LIVEGRAPH_FAULT("net.recv")) {
    if (fault.kind == faults::Action::Kind::kShortWrite) {
      // Consume up to the injected budget, then tear the stream mid-frame
      // — the receiver-side half of a torn/half-closed connection.
      size_t budget = static_cast<size_t>(fault.arg) < size
                          ? static_cast<size_t>(fault.arg)
                          : size;
      char* at = static_cast<char*>(data);
      while (budget > 0) {
        ssize_t n = ::recv(fd_, at, budget, 0);
        if (n <= 0) break;
        at += n;
        budget -= static_cast<size_t>(n);
      }
    }
    Shutdown();
    return false;
  }
  char* at = static_cast<char*>(data);
  while (size > 0) {
    ssize_t n = ::recv(fd_, at, size, 0);
    if (n == 0) return false;  // orderly EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      // Expired SO_RCVTIMEO deadline: the peer is hung, fail the read.
      return false;
    }
    at += n;
    size -= static_cast<size_t>(n);
  }
  if (rx_bytes_ != nullptr) {
    rx_bytes_->Add(static_cast<uint64_t>(at - static_cast<char*>(data)));
  }
  return true;
}

int64_t Socket::ReadSome(void* data, size_t size) {
  if (faults::Action fault = LIVEGRAPH_FAULT("net.recv")) {
    // Same failure ReadFull injects: consume up to the injected budget,
    // then tear the stream mid-frame.
    if (fault.kind == faults::Action::Kind::kShortWrite) {
      size_t budget = static_cast<size_t>(fault.arg) < size
                          ? static_cast<size_t>(fault.arg)
                          : size;
      if (budget > 0) ::recv(fd_, data, budget, 0);
    }
    Shutdown();
    return -1;
  }
  while (true) {
    ssize_t n = ::recv(fd_, data, size, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return -1;  // error or expired SO_RCVTIMEO deadline
    if (n > 0 && rx_bytes_ != nullptr) {
      rx_bytes_->Add(static_cast<uint64_t>(n));
    }
    return static_cast<int64_t>(n);
  }
}

bool Socket::WriteFull(const void* data, size_t size, bool more) {
  if (faults::Action fault = LIVEGRAPH_FAULT("net.send")) {
    if (fault.kind == faults::Action::Kind::kShortWrite) {
      // Push a real partial frame onto the wire before tearing the
      // stream, so the peer exercises its mid-frame-close handling.
      size_t budget = static_cast<size_t>(fault.arg) < size
                          ? static_cast<size_t>(fault.arg)
                          : size;
      const char* at = static_cast<const char*>(data);
      while (budget > 0) {
        ssize_t n = ::send(fd_, at, budget, MSG_NOSIGNAL);
        if (n <= 0) break;
        at += n;
        budget -= static_cast<size_t>(n);
      }
    }
    Shutdown();
    return false;
  }
  const char* at = static_cast<const char*>(data);
  const int flags = MSG_NOSIGNAL | (more ? MSG_MORE : 0);
  while (size > 0) {
    ssize_t n = ::send(fd_, at, size, flags);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Expired SO_SNDTIMEO deadline: the peer stopped draining, fail.
      return false;
    }
    at += n;
    size -= static_cast<size_t>(n);
  }
  if (tx_bytes_ != nullptr) {
    tx_bytes_->Add(
        static_cast<uint64_t>(at - static_cast<const char*>(data)));
  }
  return true;
}

bool Socket::SetNonBlocking(bool enabled) {
  if (fd_ < 0) return false;
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return false;
  int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return flags == wanted || ::fcntl(fd_, F_SETFL, wanted) == 0;
}

int64_t Socket::ReadNonBlocking(void* data, size_t size) {
  if (faults::Action fault = LIVEGRAPH_FAULT("net.recv")) {
    // Same failure the blocking path injects: tear the stream. The
    // reactor sees an error return and closes the connection.
    (void)fault;
    Shutdown();
    return -1;
  }
  while (true) {
    ssize_t n = ::recv(fd_, data, size, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return kWouldBlock;
      return -1;
    }
    if (n > 0 && rx_bytes_ != nullptr) {
      rx_bytes_->Add(static_cast<uint64_t>(n));
    }
    return static_cast<int64_t>(n);
  }
}

int64_t Socket::WritevNonBlocking(const struct iovec* iov, int iov_count) {
  if (faults::Action fault = LIVEGRAPH_FAULT("net.send")) {
    if (fault.kind == faults::Action::Kind::kShortWrite) {
      // Push a bounded prefix onto the wire before tearing the stream —
      // the peer exercises its mid-frame-close handling (same shape as
      // WriteFull's injection).
      size_t budget = static_cast<size_t>(fault.arg);
      for (int i = 0; i < iov_count && budget > 0; ++i) {
        size_t chunk = iov[i].iov_len < budget ? iov[i].iov_len : budget;
        ssize_t n = ::send(fd_, iov[i].iov_base, chunk, MSG_NOSIGNAL);
        if (n <= 0) break;
        budget -= static_cast<size_t>(n);
      }
    }
    Shutdown();
    return -1;
  }
  while (true) {
    msghdr msg = {};
    msg.msg_iov = const_cast<struct iovec*>(iov);
    msg.msg_iovlen = static_cast<size_t>(iov_count);
    ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return kWouldBlock;
      return -1;
    }
    if (n > 0 && tx_bytes_ != nullptr) {
      tx_bytes_->Add(static_cast<uint64_t>(n));
    }
    return static_cast<int64_t>(n);
  }
}

namespace {

void SetSockTimeout(int fd, int option, int64_t timeout_ms) {
  if (fd < 0 || timeout_ms < 0) return;
  timeval tv;
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

}  // namespace

void Socket::SetRecvTimeout(int64_t timeout_ms) {
  SetSockTimeout(fd_, SO_RCVTIMEO, timeout_ms);
}

void Socket::SetSendTimeout(int64_t timeout_ms) {
  SetSockTimeout(fd_, SO_SNDTIMEO, timeout_ms);
}

bool Socket::Readable(int timeout_ms) const {
  if (fd_ < 0) return false;
  pollfd pfd = {fd_, POLLIN, 0};
  while (true) {
    int n = ::poll(&pfd, 1, timeout_ms);
    if (n < 0 && errno == EINTR) continue;
    // POLLHUP/POLLERR also report readable: the next ReadFrame surfaces
    // the EOF/error, which is how the caller learns the peer is gone.
    return n > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
  }
}

bool Socket::WriteFrame(MsgType type, uint8_t flags, std::string_view body,
                        std::string* scratch) {
  // A body over the protocol cap would be rejected by the receiver's
  // header check anyway (and one over 4 GiB would truncate the u32 length
  // and desync framing); refuse locally so the failure is immediate and
  // the bytes never hit the wire.
  if (body.size() > kMaxFrameBody) return false;
  scratch->clear();
  EncodeFrame(type, flags, body, scratch);
  return WriteFull(scratch->data(), scratch->size());
}

bool Socket::ReadFrame(Frame* frame) {
  char header[kFrameHeaderSize];
  if (!ReadFull(header, sizeof(header))) return false;
  uint32_t body_size;
  if (!DecodeFrameHeader(header, &frame->type, &frame->flags, &body_size)) {
    return false;
  }
  frame->body.resize(body_size);
  if (body_size > 0 && !ReadFull(frame->body.data(), body_size)) {
    return false;
  }
  return ValidateFrame(header, frame->body);
}

namespace {

/// FrameReader's buffer: the usual refill size, and the capacity above
/// which an emptied buffer (after an outsized frame) is given back.
constexpr size_t kReaderChunk = 64u << 10;
constexpr size_t kReaderKeep = 256u << 10;

}  // namespace

bool FrameReader::Fill(Socket* socket, size_t need) {
  while (end_ - begin_ < need) {
    if (buf_.size() - begin_ < need || end_ == buf_.size()) {
      // Move the unread tail to the front, growing only for a frame larger
      // than the buffer.
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
      if (buf_.size() < need || buf_.size() < kReaderChunk) {
        buf_.resize(need > kReaderChunk ? need : kReaderChunk);
      }
    }
    int64_t n = socket->ReadSome(buf_.data() + end_, buf_.size() - end_);
    if (recvs_ != nullptr) recvs_->fetch_add(1, std::memory_order_relaxed);
    if (n <= 0) return false;  // EOF, error or expired deadline
    end_ += static_cast<size_t>(n);
  }
  return true;
}

bool FrameReader::Read(Socket* socket, Frame* frame) {
  if (!Fill(socket, kFrameHeaderSize)) return false;
  char header[kFrameHeaderSize];
  std::memcpy(header, buf_.data() + begin_, kFrameHeaderSize);
  uint32_t body_size;
  if (!DecodeFrameHeader(header, &frame->type, &frame->flags, &body_size) ||
      !Fill(socket, kFrameHeaderSize + body_size)) {
    return false;
  }
  frame->body.assign(buf_.data() + begin_ + kFrameHeaderSize, body_size);
  begin_ += kFrameHeaderSize + body_size;
  if (begin_ == end_) {
    begin_ = end_ = 0;
    if (buf_.size() > kReaderKeep) {
      buf_.resize(kReaderChunk);
      buf_.shrink_to_fit();
    }
  }
  return ValidateFrame(header, frame->body);
}

namespace {

bool FillAddress(const std::string& host, uint16_t port,
                 sockaddr_in* address) {
  std::memset(address, 0, sizeof(*address));
  address->sin_family = AF_INET;
  address->sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &address->sin_addr) == 1;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Socket ListenTcp(const std::string& host, uint16_t port,
                 uint16_t* bound_port) {
  sockaddr_in address;
  if (!FillAddress(host, port, &address)) return Socket();
  Socket listener(::socket(AF_INET, SOCK_STREAM, 0));
  if (!listener.valid()) return Socket();
  int one = 1;
  ::setsockopt(listener.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listener.fd(), reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listener.fd(), SOMAXCONN) != 0) {
    return Socket();
  }
  if (bound_port != nullptr) {
    sockaddr_in bound;
    socklen_t bound_size = sizeof(bound);
    if (::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&bound),
                      &bound_size) != 0) {
      return Socket();
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return listener;
}

Socket AcceptTcp(const Socket& listener) {
  while (true) {
    int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      SetNoDelay(fd);
      return Socket(fd);
    }
    // Transient failures must not kill the accept loop: a queued client
    // resetting before accept() returns (ECONNABORTED) or momentary
    // fd/buffer exhaustion is recoverable. Only genuine listener
    // teardown (EBADF/EINVAL after shutdown) ends the loop.
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      timespec backoff = {0, 10'000'000};  // 10 ms for fds to free up
      ::nanosleep(&backoff, nullptr);
      continue;
    }
    return Socket();
  }
}

Epoll::Epoll() : fd_(::epoll_create1(EPOLL_CLOEXEC)) {}

Epoll::~Epoll() {
  if (fd_ >= 0) ::close(fd_);
}

namespace {

uint32_t ToEpollMask(uint32_t interest) {
  uint32_t mask = 0;
  if ((interest & Epoll::kRead) != 0) mask |= EPOLLIN;
  if ((interest & Epoll::kWrite) != 0) mask |= EPOLLOUT;
  return mask;
}

}  // namespace

bool Epoll::Add(int fd, uint32_t interest, uint64_t data) {
  epoll_event ev = {};
  ev.events = ToEpollMask(interest);
  ev.data.u64 = data;
  return ::epoll_ctl(fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool Epoll::Mod(int fd, uint32_t interest, uint64_t data) {
  epoll_event ev = {};
  ev.events = ToEpollMask(interest);
  ev.data.u64 = data;
  return ::epoll_ctl(fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

bool Epoll::Del(int fd) {
  epoll_event ev = {};
  return ::epoll_ctl(fd_, EPOLL_CTL_DEL, fd, &ev) == 0;
}

int Epoll::Wait(int timeout_ms, std::vector<Event>* out) {
  out->clear();
  epoll_event events[128];
  int n;
  do {
    n = ::epoll_wait(fd_, events, 128, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return 0;
  out->reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Event event;
    event.data = events[i].data.u64;
    // HUP/ERR surface as readable: the next read returns EOF/error, which
    // is how the reactor learns the peer is gone.
    event.readable =
        (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0;
    event.writable = (events[i].events & EPOLLOUT) != 0;
    out->push_back(event);
  }
  return n;
}

EventFd::EventFd() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {}

EventFd::~EventFd() {
  if (fd_ >= 0) ::close(fd_);
}

void EventFd::Signal() {
  uint64_t one = 1;
  // A full counter (EAGAIN) still leaves the fd readable — the wakeup is
  // already pending, so dropping the write is correct.
  [[maybe_unused]] ssize_t n = ::write(fd_, &one, sizeof(one));
}

void EventFd::Drain() {
  uint64_t value;
  while (::read(fd_, &value, sizeof(value)) > 0) {
  }
}

Socket ConnectTcp(const std::string& host, uint16_t port) {
  if (LIVEGRAPH_FAULT("net.connect")) return Socket();
  sockaddr_in address;
  if (!FillAddress(host, port, &address)) return Socket();
  Socket conn(::socket(AF_INET, SOCK_STREAM, 0));
  if (!conn.valid()) return Socket();
  if (::connect(conn.fd(), reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    return Socket();
  }
  SetNoDelay(conn.fd());
  return conn;
}

}  // namespace livegraph
