// Thin POSIX TCP helpers shared by GraphServer and RemoteStore: RAII fds,
// full-buffer read/write loops, and frame-granularity send/receive built
// on the protocol framing (server/protocol.h). Blocking sockets carry the
// client side and replication push streams; the reactor server
// (server/reactor.h) flips its accepted sockets non-blocking and drives
// them through the Epoll / EventFd wrappers below.
#ifndef LIVEGRAPH_SERVER_NET_H_
#define LIVEGRAPH_SERVER_NET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"

struct iovec;

namespace livegraph {

namespace metrics {
class Counter;
}  // namespace metrics

/// Owning socket fd. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }
  Socket(Socket&& other) noexcept
      : fd_(other.fd_), rx_bytes_(other.rx_bytes_), tx_bytes_(other.tx_bytes_) {
    other.fd_ = -1;
  }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// shutdown(SHUT_RDWR): unblocks any thread sitting in recv/send on this
  /// socket without racing the fd's lifetime (close alone would not).
  void Shutdown();
  void Close();

  /// Reads exactly `size` bytes. False on EOF, error, shutdown, or an
  /// expired receive deadline (SetRecvTimeout) — a hung peer surfaces as
  /// a failed read, not a wedged thread.
  bool ReadFull(void* data, size_t size);
  /// Writes exactly `size` bytes (MSG_NOSIGNAL: a dead peer surfaces as an
  /// error return, not SIGPIPE). False also on an expired send deadline
  /// (SetSendTimeout) — a peer that stops draining cannot wedge a server
  /// or replication thread forever. With `more` (MSG_MORE) the kernel may
  /// hold a small write back and put it on the wire with the socket's next
  /// write, or on its own after about 200 ms (the TCP_CORK ceiling,
  /// tcp(7)).
  bool WriteFull(const void* data, size_t size, bool more = false);

  /// Reads at most `size` bytes in one recv: > 0 bytes read, 0 on orderly
  /// EOF, -1 on error or an expired receive deadline. For byte-oriented
  /// peers (the /metrics HTTP endpoint) and FrameReader's refills. Shares
  /// the "net.recv" failpoint with ReadFull.
  int64_t ReadSome(void* data, size_t size);

  /// Optional byte accounting (docs/OBSERVABILITY.md): when set, ReadFull/
  /// ReadSome and WriteFull add transferred byte counts to `rx`/`tx`.
  /// Pointers are borrowed and must outlive the socket — registry-owned
  /// metrics::Counter instances live for the process, so the server wires
  /// its rx/tx totals here on every accepted connection. Carried across
  /// moves with the fd.
  void SetByteCounters(metrics::Counter* rx, metrics::Counter* tx) {
    rx_bytes_ = rx;
    tx_bytes_ = tx;
  }

  /// Per-operation receive deadline (SO_RCVTIMEO): any single recv that
  /// makes no progress for `timeout_ms` fails the read. 0 disables.
  void SetRecvTimeout(int64_t timeout_ms);
  /// Per-operation send deadline (SO_SNDTIMEO), same semantics.
  void SetSendTimeout(int64_t timeout_ms);

  /// True when at least one byte is readable within `timeout_ms`
  /// (0 = pure poll). Used by the replication push loop to drain
  /// follower acks from a socket it otherwise only writes to, without a
  /// second thread. False on timeout, error, or invalid socket — callers
  /// that need to distinguish follow up with ReadFrame.
  bool Readable(int timeout_ms) const;

  // --- Non-blocking mode (reactor server) ---

  /// Result codes for the non-blocking transfer calls below.
  static constexpr int64_t kWouldBlock = -2;

  /// O_NONBLOCK on/off. The reactor flips accepted sockets non-blocking;
  /// a connection handed back to a blocking thread (replication
  /// subscription adoption) flips it back.
  bool SetNonBlocking(bool enabled);

  /// One non-blocking recv: > 0 bytes read, 0 on orderly EOF, kWouldBlock
  /// when nothing is buffered, -1 on error. Shares the "net.recv"
  /// failpoint with ReadFull so chaos runs exercise the reactor's read
  /// path too.
  int64_t ReadNonBlocking(void* data, size_t size);

  /// One non-blocking gathered send over `iov[0..iov_count)`: >= 0 bytes
  /// written (possibly short — the caller keeps its queue and retries on
  /// EPOLLOUT), kWouldBlock when the socket buffer is full, -1 on error.
  /// MSG_NOSIGNAL like WriteFull; shares the "net.send" failpoint.
  int64_t WritevNonBlocking(const struct iovec* iov, int iov_count);

  /// Frames `body` and writes it in one buffer. `scratch` is caller-owned
  /// so steady-state sends reuse its capacity.
  bool WriteFrame(MsgType type, uint8_t flags, std::string_view body,
                  std::string* scratch);
  /// Reads one frame, validating header structure and CRC. False means the
  /// stream is unusable (EOF, I/O error, corrupt frame) — the caller must
  /// close.
  bool ReadFrame(Frame* frame);

 private:
  int fd_ = -1;
  metrics::Counter* rx_bytes_ = nullptr;
  metrics::Counter* tx_bytes_ = nullptr;
};

/// Buffered frame receive over a blocking socket. Each refill is one recv
/// of whatever has arrived, and frames are parsed out of the buffer, so
/// replies that arrive together cost one syscall between them instead of
/// two per frame (Socket::ReadFrame). Bytes read ahead belong to later
/// frames of the same stream: every read of that stream must go through
/// the same reader.
class FrameReader {
 public:
  /// `recvs`, when non-null, counts the recv calls (relaxed).
  explicit FrameReader(std::atomic<uint64_t>* recvs = nullptr)
      : recvs_(recvs) {}

  /// Reads one frame, validating header structure and CRC. False means
  /// the stream is unusable (EOF, I/O error, expired deadline, corrupt
  /// frame); the caller must close.
  bool Read(Socket* socket, Frame* frame);

 private:
  /// Buffers at least `need` unread bytes, one recv at a time.
  bool Fill(Socket* socket, size_t need);

  std::atomic<uint64_t>* recvs_;
  std::string buf_;
  size_t begin_ = 0;  // unread bytes are [begin_, end_)
  size_t end_ = 0;
};

/// Owning epoll instance (level-triggered). Thin enough that the reactor's
/// event loop reads as epoll calls, thick enough that fd lifetime and
/// EINTR handling live in one place.
class Epoll {
 public:
  /// One readiness report. `data` is the caller's cookie from Add/Mod.
  struct Event {
    uint64_t data;
    bool readable;   // EPOLLIN | EPOLLHUP | EPOLLERR
    bool writable;   // EPOLLOUT
  };

  static constexpr uint32_t kRead = 1u << 0;
  static constexpr uint32_t kWrite = 1u << 1;

  Epoll();
  ~Epoll();
  Epoll(const Epoll&) = delete;
  Epoll& operator=(const Epoll&) = delete;

  bool valid() const { return fd_ >= 0; }

  /// Registers / rearms / removes `fd` with interest in kRead/kWrite bits.
  /// `data` comes back verbatim in Event::data (connection cookie).
  bool Add(int fd, uint32_t interest, uint64_t data);
  bool Mod(int fd, uint32_t interest, uint64_t data);
  bool Del(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever) and appends ready events to
  /// `out` (cleared first). Returns the event count; 0 on timeout. EINTR
  /// retries internally.
  int Wait(int timeout_ms, std::vector<Event>* out);

 private:
  int fd_ = -1;
};

/// Owning eventfd: the reactor's cross-thread doorbell (worker-pool
/// completions, Stop). Registered in the loop's epoll like any socket.
class EventFd {
 public:
  EventFd();
  ~EventFd();
  EventFd(const EventFd&) = delete;
  EventFd& operator=(const EventFd&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Wakes any epoll_wait watching the fd. Async-signal-safe, never
  /// blocks (the counter saturates harmlessly).
  void Signal();
  /// Consumes all pending signals so the level-triggered epoll quiets.
  void Drain();

 private:
  int fd_ = -1;
};

/// Binds and listens on host:port (port 0 = ephemeral). On success fills
/// `bound_port` with the actual port. Invalid socket on failure.
Socket ListenTcp(const std::string& host, uint16_t port,
                 uint16_t* bound_port);

/// Accepts one connection (blocking); invalid socket once the listener is
/// shut down.
Socket AcceptTcp(const Socket& listener);

/// Connects to host:port with TCP_NODELAY. Invalid socket on failure.
Socket ConnectTcp(const std::string& host, uint16_t port);

}  // namespace livegraph

#endif  // LIVEGRAPH_SERVER_NET_H_
