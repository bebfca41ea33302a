#include "server/reactor.h"

#include <sys/uio.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "server/graph_server.h"

namespace livegraph {

namespace {

/// Epoll cookie reserved for the reactor's eventfd doorbell; connection
/// ids start above it.
constexpr uint64_t kWakeCookie = 0;

/// Per-wakeup read budget: one greedy connection cannot starve the rest
/// of the loop (level-triggered epoll re-reports whatever it left).
constexpr size_t kReadBudgetPerWakeup = 1u << 20;
constexpr size_t kReadChunk = 64u << 10;

/// Gathered-write fan: frames coalesced into one writev call.
constexpr int kMaxIov = 64;

/// Input buffer compaction threshold: consumed prefix worth a memmove.
constexpr size_t kCompactThreshold = 256u << 10;

/// Epoll timeout while connections are parked: the latest a parked
/// request is retried when no commit rings the loop (locks released by
/// aborts or compaction, a follower's frontier advancing).
constexpr int kParkedRecheckMs = 1;

metrics::Counter& WakeupsTotal() {
  static metrics::Counter& counter = metrics::Registry::Instance().GetCounter(
      "livegraph_server_reactor_wakeups_total");
  return counter;
}

metrics::Histogram& FramesPerWakeup() {
  static metrics::Histogram& histogram =
      metrics::Registry::Instance().GetHistogram(
          "livegraph_server_frames_per_wakeup", metrics::Unit::kCount);
  return histogram;
}

metrics::Histogram& PendingWriteBytes() {
  static metrics::Histogram& histogram =
      metrics::Registry::Instance().GetHistogram(
          "livegraph_server_pending_write_bytes", metrics::Unit::kBytes);
  return histogram;
}

metrics::Counter& IdleClosedTotal() {
  static metrics::Counter& counter = metrics::Registry::Instance().GetCounter(
      "livegraph_server_idle_closed_total");
  return counter;
}

}  // namespace

struct Reactor::Conn {
  uint64_t id = 0;
  Socket socket;
  ServerSession session;
  /// Input: raw bytes [in_off, in_len) of `in` are unparsed.
  std::string in;
  size_t in_off = 0;
  size_t in_len = 0;
  /// Output: the session's reply queue, flushed by FlushConn.
  ServerSession::Sink out;
  /// Currently registered epoll interest bits.
  uint32_t interest = Epoll::kRead;
  /// `frame` waits to be handled again (ServerSession::Outcome::kParked).
  bool parked = false;
  bool eof = false;
  bool closing = false;
  bool adopting = false;
  Frame frame;
  uint64_t last_activity_ns = 0;

  Conn(uint64_t conn_id, Socket s, GraphServer* server)
      : id(conn_id),
        socket(std::move(s)),
        session(server->store_, server->options_),
        out(server->options_.write_high_water) {}

  /// A parked request or a parked scan owns the reply stream: no new
  /// frames may dispatch until it completes (replies are in request
  /// order).
  bool blocked() const { return parked || session.scan_paused(); }
};

Reactor::Reactor(GraphServer* server, int index)
    : server_(server),
      conn_gauge_(metrics::Registry::Instance().GetGauge(
          "livegraph_server_reactor_connections{reactor=\"" +
          std::to_string(index) + "\"}")) {}

Reactor::~Reactor() { Join(); }

bool Reactor::Start() {
  if (!epoll_.valid() || !wake_.valid()) return false;
  if (!epoll_.Add(wake_.fd(), Epoll::kRead, kWakeCookie)) return false;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Run(); });
  return true;
}

void Reactor::RequestStop() {
  running_.store(false, std::memory_order_release);
  wake_.Signal();
}

void Reactor::Enqueue(Socket socket) {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.push_back(std::move(socket));
  }
  wake_.Signal();
}

void Reactor::Run() {
  std::vector<Epoll::Event> events;
  while (running_.load(std::memory_order_acquire)) {
    epoll_.Wait(WaitTimeoutMs(), &events);
    WakeupsTotal().Add();
    uint64_t frames = 0;
    bool woken = false;
    for (const Epoll::Event& event : events) {
      if (event.data == kWakeCookie) {
        woken = true;
        continue;
      }
      auto it = conns_.find(event.data);
      if (it == conns_.end()) continue;  // closed earlier this round
      Conn* conn = it->second.get();
      if (event.readable) ReadInto(conn);
      PostProcess(conn, &frames);
    }
    if (woken) {
      wake_.Drain();
      AdoptPendingSockets();
    }
    if (!parked_.empty()) RetryParked(&frames);
    if (committed_) {
      // Commits this round released their locks: waiters parked on
      // other loops retry now, not at their next re-check tick.
      committed_ = false;
      server_->RingOthers(this);
    }
    if (!events.empty()) FramesPerWakeup().Record(frames);
    Sweep();
  }
  ShutdownAll();
}

/// Epoll timeout: the parked re-check tick, else the sweep interval while
/// connections are open.
int Reactor::WaitTimeoutMs() const {
  if (!parked_.empty()) return kParkedRecheckMs;
  if (conns_.empty()) return -1;
  const int64_t idle_timeout_ms = server_->options_.idle_timeout_ms;
  int64_t interval = idle_timeout_ms > 0 ? idle_timeout_ms / 2
                                         : GraphServer::kIoTimeoutMs / 2;
  if (interval < 10) interval = 10;
  if (interval > 1000) interval = 1000;
  return static_cast<int>(interval);
}

/// Drains the socket into the connection's input buffer (bounded per
/// wakeup). EOF and errors mark the connection; frames already buffered
/// are still served before the close (a half-closing client gets its
/// replies).
void Reactor::ReadInto(Conn* conn) {
  if (conn->closing) return;
  size_t budget = kReadBudgetPerWakeup;
  while (budget > 0) {
    if (conn->in.size() - conn->in_len < kReadChunk) {
      size_t grown = conn->in.size() == 0 ? kReadChunk
                                          : conn->in.size() * 2;
      conn->in.resize(grown);
    }
    size_t want = conn->in.size() - conn->in_len;
    if (want > budget) want = budget;
    int64_t n =
        conn->socket.ReadNonBlocking(&conn->in[conn->in_len], want);
    if (n == Socket::kWouldBlock) break;
    if (n == 0) {
      conn->eof = true;
      break;
    }
    if (n < 0) {
      conn->closing = true;
      break;
    }
    conn->in_len += static_cast<size_t>(n);
    budget -= static_cast<size_t>(n);
    conn->last_activity_ns = metrics::MonotonicNanos();
    if (static_cast<size_t>(n) < want) break;  // socket drained
  }
}

/// Dispatches every complete buffered frame, stopping at backpressure,
/// a parked request or scan, or a protocol violation.
void Reactor::ProcessFrames(Conn* conn, uint64_t* frames) {
  while (!conn->closing && !conn->adopting && !conn->blocked() &&
         !conn->out.throttled()) {
    size_t avail = conn->in_len - conn->in_off;
    if (avail < kFrameHeaderSize) break;
    char header[kFrameHeaderSize];
    std::memcpy(header, conn->in.data() + conn->in_off, kFrameHeaderSize);
    uint32_t body_size;
    if (!DecodeFrameHeader(header, &conn->frame.type, &conn->frame.flags,
                           &body_size)) {
      conn->closing = true;
      break;
    }
    if (avail < kFrameHeaderSize + body_size) break;
    conn->frame.body.assign(
        conn->in.data() + conn->in_off + kFrameHeaderSize, body_size);
    if (!ValidateFrame(header, conn->frame.body)) {
      conn->closing = true;
      break;
    }
    conn->in_off += kFrameHeaderSize + body_size;
    ++*frames;
    ServerSession::Outcome outcome =
        conn->session.Handle(conn->frame, &conn->out);
    if (conn->frame.type == MsgType::kCommit &&
        outcome != ServerSession::Outcome::kParked) {
      committed_ = true;
    }
    Dispatch(conn, outcome);
  }
  // Reclaim the consumed prefix once it is worth a memmove.
  if (conn->in_off == conn->in_len) {
    conn->in_off = 0;
    conn->in_len = 0;
  } else if (conn->in_off >= kCompactThreshold) {
    std::memmove(&conn->in[0], conn->in.data() + conn->in_off,
                 conn->in_len - conn->in_off);
    conn->in_len -= conn->in_off;
    conn->in_off = 0;
  }
}

/// Writes as much queued output as the socket accepts, one writev per
/// iov-full. Short writes keep their queue position; EPOLLOUT retries.
void Reactor::FlushConn(Conn* conn) {
  if (conn->closing || conn->out.empty()) return;
  PendingWriteBytes().Record(conn->out.bytes());
  while (!conn->out.empty()) {
    struct iovec iov[kMaxIov];
    int count = conn->out.Gather(iov, kMaxIov);
    int64_t n = conn->socket.WritevNonBlocking(iov, count);
    if (n == Socket::kWouldBlock) return;
    if (n < 0) {
      conn->closing = true;
      return;
    }
    conn->out.Consume(static_cast<size_t>(n));
  }
}

/// Acts on the handler's outcome for `conn->frame`.
void Reactor::Dispatch(Conn* conn, ServerSession::Outcome outcome) {
  switch (outcome) {
    case ServerSession::Outcome::kDone:
      break;
    case ServerSession::Outcome::kClose:
      conn->closing = true;
      break;
    case ServerSession::Outcome::kScanPaused:
      break;  // blocked() is now true; resume on output drain
    case ServerSession::Outcome::kParked:
      Park(conn);  // conn->frame is handled again by RetryParked
      break;
    case ServerSession::Outcome::kSubscribe:
      conn->adopting = true;  // conn->frame is the kSubscribe frame
      break;
  }
}

/// Alternates dispatch and flush until the connection can make no more
/// progress this round: input exhausted, output throttled, a parked
/// request pending, or teardown.
void Reactor::Drive(Conn* conn, uint64_t* frames) {
  while (!conn->closing && !conn->adopting) {
    if (!conn->blocked()) ProcessFrames(conn, frames);
    FlushConn(conn);
    if (conn->closing || conn->adopting) break;
    bool resume_scan = conn->session.scan_paused() && !conn->parked &&
                       conn->out.bytes() <=
                                           server_->options_.write_high_water / 4;
    if (!resume_scan) break;
    if (conn->session.ResumeScan(&conn->out) ==
        ServerSession::Outcome::kClose) {
      conn->closing = true;
    }
  }
}

void Reactor::PostProcess(Conn* conn, uint64_t* frames) {
  Drive(conn, frames);
  if (conn->adopting) {
    AdoptSubscription(conn);
    return;
  }
  if (conn->eof && !conn->blocked() && conn->out.empty()) {
    // Every frame the peer managed to send has been served and every
    // reply flushed; nothing further can arrive.
    conn->closing = true;
  }
  if (conn->closing) {
    CloseConn(conn);
    return;
  }
  UpdateInterest(conn);
}

void Reactor::UpdateInterest(Conn* conn) {
  uint32_t want = 0;
  if (!conn->blocked() && !conn->out.throttled() && !conn->eof) {
    want |= Epoll::kRead;
  }
  if (!conn->out.empty()) want |= Epoll::kWrite;
  if (want != conn->interest) {
    epoll_.Mod(conn->socket.fd(), want, conn->id);
    conn->interest = want;
  }
}

void Reactor::Park(Conn* conn) {
  conn->parked = true;
  parked_.push_back(conn->id);
  CountParked(1);
}

void Reactor::Unpark(Conn* conn) {
  conn->parked = false;
  parked_.erase(std::find(parked_.begin(), parked_.end(), conn->id));
  CountParked(-1);
}

void Reactor::CountParked(int64_t delta) {
  parked_count_.fetch_add(delta);
  server_->parked_.fetch_add(delta);
}

/// Handles every parked connection's frame again. Those still waiting
/// stay parked; the rest continue with their buffered frames.
void Reactor::RetryParked(uint64_t* frames) {
  retry_.assign(parked_.begin(), parked_.end());
  bool commit_done = false;
  for (uint64_t id : retry_) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // closed earlier this round
    Conn* conn = it->second.get();
    ServerSession::Outcome outcome =
        conn->session.Handle(conn->frame, &conn->out);
    if (outcome == ServerSession::Outcome::kParked) continue;
    if (conn->frame.type == MsgType::kCommit) {
      // A parked commit finished: it released locks and may have made
      // visible the epoch of commits parked behind it. Other loops
      // retry now, before this reply's flush; those retried here
      // already go again at once, not at the re-check tick.
      server_->RingOthers(this);
      commit_done = true;
    }
    Unpark(conn);
    Dispatch(conn, outcome);
    PostProcess(conn, frames);
  }
  if (commit_done && !parked_.empty()) wake_.Signal();
}

void Reactor::AdoptPendingSockets() {
  std::vector<Socket> sockets;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    sockets.swap(pending_);
  }
  for (Socket& socket : sockets) {
    if (!socket.SetNonBlocking(true)) continue;
    uint64_t id = next_id_++;
    auto conn = std::make_unique<Conn>(id, std::move(socket), server_);
    conn->last_activity_ns = metrics::MonotonicNanos();
    if (!epoll_.Add(conn->socket.fd(), Epoll::kRead, id)) continue;
    conns_.emplace(id, std::move(conn));
  }
  NoteConnCount();
}

/// Hands the socket (blocking again, queued output flushed) plus the
/// kSubscribe frame back to the server; the replication
/// push stream runs on a dedicated thread from here on.
void Reactor::AdoptSubscription(Conn* conn) {
  epoll_.Del(conn->socket.fd());
  Socket socket = std::move(conn->socket);
  Frame frame = std::move(conn->frame);
  // The send deadline bounds this flush and every push-stream write, so
  // a follower that stops draining fails them instead of wedging.
  bool ok = socket.SetNonBlocking(false);
  socket.SetSendTimeout(GraphServer::kIoTimeoutMs);
  struct iovec iov;
  while (ok && conn->out.Gather(&iov, 1) == 1) {
    ok = socket.WriteFull(iov.iov_base, iov.iov_len);
    conn->out.Consume(iov.iov_len);
  }
  conns_.erase(conn->id);
  NoteConnCount();
  if (ok) server_->AdoptSubscription(std::move(socket), std::move(frame));
}

/// A parked commit cannot be aborted, and destroying its session would
/// wait out the flush on this loop. So its connection only leaves epoll
/// and shuts its socket here; it stays parked until RetryParked sees
/// the commit finish, and closes then.
void Reactor::CloseConn(Conn* conn) {
  epoll_.Del(conn->socket.fd());
  if (conn->parked && conn->frame.type == MsgType::kCommit) {
    conn->closing = true;
    conn->socket.Shutdown();
    return;
  }
  if (conn->parked) Unpark(conn);
  conns_.erase(conn->id);  // Socket closes; session aborts open txns
  NoteConnCount();
}

/// Periodic policing: idle clients (silent past the deadline) and dead
/// weight (queued output making no progress — the peer stopped
/// draining). Both classes abort their open transactions on close, so
/// they cannot pin epochs or hold locks forever.
void Reactor::Sweep() {
  const int64_t idle_timeout_ms = server_->options_.idle_timeout_ms;
  const uint64_t now = metrics::MonotonicNanos();
  std::vector<uint64_t> doomed;
  for (auto& [id, conn] : conns_) {
    if (idle_timeout_ms > 0 && conn->out.empty() && !conn->blocked() &&
        now - conn->last_activity_ns >
            static_cast<uint64_t>(idle_timeout_ms) * 1'000'000) {
      IdleClosedTotal().Add();
      doomed.push_back(id);
      continue;
    }
    if (conn->out.last_progress_ns() != 0 &&
        now - conn->out.last_progress_ns() >
            static_cast<uint64_t>(GraphServer::kIoTimeoutMs) * 1'000'000) {
      doomed.push_back(id);
    }
  }
  for (uint64_t id : doomed) {
    auto it = conns_.find(id);
    if (it != conns_.end()) CloseConn(it->second.get());
  }
}

/// Loop exit: best-effort flush of queued replies, then teardown. Open
/// transactions abort in the session destructors.
void Reactor::ShutdownAll() {
  for (auto& [id, conn] : conns_) {
    FlushConn(conn.get());
    conn->socket.Shutdown();
  }
  conns_.clear();
  CountParked(-static_cast<int64_t>(parked_.size()));
  parked_.clear();
  NoteConnCount();
}

void Reactor::NoteConnCount() {
  active_.store(conns_.size(), std::memory_order_relaxed);
  conn_gauge_.Set(static_cast<int64_t>(conns_.size()));
}

}  // namespace livegraph
