// One epoll event loop of GraphServer (docs/SERVER.md "Event loop").
//
// The server runs N loops ("reactors"), each a thread with its own epoll
// instance and an exclusive share of the accepted connections (the
// acceptor hands sockets over round-robin, so a connection lives on one
// reactor for its whole life and needs no locking). A loop reaches its
// server directly: for the options and the store, to ring the other loops
// (GraphServer::RingOthers), and to hand a subscription back.
//
// Per connection the reactor keeps a non-blocking read/decode state
// machine and a bounded output queue:
//
//   - Pipelining: every complete frame buffered on the socket is decoded
//     and dispatched before the loop moves on; replies are queued, then
//     written with ONE writev — a client that batches K requests pays one
//     wakeup and one syscall each way instead of K blocking round trips.
//   - Backpressure: when a connection's queued output exceeds the high
//     water mark the reactor stops reading from it (EPOLLIN off) and a
//     streaming scan parks between batches (ServerSession::kScanPaused);
//     when EPOLLOUT drains the queue below a quarter of the high water
//     mark, reading and the scan resume. Memory per connection stays
//     bounded no matter how asymmetric the peer.
//   - Commits: run on the owning loop. Without fsync a commit waits only
//     on its group's writev and on other running committers, and finishes
//     in one call. When the engine's commit waits on fdatasync, the
//     commit publishes its WAL record and parks its connection like the
//     waits below (StoreTxn::TryCommit); the engine's flusher thread leads
//     the group and rings the loops through the commit wake, and the loop
//     applies the commit and replies — on the thread that took its locks.
//   - Parked waits: a mutation whose vertex lock another transaction
//     holds, or an epoch-gated read ahead of the frontier, parks its
//     connection with the decoded frame (ServerSession::Outcome::kParked).
//     The holder is often another connection on the SAME loop, so the
//     loop must never block on the lock. The loop handles a parked frame
//     again after every commit (the committer rings each reactor with
//     parked connections) and at least every millisecond, until it
//     succeeds or its deadline — the engine's lock timeout, or the read's
//     own timeout — passes. A parked commit has no deadline: it is under
//     way and finishes once durable and visible.
//
// Replication subscriptions (kSubscribe) do not fit an event loop — they
// are infinite write-mostly streams — so the reactor detaches the socket
// (restored to blocking) and hands it to GraphServer::AdoptSubscription,
// which runs the push stream on a dedicated thread.
#ifndef LIVEGRAPH_SERVER_REACTOR_H_
#define LIVEGRAPH_SERVER_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/net.h"
#include "server/session.h"
#include "util/metrics.h"

namespace livegraph {

class GraphServer;

/// One event-loop thread: an epoll instance, an eventfd doorbell, and the
/// connections the acceptor assigned here. Everything per-connection is
/// touched only from this thread; the doorbell paths (new sockets,
/// parked-connection rings) go through a small mutex-guarded hand-off
/// queue or the bare eventfd.
class Reactor {
 public:
  /// `index` labels the loop's connection gauge.
  Reactor(GraphServer* server, int index);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  bool Start();
  void RequestStop();
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Acceptor hand-off (any thread).
  void Enqueue(Socket socket);

  /// A commit elsewhere rings a loop with parked connections (any
  /// thread): they retry at this wakeup instead of the next re-check
  /// tick.
  void Ring() { wake_.Signal(); }
  bool has_parked() const { return parked_count_.load() > 0; }

  size_t active() const { return active_.load(std::memory_order_relaxed); }

 private:
  struct Conn;

  void Run();
  int WaitTimeoutMs() const;
  void ReadInto(Conn* conn);
  void ProcessFrames(Conn* conn, uint64_t* frames);
  void FlushConn(Conn* conn);
  void Dispatch(Conn* conn, ServerSession::Outcome outcome);
  void Drive(Conn* conn, uint64_t* frames);
  void PostProcess(Conn* conn, uint64_t* frames);
  void UpdateInterest(Conn* conn);
  void Park(Conn* conn);
  void Unpark(Conn* conn);
  void CountParked(int64_t delta);
  void RetryParked(uint64_t* frames);
  void AdoptPendingSockets();
  void AdoptSubscription(Conn* conn);
  void CloseConn(Conn* conn);
  void Sweep();
  void ShutdownAll();
  void NoteConnCount();

  GraphServer* server_;
  metrics::Gauge& conn_gauge_;

  Epoll epoll_;
  EventFd wake_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<size_t> active_{0};
  /// parked_.size(), for other committers' rings.
  std::atomic<int64_t> parked_count_{0};
  /// A commit finished on this loop since the last ring.
  bool committed_ = false;

  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  /// Ids of the parked connections, and RetryParked's copy.
  std::vector<uint64_t> parked_;
  std::vector<uint64_t> retry_;

  std::mutex pending_mu_;
  std::vector<Socket> pending_;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_SERVER_REACTOR_H_
