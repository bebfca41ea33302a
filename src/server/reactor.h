// The epoll reactor frontend (docs/SERVER.md "Event loop").
//
// A ReactorGroup owns N event-loop threads ("reactors"), each with its own
// epoll instance and an exclusive share of the accepted connections (the
// acceptor hands sockets over round-robin, so a connection lives on one
// reactor for its whole life and needs no locking), plus one small shared
// worker pool for group commits.
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
//     when EPOLLOUT drains the queue below the low water mark, reading
//     and the scan resume. Memory per connection stays bounded no matter
//     how asymmetric the peer.
//   - Commits: a commit's wait for group durability runs on the worker
//     pool (the transaction migrates threads — api/store.h "Cross-thread
//     hand-off"); the completion is posted back to the owning reactor
//     through an eventfd and the reply is sent from the loop, preserving
//     reply order.
//   - Parked waits: a mutation whose vertex lock another transaction
//     holds, or an epoch-gated read ahead of the frontier, parks its
//     connection with the decoded frame (ServerSession::Outcome::kParked).
//     The holder is often another connection on the SAME loop, so the
//     loop must never block on the lock. The loop handles a parked frame
//     again after every commit (the pool rings each reactor with parked
//     connections) and at least every millisecond, until it succeeds or
//     its deadline — the engine's lock timeout, or the read's own
//     timeout — passes.
//
// Replication subscriptions (kSubscribe) do not fit an event loop — they
// are infinite write-mostly streams — so the reactor detaches the socket
// (restored to blocking) and hands it to the owner's adoption callback,
// which runs the push stream on a dedicated thread.
#ifndef LIVEGRAPH_SERVER_REACTOR_H_
#define LIVEGRAPH_SERVER_REACTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "server/net.h"
#include "server/session.h"

namespace livegraph {

class Reactor;
class ReactorWorkerPool;

class ReactorGroup {
 public:
  struct Options {
    /// Event-loop thread count (resolved by the caller; >= 1).
    int reactors = 1;
    /// Commit worker threads shared by all reactors.
    int workers = 2;
    /// Output-queue watermarks, bytes per connection. Above high: stop
    /// reading and park scans. Below low: resume.
    size_t write_high_water = 1u << 20;
    size_t write_low_water = 256u << 10;
    /// Close connections silent for this long (0 = never). Aborts their
    /// open transactions so leaked clients cannot pin epochs forever.
    int64_t idle_timeout_ms = 0;
    /// A connection whose queued output makes no progress for this long
    /// is dead weight (peer stopped draining) and is closed. Also the send
    /// timeout an adopted subscription socket leaves with. 0 disables.
    int64_t write_stall_timeout_ms = 30'000;
    /// Session template: store, scan budgets, frontier.
    ServerSession::Config session;
  };

  /// Invoked from a reactor thread when a connection subscribes
  /// (replication push stream): the socket — blocking again, output queue
  /// flushed — and the kSubscribe frame move to the callee, which serves
  /// the stream on its own thread.
  using AdoptFn = std::function<void(Socket, Frame)>;

  ReactorGroup(Options options, AdoptFn adopt);
  ~ReactorGroup();
  ReactorGroup(const ReactorGroup&) = delete;
  ReactorGroup& operator=(const ReactorGroup&) = delete;

  bool Start();
  /// Stops the loops (closing every connection; sessions abort their open
  /// transactions), then drains and joins the worker pool. Idempotent.
  void Stop();

  /// Hands an accepted socket to the next reactor (round-robin).
  void AddConnection(Socket socket);

  /// Connections currently owned by the loops (drain/observability).
  size_t active_connections() const;

 private:
  Options options_;
  AdoptFn adopt_;
  std::unique_ptr<ReactorWorkerPool> workers_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  size_t next_reactor_ = 0;
  bool running_ = false;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_SERVER_REACTOR_H_
