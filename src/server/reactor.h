// The epoll reactor frontend (docs/SERVER.md "Event loop").
//
// A ReactorGroup owns N event-loop threads ("reactors"), each with its own
// epoll instance and an exclusive share of the accepted connections (the
// acceptor hands sockets over round-robin, so a connection lives on one
// reactor for its whole life and needs no locking).
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

class ParkedRing;
class Reactor;

class ReactorGroup {
 public:
  struct Options {
    /// Event-loop thread count (resolved by the caller; >= 1).
    int reactors = 1;
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
    /// Session template: store, scan budgets, frontier. Start() installs
    /// the store's commit wake (Store::SetCommitWake); Stop() clears it.
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
  /// Stops the loops, closing every connection: sessions abort their open
  /// transactions and finish their parked commits. Idempotent.
  void Stop();

  /// Hands an accepted socket to the next reactor (round-robin).
  void AddConnection(Socket socket);

  /// Connections currently owned by the loops (drain/observability).
  size_t active_connections() const;

 private:
  Options options_;
  AdoptFn adopt_;
  /// Declared first: the loops and the commit wake ring through it until
  /// they are destroyed.
  std::unique_ptr<ParkedRing> ring_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  size_t next_reactor_ = 0;
  bool running_ = false;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_SERVER_REACTOR_H_
