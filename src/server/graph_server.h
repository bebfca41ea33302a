// GraphServer: the network front end over any v2 Store engine
// (docs/SERVER.md).
//
// An accept thread hands every connection to the epoll reactor
// (server/reactor.h): `reactors` event-loop threads own the accepted
// connections, pipeline buffered requests, batch replies into single
// writev calls, commit on the loop, and park connections whose request
// waits on a vertex lock, the replication frontier or a commit's device
// flush, retrying them on the loop; the engine's flusher thread performs
// the flush (docs/SERVER.md "Event loop"). Each connection
// is a protocol session (server/session.h): it owns a table of open
// transactions (ids handed out by Begin{,Read}Txn) mapped onto real
// StoreTxn/StoreReadTxn sessions, so remote sessions keep exactly the
// engine's semantics — MVCC snapshots stay snapshots, and a dropped
// connection aborts whatever it left open. Engines whose sessions hold a
// thread-owned latch (Store::SupportsInterleavedSessions() false: BTree,
// LinkedList) cannot share an event loop and are refused at Start(). Replication subscriptions are the one
// exception: when kSubscribe arrives the reactor hands the socket back
// (adoption) and the push stream runs on a dedicated blocking thread.
//
// Scans stream: ScanLinks walks the engine cursor once, packing edges into
// reused batch buffers and writing each batch as soon as it fills — the
// purely sequential adjacency walk the paper optimizes (§4) goes straight
// from the TEL into the socket without materializing the list, and the
// steady state allocates nothing.
#ifndef LIVEGRAPH_SERVER_GRAPH_SERVER_H_
#define LIVEGRAPH_SERVER_GRAPH_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/store.h"
#include "server/net.h"

namespace livegraph {

class ReplicationHub;
class EpochFrontier;
class ReactorGroup;

class GraphServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 = ephemeral; the bound port is available from port() after
    /// Start().
    uint16_t port = 0;
    /// Scan batches flush at whichever budget fills first. Defaults sized
    /// so a batch rides in a few TCP segments while short adjacency lists
    /// (the LinkBench common case) still fit in one frame.
    size_t scan_batch_edges = 512;
    size_t scan_batch_bytes = 60 * 1024;
    /// Primary-side replication: when set (and attached), kSubscribe turns
    /// the connection into a follower push stream (docs/REPLICATION.md).
    /// Not owned; must outlive Stop().
    ReplicationHub* replication = nullptr;
    /// Epoch-gated reads: kBeginReadTxnAt waits on this frontier (the
    /// domain's visibility on a primary, the applied-primary-epoch
    /// frontier on a follower). Null rejects epoch-gated requests with a
    /// positive bound. Not owned; must outlive Stop().
    EpochFrontier* frontier = nullptr;
    /// Write deadline. On a reactor connection it bounds how long queued
    /// output may sit without flush progress before the connection is
    /// closed; on an adopted replication push stream it is the socket's
    /// send timeout (Socket::SetSendTimeout), so a follower that stops
    /// draining fails the write instead of wedging the stream thread
    /// forever. 0 disables.
    int64_t io_timeout_ms = 30'000;
    /// Event-loop threads (docs/SERVER.md "Event loop"). 0 resolves to
    /// the hardware concurrency at Start().
    int reactors = 0;
    /// Reactor per-connection output-queue watermarks, in bytes: above
    /// high the reactor stops reading from the connection (and parks
    /// streaming scans); below low it resumes.
    size_t write_high_water = 1u << 20;
    size_t write_low_water = 256u << 10;
    /// Close connections that send nothing for this long (0 = never),
    /// aborting their open transactions.
    int64_t idle_timeout_ms = 0;
  };

  /// Serves `store`; does not own it. The store must outlive Stop().
  GraphServer(Store& store, Options options);
  ~GraphServer();

  /// Binds and starts accepting. False if the address cannot be bound or
  /// the store does not support interleaved sessions.
  bool Start();
  /// Stops accepting, tears down live connections (aborting their open
  /// transactions), and joins every thread. Idempotent.
  void Stop();

  /// Graceful drain (SIGTERM path): stops accepting new connections
  /// immediately, then waits up to `deadline_ms` for in-flight sessions to
  /// finish on their own before tearing down whatever remains via Stop().
  /// Replication push streams never finish voluntarily, so the deadline is
  /// also the bound on how long a drain can take.
  void Drain(int64_t deadline_ms);

  /// Port actually bound (resolves port 0 requests). Valid after Start().
  uint16_t port() const { return port_; }
  const Options& options() const { return options_; }

  /// Connections currently attached: reactor-owned ones plus adopted
  /// push streams (observability, tests). relaxed: a monitoring gauge;
  /// nothing is synchronized through it.
  size_t active_connections() const;

  /// Reactor threads actually running. Valid after Start().
  int resolved_reactors() const { return resolved_reactors_; }

 private:
  class PushStream;

  void AcceptLoop();
  /// Reactor hand-back: runs a kSubscribe connection on a dedicated
  /// blocking thread (replication push streams outlive any event loop).
  void AdoptSubscription(Socket socket, Frame frame);

  Store& store_;
  Options options_;
  Socket listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  /// Adopted push streams still running (the reactors count their own).
  std::atomic<size_t> active_streams_{0};
  int resolved_reactors_ = 0;

  /// The event-loop front end (null before Start()).
  std::unique_ptr<ReactorGroup> reactor_group_;

  /// Adopted push streams; finished ones are reaped at the next adoption,
  /// the rest joined by Stop().
  std::mutex streams_mu_;
  std::vector<std::unique_ptr<PushStream>> streams_;

  /// Connections-gauge probe (registered in Start, removed in Stop).
  uint64_t metrics_probe_ = 0;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_SERVER_GRAPH_SERVER_H_
