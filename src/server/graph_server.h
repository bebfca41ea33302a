// GraphServer: the network front end over any v2 Store engine
// (docs/SERVER.md).
//
// The server is one object: it owns the listener, the accept thread, the
// epoll event loops (server/reactor.h) and the count of parked
// connections across them. The accept thread hands connections to the
// loops round-robin. `reactors` event-loop threads own the accepted
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
// LinkedList) cannot share an event loop and are refused at Start().
// Replication subscriptions are the one exception: when kSubscribe
// arrives the loop hands the socket back to the server, and the push
// stream runs on a dedicated blocking thread.
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
class Reactor;

class GraphServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 = ephemeral; the bound port is available from port() after
    /// Start().
    uint16_t port = 0;
    /// Scan batches flush at this many edges or kScanBatchBytes, whichever
    /// fills first. Sized so a batch rides in a few TCP segments while
    /// short adjacency lists (the LinkBench common case) still fit in one
    /// frame.
    size_t scan_batch_edges = 512;
    /// Primary-side replication: when set (and attached), kSubscribe turns
    /// the connection into a follower push stream (docs/REPLICATION.md).
    /// Not owned; must outlive Stop().
    ReplicationHub* replication = nullptr;
    /// Epoch-gated reads: kBeginReadTxnAt waits on this frontier (the
    /// domain's visibility on a primary, the applied-primary-epoch
    /// frontier on a follower). Null rejects epoch-gated requests with a
    /// positive bound. Not owned; must outlive Stop().
    EpochFrontier* frontier = nullptr;
    /// Event-loop threads (docs/SERVER.md "Event loop"). 0 resolves to
    /// the hardware concurrency at Start().
    int reactors = 0;
    /// Per-connection output-queue watermark, in bytes: above it the loop
    /// stops reading from the connection (and parks streaming scans);
    /// below a quarter of it both resume.
    size_t write_high_water = 1u << 20;
    /// Close connections that send nothing for this long (0 = never),
    /// aborting their open transactions.
    int64_t idle_timeout_ms = 0;
  };

  /// A scan batch's byte budget (see Options::scan_batch_edges).
  static constexpr size_t kScanBatchBytes = 60 * 1024;
  /// Write deadline. A connection whose queued output makes no flush
  /// progress for this long is closed; an adopted replication push stream
  /// leaves with it as its socket send timeout (Socket::SetSendTimeout),
  /// so a follower that stops draining fails the write instead of wedging
  /// the stream thread forever.
  static constexpr int64_t kIoTimeoutMs = 30'000;

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
  /// The event loops read the options and the store, ring each other and
  /// hand subscriptions back.
  friend class Reactor;
  class PushStream;

  void AcceptLoop();
  /// Stops and joins every event loop. Their connections close: sessions
  /// abort open transactions and finish parked commits.
  void StopReactors();
  /// Wakes every loop other than `committer` (null: every loop) that has
  /// parked connections; the committer's own loop retries its parked ones
  /// anyway. A commit releases its transaction's vertex locks, so the
  /// committing loop rings after each one, and the engine's commit wake
  /// (Store::SetCommitWake) rings them all once parked commits are
  /// durable. The parked count keeps a ring to one load while nothing is
  /// parked. A ring lost to a race costs one re-check tick, never
  /// correctness.
  void RingOthers(const Reactor* committer);
  /// Loop hand-back (called on the loop's thread): runs a kSubscribe
  /// connection — its socket blocking again, output flushed — on a
  /// dedicated blocking thread (replication push streams outlive any
  /// event loop).
  void AdoptSubscription(Socket socket, Frame frame);

  Store& store_;
  Options options_;
  Socket listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  /// Adopted push streams still running (the loops count their own).
  std::atomic<size_t> active_streams_{0};
  int resolved_reactors_ = 0;

  /// Parked connections across every loop (declared before the loops:
  /// they update it until they are destroyed).
  std::atomic<int64_t> parked_{0};
  /// The event loops, built by Start(). Stop() joins their threads but
  /// keeps the objects, so concurrent active_connections() readers never
  /// race their teardown; the destructor frees them.
  std::vector<std::unique_ptr<Reactor>> reactors_;
  size_t next_reactor_ = 0;

  /// Adopted push streams; finished ones are reaped at the next adoption,
  /// the rest joined by Stop().
  std::mutex streams_mu_;
  std::vector<std::unique_ptr<PushStream>> streams_;

  /// Connections-gauge probe (registered in Start, removed in Stop).
  uint64_t metrics_probe_ = 0;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_SERVER_GRAPH_SERVER_H_
