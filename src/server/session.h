// ServerSession: one wire-protocol session — the transaction table and
// every request handler — decoupled from its transport.
//
// The reactor (server/reactor.h) runs one session per connection and
// hands it the connection's output queue (Sink). The places a handler
// would block the event loop surface as explicit outcomes the reactor
// schedules around:
//
//   kScanPaused   a streaming scan hit output backpressure mid-list; the
//                 cursor (and the engine read session it borrows from)
//                 stays parked in the session until ResumeScan().
//   kParked       the request would wait on something another session
//                 or thread resolves: a vertex lock held by another
//                 transaction (StoreTxn::TryLockVertex), a frontier that
//                 does not yet cover an epoch-gated read, or a commit's
//                 device flush and the visibility of its epoch
//                 (StoreTxn::TryCommit). The transport keeps the frame
//                 and Handle()s it again after a commit, the engine's
//                 commit wake, or a short re-check interval. A lock or
//                 frontier wait changed nothing, and its deadline is the
//                 engine's lock timeout or the request's own timeout,
//                 measured from the first attempt; a parked commit is
//                 under way and has no deadline.
//
// While any of these is outstanding the caller must not Handle() further
// frames on the connection — replies are strictly in request order, which
// is what makes client-side pipelining safe.
//
// kSubscribe is answered with Outcome::kSubscribe without touching the
// frame: replication push streams are long-lived write-mostly loops that
// belong on a dedicated blocking thread, so the transport hands the socket
// (and the frame) to GraphServer's subscription path instead.
#ifndef LIVEGRAPH_SERVER_SESSION_H_
#define LIVEGRAPH_SERVER_SESSION_H_

#include <sys/uio.h>

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/store.h"
#include "server/graph_server.h"
#include "server/protocol.h"
#include "server/wire.h"

namespace livegraph {

class ServerSession {
 public:
  /// Where replies go: one connection's output queue of encoded frames,
  /// which the reactor flushes with writev (Gather, then Consume what the
  /// socket took). Written-out buffers recycle, so the steady state
  /// allocates nothing.
  class Sink {
   public:
    /// `high_water`: backlog at which producers pause (scans park; the
    /// reactor stops reading the connection).
    explicit Sink(size_t high_water = SIZE_MAX) : high_water_(high_water) {}

    /// Queues one reply frame. False when the body exceeds the frame
    /// limit; the session then stops producing and the caller tears down.
    bool SendFrame(MsgType type, uint8_t flags, std::string_view body);
    /// Points up to `max` iovecs at the unwritten bytes, in order; returns
    /// how many it filled (0 when empty).
    int Gather(struct iovec* iov, int max) const;
    /// Drops the first `n` unwritten bytes (the socket accepted them).
    void Consume(size_t n);

    bool empty() const { return frames_.empty(); }
    /// Unwritten bytes across the queue.
    size_t bytes() const { return bytes_; }
    /// True when the backlog is at or above high water. Only consulted
    /// between scan batches.
    bool throttled() const { return bytes_ >= high_water_; }
    /// Nonzero while output is queued: last time a flush made progress.
    uint64_t last_progress_ns() const { return last_progress_ns_; }

   private:
    /// Encoded frames; frames_.front() is written from `head_offset_`.
    std::deque<std::string> frames_;
    size_t head_offset_ = 0;
    size_t bytes_ = 0;
    std::vector<std::string> spare_;
    uint64_t last_progress_ns_ = 0;
    size_t high_water_;
  };

  enum class Outcome {
    kDone,         // request handled, replies queued
    kClose,        // protocol violation or dead sink: close the connection
    kScanPaused,   // scan parked on backpressure; ResumeScan() when clear
    kParked,       // would wait; Handle() the same frame again later
    kSubscribe,    // hand the socket to a blocking replication thread
  };

  /// Serves `store` under the server's `options` (scan batch budget,
  /// the frontier epoch-gated reads wait on); both outlive the session.
  ServerSession(Store& store, const GraphServer::Options& options);
  ~ServerSession();
  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  /// Handles one request frame end to end (per-opcode accounting
  /// included). See Outcome for the non-inline results. After kParked the
  /// caller passes the same frame again; its latency and deadline count
  /// from the first attempt.
  Outcome Handle(const Frame& request, Sink* sink);

  /// Continues the parked streaming scan. Precondition: scan_paused().
  Outcome ResumeScan(Sink* sink);
  bool scan_paused() const { return scan_.has_value(); }

 private:
  /// A slot in the session's transaction table. Write sessions serve
  /// reads too (read-your-writes); read sessions reject mutations.
  struct OpenTxn {
    std::unique_ptr<StoreTxn> write;
    std::unique_ptr<StoreReadTxn> read;
    StoreReadTxn* AsRead() const {
      return write != nullptr ? write.get() : read.get();
    }
  };

  /// A streaming scan parked between batches. Holds the live engine
  /// cursor; the read session it borrows from is pinned in txns_ (the
  /// caller defers any further frames until the scan finishes, so the
  /// session cannot be ended under the cursor).
  struct ActiveScan {
    EdgeCursor cursor;
    uint32_t batch_count = 0;
    /// Parked right after a budget flush: ResumeScan() must step the
    /// cursor past the already-shipped edge before continuing.
    bool advance_pending = false;
    uint64_t start_nanos = 0;
  };

  Outcome DispatchInner(const Frame& request, Sink* sink);

  // Reply plumbing: start a body with its status byte, append payload
  // through the returned writer, then SendReply().
  WireWriter BeginReply(Status status);
  bool SendReply(Sink* sink, uint8_t flags = kFlagNone);
  Outcome ReplyStatus(Sink* sink, Status status, uint8_t flags = kFlagNone);

  Outcome HandleHello(WireReader& reader, Sink* sink);
  Outcome HandleBegin(WireReader& reader, Sink* sink, bool write);
  Outcome HandleCommit(WireReader& reader, Sink* sink);
  Outcome HandleAbort(WireReader& reader, Sink* sink);
  Outcome HandleEndRead(WireReader& reader);
  Outcome HandleGetNode(WireReader& reader, Sink* sink);
  Outcome HandleGetLink(WireReader& reader, Sink* sink);
  Outcome HandleScanLinks(WireReader& reader, Sink* sink);
  Outcome HandleCountLinks(WireReader& reader, Sink* sink);
  Outcome HandleVertexCount(WireReader& reader, Sink* sink);
  Outcome HandleBeginReadTxnAt(WireReader& reader, Sink* sink);
  Outcome HandleStats(WireReader& reader, Sink* sink);
  Outcome HandleAddNode(WireReader& reader, Sink* sink);
  Outcome HandleUpdateNode(WireReader& reader, Sink* sink);
  Outcome HandleDeleteNode(WireReader& reader, Sink* sink);
  Outcome HandleAddLink(WireReader& reader, Sink* sink, bool upsert);
  Outcome HandleDeleteLink(WireReader& reader, Sink* sink);

  StoreReadTxn* FindRead(uint64_t id);
  StoreTxn* FindWrite(uint64_t id);

  /// First step of UpdateNode, DeleteNode and the link writes: takes the
  /// one vertex lock the mutation needs without blocking. nullopt when it
  /// is held (run the mutation); otherwise the handler's outcome —
  /// kParked on contention, or the queued error reply (kTimeout once the
  /// engine's lock timeout has passed since the first attempt).
  std::optional<Outcome> LockOrPark(StoreTxn* txn, vertex_t v, Sink* sink);
  /// Opens session `id` and queues its status-only reply (kBeginTxn,
  /// kBeginReadTxn{,At}); kClose when `id` is already open.
  Outcome OpenSession(uint64_t id, bool write, Sink* sink);

  /// Walks the parked cursor, flushing batches until done or throttled.
  Outcome PumpScan(Sink* sink);

  Store& store_;
  const GraphServer::Options& options_;

  /// Open sessions by the id their client chose in the Begin frame (one
  /// counter per client connection, so ids never repeat while open).
  std::map<uint64_t, OpenTxn> txns_;

  std::optional<ActiveScan> scan_;
  /// The request in flight returned kParked and is being retried.
  bool parked_ = false;
  /// When the request in flight was first tried, and how long before the
  /// current attempt that was (0 on the first).
  uint64_t request_start_ns_ = 0;
  int64_t waited_ns_ = 0;

  // Reused per-session buffers: steady-state replies allocate nothing.
  std::string reply_body_;
  std::string batch_body_;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_SERVER_SESSION_H_
