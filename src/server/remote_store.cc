#include "server/remote_store.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <utility>

#include "server/net.h"
#include "server/stats_codec.h"
#include "server/wire.h"

namespace livegraph {

namespace {

/// Per-operation socket deadline (SO_RCVTIMEO/SO_SNDTIMEO) on every dialed
/// connection: a hung server fails the call with kUnavailable instead of
/// wedging the client thread. Comfortably exceeds the server-side
/// epoch-gated read wait (Options::read_your_epoch_timeout_ms).
constexpr int64_t kIoTimeoutMs = 30'000;
/// First follower-redial backoff after a failover; doubles up to the cap.
constexpr int64_t kReplicaBackoffMs = 100;
constexpr int64_t kReplicaBackoffCapMs = 5000;

}  // namespace

// One client connection. All methods serialize on mu_: a connection is
// normally owned by one session at a time, but a chunked scan cursor can
// outlive its scan (early exit) or even its session, and must observe a
// consistent answer rather than racing the next owner's frames. Replies are
// read through reader_, so frames that arrive together cost one recv.
//
// Interleaving rule: the socket carries at most one live scan stream. When
// a new request (including a nested scan — SNB traversals open cursors
// inside cursor loops) arrives while a stream is live, the stream's
// remaining frames are PARKED: read off the socket into the stream's own
// buffer, where its cursor keeps consuming them. Pure sequential scans —
// the hot path — never park and hold one batch at a time; only genuinely
// interleaved access pays memory proportional to what it left unconsumed,
// which is exactly what an embedded materialized cursor would have paid up
// front.
//
// Lazy begin: QueueBegin encodes the session's begin frame and keeps it
// here. Whoever next writes to the socket while holding mu_ — the
// session's first request, or another session's SettleBegin — sends it in
// front of its own bytes and reads its reply before anything else.
// begin_queued_ is written only under both mu_ and begin_mu_, so
// SettleBegin can watch it under begin_mu_ alone.
class RemoteStore::Connection {
 public:
  static std::shared_ptr<Connection> Dial(const Options& options,
                                          std::atomic<uint64_t>* reply_waits,
                                          std::string* name,
                                          StoreTraits* traits) {
    Socket socket = ConnectTcp(options.host, options.port);
    if (!socket.valid()) return nullptr;
    // Deadlines on every operation: a server that stops responding fails
    // the call (surfaced as kUnavailable by the callers) instead of
    // wedging this client thread forever.
    socket.SetRecvTimeout(kIoTimeoutMs);
    socket.SetSendTimeout(kIoTimeoutMs);
    auto connection =
        std::make_shared<Connection>(std::move(socket), reply_waits);
    std::string body;
    WireWriter writer(&body);
    writer.PutU32(kProtocolVersion);
    Frame reply;
    if (connection->Call(MsgType::kHello, body, &reply) != Status::kOk) {
      return nullptr;
    }
    WireReader reader(reply.body);
    uint8_t status;
    uint32_t version;
    std::string_view remote_name;
    uint8_t time_ordered, snapshot, transactional;
    if (!reader.GetU8(&status) ||
        StatusFromWire(status) != Status::kOk ||
        !reader.GetU32(&version) || version != kProtocolVersion ||
        !reader.GetBytes(&remote_name) || !reader.GetU8(&time_ordered) ||
        !reader.GetU8(&snapshot) || !reader.GetU8(&transactional) ||
        !reader.Exhausted()) {
      return nullptr;
    }
    if (name != nullptr) *name = std::string(remote_name);
    if (traits != nullptr) {
      *traits = StoreTraits{time_ordered != 0, snapshot != 0,
                            transactional != 0};
    }
    return connection;
  }

  Connection(Socket socket, std::atomic<uint64_t>* reply_waits)
      : socket_(std::move(socket)), reader_(reply_waits) {}

  /// Per-stream state, shared between the connection (which appends parked
  /// frames) and the cursor's batch source (which consumes). `live` means
  /// the server still owes this stream frames on the socket; once false,
  /// everything the stream will ever yield sits in `parked`.
  struct StreamState {
    std::deque<std::string> parked;  // unconsumed batch bodies
    bool live = false;
  };

  bool healthy() const {
    std::lock_guard<std::mutex> lock(mu_);
    return !broken_;
  }

  /// Starts a session: picks its txn id and queues `type`'s begin frame,
  /// which the session's first request (or a SettleBegin) sends.
  uint64_t QueueBegin(MsgType type) {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t id = next_txn_id_++;
    std::string body;
    WireWriter(&body).PutU64(id);
    pending_begin_.clear();
    EncodeFrame(type, kFlagNone, body, &pending_begin_);
    std::lock_guard<std::mutex> state(begin_mu_);
    begin_queued_ = true;
    return id;
  }

  /// A txn id for a begin the caller sends itself (kBeginReadTxnAt).
  uint64_t NextTxnId() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_txn_id_++;
  }

  /// One request/reply exchange, carrying the session's queued begin if it
  /// has not gone out yet. kUnavailable when the transport failed; a
  /// refused begin's status; else kOk with the reply in `reply`.
  Status Call(MsgType type, std::string_view body, Frame* reply) {
    std::lock_guard<std::mutex> lock(mu_);
    return CallLocked(type, body, reply);
  }

  /// Pipelined exchange: `encoded` holds `count` fully framed requests.
  /// One send (with the queued begin, if any), then `count` in-order reply
  /// frames appended to `replies`. Status as for Call.
  Status Exchange(std::string_view encoded, size_t count,
                  std::vector<Frame>* replies) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!ReadyLocked()) return Status::kUnavailable;
    if (begin_status_ != Status::kOk) return begin_status_;
    if (!SendLocked(encoded)) return Status::kUnavailable;
    for (size_t i = 0; i < count; ++i) {
      Frame frame;
      if (!ReadReplyLocked(&frame)) return Status::kUnavailable;
      replies->push_back(std::move(frame));
    }
    return begin_status_;
  }

  /// Opens a scan stream (with the queued begin, if any), parking the
  /// previous one if still live. Null on I/O failure or a refused begin.
  std::shared_ptr<StreamState> StartScan(std::string_view body) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!ReadyLocked() || begin_status_ != Status::kOk) return nullptr;
    request_buf_.clear();
    EncodeFrame(MsgType::kScanLinks, kFlagNone, body, &request_buf_);
    if (!SendLocked(request_buf_)) return nullptr;
    active_ = std::make_shared<StreamState>();
    active_->live = true;
    // A refused begin leaves the server's error reply for the scan on the
    // socket; the stream is abandoned and drained before the next request.
    if (begin_status_ != Status::kOk) return nullptr;
    return active_;
  }

  /// Pulls the next batch of `stream` into edges/arena (replacing their
  /// contents): from its parked buffer if interleaving already moved the
  /// frames there, else straight off the socket. Returns false when the
  /// stream is exhausted (end marker, error reply, or dead connection).
  bool ReadScanBatch(StreamState& stream,
                     std::vector<EdgeCursor::Edge>* edges,
                     std::string* arena) {
    std::lock_guard<std::mutex> lock(mu_);
    while (true) {
      if (!stream.parked.empty()) {
        std::string body = std::move(stream.parked.front());
        stream.parked.pop_front();
        if (!ParseBatch(body, edges, arena)) {
          MarkBrokenLocked();
          return false;
        }
        if (!edges->empty()) return true;
        continue;  // empty filler/final frame
      }
      if (!stream.live || broken_) return false;
      Frame frame;
      if (!reader_.Read(&socket_, &frame)) {
        MarkBrokenLocked();
        return false;
      }
      bool end = (frame.flags & kFlagEndOfStream) != 0;
      if (end) {
        stream.live = false;
        active_.reset();
      }
      if (frame.type != MsgType::kScanBatch) {
        // Error reply aborting the scan (it carries kFlagEndOfStream).
        if (!end) MarkBrokenLocked();  // protocol violation
        return false;
      }
      if (!ParseBatch(frame.body, edges, arena)) {
        MarkBrokenLocked();
        return false;
      }
      if (!edges->empty()) return true;
      if (!stream.live) return false;  // empty final frame
    }
  }

  /// Ends session `txn_id`. Nothing goes on the wire when its begin never
  /// did (or was refused). kAbort waits for its reply, so the vertex locks
  /// are free when this returns. kEndRead is one-way and written with
  /// MSG_MORE: it reaches the server with the connection's next request,
  /// in the same segment and the same server wakeup, or within about
  /// 200 ms if the connection goes idle — an idle pooled connection never
  /// pins a snapshot for longer.
  void End(MsgType type, uint64_t txn_id) {
    std::lock_guard<std::mutex> lock(mu_);
    if (DropQueuedBeginLocked() || broken_ ||
        begin_status_ != Status::kOk) {
      return;
    }
    std::string body;
    WireWriter(&body).PutU64(txn_id);
    if (type == MsgType::kAbort) {
      Frame reply;
      CallLocked(type, body, &reply);
      return;
    }
    request_buf_.clear();
    EncodeFrame(type, kFlagNone, body, &request_buf_);
    WriteLocked(request_buf_, /*more=*/true);
  }

  /// Before the pool takes the connection back: forgets the ended
  /// session's begin. False when the connection is broken.
  bool Recycle() {
    std::lock_guard<std::mutex> lock(mu_);
    DropQueuedBeginLocked();
    begin_status_ = Status::kOk;
    return !broken_;
  }

  /// If this connection still holds a begin back (another session's, the
  /// caller is about to commit), sends it and reads the server's answer.
  /// A begin already on its way with the owner's first request is left to
  /// the owner. Never blocks on mu_: its holder may be the owner, in a
  /// request that waits on the caller's commit (a vertex lock).
  void SettleBegin() {
    std::unique_lock<std::mutex> state(begin_mu_);
    while (begin_queued_) {
      state.unlock();
      {
        std::unique_lock<std::mutex> io(mu_, std::try_to_lock);
        if (io.owns_lock()) {
          if (ReadyLocked()) SendLocked({});
          return;  // sent, dropped, or the connection broke
        }
      }
      // mu_'s holder is the owner, whose next send carries the begin, or
      // a cursor draining an earlier stream. Look again shortly.
      state.lock();
      if (begin_queued_) {
        begin_cv_.wait_for(state, std::chrono::microseconds(50));
      }
    }
  }

 private:
  Status CallLocked(MsgType type, std::string_view body, Frame* reply) {
    if (!ReadyLocked()) return Status::kUnavailable;
    if (begin_status_ != Status::kOk) return begin_status_;
    if (body.size() > kMaxFrameBody) {
      MarkBrokenLocked();  // the server would refuse the header anyway
      return Status::kUnavailable;
    }
    request_buf_.clear();
    EncodeFrame(type, kFlagNone, body, &request_buf_);
    if (!SendLocked(request_buf_) || !ReadReplyLocked(reply)) {
      return Status::kUnavailable;
    }
    return begin_status_;  // a refused begin answers its request too
  }

  /// Writes `requests` (whole frames) in one send, behind the session's
  /// begin if it is still queued, and then reads that begin's reply. False
  /// when the connection broke.
  bool SendLocked(std::string_view requests) {
    send_buf_.clear();
    if (!TakeBeginLocked()) return requests.empty() || WriteLocked(requests);
    send_buf_.append(requests.data(), requests.size());
    return WriteLocked(send_buf_) && ReadBeginReplyLocked();
  }

  /// Parks any live scan stream so the reply reads that follow cannot
  /// swallow its batch frames. False when the connection is broken.
  bool ReadyLocked() {
    if (broken_) return false;
    ParkActiveStreamLocked();
    return !broken_;
  }

  /// Appends the queued begin frame to send_buf_ (see SendLocked).
  bool TakeBeginLocked() { return UnqueueBeginLocked(/*send=*/true); }

  /// Drops a begin that never went out: the server never saw the session.
  bool DropQueuedBeginLocked() { return UnqueueBeginLocked(/*send=*/false); }

  bool UnqueueBeginLocked(bool send) {
    {
      std::lock_guard<std::mutex> state(begin_mu_);
      if (!begin_queued_) return false;
      if (send) send_buf_.append(pending_begin_);
      begin_queued_ = false;
    }
    begin_cv_.notify_all();
    return true;
  }

  /// Reads the begin's status-only reply into begin_status_.
  bool ReadBeginReplyLocked() {
    Frame reply;
    if (!ReadReplyLocked(&reply)) return false;
    WireReader reader(reply.body);
    uint8_t status;
    if (!reader.GetU8(&status) || !reader.Exhausted()) {
      MarkBrokenLocked();
      return false;
    }
    begin_status_ = StatusFromWire(status);
    return true;
  }

  bool WriteLocked(std::string_view bytes, bool more = false) {
    if (socket_.WriteFull(bytes.data(), bytes.size(), more)) return true;
    MarkBrokenLocked();
    return false;
  }

  bool ReadReplyLocked(Frame* reply) {
    if (reader_.Read(&socket_, reply) && reply->type == MsgType::kReply) {
      return true;
    }
    MarkBrokenLocked();
    return false;
  }

  void MarkBrokenLocked() {
    broken_ = true;
    if (active_ != nullptr) {
      active_->live = false;
      active_.reset();
    }
    socket_.Shutdown();
    DropQueuedBeginLocked();
  }

  /// Moves the live stream's remaining frames off the socket into its
  /// parked buffer, freeing the socket for the next request while the
  /// stream's cursor keeps its position and data.
  void ParkActiveStreamLocked() {
    // If no cursor holds the stream anymore (early-exit scan whose cursor
    // is gone), the frames can be discarded instead of buffered.
    bool abandoned = active_ != nullptr && active_.use_count() == 1;
    while (active_ != nullptr && active_->live) {
      Frame frame;
      if (!reader_.Read(&socket_, &frame)) {
        MarkBrokenLocked();
        return;
      }
      bool end = (frame.flags & kFlagEndOfStream) != 0;
      if (frame.type == MsgType::kScanBatch) {
        if (!abandoned) active_->parked.push_back(std::move(frame.body));
      } else if (!end) {
        MarkBrokenLocked();  // protocol violation
        return;
      }
      if (end) {
        active_->live = false;
        active_.reset();
      }
    }
  }

  static bool ParseBatch(std::string_view body,
                         std::vector<EdgeCursor::Edge>* edges,
                         std::string* arena) {
    edges->clear();
    arena->clear();
    WireReader reader(body);
    uint32_t count;
    if (!reader.GetU32(&count)) return false;
    edges->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      int64_t dst, created;
      std::string_view props;
      if (!reader.GetI64(&dst) || !reader.GetI64(&created) ||
          !reader.GetBytes(&props)) {
        return false;
      }
      edges->push_back(EdgeCursor::Edge{
          dst, static_cast<uint32_t>(arena->size()),
          static_cast<uint32_t>(props.size()), created});
      arena->append(props.data(), props.size());
    }
    return reader.Exhausted();
  }

  mutable std::mutex mu_;
  Socket socket_;
  FrameReader reader_;
  bool broken_ = false;
  std::shared_ptr<StreamState> active_;  // stream with frames on the socket
  std::string request_buf_;  // one encoded request
  std::string send_buf_;     // what one send writes: begin + requests

  // The current session's begin (see the class comment).
  uint64_t next_txn_id_ = 1;
  std::string pending_begin_;
  Status begin_status_ = Status::kOk;  // the server's answer to the begin
  std::mutex begin_mu_;
  std::condition_variable begin_cv_;  // begin_queued_ went false
  bool begin_queued_ = false;
};

namespace {

/// Chunked-cursor source over a scan stream. Holds both the connection
/// and its stream state alive; whether the remaining batches arrive
/// straight off the socket or out of the parked buffer (after an
/// interleaved request) is invisible here.
class RemoteBatchSource : public EdgeCursor::BatchSource {
 public:
  RemoteBatchSource(
      std::shared_ptr<RemoteStore::Connection> connection,
      std::shared_ptr<RemoteStore::Connection::StreamState> stream)
      : connection_(std::move(connection)), stream_(std::move(stream)) {}

  bool Fill(std::vector<EdgeCursor::Edge>* edges,
            std::string* arena) override {
    return connection_->ReadScanBatch(*stream_, edges, arena);
  }

 private:
  std::shared_ptr<RemoteStore::Connection> connection_;
  std::shared_ptr<RemoteStore::Connection::StreamState> stream_;
};

}  // namespace

// A remote session: one checked-out connection plus the txn id the
// connection picked for it. Serves as both StoreTxn and StoreReadTxn;
// mutations on a read-only session fail client-side with kNotActive
// (matching what the server would answer).
class RemoteTxn : public StoreTxn {
 public:
  RemoteTxn(RemoteStore* store,
            std::shared_ptr<RemoteStore::Connection> connection,
            uint64_t txn_id, bool writable, bool replica = false)
      : store_(store),
        connection_(std::move(connection)),
        txn_id_(txn_id),
        writable_(writable),
        replica_(replica),
        dead_(connection_ == nullptr),
        open_(connection_ != nullptr) {}

  ~RemoteTxn() override {
    // Destroying an open session aborts it (write: a round trip, so its
    // vertex locks are free once the destructor returns) or ends it (read:
    // END_READ goes out without waiting for the server). A session that
    // never sent a request sends nothing. Release() is a no-op if Abort
    // already returned the connection.
    Abort();
    Release();
  }

  // --- Reads ---

  StatusOr<std::string> GetNode(vertex_t id) override {
    std::string body = BodyI64(id);
    Frame reply;
    Status status = RoundTrip(MsgType::kGetNode, body, &reply);
    if (status != Status::kOk) return status;
    return TakeBytesPayload(reply);
  }

  StatusOr<std::string> GetLink(vertex_t src, label_t label,
                                vertex_t dst) override {
    std::string body = BodyLink(src, label, dst);
    Frame reply;
    Status status = RoundTrip(MsgType::kGetLink, body, &reply);
    if (status != Status::kOk) return status;
    return TakeBytesPayload(reply);
  }

  EdgeCursor ScanLinks(vertex_t src, label_t label, size_t limit) override {
    if (!open_) return EdgeCursor();
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id_);
    writer.PutI64(src);
    writer.PutU16(label);
    writer.PutU64(limit);
    auto stream = connection_->StartScan(body);
    if (stream == nullptr) return EdgeCursor();
    return EdgeCursor(std::make_unique<RemoteBatchSource>(
        connection_, std::move(stream)));
  }

  size_t CountLinks(vertex_t src, label_t label) override {
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id_);
    writer.PutI64(src);
    writer.PutU16(label);
    Frame reply;
    if (RoundTrip(MsgType::kCountLinks, body, &reply) != Status::kOk) {
      return 0;
    }
    WireReader reader(PayloadAfterStatus(reply));
    uint64_t count = 0;
    reader.GetU64(&count);
    return count;
  }

  vertex_t VertexCount() override {
    Frame reply;
    if (RoundTrip(MsgType::kVertexCount, {}, &reply) != Status::kOk) {
      return 0;
    }
    WireReader reader(PayloadAfterStatus(reply));
    int64_t count = 0;
    reader.GetI64(&count);
    return count;
  }

  Status SessionStatus() const override {
    Status guard = Guard();
    if (guard != Status::kOk) return guard;
    return connection_->healthy() ? Status::kOk : Status::kUnavailable;
  }

  // --- Writes ---

  StatusOr<vertex_t> AddNode(std::string_view data) override {
    if (!writable_) return Status::kNotActive;
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id_);
    writer.PutBytes(data);
    Frame reply;
    Status status = RoundTrip(MsgType::kAddNode, body, &reply);
    if (status != Status::kOk) return status;
    WireReader reader(PayloadAfterStatus(reply));
    int64_t id;
    if (!reader.GetI64(&id)) return Status::kUnavailable;
    return id;
  }

  Status UpdateNode(vertex_t id, std::string_view data) override {
    if (!writable_) return Status::kNotActive;
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id_);
    writer.PutI64(id);
    writer.PutBytes(data);
    Frame reply;
    return RoundTrip(MsgType::kUpdateNode, body, &reply);
  }

  Status DeleteNode(vertex_t id) override {
    if (!writable_) return Status::kNotActive;
    std::string body = BodyI64(id);
    Frame reply;
    return RoundTrip(MsgType::kDeleteNode, body, &reply);
  }

  StatusOr<bool> AddLink(vertex_t src, label_t label, vertex_t dst,
                         std::string_view data) override {
    if (!writable_) return Status::kNotActive;
    std::string body = BodyLink(src, label, dst, data);
    Frame reply;
    Status status = RoundTrip(MsgType::kAddLink, body, &reply);
    if (status != Status::kOk) return status;
    WireReader reader(PayloadAfterStatus(reply));
    uint8_t inserted;
    if (!reader.GetU8(&inserted)) return Status::kUnavailable;
    return inserted != 0;
  }

  Status UpdateLink(vertex_t src, label_t label, vertex_t dst,
                    std::string_view data) override {
    if (!writable_) return Status::kNotActive;
    std::string body = BodyLink(src, label, dst, data);
    Frame reply;
    return RoundTrip(MsgType::kUpdateLink, body, &reply);
  }

  Status DeleteLink(vertex_t src, label_t label, vertex_t dst) override {
    if (!writable_) return Status::kNotActive;
    std::string body = BodyLink(src, label, dst);
    Frame reply;
    return RoundTrip(MsgType::kDeleteLink, body, &reply);
  }

  // --- Lifecycle ---

  StatusOr<timestamp_t> Commit() override {
    if (!writable_) return Status::kNotActive;
    Status guard = Guard();
    if (guard != Status::kOk) return guard;
    store_->SettleBegins(connection_.get());
    Frame reply;
    Status status = CallWithTxn(MsgType::kCommit, {}, &reply);
    open_ = false;
    Release();
    if (status != Status::kOk) return status;
    WireReader reader(PayloadAfterStatus(reply));
    int64_t epoch;
    if (!reader.GetI64(&epoch)) return Status::kUnavailable;
    // Commit epochs feed the client's read-your-epoch bound: a later read
    // session routed to a follower waits until this epoch is applied.
    store_->NoteCommitEpoch(epoch);
    return epoch;
  }

  void Abort() override {
    if (!open_) return;
    connection_->End(writable_ ? MsgType::kAbort : MsgType::kEndRead,
                     txn_id_);
    open_ = false;
    Release();
  }

 private:
  /// txn-id-prefixed request with status-checked reply. Payload-free
  /// `extra` for lifecycle messages; reads/writes build their own bodies.
  Status CallWithTxn(MsgType type, std::string_view extra, Frame* reply) {
    if (connection_ == nullptr) return Status::kUnavailable;
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id_);
    body.append(extra.data(), extra.size());
    Status sent = connection_->Call(type, body, reply);
    if (sent != Status::kOk) return sent;
    WireReader reader(reply->body);
    uint8_t status;
    if (!reader.GetU8(&status)) return Status::kUnavailable;
    return StatusFromWire(status);
  }

  /// Distinguishes "the network is gone" (kUnavailable) from "this session
  /// already ended" (kNotActive, matching embedded engines).
  Status Guard() const {
    if (dead_) return Status::kUnavailable;
    if (!open_ || connection_ == nullptr) return Status::kNotActive;
    return Status::kOk;
  }

  /// Sends a fully built body (already txn-id-prefixed).
  Status RoundTrip(MsgType type, std::string_view body, Frame* reply) {
    Status guard = Guard();
    if (guard != Status::kOk) return guard;
    if (body.empty()) return CallWithTxn(type, {}, reply);
    Status sent = connection_->Call(type, body, reply);
    if (sent != Status::kOk) return sent;
    WireReader reader(reply->body);
    uint8_t status;
    if (!reader.GetU8(&status)) return Status::kUnavailable;
    return StatusFromWire(status);
  }

  std::string BodyI64(int64_t value) const {
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id_);
    writer.PutI64(value);
    return body;
  }

  std::string BodyLink(vertex_t src, label_t label, vertex_t dst) const {
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id_);
    writer.PutI64(src);
    writer.PutU16(label);
    writer.PutI64(dst);
    return body;
  }

  std::string BodyLink(vertex_t src, label_t label, vertex_t dst,
                       std::string_view data) const {
    std::string body = BodyLink(src, label, dst);
    WireWriter writer(&body);
    writer.PutBytes(data);
    return body;
  }

  static std::string_view PayloadAfterStatus(const Frame& reply) {
    return std::string_view(reply.body).substr(1);
  }

  static StatusOr<std::string> TakeBytesPayload(const Frame& reply) {
    WireReader reader(PayloadAfterStatus(reply));
    std::string_view bytes;
    if (!reader.GetBytes(&bytes)) return Status::kUnavailable;
    return std::string(bytes);
  }

  void Release() {
    if (connection_ != nullptr) {
      store_->ReleaseConnection(std::move(connection_), replica_);
      connection_ = nullptr;
    }
  }

  RemoteStore* store_;
  std::shared_ptr<RemoteStore::Connection> connection_;
  uint64_t txn_id_;
  bool writable_;
  bool replica_;  // checked out of the follower pool, returns there
  bool dead_;  // never had a connection: kUnavailable, not kNotActive
  bool open_;
};

// --- Pipeline -------------------------------------------------------------

namespace {

/// One pipelined send is capped so its replies (small, but nonzero) can
/// never outgrow the server's per-connection output watermarks while the
/// client is still writing — the classic pipelining deadlock.
constexpr size_t kPipelineChunkBytes = 256u << 10;

}  // namespace

RemoteStore::Pipeline::Pipeline(RemoteStore* store,
                                std::shared_ptr<Connection> connection,
                                uint64_t txn_id)
    : store_(store),
      connection_(std::move(connection)),
      txn_id_(txn_id),
      open_(connection_ != nullptr) {}

RemoteStore::Pipeline::~Pipeline() { Abort(); }

void RemoteStore::Pipeline::Queue(MsgType type, std::string_view body) {
  if (!open_) return;
  EncodeFrame(type, kFlagNone, body, &batch_);
  ends_.push_back(batch_.size());
}

void RemoteStore::Pipeline::AddNode(std::string_view data) {
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id_);
  writer.PutBytes(data);
  Queue(MsgType::kAddNode, body);
}

void RemoteStore::Pipeline::UpdateNode(vertex_t id, std::string_view data) {
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id_);
  writer.PutI64(id);
  writer.PutBytes(data);
  Queue(MsgType::kUpdateNode, body);
}

void RemoteStore::Pipeline::DeleteNode(vertex_t id) {
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id_);
  writer.PutI64(id);
  Queue(MsgType::kDeleteNode, body);
}

void RemoteStore::Pipeline::AddLink(vertex_t src, label_t label,
                                    vertex_t dst, std::string_view data) {
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id_);
  writer.PutI64(src);
  writer.PutU16(label);
  writer.PutI64(dst);
  writer.PutBytes(data);
  Queue(MsgType::kAddLink, body);
}

void RemoteStore::Pipeline::UpdateLink(vertex_t src, label_t label,
                                       vertex_t dst, std::string_view data) {
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id_);
  writer.PutI64(src);
  writer.PutU16(label);
  writer.PutI64(dst);
  writer.PutBytes(data);
  Queue(MsgType::kUpdateLink, body);
}

void RemoteStore::Pipeline::DeleteLink(vertex_t src, label_t label,
                                       vertex_t dst) {
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id_);
  writer.PutI64(src);
  writer.PutU16(label);
  writer.PutI64(dst);
  Queue(MsgType::kDeleteLink, body);
}

bool RemoteStore::Pipeline::Flush(std::vector<Status>* statuses) {
  if (statuses != nullptr) statuses->clear();
  if (!open_) return false;
  if (ends_.empty()) return true;
  std::vector<Frame> replies;
  size_t first = 0;
  size_t first_off = 0;
  while (first < ends_.size()) {
    // At least one frame per chunk; otherwise as many as fit the cap.
    size_t last = first + 1;
    while (last < ends_.size() &&
           ends_[last] - first_off <= kPipelineChunkBytes) {
      ++last;
    }
    size_t last_off = ends_[last - 1];
    std::string_view chunk =
        std::string_view(batch_).substr(first_off, last_off - first_off);
    if (connection_->Exchange(chunk, last - first, &replies) !=
        Status::kOk) {
      open_ = false;
      Release();
      return false;
    }
    first = last;
    first_off = last_off;
  }
  if (statuses != nullptr) {
    statuses->reserve(replies.size());
    for (const Frame& reply : replies) {
      WireReader reader(reply.body);
      uint8_t status;
      statuses->push_back(reader.GetU8(&status) ? StatusFromWire(status)
                                                : Status::kUnavailable);
    }
  }
  batch_.clear();
  ends_.clear();
  return true;
}

StatusOr<timestamp_t> RemoteStore::Pipeline::Commit() {
  if (!open_) return Status::kUnavailable;
  store_->SettleBegins(connection_.get());
  if (!Flush(nullptr)) return Status::kUnavailable;
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id_);
  Frame reply;
  Status sent = connection_->Call(MsgType::kCommit, body, &reply);
  open_ = false;
  Release();
  if (sent != Status::kOk) return sent;
  WireReader reader(reply.body);
  uint8_t status;
  if (!reader.GetU8(&status)) return Status::kUnavailable;
  Status decoded = StatusFromWire(status);
  if (decoded != Status::kOk) return decoded;
  int64_t epoch;
  if (!reader.GetI64(&epoch)) return Status::kUnavailable;
  store_->NoteCommitEpoch(epoch);
  return epoch;
}

void RemoteStore::Pipeline::Abort() {
  if (!open_) return;
  batch_.clear();
  ends_.clear();
  connection_->End(MsgType::kAbort, txn_id_);
  open_ = false;
  Release();
}

void RemoteStore::Pipeline::Release() {
  if (connection_ != nullptr) {
    store_->ReleaseConnection(std::move(connection_), /*replica=*/false);
    connection_ = nullptr;
  }
}

std::unique_ptr<RemoteStore::Pipeline> RemoteStore::NewPipeline() {
  std::shared_ptr<Connection> connection =
      AcquireConnection(/*replica=*/false);
  uint64_t txn_id = 0;
  if (connection != nullptr) {
    txn_id = connection->QueueBegin(MsgType::kBeginTxn);
  }
  return std::unique_ptr<Pipeline>(
      new Pipeline(this, std::move(connection), txn_id));
}

std::unique_ptr<RemoteStore> RemoteStore::Connect(const Options& options) {
  std::unique_ptr<RemoteStore> store(new RemoteStore(options));
  auto connection = Connection::Dial(options, &store->reply_waits_,
                                     &store->remote_name_, &store->traits_);
  if (connection == nullptr) return nullptr;
  store->pool_.push_back(std::move(connection));
  return store;
}

RemoteStore::~RemoteStore() = default;

std::shared_ptr<RemoteStore::Connection> RemoteStore::AcquireConnection(
    bool replica) {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    std::vector<std::shared_ptr<Connection>>& pool =
        replica ? replica_pool_ : pool_;
    while (!pool.empty()) {
      std::shared_ptr<Connection> connection = std::move(pool.back());
      pool.pop_back();
      if (connection->healthy()) {
        if (!replica) checked_out_.push_back(connection);
        return connection;
      }
    }
  }
  Options dial = options_;
  if (replica) {
    dial.host = options_.replica_host;
    dial.port = options_.replica_port;
  }
  std::shared_ptr<Connection> connection =
      Connection::Dial(dial, &reply_waits_, nullptr, nullptr);
  if (connection != nullptr && !replica) {
    std::lock_guard<std::mutex> lock(pool_mu_);
    checked_out_.push_back(connection);
  }
  return connection;
}

void RemoteStore::ReleaseConnection(std::shared_ptr<Connection> connection,
                                    bool replica) {
  if (connection == nullptr) return;
  bool reusable = connection->Recycle();
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (!replica) {
    auto it = std::find(checked_out_.begin(), checked_out_.end(), connection);
    if (it != checked_out_.end()) {
      *it = std::move(checked_out_.back());
      checked_out_.pop_back();
    }
  }
  if (reusable) {
    (replica ? replica_pool_ : pool_).push_back(std::move(connection));
  }
}

void RemoteStore::SettleBegins(const Connection* self) {
  std::vector<std::shared_ptr<Connection>> open;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    open = checked_out_;
  }
  for (const std::shared_ptr<Connection>& connection : open) {
    if (connection.get() != self) connection->SettleBegin();
  }
}

void RemoteStore::NoteCommitEpoch(timestamp_t epoch) {
  timestamp_t current = last_commit_epoch_.load(std::memory_order_relaxed);
  while (current < epoch &&
         !last_commit_epoch_.compare_exchange_weak(
             current, epoch, std::memory_order_relaxed)) {
  }
}

bool RemoteStore::ReplicaBackedOff() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return replica_backoff_ms_ > 0 &&
         std::chrono::steady_clock::now() < replica_retry_at_;
}

void RemoteStore::NoteReplicaFailure() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  replica_backoff_ms_ =
      replica_backoff_ms_ == 0
          ? kReplicaBackoffMs
          : std::min(replica_backoff_ms_ * 2, kReplicaBackoffCapMs);
  replica_retry_at_ = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(replica_backoff_ms_);
}

// Follower-first read session: kBeginReadTxnAt carrying the client's
// read-your-epoch bound. Null on any failure — dead follower, lagging
// frontier (kTimeout), protocol mismatch — and the caller retries once
// against the primary; the follower goes into a capped backoff so a dead
// one is not re-dialed on every read.
std::unique_ptr<StoreTxn> RemoteStore::BeginReplicaReadSession() {
  if (ReplicaBackedOff()) return nullptr;
  std::shared_ptr<Connection> connection =
      AcquireConnection(/*replica=*/true);
  if (connection == nullptr) {
    NoteReplicaFailure();
    return nullptr;
  }
  // Synchronous, unlike the primary's lazy begins: failover is decided on
  // this reply.
  const uint64_t txn_id = connection->NextTxnId();
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn_id);
  writer.PutI64(last_commit_epoch_.load(std::memory_order_relaxed));
  writer.PutU32(options_.read_your_epoch_timeout_ms);
  Frame reply;
  uint8_t status = 0;
  if (connection->Call(MsgType::kBeginReadTxnAt, body, &reply) !=
      Status::kOk) {
    NoteReplicaFailure();
    return nullptr;
  }
  WireReader reader(reply.body);
  if (!reader.GetU8(&status) || StatusFromWire(status) != Status::kOk ||
      !reader.Exhausted()) {
    // The follower answered but cannot serve the epoch (or rejected the
    // request): return its healthy connection and fail over this session.
    ReleaseConnection(std::move(connection), /*replica=*/true);
    NoteReplicaFailure();
    return nullptr;
  }
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    replica_backoff_ms_ = 0;  // a served session clears the penalty box
  }
  return std::make_unique<RemoteTxn>(this, std::move(connection), txn_id,
                                     /*writable=*/false, /*replica=*/true);
}

size_t RemoteStore::idle_connections() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return pool_.size();
}

bool RemoteStore::Stats(metrics::Snapshot* out) {
  std::shared_ptr<Connection> connection =
      AcquireConnection(/*replica=*/false);
  if (connection == nullptr) return false;
  Frame reply;
  Status sent = connection->Call(MsgType::kStats, {}, &reply);
  ReleaseConnection(std::move(connection), /*replica=*/false);
  if (sent != Status::kOk) return false;
  WireReader reader(reply.body);
  uint8_t status;
  std::string_view payload;
  if (!reader.GetU8(&status) || StatusFromWire(status) != Status::kOk ||
      !reader.GetBytes(&payload) || !reader.Exhausted()) {
    return false;
  }
  return DecodeStats(payload, out);
}

std::unique_ptr<StoreTxn> RemoteStore::BeginSession(bool writable) {
  std::shared_ptr<Connection> connection =
      AcquireConnection(/*replica=*/false);
  uint64_t txn_id = 0;
  if (connection != nullptr) {
    txn_id = connection->QueueBegin(writable ? MsgType::kBeginTxn
                                             : MsgType::kBeginReadTxn);
  }
  // A null connection yields a dead session: every operation reports
  // kUnavailable, which RunWrite surfaces without retrying.
  return std::make_unique<RemoteTxn>(this, std::move(connection), txn_id,
                                     writable);
}

std::unique_ptr<StoreTxn> RemoteStore::BeginTxn() {
  return BeginSession(/*writable=*/true);
}

std::unique_ptr<StoreReadTxn> RemoteStore::BeginReadTxn() {
  if (options_.replica_port != 0) {
    std::unique_ptr<StoreTxn> session = BeginReplicaReadSession();
    if (session != nullptr) return session;
    // One retry, against the primary. The epoch bound needs no wait
    // there: the primary's visibility already covers every commit it
    // acknowledged.
    read_failovers_.fetch_add(1, std::memory_order_relaxed);
  }
  return BeginSession(/*writable=*/false);
}

}  // namespace livegraph
