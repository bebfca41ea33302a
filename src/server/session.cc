#include "server/session.h"

#include <cstring>
#include <utility>

#include "replication/epoch_frontier.h"
#include "server/stats_codec.h"
#include "util/metrics.h"

namespace livegraph {

namespace {

/// Recycled output-buffer pool bounds (per Sink).
constexpr size_t kSpareBuffers = 16;
constexpr size_t kSpareMaxBytes = 1u << 20;

// Per-opcode request counter + latency histogram, resolved once per opcode
// (thread-safe static locals) so the steady-state dispatch cost is two
// pointer loads, not a registry map lookup.
struct OpMetrics {
  const char* name;
  metrics::Counter& requests;
  metrics::Histogram& latency;
};

OpMetrics MakeOpMetrics(const char* op) {
  auto& registry = metrics::Registry::Instance();
  std::string label = std::string("{op=\"") + op + "\"}";
  return OpMetrics{
      op,
      registry.GetCounter("livegraph_server_requests_total" + label),
      registry.GetHistogram("livegraph_server_op_latency" + label,
                            metrics::Unit::kNanos)};
}

const OpMetrics* OpMetricsFor(MsgType type) {
#define LIVEGRAPH_OP_METRICS(TYPE, NAME)                \
  case MsgType::TYPE: {                                 \
    static OpMetrics metrics = MakeOpMetrics(NAME);     \
    return &metrics;                                    \
  }
  switch (type) {
    LIVEGRAPH_OP_METRICS(kHello, "HELLO")
    LIVEGRAPH_OP_METRICS(kBeginTxn, "BEGIN_TXN")
    LIVEGRAPH_OP_METRICS(kBeginReadTxn, "BEGIN_READ_TXN")
    LIVEGRAPH_OP_METRICS(kCommit, "COMMIT")
    LIVEGRAPH_OP_METRICS(kAbort, "ABORT")
    LIVEGRAPH_OP_METRICS(kEndRead, "END_READ")
    LIVEGRAPH_OP_METRICS(kGetNode, "GET_NODE")
    LIVEGRAPH_OP_METRICS(kGetLink, "GET_LINK")
    LIVEGRAPH_OP_METRICS(kScanLinks, "SCAN_LINKS")
    LIVEGRAPH_OP_METRICS(kCountLinks, "COUNT_LINKS")
    LIVEGRAPH_OP_METRICS(kVertexCount, "VERTEX_COUNT")
    LIVEGRAPH_OP_METRICS(kAddNode, "ADD_NODE")
    LIVEGRAPH_OP_METRICS(kUpdateNode, "UPDATE_NODE")
    LIVEGRAPH_OP_METRICS(kDeleteNode, "DELETE_NODE")
    LIVEGRAPH_OP_METRICS(kAddLink, "ADD_LINK")
    LIVEGRAPH_OP_METRICS(kUpdateLink, "UPDATE_LINK")
    LIVEGRAPH_OP_METRICS(kDeleteLink, "DELETE_LINK")
    LIVEGRAPH_OP_METRICS(kBeginReadTxnAt, "BEGIN_READ_TXN_AT")
    LIVEGRAPH_OP_METRICS(kStats, "STATS")
    default:
      // kSubscribe converts the connection into a push stream (its latency
      // is the stream lifetime, not a request) and response types are
      // protocol violations — neither belongs in the op histograms.
      return nullptr;
  }
#undef LIVEGRAPH_OP_METRICS
}

void RecordOp(const OpMetrics* op, uint64_t start_nanos) {
  if (op == nullptr) return;
  const uint64_t elapsed = metrics::MonotonicNanos() - start_nanos;
  op->requests.Add();
  op->latency.Record(elapsed);
  auto& ring = metrics::SlowOpRing::Instance();
  if (ring.ShouldRecord(elapsed)) {
    metrics::SlowOp slow;
    slow.name = op->name;
    slow.total_nanos = elapsed;
    slow.wall_unix_micros = metrics::WallUnixMicros();
    ring.Record(std::move(slow));
  }
}

/// Non-kOk replies, labelled by status. Looked up per error (registry map
/// under its mutex): errors are rare, and this keeps one chokepoint
/// instead of a static per status value.
void CountReplyError(Status status) {
  metrics::Registry::Instance()
      .GetCounter(std::string("livegraph_server_errors_total{status=\"") +
                  StatusName(status) + "\"}")
      .Add();
}

metrics::Gauge& OpenTxnsGauge() {
  static metrics::Gauge& gauge =
      metrics::Registry::Instance().GetGauge("livegraph_server_open_txns");
  return gauge;
}

/// How long a parked mutation waited for its vertex lock, one sample when
/// it acquires or times out. Mutations that lock at the first attempt
/// record nothing.
metrics::Histogram& LockWait() {
  static metrics::Histogram& histogram =
      metrics::Registry::Instance().GetHistogram(
          "livegraph_server_lock_wait", metrics::Unit::kNanos);
  return histogram;
}

metrics::Counter& LockTimeouts() {
  static metrics::Counter& counter = metrics::Registry::Instance().GetCounter(
      "livegraph_server_lock_timeouts_total");
  return counter;
}

}  // namespace

ServerSession::ServerSession(const Config& config) : config_(config) {
  OpenTxnsGauge();  // eager registration: present (at 0) from first scrape
}

ServerSession::~ServerSession() {
  // Destroying the table aborts open write sessions and releases read
  // sessions (latches, snapshots) — a vanished client holds nothing.
  OpenTxnsGauge().Add(-static_cast<int64_t>(txns_.size()));
  txns_.clear();
  if (pending_commit_.txn != nullptr) {
    // The transaction was detached for a worker hand-off that never
    // happened (connection torn down in the same scheduling step);
    // re-attach so the abort in the destructor releases on this thread.
    pending_commit_.txn->AttachToThread();
    pending_commit_.txn.reset();
  }
}

ServerSession::Outcome ServerSession::Handle(const Frame& request,
                                             Sink* sink) {
  const OpMetrics* op = OpMetricsFor(request.type);
  if (op == nullptr) return DispatchInner(request, sink);
  const uint64_t now = metrics::MonotonicNanos();
  if (!parked_) request_start_ns_ = now;
  waited_ns_ = static_cast<int64_t>(now - request_start_ns_);
  Outcome outcome = DispatchInner(request, sink);
  parked_ = outcome == Outcome::kParked;
  // Paused scans and offloaded commits record when they complete
  // (ResumeScan / FinishCommit), parked requests when a retry finishes.
  if (outcome == Outcome::kDone || outcome == Outcome::kClose) {
    RecordOp(op, request_start_ns_);
  }
  return outcome;
}

ServerSession::Outcome ServerSession::DispatchInner(const Frame& request,
                                                    Sink* sink) {
  WireReader reader(request.body);
  switch (request.type) {
    case MsgType::kHello: return HandleHello(reader, sink);
    case MsgType::kBeginTxn:
      return HandleBegin(reader, sink, /*write=*/true);
    case MsgType::kBeginReadTxn:
      return HandleBegin(reader, sink, /*write=*/false);
    case MsgType::kCommit: return HandleCommit(reader, sink);
    case MsgType::kAbort: return HandleAbort(reader, sink);
    case MsgType::kEndRead: return HandleEndRead(reader, sink);
    case MsgType::kGetNode: return HandleGetNode(reader, sink);
    case MsgType::kGetLink: return HandleGetLink(reader, sink);
    case MsgType::kScanLinks: return HandleScanLinks(reader, sink);
    case MsgType::kCountLinks: return HandleCountLinks(reader, sink);
    case MsgType::kVertexCount: return HandleVertexCount(reader, sink);
    case MsgType::kAddNode: return HandleAddNode(reader, sink);
    case MsgType::kUpdateNode: return HandleUpdateNode(reader, sink);
    case MsgType::kDeleteNode: return HandleDeleteNode(reader, sink);
    case MsgType::kAddLink:
      return HandleAddLink(reader, sink, /*upsert=*/true);
    case MsgType::kUpdateLink:
      return HandleAddLink(reader, sink, /*upsert=*/false);
    case MsgType::kDeleteLink: return HandleDeleteLink(reader, sink);
    case MsgType::kSubscribe:
      // Long-lived push stream: the transport moves the socket to a
      // dedicated blocking thread (GraphServer's subscription path).
      return Outcome::kSubscribe;
    case MsgType::kBeginReadTxnAt: return HandleBeginReadTxnAt(reader, sink);
    case MsgType::kStats: return HandleStats(reader, sink);
    case MsgType::kFrontierAck:
      return Outcome::kClose;  // only valid inside an established stream
    case MsgType::kReply:
    case MsgType::kScanBatch:
    case MsgType::kSnapshotBatch:
    case MsgType::kLogBatch:
      return Outcome::kClose;  // response types are not requests
  }
  return Outcome::kClose;
}

// --- Reply plumbing --------------------------------------------------------

bool ServerSession::Sink::SendFrame(MsgType type, uint8_t flags,
                                    std::string_view body) {
  if (body.size() > kMaxFrameBody) return false;
  std::string buf;
  if (!spare_.empty()) {
    buf = std::move(spare_.back());
    spare_.pop_back();
    buf.clear();
  }
  EncodeFrame(type, flags, body, &buf);
  if (bytes_ == 0) last_progress_ns_ = metrics::MonotonicNanos();
  bytes_ += buf.size();
  frames_.push_back(std::move(buf));
  return true;
}

int ServerSession::Sink::Gather(struct iovec* iov, int max) const {
  int count = 0;
  size_t skip = head_offset_;
  for (auto it = frames_.begin(); it != frames_.end() && count < max; ++it) {
    iov[count].iov_base = const_cast<char*>(it->data()) + skip;
    iov[count].iov_len = it->size() - skip;
    skip = 0;
    ++count;
  }
  return count;
}

void ServerSession::Sink::Consume(size_t n) {
  bytes_ -= n;
  last_progress_ns_ = bytes_ == 0 ? 0 : metrics::MonotonicNanos();
  while (n > 0) {
    std::string& front = frames_.front();
    size_t remain = front.size() - head_offset_;
    if (n < remain) {
      head_offset_ += n;
      return;
    }
    n -= remain;
    head_offset_ = 0;
    if (spare_.size() < kSpareBuffers && front.capacity() <= kSpareMaxBytes) {
      spare_.push_back(std::move(front));
    }
    frames_.pop_front();
  }
}

WireWriter ServerSession::BeginReply(Status status) {
  if (status != Status::kOk) CountReplyError(status);
  reply_body_.clear();
  WireWriter writer(&reply_body_);
  writer.PutU8(StatusToWire(status));
  return writer;
}

bool ServerSession::SendReply(Sink* sink, uint8_t flags) {
  return sink->SendFrame(MsgType::kReply, flags, reply_body_);
}

ServerSession::Outcome ServerSession::ReplyStatus(Sink* sink, Status status,
                                                  uint8_t flags) {
  BeginReply(status);
  return SendReply(sink, flags) ? Outcome::kDone : Outcome::kClose;
}

// --- Handshake -------------------------------------------------------------

ServerSession::Outcome ServerSession::HandleHello(WireReader& reader,
                                                  Sink* sink) {
  uint32_t version;
  if (!reader.GetU32(&version) || !reader.Exhausted()) {
    return Outcome::kClose;
  }
  if (version != kProtocolVersion) {
    ReplyStatus(sink, Status::kUnavailable);
    return Outcome::kClose;  // incompatible dialect: refuse loudly, hang up
  }
  StoreTraits traits = config_.store->Traits();
  WireWriter writer = BeginReply(Status::kOk);
  writer.PutU32(kProtocolVersion);
  writer.PutBytes(config_.store->Name());
  writer.PutU8(traits.time_ordered_scans ? 1 : 0);
  writer.PutU8(traits.snapshot_reads ? 1 : 0);
  writer.PutU8(traits.transactional_writes ? 1 : 0);
  return SendReply(sink) ? Outcome::kDone : Outcome::kClose;
}

// --- Session lifecycle -----------------------------------------------------

ServerSession::Outcome ServerSession::HandleBegin(WireReader& reader,
                                                  Sink* sink, bool write) {
  if (!reader.Exhausted()) return Outcome::kClose;
  return ReplyNewTxn(sink, write);
}

ServerSession::Outcome ServerSession::ReplyNewTxn(Sink* sink, bool write) {
  uint64_t id = next_txn_id_++;
  OpenTxn& slot = txns_[id];
  OpenTxnsGauge().Add(1);
  if (write) {
    slot.write = config_.store->BeginTxn();
  } else {
    slot.read = config_.store->BeginReadTxn();
  }
  WireWriter writer = BeginReply(Status::kOk);
  writer.PutU64(id);
  return SendReply(sink) ? Outcome::kDone : Outcome::kClose;
}

ServerSession::Outcome ServerSession::HandleCommit(WireReader& reader,
                                                   Sink* sink) {
  uint64_t id;
  if (!reader.GetU64(&id) || !reader.Exhausted()) return Outcome::kClose;
  auto it = txns_.find(id);
  if (it == txns_.end() || it->second.write == nullptr) {
    return ReplyStatus(sink, Status::kNotActive);
  }
  std::unique_ptr<StoreTxn> txn = std::move(it->second.write);
  txns_.erase(it);
  OpenTxnsGauge().Sub(1);
  if (txn->SupportsThreadHandoff()) {
    // The commit would futex-wait on group durability; hand it to a
    // worker so the event loop keeps serving other connections. Detach
    // here — still on the transport thread — so the worker may release
    // the transaction's locks (api/store.h "Cross-thread hand-off").
    txn->DetachFromThread();
    pending_commit_.txn = std::move(txn);
    pending_commit_.start_nanos = request_start_ns_;
    return Outcome::kCommitAsync;
  }
  StatusOr<timestamp_t> committed = txn->Commit();
  txn.reset();
  if (!committed.ok()) return ReplyStatus(sink, committed.status());
  WireWriter writer = BeginReply(Status::kOk);
  writer.PutI64(*committed);
  return SendReply(sink) ? Outcome::kDone : Outcome::kClose;
}

ServerSession::PendingCommit ServerSession::TakePendingCommit() {
  PendingCommit taken;
  taken.txn = std::move(pending_commit_.txn);
  taken.start_nanos = pending_commit_.start_nanos;
  return taken;
}

ServerSession::Outcome ServerSession::FinishCommit(
    StatusOr<timestamp_t> committed, Sink* sink) {
  const uint64_t start = pending_commit_.start_nanos;
  pending_commit_ = PendingCommit{};
  Outcome outcome;
  if (!committed.ok()) {
    outcome = ReplyStatus(sink, committed.status());
  } else {
    WireWriter writer = BeginReply(Status::kOk);
    writer.PutI64(*committed);
    outcome = SendReply(sink) ? Outcome::kDone : Outcome::kClose;
  }
  RecordOp(OpMetricsFor(MsgType::kCommit), start);
  return outcome;
}

ServerSession::Outcome ServerSession::HandleAbort(WireReader& reader,
                                                  Sink* sink) {
  uint64_t id;
  if (!reader.GetU64(&id) || !reader.Exhausted()) return Outcome::kClose;
  auto it = txns_.find(id);
  if (it == txns_.end() || it->second.write == nullptr) {
    return ReplyStatus(sink, Status::kNotActive);
  }
  it->second.write->Abort();
  txns_.erase(it);
  OpenTxnsGauge().Sub(1);
  return ReplyStatus(sink, Status::kOk);
}

ServerSession::Outcome ServerSession::HandleEndRead(WireReader& reader,
                                                    Sink* sink) {
  uint64_t id;
  if (!reader.GetU64(&id) || !reader.Exhausted()) return Outcome::kClose;
  auto it = txns_.find(id);
  if (it == txns_.end() || it->second.read == nullptr) {
    return ReplyStatus(sink, Status::kNotActive);
  }
  txns_.erase(it);  // releases the engine read session (latch, snapshot)
  OpenTxnsGauge().Sub(1);
  return ReplyStatus(sink, Status::kOk);
}

// --- Reads -----------------------------------------------------------------

StoreReadTxn* ServerSession::FindRead(uint64_t id) {
  auto it = txns_.find(id);
  return it != txns_.end() ? it->second.AsRead() : nullptr;
}

StoreTxn* ServerSession::FindWrite(uint64_t id) {
  auto it = txns_.find(id);
  return it != txns_.end() ? it->second.write.get() : nullptr;
}

ServerSession::Outcome ServerSession::HandleGetNode(WireReader& reader,
                                                    Sink* sink) {
  uint64_t id;
  int64_t vertex;
  if (!reader.GetU64(&id) || !reader.GetI64(&vertex) ||
      !reader.Exhausted()) {
    return Outcome::kClose;
  }
  StoreReadTxn* read = FindRead(id);
  if (read == nullptr) return ReplyStatus(sink, Status::kNotActive);
  StatusOr<std::string> props = read->GetNode(vertex);
  if (!props.ok()) return ReplyStatus(sink, props.status());
  WireWriter writer = BeginReply(Status::kOk);
  writer.PutBytes(*props);
  return SendReply(sink) ? Outcome::kDone : Outcome::kClose;
}

ServerSession::Outcome ServerSession::HandleGetLink(WireReader& reader,
                                                    Sink* sink) {
  uint64_t id;
  int64_t src, dst;
  uint16_t label;
  if (!reader.GetU64(&id) || !reader.GetI64(&src) ||
      !reader.GetU16(&label) || !reader.GetI64(&dst) ||
      !reader.Exhausted()) {
    return Outcome::kClose;
  }
  StoreReadTxn* read = FindRead(id);
  if (read == nullptr) return ReplyStatus(sink, Status::kNotActive);
  StatusOr<std::string> props = read->GetLink(src, label, dst);
  if (!props.ok()) return ReplyStatus(sink, props.status());
  WireWriter writer = BeginReply(Status::kOk);
  writer.PutBytes(*props);
  return SendReply(sink) ? Outcome::kDone : Outcome::kClose;
}

ServerSession::Outcome ServerSession::HandleCountLinks(WireReader& reader,
                                                       Sink* sink) {
  uint64_t id;
  int64_t src;
  uint16_t label;
  if (!reader.GetU64(&id) || !reader.GetI64(&src) ||
      !reader.GetU16(&label) || !reader.Exhausted()) {
    return Outcome::kClose;
  }
  StoreReadTxn* read = FindRead(id);
  if (read == nullptr) return ReplyStatus(sink, Status::kNotActive);
  WireWriter writer = BeginReply(Status::kOk);
  writer.PutU64(read->CountLinks(src, label));
  return SendReply(sink) ? Outcome::kDone : Outcome::kClose;
}

ServerSession::Outcome ServerSession::HandleVertexCount(WireReader& reader,
                                                        Sink* sink) {
  uint64_t id;
  if (!reader.GetU64(&id) || !reader.Exhausted()) return Outcome::kClose;
  StoreReadTxn* read = FindRead(id);
  if (read == nullptr) return ReplyStatus(sink, Status::kNotActive);
  WireWriter writer = BeginReply(Status::kOk);
  writer.PutI64(read->VertexCount());
  return SendReply(sink) ? Outcome::kDone : Outcome::kClose;
}

// The streaming scan: walk the engine cursor once, flushing a reused
// batch buffer whenever either budget (edges or bytes) fills. The last
// frame carries kFlagEndOfStream; an error reply does too, so the client
// drain rule is uniform. Under a throttled sink the walk parks between
// batches (Outcome::kScanPaused) and ResumeScan() continues it — the
// cursor holds its position, so backpressure costs no rescan.
ServerSession::Outcome ServerSession::HandleScanLinks(WireReader& reader,
                                                      Sink* sink) {
  uint64_t id, limit;
  int64_t src;
  uint16_t label;
  if (!reader.GetU64(&id) || !reader.GetI64(&src) ||
      !reader.GetU16(&label) || !reader.GetU64(&limit) ||
      !reader.Exhausted()) {
    return Outcome::kClose;
  }
  StoreReadTxn* read = FindRead(id);
  if (read == nullptr) {
    return ReplyStatus(sink, Status::kNotActive, kFlagEndOfStream);
  }
  batch_body_.clear();
  WireWriter writer(&batch_body_);
  writer.PutU32(0);  // count placeholder, patched at flush
  scan_.emplace();
  scan_->cursor = read->ScanLinks(src, label, limit);
  scan_->start_nanos = metrics::MonotonicNanos();
  Outcome outcome = PumpScan(sink);
  if (outcome != Outcome::kScanPaused) scan_.reset();
  return outcome;
}

ServerSession::Outcome ServerSession::ResumeScan(Sink* sink) {
  Outcome outcome = PumpScan(sink);
  if (outcome != Outcome::kScanPaused) {
    RecordOp(OpMetricsFor(MsgType::kScanLinks), scan_->start_nanos);
    scan_.reset();
  }
  return outcome;
}

ServerSession::Outcome ServerSession::PumpScan(Sink* sink) {
  ActiveScan& scan = *scan_;
  WireWriter writer(&batch_body_);
  auto flush = [&](bool end_of_stream) {
    uint8_t count_le[4] = {
        static_cast<uint8_t>(scan.batch_count),
        static_cast<uint8_t>(scan.batch_count >> 8),
        static_cast<uint8_t>(scan.batch_count >> 16),
        static_cast<uint8_t>(scan.batch_count >> 24)};
    std::memcpy(batch_body_.data(), count_le, sizeof(count_le));
    bool sent = sink->SendFrame(
        MsgType::kScanBatch,
        end_of_stream ? kFlagEndOfStream : kFlagNone, batch_body_);
    scan.batch_count = 0;
    batch_body_.clear();
    writer.PutU32(0);
    return sent;
  };
  if (scan.advance_pending) {
    // Parked right after a budget flush, before stepping off the edge
    // already shipped in that batch.
    scan.cursor.Next();
    scan.advance_pending = false;
  }
  while (scan.cursor.Valid()) {
    // Flush early if this edge would push the frame past the protocol
    // cap (possible with outsized property blobs loaded embedded); a
    // single edge that alone exceeds the cap is unrepresentable and
    // fails the SendFrame below, closing the connection.
    size_t edge_bytes = 8 + 8 + 4 + scan.cursor.properties().size();
    if (scan.batch_count > 0 &&
        batch_body_.size() + edge_bytes > kMaxFrameBody) {
      if (!flush(/*end_of_stream=*/false)) return Outcome::kClose;
      if (sink->throttled()) return Outcome::kScanPaused;
    }
    writer.PutI64(scan.cursor.dst());
    writer.PutI64(scan.cursor.creation_timestamp());
    writer.PutBytes(scan.cursor.properties());
    if (++scan.batch_count >= config_.scan_batch_edges ||
        batch_body_.size() >= config_.scan_batch_bytes) {
      if (!flush(/*end_of_stream=*/false)) return Outcome::kClose;
      if (sink->throttled()) {
        scan.advance_pending = true;
        return Outcome::kScanPaused;
      }
    }
    scan.cursor.Next();
  }
  return flush(/*end_of_stream=*/true) ? Outcome::kDone : Outcome::kClose;
}

// --- Replication-adjacent reads (docs/REPLICATION.md) ----------------------

// Epoch-gated read session: once this node's frontier covers the
// client's epoch, open a plain read snapshot (which therefore includes
// every commit at or below it). Until then the request parks and the
// transport retries it; kTimeout once the client's own timeout has passed
// since the first attempt — the client may fail over.
ServerSession::Outcome ServerSession::HandleBeginReadTxnAt(
    WireReader& reader, Sink* sink) {
  int64_t min_epoch;
  uint32_t timeout_ms;
  if (!reader.GetI64(&min_epoch) || !reader.GetU32(&timeout_ms) ||
      !reader.Exhausted()) {
    return Outcome::kClose;
  }
  if (min_epoch > 0) {
    if (config_.frontier == nullptr) {
      return ReplyStatus(sink, Status::kUnavailable);
    }
    if (config_.frontier->Frontier() < min_epoch) {
      if (waited_ns_ >= int64_t{timeout_ms} * 1'000'000) {
        return ReplyStatus(sink, Status::kTimeout);
      }
      return Outcome::kParked;
    }
  }
  return ReplyNewTxn(sink, /*write=*/false);
}

/// STATS: collect the live registry (probes included) and reply with the
/// versioned binary snapshot (server/stats_codec.h).
ServerSession::Outcome ServerSession::HandleStats(WireReader& reader,
                                                  Sink* sink) {
  if (!reader.Exhausted()) return Outcome::kClose;
  metrics::Snapshot snapshot = metrics::Registry::Instance().Collect();
  batch_body_.clear();
  EncodeStats(snapshot, &batch_body_);
  WireWriter writer = BeginReply(Status::kOk);
  writer.PutBytes(batch_body_);
  return SendReply(sink) ? Outcome::kDone : Outcome::kClose;
}

// --- Writes ----------------------------------------------------------------

// Parked lock waits: a vertex lock's holder is typically another client
// whose releasing Commit is a frame some event loop has yet to dispatch —
// often this very loop. Blocking the loop on the futex would serialize
// the waiter IN FRONT of the release, so the mutation first tries the
// lock without waiting and, on contention, parks its connection
// (Outcome::kParked) until a commit or the re-check tick retries it. The
// engine's lock_timeout_ns stays the deadlock rule: TryLockVertex rolls
// the transaction back once the wait since the first attempt reaches it.
// AddNode needs no such step: it locks a freshly minted vertex, which
// nothing else can hold.
std::optional<ServerSession::Outcome> ServerSession::LockOrPark(
    StoreTxn* txn, vertex_t v, Sink* sink) {
  StatusOr<bool> locked = txn->TryLockVertex(v, waited_ns_);
  if (locked.ok() && !*locked) return Outcome::kParked;
  if (parked_) LockWait().Record(static_cast<uint64_t>(waited_ns_));
  if (locked.ok()) return std::nullopt;
  if (locked.status() == Status::kTimeout) LockTimeouts().Add();
  return ReplyStatus(sink, locked.status());
}

ServerSession::Outcome ServerSession::HandleAddNode(WireReader& reader,
                                                    Sink* sink) {
  uint64_t id;
  std::string_view data;
  if (!reader.GetU64(&id) || !reader.GetBytes(&data) ||
      !reader.Exhausted()) {
    return Outcome::kClose;
  }
  StoreTxn* txn = FindWrite(id);
  if (txn == nullptr) return ReplyStatus(sink, Status::kNotActive);
  StatusOr<vertex_t> added = txn->AddNode(data);
  if (!added.ok()) return ReplyStatus(sink, added.status());
  WireWriter writer = BeginReply(Status::kOk);
  writer.PutI64(*added);
  return SendReply(sink) ? Outcome::kDone : Outcome::kClose;
}

ServerSession::Outcome ServerSession::HandleUpdateNode(WireReader& reader,
                                                       Sink* sink) {
  uint64_t id;
  int64_t vertex;
  std::string_view data;
  if (!reader.GetU64(&id) || !reader.GetI64(&vertex) ||
      !reader.GetBytes(&data) || !reader.Exhausted()) {
    return Outcome::kClose;
  }
  StoreTxn* txn = FindWrite(id);
  if (txn == nullptr) return ReplyStatus(sink, Status::kNotActive);
  if (auto early = LockOrPark(txn, vertex, sink)) return *early;
  return ReplyStatus(sink, txn->UpdateNode(vertex, data));
}

ServerSession::Outcome ServerSession::HandleDeleteNode(WireReader& reader,
                                                       Sink* sink) {
  uint64_t id;
  int64_t vertex;
  if (!reader.GetU64(&id) || !reader.GetI64(&vertex) ||
      !reader.Exhausted()) {
    return Outcome::kClose;
  }
  StoreTxn* txn = FindWrite(id);
  if (txn == nullptr) return ReplyStatus(sink, Status::kNotActive);
  if (auto early = LockOrPark(txn, vertex, sink)) return *early;
  return ReplyStatus(sink, txn->DeleteNode(vertex));
}

ServerSession::Outcome ServerSession::HandleAddLink(WireReader& reader,
                                                    Sink* sink,
                                                    bool upsert) {
  uint64_t id;
  int64_t src, dst;
  uint16_t label;
  std::string_view data;
  if (!reader.GetU64(&id) || !reader.GetI64(&src) ||
      !reader.GetU16(&label) || !reader.GetI64(&dst) ||
      !reader.GetBytes(&data) || !reader.Exhausted()) {
    return Outcome::kClose;
  }
  StoreTxn* txn = FindWrite(id);
  if (txn == nullptr) return ReplyStatus(sink, Status::kNotActive);
  if (auto early = LockOrPark(txn, src, sink)) return *early;
  if (!upsert) {
    return ReplyStatus(sink, txn->UpdateLink(src, label, dst, data));
  }
  StatusOr<bool> inserted = txn->AddLink(src, label, dst, data);
  if (!inserted.ok()) return ReplyStatus(sink, inserted.status());
  WireWriter writer = BeginReply(Status::kOk);
  writer.PutU8(*inserted ? 1 : 0);
  return SendReply(sink) ? Outcome::kDone : Outcome::kClose;
}

ServerSession::Outcome ServerSession::HandleDeleteLink(WireReader& reader,
                                                       Sink* sink) {
  uint64_t id;
  int64_t src, dst;
  uint16_t label;
  if (!reader.GetU64(&id) || !reader.GetI64(&src) ||
      !reader.GetU16(&label) || !reader.GetI64(&dst) ||
      !reader.Exhausted()) {
    return Outcome::kClose;
  }
  StoreTxn* txn = FindWrite(id);
  if (txn == nullptr) return ReplyStatus(sink, Status::kNotActive);
  if (auto early = LockOrPark(txn, src, sink)) return *early;
  return ReplyStatus(sink, txn->DeleteLink(src, label, dst));
}

}  // namespace livegraph
