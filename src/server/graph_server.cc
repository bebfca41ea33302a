#include "server/graph_server.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "replication/replication_hub.h"
#include "server/reactor.h"
#include "server/session.h"
#include "server/wire.h"
#include "storage/wal_reader.h"
#include "util/fault_injection.h"
#include "util/metrics.h"

namespace livegraph {

namespace {

/// Non-kOk subscribe replies, labelled by status (the request/response
/// path counts its own errors inside ServerSession).
void CountReplyError(Status status) {
  metrics::Registry::Instance()
      .GetCounter(std::string("livegraph_server_errors_total{status=\"") +
                  StatusName(status) + "\"}")
      .Add();
}

}  // namespace

// One adopted replication subscription. The reactor passes the socket
// (blocking again, its queued output flushed) plus the kSubscribe frame,
// and this thread runs the push stream until either side goes away.
class GraphServer::PushStream {
 public:
  PushStream(GraphServer* server, Socket socket, Frame subscribe)
      : server_(server),
        socket_(std::move(socket)),
        subscribe_(std::move(subscribe)) {}
  PushStream(const PushStream&) = delete;
  PushStream& operator=(const PushStream&) = delete;

  void Start() {
    thread_ = std::thread([this] { Run(); });
  }

  void ShutdownSocket() { socket_.Shutdown(); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  /// True once Run() has returned: Join() is then immediate.
  bool done() const { return done_.load(std::memory_order_acquire); }

 private:
  void Run() {
    // relaxed (both edges): active_streams_ is an observability gauge;
    // stream lifetime is ordered by Join, not this counter.
    server_->active_streams_.fetch_add(1, std::memory_order_relaxed);
    WireReader reader(subscribe_.body);
    HandleSubscribe(reader);
    // Shutdown only — never Close() here: GraphServer::Stop() may call
    // ShutdownSocket() concurrently, and closing would both race on fd_
    // and free the descriptor number for reuse while Stop still holds it.
    // The fd is released by the Socket destructor, after Join().
    socket_.Shutdown();
    server_->active_streams_.fetch_sub(1, std::memory_order_relaxed);
    done_.store(true, std::memory_order_release);
  }

  // --- Reply plumbing (subscription handshake only) -----------------------

  WireWriter BeginReply(Status status) {
    if (status != Status::kOk) CountReplyError(status);
    reply_body_.clear();
    WireWriter writer(&reply_body_);
    writer.PutU8(StatusToWire(status));
    return writer;
  }

  bool SendReply() {
    return socket_.WriteFrame(MsgType::kReply, kFlagNone, reply_body_,
                              &send_scratch_);
  }

  bool ReplyStatus(Status status) {
    BeginReply(status);
    return SendReply();
  }

  // --- Replication (docs/REPLICATION.md) ----------------------------------

  /// Runs the follower push stream: catch-up phase (snapshot or WAL-file
  /// range, per the hub's tier), then live batches until either side
  /// goes away. A subscription never reverts to request/response.
  void HandleSubscribe(WireReader& reader) {
    int64_t from_epoch;
    uint32_t follower_shards;
    if (!reader.GetI64(&from_epoch) || !reader.GetU32(&follower_shards) ||
        !reader.Exhausted()) {
      return;
    }
    ReplicationHub* hub = server_->options_.replication;
    if (hub == nullptr || !hub->attached()) {
      ReplyStatus(Status::kUnavailable);
      return;
    }
    ReplicationHub::Subscription sub;
    if (!hub->Subscribe(from_epoch, follower_shards, &sub)) {
      ReplyStatus(Status::kUnavailable);
      return;
    }
    WireWriter writer = BeginReply(Status::kOk);
    writer.PutU32(static_cast<uint32_t>(hub->num_shards()));
    writer.PutU8(sub.need_snapshot ? 1 : 0);
    // The follower's readiness target: the snapshot's epoch, or else the
    // frontier now. Every record up to it ships before the stream's first
    // live batch or with it (the push loop's first sample is >= it).
    writer.PutI64(sub.need_snapshot ? sub.filter : hub->domain()->visible());
    bool ok = SendReply();
    if (ok && sub.need_snapshot) ok = StreamSnapshot(hub, &sub);
    if (ok && sub.need_disk) ok = StreamWalRange(hub, sub);
    if (ok) PushLoop(hub, sub);
    hub->Unsubscribe(&sub);
  }

  /// Tier C: exports every shard's pinned snapshot as synthetic WAL
  /// payload chunks, one kSnapshotBatch frame per chunk, then an empty
  /// end-of-stream frame. Releases the pins as it goes.
  bool StreamSnapshot(ReplicationHub* hub,
                      ReplicationHub::Subscription* sub) {
    for (int s = 0; s < hub->num_shards(); ++s) {
      bool ok = true;
      Graph* graph = hub->shard_graph(s);
      graph->ExportSnapshot(
          sub->snapshots[static_cast<size_t>(s)], 0, graph->VertexCount(),
          [&](std::string_view payload) {
            if (!ok) return;
            batch_body_.clear();
            WireWriter writer(&batch_body_);
            writer.PutU32(static_cast<uint32_t>(s));
            writer.PutBytes(payload);
            ok = socket_.WriteFrame(MsgType::kSnapshotBatch, kFlagNone,
                                    batch_body_, &send_scratch_);
          });
      if (!ok) return false;
    }
    sub->snapshots.clear();  // release the pins before going live
    batch_body_.clear();
    WireWriter writer(&batch_body_);
    writer.PutU32(0);
    writer.PutBytes(std::string_view());
    return socket_.WriteFrame(MsgType::kSnapshotBatch, kFlagEndOfStream,
                              batch_body_, &send_scratch_);
  }

  /// Tier B: ships WAL-file records with epoch in (disk_from, filter],
  /// gathered across shards and sorted by epoch so batch frontiers can
  /// advance incrementally (a frontier only ever covers fully-shipped
  /// epochs).
  bool StreamWalRange(ReplicationHub* hub,
                      const ReplicationHub::Subscription& sub) {
    struct DiskRecord {
      timestamp_t epoch;
      uint32_t participants;
      uint32_t shard;
      std::string payload;
    };
    std::vector<DiskRecord> records;
    for (int s = 0; s < hub->num_shards(); ++s) {
      WalReader wal(hub->wal_path(s));
      WalRecordView view;
      while (wal.Next(&view)) {
        if (view.epoch > sub.disk_from && view.epoch <= sub.filter) {
          records.push_back(DiskRecord{
              view.epoch, view.participants, static_cast<uint32_t>(s),
              std::string(reinterpret_cast<const char*>(view.payload),
                          view.payload_len)});
        }
      }
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const DiskRecord& a, const DiskRecord& b) {
                       return a.epoch < b.epoch;
                     });
    constexpr size_t kDiskBatchBytes = 256u << 10;
    size_t at = 0;
    do {
      const size_t begin = at;
      size_t bytes = 0;
      uint32_t count = 0;
      while (at < records.size() &&
             (count == 0 || bytes + records[at].payload.size() <=
                                kDiskBatchBytes)) {
        bytes += records[at].payload.size();
        ++count;
        ++at;
      }
      // Every epoch strictly below the next unshipped record is complete;
      // once everything shipped, the whole (disk_from, filter] range is.
      const timestamp_t frontier =
          at < records.size() ? records[at].epoch - 1 : sub.filter;
      batch_body_.clear();
      WireWriter writer(&batch_body_);
      writer.PutI64(frontier);
      writer.PutU32(count);
      for (size_t i = begin; i < at; ++i) {
        writer.PutI64(records[i].epoch);
        writer.PutU32(records[i].participants);
        writer.PutU32(records[i].shard);
        writer.PutBytes(records[i].payload);
      }
      if (!socket_.WriteFrame(MsgType::kLogBatch, kFlagNone, batch_body_,
                              &send_scratch_)) {
        return false;
      }
    } while (at < records.size());
    return true;
  }

  /// The live phase: drain follower acks (poll, no second thread), sample
  /// the visibility frontier, fetch buffered records past the filter, and
  /// push one kLogBatch. The frontier is sampled BEFORE the fetch
  /// (tee-before-visible: every record of an epoch <= it is in the buffer
  /// at that point), and while a fetch is truncated (`more`) the shipped
  /// frontier holds — epochs at or below the sample may still be in the
  /// remainder. On kTimeout the batch degrades to a frontier heartbeat,
  /// safe for the same reason: a pending record of a covered epoch would
  /// have been returned.
  void PushLoop(ReplicationHub* hub,
                const ReplicationHub::Subscription& sub) {
    timestamp_t last_sent = sub.filter;
    std::vector<ReplicationLog::Entry> entries;
    int idle_rounds = 0;
    while (server_->running_.load(std::memory_order_acquire)) {
      if (LIVEGRAPH_FAULT("repl.push")) {
        // Injected push failure: tear the stream; the follower notices the
        // dead socket, reconnects, and resubscribes from its frontier.
        socket_.Shutdown();
        return;
      }
      while (socket_.Readable(0)) {
        Frame ack;
        if (!socket_.ReadFrame(&ack)) return;
        if (ack.type != MsgType::kFrontierAck) return;
        WireReader ack_reader(ack.body);
        int64_t acked;
        if (!ack_reader.GetI64(&acked) || !ack_reader.Exhausted()) return;
        hub->NoteFollowerAck(acked);
      }
      const timestamp_t sampled = hub->domain()->visible();
      bool more = false;
      ReplicationLog::FetchStatus status =
          hub->log().Fetch(sub.cursor, sub.filter, /*max_bytes=*/2u << 20,
                           /*timeout_ms=*/500, &entries, &more);
      if (status == ReplicationLog::FetchStatus::kLapped ||
          status == ReplicationLog::FetchStatus::kClosed) {
        return;  // dropped; the follower resubscribes (snapshot tier)
      }
      const timestamp_t frontier =
          (status == ReplicationLog::FetchStatus::kOk && more)
              ? last_sent
              : std::max(sampled, last_sent);
      if (entries.empty() && frontier == last_sent) {
        // Quiet stream: every few idle fetch rounds, send an empty
        // LOG_BATCH heartbeat anyway. The follower's blocking read is
        // then bounded — it can always tell "idle primary" from "dead
        // primary", and its Stop() never waits on a silent socket.
        if (++idle_rounds < 4) continue;
      }
      idle_rounds = 0;
      batch_body_.clear();
      WireWriter writer(&batch_body_);
      writer.PutI64(frontier);
      writer.PutU32(static_cast<uint32_t>(entries.size()));
      for (const ReplicationLog::Entry& entry : entries) {
        writer.PutI64(entry.epoch);
        writer.PutU32(entry.participants);
        writer.PutU32(entry.shard);
        writer.PutBytes(entry.payload);
      }
      if (!socket_.WriteFrame(MsgType::kLogBatch, kFlagNone, batch_body_,
                              &send_scratch_)) {
        return;
      }
      last_sent = frontier;
    }
  }

  GraphServer* server_;
  Socket socket_;
  Frame subscribe_;
  std::thread thread_;
  std::atomic<bool> done_{false};

  // Reused per-stream buffers: steady state sends allocate nothing.
  std::string reply_body_;
  std::string batch_body_;
  std::string send_scratch_;
};

GraphServer::GraphServer(Store& store, Options options)
    : store_(store), options_(std::move(options)) {}

GraphServer::~GraphServer() { Stop(); }

bool GraphServer::Start() {
  if (!store_.SupportsInterleavedSessions()) return false;
  listener_ = ListenTcp(options_.host, options_.port, &port_);
  if (!listener_.valid()) return false;
  auto& registry = metrics::Registry::Instance();
  // Eagerly register the gauges scrapes key on, so they exist (at 0) from
  // the first snapshot instead of appearing after the first event.
  registry.GetGauge("livegraph_degraded");
  registry.GetGauge("livegraph_server_open_txns");

  resolved_reactors_ = options_.reactors;
  if (resolved_reactors_ <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    resolved_reactors_ = hw == 0 ? 1 : static_cast<int>(hw);
  }
  reactors_.clear();
  for (int i = 0; i < resolved_reactors_; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(this, i));
  }
  for (auto& reactor : reactors_) {
    if (!reactor->Start()) {
      StopReactors();
      listener_.Close();
      return false;
    }
  }
  // Parked commits retry once the engine has made them durable.
  store_.SetCommitWake([this] { RingOthers(nullptr); });

  // The probe registers after the loops exist: it reads them from scrape
  // threads.
  metrics::Gauge& connections =
      registry.GetGauge("livegraph_server_connections");
  metrics_probe_ = registry.AddProbe([this, &connections] {
    connections.Set(static_cast<int64_t>(active_connections()));
  });

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void GraphServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    Socket conn = AcceptTcp(listener_);
    if (!conn.valid()) break;  // listener shut down (or fatal error)
    static metrics::Counter& rx = metrics::Registry::Instance().GetCounter(
        "livegraph_server_rx_bytes_total");
    static metrics::Counter& tx = metrics::Registry::Instance().GetCounter(
        "livegraph_server_tx_bytes_total");
    conn.SetByteCounters(&rx, &tx);
    reactors_[next_reactor_++ % reactors_.size()]->Enqueue(std::move(conn));
  }
}

void GraphServer::AdoptSubscription(Socket socket, Frame frame) {
  std::lock_guard<std::mutex> lock(streams_mu_);
  // Checked under the lock: Stop() flips running_ before it swaps the
  // stream list out (also under the lock), so either this stream lands in
  // the list Stop() joins, or it is dropped here.
  if (!running_.load(std::memory_order_acquire)) return;
  // Reap streams whose follower went away (each reconnect leaves one
  // behind): join their finished threads and release their sockets.
  std::erase_if(streams_, [](const std::unique_ptr<PushStream>& stream) {
    if (!stream->done()) return false;
    stream->Join();
    return true;
  });
  streams_.push_back(std::make_unique<PushStream>(this, std::move(socket),
                                                  std::move(frame)));
  streams_.back()->Start();
}

void GraphServer::RingOthers(const Reactor* committer) {
  if (parked_.load() == 0) return;
  for (auto& reactor : reactors_) {
    if (reactor.get() != committer && reactor->has_parked()) reactor->Ring();
  }
}

size_t GraphServer::active_connections() const {
  size_t total = active_streams_.load(std::memory_order_relaxed);
  for (const auto& reactor : reactors_) total += reactor->active();
  return total;
}

void GraphServer::Drain(int64_t deadline_ms) {
  if (!running_.load(std::memory_order_acquire)) return;
  // Stop accepting immediately: shut the listener down and collect the
  // accept thread, but leave running_ set so in-flight sessions keep
  // serving until they finish or the deadline lands.
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (active_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Whatever remains (hung clients, replication push streams — which never
  // end voluntarily) is torn down the hard way.
  Stop();
}

void GraphServer::Stop() {
  bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  if (!was_running) return;
  if (metrics_probe_ != 0) {
    // Blocks out any in-flight Collect() before `this` can go away.
    metrics::Registry::Instance().RemoveProbe(metrics_probe_);
    metrics_probe_ = 0;
  }
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  // Loops first: their connections close and parked commits finish as
  // their sessions are destroyed. Push streams see running_ false and
  // unwind once their sockets are shut.
  StopReactors();
  std::vector<std::unique_ptr<PushStream>> streams;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    streams.swap(streams_);
  }
  for (auto& stream : streams) stream->ShutdownSocket();
  for (auto& stream : streams) stream->Join();
}

void GraphServer::StopReactors() {
  for (auto& reactor : reactors_) reactor->RequestStop();
  for (auto& reactor : reactors_) reactor->Join();
  // Clearing waits out a wake in flight on the engine's flusher thread.
  store_.SetCommitWake(nullptr);
}

}  // namespace livegraph
