#include "replication/replica.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>
#include <vector>

#include "server/wire.h"
#include "storage/wal.h"
#include "util/fault_injection.h"
#include "util/metrics.h"

namespace livegraph {

namespace {

/// Redial backoff after a failed or torn session; doubles up to the cap,
/// and a session that streamed anything resets it.
constexpr int64_t kReconnectBackoffMs = 100;
constexpr int64_t kReconnectBackoffCapMs = 2000;

}  // namespace

Replica::Replica(Options options) : options_(std::move(options)) {
  // Follower-side gauges, sampled at metrics-collection time from the
  // atomics the replica already maintains (docs/OBSERVABILITY.md).
  metrics::Registry& registry = metrics::Registry::Instance();
  metrics::Gauge& frontier_gauge =
      registry.GetGauge("livegraph_replica_applied_frontier");
  metrics::Gauge& resub_gauge =
      registry.GetGauge("livegraph_replica_resubscribes");
  metrics::Gauge& frames_gauge =
      registry.GetGauge("livegraph_replica_frames");
  metrics_probe_ = registry.AddProbe(
      [this, &frontier_gauge, &resub_gauge, &frames_gauge] {
        frontier_gauge.Set(frontier_.Frontier());
        resub_gauge.Set(static_cast<int64_t>(resubscribes()));
        frames_gauge.Set(static_cast<int64_t>(
            frames_.load(std::memory_order_relaxed)));
      });
}

Replica::~Replica() {
  metrics::Registry::Instance().RemoveProbe(metrics_probe_);
  Stop();
}

void Replica::Start() {
  if (running_.exchange(true)) return;
  if (!options_.dir.empty()) {
    uint32_t shards = 0;
    timestamp_t state_frontier = 0;
    if (LoadState(&shards, &state_frontier)) {
      ShardOptions shard_options;
      shard_options.shards = static_cast<int>(shards);
      shard_options.dir = StorePath();
      shard_options.graph = options_.graph;
      store_ = ShardedStore::Recover(std::move(shard_options));
      if (store_ != nullptr) {
        serving_.SetInner(store_);
        // The state frontier was written after its checkpoint, so the
        // recovered store covers at least this many primary epochs.
        frontier_.Advance(state_frontier);
        durable_frontier_ = state_frontier;
        last_persisted_frontier_ = state_frontier;
      }
      // A refused store (damaged checkpoint) is like no saved state: the
      // first session bootstraps from the primary.
    }
  }
  thread_ = std::thread([this] { ThreadMain(); });
}

void Replica::Stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> lock(socket_mu_);
    socket_.Shutdown();
  }
  if (thread_.joinable()) thread_.join();
}

bool Replica::WaitReady(int64_t timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (!ready_.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

void Replica::ThreadMain() {
  int64_t backoff_ms = kReconnectBackoffMs;
  bool first = true;
  while (running_.load(std::memory_order_acquire)) {
    // Count the resubscription when the non-first session STARTS: a
    // session that replaces a torn stream may itself run until Stop(),
    // and observers (tests, metrics) must see it immediately.
    if (!first) resubscribes_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t before = frames_.load(std::memory_order_relaxed);
    RunSession();
    if (!running_.load(std::memory_order_acquire)) break;
    first = false;
    // A session that streamed anything earned a fresh backoff.
    if (frames_.load(std::memory_order_relaxed) != before) {
      backoff_ms = kReconnectBackoffMs;
    }
    // Interruptible backoff: Stop() must not wait out a 2s sleep.
    for (int64_t slept = 0;
         slept < backoff_ms && running_.load(std::memory_order_acquire);
         slept += 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    backoff_ms = std::min(backoff_ms * 2, kReconnectBackoffCapMs);
  }
}

void Replica::RunSession() {
  Socket sock = ConnectTcp(options_.primary_host, options_.primary_port);
  if (!sock.valid()) return;
  // Deadlines: the primary heartbeats an idle push stream every ~2s, so a
  // 15s silent socket means a dead/hung primary — fail the session and let
  // the reconnect loop resubscribe rather than wedging this thread.
  sock.SetRecvTimeout(15'000);
  sock.SetSendTimeout(15'000);
  {
    std::lock_guard<std::mutex> lock(socket_mu_);
    // Checked under the same lock Stop() holds for its Shutdown(): if
    // Stop ran while we were dialing, its Shutdown hit the previous
    // socket and would never unblock reads on this one.
    if (!running_.load(std::memory_order_acquire)) return;
    socket_ = std::move(sock);
  }
  std::string body, scratch;
  Frame frame;
  auto read_frame = [&]() {
    if (!socket_.ReadFrame(&frame)) return false;
    frames_.fetch_add(1, std::memory_order_relaxed);
    return true;
  };

  // Hello: version check. The reply's name/traits payload is the
  // primary's serving engine; the subscription does not depend on it.
  body.clear();
  WireWriter(&body).PutU32(kProtocolVersion);
  if (!socket_.WriteFrame(MsgType::kHello, 0, body, &scratch)) return;
  if (!read_frame() || frame.type != MsgType::kReply) return;
  {
    WireReader reader(frame.body);
    uint8_t status;
    if (!reader.GetU8(&status) ||
        StatusFromWire(status) != Status::kOk) {
      return;
    }
  }

  // Subscribe from the applied frontier (the in-memory store covers it,
  // even when the durable state trails behind).
  const timestamp_t from = frontier_.Frontier();
  body.clear();
  {
    WireWriter writer(&body);
    writer.PutI64(from);
    writer.PutU32(store_ == nullptr
                      ? 0u
                      : static_cast<uint32_t>(store_->num_shards()));
  }
  if (!socket_.WriteFrame(MsgType::kSubscribe, 0, body, &scratch)) return;
  if (!read_frame() || frame.type != MsgType::kReply) return;
  uint32_t shards = 0;
  uint8_t snapshot_follows = 0;
  // The snapshot's epoch, or the primary's frontier when it answered: the
  // follower is ready once its own frontier covers it.
  int64_t ready_epoch = 0;
  {
    WireReader reader(frame.body);
    uint8_t status;
    if (!reader.GetU8(&status) ||
        StatusFromWire(status) != Status::kOk) {
      return;
    }
    if (!reader.GetU32(&shards) || !reader.GetU8(&snapshot_follows) ||
        !reader.GetI64(&ready_epoch) || shards == 0) {
      return;
    }
  }
  auto note_ready = [&] {
    if (frontier_.Frontier() >= ready_epoch) {
      ready_.store(true, std::memory_order_release);
    }
  };

  if (snapshot_follows != 0) {
    // Snapshot bootstrap: discard local state, rebuild from the stream.
    // The old serving store keeps answering (stale but consistent) until
    // the new one is complete.
    BuildFreshStore(shards);
    if (store_ == nullptr) return;
    while (true) {
      if (!read_frame() || frame.type != MsgType::kSnapshotBatch) return;
      WireReader reader(frame.body);
      uint32_t shard;
      std::string_view payload;
      if (!reader.GetU32(&shard) || !reader.GetBytes(&payload)) return;
      if (!payload.empty() &&
          !store_->ApplyReplicated(static_cast<int>(shard), payload)) {
        return;  // rejected payload: end the session, frontier unmoved
      }
      if ((frame.flags & kFlagEndOfStream) != 0) break;
    }
    frontier_.Advance(ready_epoch);
    serving_.SetInner(store_);
    PersistState();  // a crash right after bootstrap must not re-stream it
  } else if (store_ == nullptr ||
             store_->num_shards() != static_cast<int>(shards)) {
    // Live/disk catch-up onto a store we don't have yet: only offered
    // when `from` is 0 and the full history is coming, so an empty store
    // of the primary's layout absorbs it.
    BuildFreshStore(shards);
    if (store_ == nullptr) return;
    serving_.SetInner(store_);
  }
  note_ready();

  // Apply loop. Entries buffer per primary epoch; a batch's `frontier`
  // promises every piece of every epoch <= it has been shipped, so those
  // epochs apply in ascending order and the frontier advances — the
  // Recover visibility rule, continuous.
  std::map<timestamp_t, std::vector<std::pair<uint32_t, std::string>>>
      pending;
  while (running_.load(std::memory_order_acquire)) {
    if (!read_frame()) return;
    if (frame.type != MsgType::kLogBatch) return;
    WireReader reader(frame.body);
    int64_t batch_frontier;
    uint32_t count;
    if (!reader.GetI64(&batch_frontier) || !reader.GetU32(&count)) return;
    for (uint32_t i = 0; i < count; ++i) {
      int64_t epoch;
      uint32_t participants, shard;
      std::string_view payload;
      if (!reader.GetI64(&epoch) || !reader.GetU32(&participants) ||
          !reader.GetU32(&shard) || !reader.GetBytes(&payload)) {
        return;
      }
      if (epoch > frontier_.Frontier()) {
        pending[epoch].emplace_back(shard, std::string(payload));
      }
    }
    auto it = pending.begin();
    while (it != pending.end() && it->first <= batch_frontier) {
      for (const auto& [shard, payload] : it->second) {
        if (!store_->ApplyReplicated(static_cast<int>(shard), payload)) {
          return;  // rejected payload: end the session, frontier unmoved
        }
      }
      it = pending.erase(it);
    }
    if (batch_frontier > frontier_.Frontier()) {
      frontier_.Advance(batch_frontier);
      note_ready();
      // Persist BEFORE the ack: a reader that polls the new frontier
      // may Stop() us — the dying socket must not skip a durability
      // point the frontier already promised.
      if (options_.checkpoint_every_epochs > 0 &&
          batch_frontier - last_persisted_frontier_ >=
              options_.checkpoint_every_epochs) {
        PersistState();
      }
      body.clear();
      WireWriter(&body).PutI64(batch_frontier);
      if (!socket_.WriteFrame(MsgType::kFrontierAck, 0, body, &scratch)) {
        return;
      }
    }
  }
}

void Replica::BuildFreshStore(uint32_t shards) {
  ShardOptions shard_options;
  shard_options.shards = static_cast<int>(shards);
  shard_options.graph = options_.graph;
  if (!options_.dir.empty()) {
    // Invalidate the resume point BEFORE destroying the store it
    // describes: a crash mid-bootstrap must restart from scratch.
    std::error_code ec;
    std::filesystem::remove(StatePath(), ec);
    std::filesystem::remove_all(StorePath(), ec);
    std::filesystem::create_directories(StorePath(), ec);
    shard_options.dir = StorePath();
    store_ = ShardedStore::Recover(std::move(shard_options));
  } else {
    store_ = std::make_shared<ShardedStore>(std::move(shard_options));
  }
  durable_frontier_ = 0;
  last_persisted_frontier_ = 0;
}

void Replica::PersistState() {
  if (options_.dir.empty() || store_ == nullptr) return;
  const timestamp_t covered = frontier_.Frontier();
  // The REPLICA_STATE frontier is a promise that the durable store covers
  // it; a failed checkpoint must therefore skip the state write entirely —
  // the previous state file keeps describing the previous checkpoint, and
  // the next cadence (or a restart's resubscribe-low) retries.
  if (store_->Checkpoint() < 0) return;
  // State after checkpoint: at rest, state <= checkpointed coverage. A
  // crash between the two resubscribes low and re-applies the overlap
  // (upsert-safe, order-convergent — see header).
  // One record: the frontier as its epoch, the shard count as payload.
  const auto shards = static_cast<uint32_t>(store_->num_shards());
  int err = 0;
  if (faults::Action fault = LIVEGRAPH_FAULT("replica.state")) {
    err = fault.err != 0 ? fault.err : EIO;
  } else {
    err = Wal::PublishRecord(StatePath(), covered, &shards, sizeof(shards));
  }
  if (err != 0) {
    std::fprintf(stderr,
                 "livegraph: replica state write failed: %s (errno %d, "
                 "path %s) — previous state stays authoritative\n",
                 std::strerror(err), err, StatePath().c_str());
    return;
  }
  durable_frontier_ = covered;
  last_persisted_frontier_ = covered;
}

bool Replica::LoadState(uint32_t* shards, timestamp_t* out_frontier) {
  timestamp_t state_frontier = 0;
  uint32_t state_shards = 0;
  if (Wal::ReadRecord(StatePath(), &state_frontier, &state_shards,
                      sizeof(state_shards)) != Status::kOk ||
      state_shards == 0 || state_frontier < 0) {
    return false;
  }
  *shards = state_shards;
  *out_frontier = state_frontier;
  return true;
}

}  // namespace livegraph
