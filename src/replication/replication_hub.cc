#include "replication/replication_hub.h"

#include "shard/sharded_store.h"
#include "util/metrics.h"

namespace livegraph {

ReplicationHub::ReplicationHub(ReplicationLog::Options log_options)
    : log_(log_options) {}

ReplicationHub::~ReplicationHub() {
  Detach();
  log_.Close();
}

bool ReplicationHub::Attach(ShardedStore& store) {
  Detach();
  if (store.dir().empty()) return false;  // no WALs to tee
  for (int s = 0; s < store.num_shards(); ++s) {
    graphs_.push_back(&store.shard(s));
    wal_paths_.push_back(store.wal_path(s));
  }
  domain_ = store.epoch_domain();
  wal_floor_ = store.recovered_epoch();
  for (size_t s = 0; s < graphs_.size(); ++s) {
    sinks_.push_back(
        std::make_unique<ShardSink>(&log_, static_cast<uint32_t>(s)));
    graphs_[s]->SetWalSink(sinks_[s].get());
  }
  // Frontier/backlog gauges sampled at metrics-collection time
  // (docs/OBSERVABILITY.md). Lag is primary-visible minus the last acked
  // follower frontier; bytes is the live buffer backlog.
  metrics::Registry& registry = metrics::Registry::Instance();
  metrics::Gauge& frontier_gauge =
      registry.GetGauge("livegraph_replication_follower_frontier");
  metrics::Gauge& lag_gauge =
      registry.GetGauge("livegraph_replication_lag_epochs");
  metrics::Gauge& buffered_gauge =
      registry.GetGauge("livegraph_replication_buffered_bytes");
  metrics_probe_ = registry.AddProbe(
      [this, &frontier_gauge, &lag_gauge, &buffered_gauge] {
        const timestamp_t acked = follower_frontier();
        frontier_gauge.Set(acked);
        const timestamp_t visible = domain_->visible();
        lag_gauge.Set(acked > 0 ? visible - acked : visible);
        buffered_gauge.Set(static_cast<int64_t>(log_.buffered_bytes()));
      });
  return true;
}

void ReplicationHub::Detach() {
  if (metrics_probe_ != 0) {
    // Blocks out in-flight collection before the domain pointer dies.
    metrics::Registry::Instance().RemoveProbe(metrics_probe_);
    metrics_probe_ = 0;
  }
  for (Graph* graph : graphs_) graph->SetWalSink(nullptr);
  graphs_.clear();
  wal_paths_.clear();
  sinks_.clear();
  domain_ = nullptr;
  wal_floor_ = 0;
}

bool ReplicationHub::Subscribe(timestamp_t from_epoch,
                               uint32_t follower_shards, Subscription* sub) {
  if (!attached()) return false;
  if (from_epoch < 0) from_epoch = 0;
  // Register the cursor FIRST: from here on, every record of any epoch
  // above what the catch-up phase covers is at or past the cursor.
  timestamp_t trim = 0;
  sub->cursor = log_.OpenCursor(&trim);
  // Extreme corner: hard-cap eviction can outrun visibility. Wait the
  // trim epoch visible so the F0 we sample below is >= trim and the
  // disk/snapshot phases (which serve epochs <= F0) cover the evicted gap.
  if (trim > domain_->visible()) domain_->WaitVisible(trim);

  // A follower whose local layout cannot absorb per-shard payloads must
  // bootstrap from scratch, whatever epoch it claims.
  const bool layout_ok =
      follower_shards == 0 ||
      follower_shards == static_cast<uint32_t>(num_shards());

  static metrics::Gauge& subscribers = metrics::Registry::Instance().GetGauge(
      "livegraph_replication_subscribers");
  static metrics::Counter& tier_live =
      metrics::Registry::Instance().GetCounter(
          "livegraph_replication_subscribes_total{tier=\"live\"}");
  static metrics::Counter& tier_disk =
      metrics::Registry::Instance().GetCounter(
          "livegraph_replication_subscribes_total{tier=\"disk\"}");
  static metrics::Counter& tier_snapshot =
      metrics::Registry::Instance().GetCounter(
          "livegraph_replication_subscribes_total{tier=\"snapshot\"}");
  if (layout_ok && from_epoch >= trim && from_epoch >= wal_floor_) {
    // Tier A: pure live. The buffer holds every record above from_epoch:
    // none was evicted past it, and none predates this process (a
    // recovered primary's log starts empty above its recovered epoch).
    sub->filter = from_epoch;
    sub->need_disk = false;
    sub->need_snapshot = false;
    subscribers.Add(1);
    tier_live.Add();
    return true;
  }
  if (layout_ok && from_epoch >= wal_floor_) {
    // Tier B: disk catch-up over (from_epoch, F0], then live from F0.
    // F0 sampled after cursor registration: higher epochs are buffered.
    sub->filter = domain_->visible();
    sub->need_disk = true;
    sub->disk_from = from_epoch;
    sub->need_snapshot = false;
    subscribers.Add(1);
    tier_disk.Add();
    return true;
  }
  // Tier C: snapshot bootstrap. Pin every shard at ONE epoch F0 (the pin
  // is the sample, taken after cursor registration), export, live from F0.
  EpochDomain::ReadPin pin = domain_->PinRead();
  sub->filter = pin.epoch;
  sub->need_disk = false;
  sub->need_snapshot = true;
  sub->snapshots.reserve(graphs_.size());
  for (Graph* graph : graphs_) {
    sub->snapshots.push_back(graph->BeginTimeTravelTransaction(pin.epoch));
  }
  // The snapshots' own reading-epoch slots keep protecting F0 per shard.
  domain_->Unpin(pin);
  subscribers.Add(1);
  tier_snapshot.Add();
  return true;
}

void ReplicationHub::Unsubscribe(Subscription* sub) {
  sub->snapshots.clear();
  if (sub->cursor != 0) {
    log_.CloseCursor(sub->cursor);
    metrics::Registry::Instance()
        .GetGauge("livegraph_replication_subscribers")
        .Sub(1);
  }
  sub->cursor = 0;
}

}  // namespace livegraph
