// ReplicationHub: the primary side of WAL shipping (docs/REPLICATION.md).
//
// Attach() hooks a serving engine's WALs: every shard gets a
// Wal::DurableSink that tees durable record batches (post-fsync, inside
// the single-appender section) into one ReplicationLog. Server connection
// threads then Subscribe() on behalf of followers; the hub picks the
// catch-up tier for each:
//
//   tier A (live):     from_epoch >= log trim epoch — every needed record
//                      is still buffered; filter = from_epoch.
//   tier B (disk):     from_epoch >= WAL floor — records in
//                      (from_epoch, F0] are shipped straight from the
//                      shard WAL files (WalReader); the live
//                      filter starts at F0.
//   tier C (snapshot): anything older (or a shard-layout mismatch) —
//                      per-shard snapshots pinned at one epoch F0 are
//                      exported as synthetic WAL payloads, then live from
//                      F0.
//
// In every tier F0 (or from_epoch, tier A) is sampled AFTER the log
// cursor is registered, so a record of any higher epoch is necessarily at
// or past the cursor: handoff from catch-up phase to live buffer has no
// gap, by construction rather than by retry.
#ifndef LIVEGRAPH_REPLICATION_REPLICATION_HUB_H_
#define LIVEGRAPH_REPLICATION_REPLICATION_HUB_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/graph.h"
#include "core/transaction.h"
#include "replication/replication_log.h"
#include "storage/wal.h"

namespace livegraph {

class Store;
class ShardedStore;

class ReplicationHub {
 public:
  explicit ReplicationHub(ReplicationLog::Options log_options = {});
  ~ReplicationHub();

  ReplicationHub(const ReplicationHub&) = delete;
  ReplicationHub& operator=(const ReplicationHub&) = delete;

  /// Hooks `store`'s WAL(s). Supported engines: ShardedStore (durable
  /// directory) and LiveGraphStore/PagedLiveGraph with a WAL — anything
  /// else (or an in-memory engine) returns false and the hub stays inert.
  /// Call before the server starts accepting traffic; the sinks are
  /// installed here and removed by Detach()/destruction.
  bool Attach(Store& store);
  void Detach();

  bool attached() const { return !graphs_.empty(); }
  int num_shards() const { return static_cast<int>(graphs_.size()); }
  EpochDomain* domain() const { return domain_; }
  ReplicationLog& log() { return log_; }
  Graph* shard_graph(int s) { return graphs_[static_cast<size_t>(s)]; }
  /// Shard `s`'s WAL file path ("" when unknown).
  const std::string& wal_path(int s) const {
    return wal_paths_[static_cast<size_t>(s)];
  }

  /// One follower subscription's catch-up plan (see tier table above).
  struct Subscription {
    uint64_t cursor = 0;
    /// Live-phase epoch filter: buffered entries with epoch <= filter are
    /// consumed silently (the catch-up phase delivered them). Also the
    /// push loop's initial shipped frontier.
    timestamp_t filter = 0;
    bool need_disk = false;
    /// Tier B: ship WAL-file records with epoch in (disk_from, filter].
    timestamp_t disk_from = 0;
    bool need_snapshot = false;
    /// Tier C: per-shard snapshots, all pinned at exactly `filter`.
    std::vector<ReadTransaction> snapshots;
  };

  /// Plans a subscription resuming after `from_epoch` for a follower with
  /// `follower_shards` local shards (0 = fresh). False when not attached.
  bool Subscribe(timestamp_t from_epoch, uint32_t follower_shards,
                 Subscription* sub);
  void Unsubscribe(Subscription* sub);

  /// Follower progress as reported by FRONTIER_ACK frames (min across
  /// nothing — last writer wins; observability only).
  void NoteFollowerAck(timestamp_t epoch) {
    follower_frontier_.store(epoch, std::memory_order_relaxed);
  }
  timestamp_t follower_frontier() const {
    return follower_frontier_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-shard WAL tee: forwards durable batches into the log, stamped
  /// with the shard number.
  class ShardSink : public Wal::DurableSink {
   public:
    ShardSink(ReplicationLog* log, uint32_t shard)
        : log_(log), shard_(shard) {}
    void OnDurableBatch(const std::vector<Wal::Record>& records) override {
      for (const Wal::Record& record : records) {
        log_->Append(shard_, record.epoch, record.participants,
                     record.payload);
      }
    }

   private:
    ReplicationLog* log_;
    uint32_t shard_;
  };

  ReplicationLog log_;
  std::vector<Graph*> graphs_;            // index = shard
  std::vector<std::string> wal_paths_;    // index = shard
  std::vector<std::unique_ptr<ShardSink>> sinks_;
  EpochDomain* domain_ = nullptr;
  /// Epochs at or below this floor are not in the WAL files (truncated by
  /// a recovery seal); resuming below it needs the snapshot tier.
  timestamp_t wal_floor_ = 0;
  std::atomic<timestamp_t> follower_frontier_{0};
  /// Replication gauges probe (registered in Attach, removed in Detach).
  uint64_t metrics_probe_ = 0;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_REPLICATION_REPLICATION_HUB_H_
