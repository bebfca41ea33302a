// Sharded store: a hash-partitioned multi-graph engine behind the v2
// Store surface (docs/SHARDING.md).
//
// One ShardedStore owns N fully independent LiveGraph engines — N commit
// pipelines, N vertex-lock arrays, N compaction threads, N WALs — and maps
// the single-store API onto them. Vertices are hash-partitioned by ID
// (shard = v mod N with the interleaved ID encoding below), and every edge
// lives with its source vertex, so an adjacency scan is still one purely
// sequential TEL walk inside one shard — the paper's §4 property survives
// partitioning untouched.
//
// Cross-shard snapshot isolation comes from the unified EpochDomain
// (core/epoch_domain.h) shared by every shard:
//
//   * Every commit — single-shard fast path and coordinator multi-shard —
//     draws its epoch from the one shared domain, and an epoch becomes
//     visible only after every lower epoch finished applying on every
//     shard. Commit epochs ARE the global visibility order.
//   * Read sessions pin ONE domain epoch (an O(1) pin, not an O(N)
//     snapshot vector) and open per-shard snapshots lazily at that epoch,
//     only for the shards they actually touch — a point read costs one
//     shard's worker slot, like the single engine.
//   * Multi-shard write transactions acquire one epoch for the whole
//     transaction and commit each shard's piece at it, so all
//     pieces surface at a single point of the visibility order:
//     all-or-nothing for every reader and for time travel, with no
//     coordinator lock anywhere.
//
// Durability (docs/SHARDING.md "Recovery"): with ShardOptions::dir set the
// store owns a directory
//
//   <dir>/MANIFEST              cross-shard checkpoint manifest (atomic
//                               rename; records THE pinned global epoch)
//   <dir>/shard<i>/wal          per-shard write-ahead log
//   <dir>/shard<i>/checkpoint/<epoch>/   per-shard checkpoint files
//
// Checkpoint() pins one global epoch and checkpoints every shard at it;
// Recover() loads the manifest's checkpoint, replays each shard's WAL tail
// — skipping any multi-shard epoch whose pieces are not ALL durable, so a
// crash between two shards' fsyncs can never resurrect half a transaction
// — then re-checkpoints and truncates the WALs to seal the recovered
// state.
//
// IDs: global = local * N + shard. The inverse maps are single
// div/mod operations on the hot path, new vertices round-robin across
// shards (uniform occupancy regardless of insertion pattern), and edge
// destinations are stored as global IDs inside shard-local TELs, so scans
// yield global IDs with zero translation.
#ifndef LIVEGRAPH_SHARD_SHARDED_STORE_H_
#define LIVEGRAPH_SHARD_SHARDED_STORE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/store.h"
#include "core/epoch_domain.h"
#include "core/graph.h"
#include "core/transaction.h"
#include "shard/id_partition.h"

namespace livegraph {

struct ShardOptions {
  /// Number of independent LiveGraph shards.
  int shards = 4;
  /// Durable directory (WAL + checkpoint layout above); empty disables
  /// durability. When empty and `graph.wal_path` is set, that path is used
  /// as the directory (the pre-directory file-suffix scheme is gone).
  std::string dir;
  /// Template options for every shard. `max_vertices` is the GLOBAL bound
  /// and is divided across shards; `wal_path` is superseded by `dir` (see
  /// above); `storage_path`, when set, gets a ".shard<i>" suffix per shard
  /// so the block-store backing files never collide.
  GraphOptions graph;
};

class ShardedStore;

/// A consistent cross-shard read session: one pinned global epoch, exact
/// on every shard. Per-shard MVCC snapshots open lazily at that epoch on
/// first touch, so a session that only ever reads one shard costs one
/// domain pin plus one worker slot — the single-shard read fast path.
/// Sessions are single-threaded; use ShardedStore::PinShardSnapshots for
/// the multi-threaded analytics fan-out.
class ShardedReadTxn : public StoreReadTxn {
 public:
  ~ShardedReadTxn() override;

  StatusOr<std::string> GetNode(vertex_t id) override;
  StatusOr<std::string> GetLink(vertex_t src, label_t label,
                                vertex_t dst) override;
  EdgeCursor ScanLinks(vertex_t src, label_t label, size_t limit) override;
  size_t CountLinks(vertex_t src, label_t label) override;
  vertex_t VertexCount() override { return vertex_bound_; }

  /// The session's global read epoch: every commit <= it is visible (on
  /// every shard), every commit above it invisible.
  timestamp_t read_epoch() const { return pin_.epoch; }

  /// Shard fan-in scan (EdgeCursor merged mode): one cursor over the
  /// adjacency lists of several source vertices — each list a purely
  /// sequential scan inside its own shard — consumed newest-head-first.
  /// `merge_source()` on the cursor reports which of `srcs` the current
  /// edge belongs to. Epochs share one domain, so the cross-shard
  /// interleave is exact, like the per-source order.
  EdgeCursor FanInScan(const std::vector<vertex_t>& srcs, label_t label,
                       size_t limit = kScanAll);

 private:
  friend class ShardedStore;
  ShardedReadTxn(ShardedStore* store, EpochDomain::ReadPin pin,
                 vertex_t vertex_bound);

  const ReadTransaction& Owner(vertex_t v);
  vertex_t Local(vertex_t v) const;

  ShardedStore* store_;
  EpochDomain::ReadPin pin_;
  /// Lazily opened per-shard snapshots, all at pin_.epoch (index = shard).
  std::vector<std::optional<ReadTransaction>> snapshots_;
  vertex_t vertex_bound_;
};

/// The full v2 Store surface over N LiveGraph shards.
class ShardedStore : public Store {
 public:
  explicit ShardedStore(ShardOptions options = {});
  ~ShardedStore() override;

  /// Opens a sharded store from its durable directory: loads the manifest
  /// checkpoint, replays every shard's WAL tail (dropping half-durable
  /// multi-shard transactions atomically), fast-forwards the epoch domain
  /// past every durable epoch, then re-checkpoints and truncates the WALs.
  /// A missing/empty directory recovers to an empty store. If the manifest
  /// disagrees with `options.shards`, the manifest wins (the data layout
  /// is keyed on it). Returns null, after one log line naming the file,
  /// when the manifest's checkpoint is damaged or a record holds ids
  /// beyond `options.graph.max_vertices` (Graph::Recover).
  static std::unique_ptr<ShardedStore> Recover(ShardOptions options);

  std::string Name() const override { return "ShardedLiveGraph"; }
  StoreTraits Traits() const override {
    return StoreTraits{/*time_ordered_scans=*/true, /*snapshot_reads=*/true,
                       /*transactional_writes=*/true};
  }

  std::unique_ptr<StoreTxn> BeginTxn() override;
  std::unique_ptr<StoreReadTxn> BeginReadTxn() override;

  /// Forwarded to every shard (Graph::SetCommitWake).
  void SetCommitWake(std::function<void()> wake) override {
    for (auto& shard : shards_) shard->SetCommitWake(wake);
  }

  /// Typed BeginReadTxn, for callers that want fan-in scans or the read
  /// epoch without a downcast.
  std::unique_ptr<ShardedReadTxn> BeginShardedReadTxn();

  /// Cross-shard time travel: a read session pinned at a historical global
  /// epoch (clamped to [0, visible]). Exact on every shard — one epoch
  /// domain means one timeline (subject to compaction retention, as in
  /// Graph::BeginTimeTravelTransaction).
  std::unique_ptr<ShardedReadTxn> BeginTimeTravelReadTxn(timestamp_t epoch);

  /// Cross-shard checkpoint: pins ONE global epoch, checkpoints every
  /// shard at exactly that epoch (no quiescing of writers — the epoch
  /// domain makes the cut consistent by construction), then atomically
  /// renames <dir>/MANIFEST recording it. Returns the pinned epoch, 0
  /// when the store has no durable directory, or -1 when an I/O failure
  /// prevented the checkpoint — the previous manifest stays authoritative
  /// and the next cadence retries. `threads` is the per-shard checkpoint
  /// writer count.
  timestamp_t Checkpoint(int threads = 1);

  /// Degraded-mode status across the shards: kOk while every shard is
  /// healthy, else the first shard's latched degraded status (see
  /// Graph::degraded_status()). One degraded shard makes the WHOLE store
  /// read-only — commits are rejected with the typed status regardless of
  /// routing (the shards share a disk, and multi-shard transactions could
  /// touch the poisoned WAL); reads keep serving the last durable epoch.
  Status degraded_status() const {
    for (const auto& shard : shards_) {
      if (Status s = shard->degraded_status(); s != Status::kOk) return s;
    }
    return Status::kOk;
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  Graph& shard(int s) { return *shards_[static_cast<size_t>(s)]; }

  /// The shared visibility-epoch domain spanning all shards.
  EpochDomain* epoch_domain() const { return domain_.get(); }

  // --- ID partitioning (shard/id_partition.h) ---
  int ShardOf(vertex_t v) const {
    return shard_id::ShardOf(v, num_shards());
  }
  vertex_t LocalId(vertex_t v) const {
    return shard_id::LocalOf(v, num_shards());
  }
  vertex_t GlobalId(int shard, vertex_t local) const {
    return shard_id::GlobalOf(shard, local, num_shards());
  }

  /// Upper bound (exclusive) on global vertex IDs across all shards.
  vertex_t VertexCount() const;

  /// One read snapshot per shard, all at ONE pinned global epoch (index s
  /// is shard s's snapshot) — the consistent view used by the analytics
  /// fan-out (PageRankOnShardSnapshots), shareable across threads.
  std::vector<ReadTransaction> PinShardSnapshots();

  // --- Replication plumbing (docs/REPLICATION.md) ---

  /// Applies one replicated WAL payload to shard `s` through the recovery
  /// apply path (replay-mode transaction: upsert semantics, no local WAL
  /// record). Follower-side only — the payload commits at a fresh LOCAL
  /// epoch; the primary's epoch is tracked separately by the replica's
  /// frontier. False, with nothing applied, for an out-of-range shard or
  /// a payload the decoder rejects (core/wal_ops.h).
  bool ApplyReplicated(int s, std::string_view payload);

  /// Shard `s`'s WAL file path (empty when the store is not durable) —
  /// the replication hub's disk catch-up phase reads these directly.
  std::string wal_path(int s) const {
    return options_.dir.empty() ? std::string() : ShardWalPath(s);
  }

  /// The durable directory ("" when in-memory).
  const std::string& dir() const { return options_.dir; }

  /// The epoch the store's durable state was sealed at by Recover (0 for a
  /// store that never went through Recover). Every WAL byte predating it
  /// was truncated by the recovery seal, so a replication subscriber can
  /// only be served from the log for epochs ABOVE this floor.
  timestamp_t recovered_epoch() const { return recovered_epoch_; }

 private:
  /// In-library access for the write-session implementation
  /// (sharded_store.cc), which lives outside the class.
  friend struct ShardedStoreAccess;

  /// Round-robin placement for new vertices.
  /// relaxed: the counter only spreads placement; any interleaving of
  /// increments yields a valid (and still near-uniform) assignment.
  int PickShard() {
    return static_cast<int>(next_shard_.fetch_add(
                                1, std::memory_order_relaxed) %
                            static_cast<uint64_t>(num_shards()));
  }

  std::string ShardDirPath(int s) const;
  std::string ShardWalPath(int s) const;
  std::string ShardCheckpointPath(int s, timestamp_t epoch) const;
  std::string ManifestPath() const;
  /// Reads <dir>/MANIFEST: kNotFound when absent, kIOError when damaged.
  static Status ReadManifest(const std::string& dir, int* shards,
                             timestamp_t* epoch);

  ShardOptions options_;
  std::shared_ptr<EpochDomain> domain_;
  std::vector<std::unique_ptr<Graph>> shards_;
  std::atomic<uint64_t> next_shard_{0};
  timestamp_t recovered_epoch_ = 0;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_SHARD_SHARDED_STORE_H_
