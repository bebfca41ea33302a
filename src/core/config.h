// Tunables for a LiveGraph instance.
#ifndef LIVEGRAPH_CORE_CONFIG_H_
#define LIVEGRAPH_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace livegraph {

class EpochDomain;

struct GraphOptions {
  /// Visibility-epoch domain this engine commits into. Null (the default)
  /// gives the graph a private domain — the standalone configuration. A
  /// ShardedStore passes one shared domain to every shard so commit
  /// epochs from all N pipelines form a single monotone visibility order
  /// (docs/SHARDING.md "Epoch domain").
  std::shared_ptr<EpochDomain> epoch_domain;

  /// Backing file for the block store; empty keeps all graph data in
  /// anonymous memory (the paper's in-memory configuration).
  std::string storage_path;

  /// This graph's WAL file; empty disables logging entirely. Recovery
  /// reads it only as a shard of a durable directory (ShardedStore sets
  /// it to <dir>/shard<i>/wal).
  std::string wal_path;

  /// fsync the WAL on every group commit (§5 persist phase).
  bool fsync_wal = true;

  /// Virtual address reservation of the block store.
  size_t region_reserve = size_t{1} << 36;

  /// Maximum number of vertices (sizes the index/lock reservations; pages
  /// commit lazily so over-reserving is cheap).
  size_t max_vertices = size_t{1} << 26;

  /// Maximum concurrently running transactions (reading-epoch table size).
  int max_workers = 512;

  /// Vertex lock acquisition timeout — the paper's deadlock-avoidance
  /// mechanism ("a timed-out transaction has to rollback and restart", §5).
  int64_t lock_timeout_ns = 50'000'000;  // 50 ms

  /// Embed Bloom filters in TEL blocks (§4). Disable for ablation.
  bool enable_bloom_filters = true;

  /// Committed transactions between automatic compaction passes
  /// (§6: "every 65536 transactions in our default setting").
  uint64_t compaction_interval = 65536;

  /// Run the background compaction thread at all.
  bool enable_compaction = true;

  /// Group commit: max transactions per batch.
  size_t group_commit_max_batch = 256;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_CORE_CONFIG_H_
