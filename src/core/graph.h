// The LiveGraph storage engine facade.
#ifndef LIVEGRAPH_CORE_GRAPH_H_
#define LIVEGRAPH_CORE_GRAPH_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/blocks.h"
#include "core/config.h"
#include "core/epoch_domain.h"
#include "core/txn_scratch.h"
#include "storage/block_manager.h"
#include "storage/wal.h"
#include "util/futex_lock.h"
#include "util/mmap_region.h"
#include "util/types.h"

namespace livegraph {

class CommitManager;
class ReadTransaction;
class Transaction;

namespace internal {
struct GraphAccess;
}  // namespace internal

/// A transactional property-graph store with purely sequential adjacency
/// list scans (VLDB'20). One instance owns a block store (optionally
/// file-backed), vertex/edge index arrays, a futex vertex-lock array, a
/// group-commit WAL, and a background compaction thread.
///
/// Thread safety: all public methods are thread-safe. Transactions are
/// single-threaded objects; ReadTransactions may additionally be shared by
/// many reader threads (used for in-situ analytics, §7.4).
class Graph {
 public:
  explicit Graph(GraphOptions options = {});
  ~Graph();

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// Starts a read-write transaction with snapshot isolation.
  Transaction BeginTransaction();

  /// Starts a read-write transaction whose snapshot is pinned at `epoch`
  /// (clamped to [0, current GRE]) instead of the engine's own frontier.
  /// Used by multi-shard write sessions: the coordinator pins ONE global
  /// epoch up front and opens every shard's native transaction at it, so
  /// the session reads one cross-shard-consistent view no matter when each
  /// shard is first touched. Conflict checks (CT/creation-ts against TRE)
  /// are unchanged — an older snapshot can only see MORE conflicts, never
  /// miss one.
  Transaction BeginTransactionAt(timestamp_t epoch);

  /// Starts a read-only snapshot transaction. Never blocks writers and is
  /// never blocked by them (§2.2, §5).
  ReadTransaction BeginReadOnlyTransaction();

  /// Temporal extension (paper §9: "the multi-versioning nature of TELs
  /// makes it natural to support temporal graph processing"): opens a
  /// read-only transaction pinned at a historical epoch. The snapshot is
  /// exact for any epoch not yet garbage-collected; entries reclaimed by
  /// compaction before this call are no longer recoverable, so workloads
  /// using time travel should lower compaction aggressiveness (§6 "a
  /// user-specified level of historical data storage"). `epoch` is clamped
  /// to [0, current GRE].
  ReadTransaction BeginTimeTravelTransaction(timestamp_t epoch);

  /// Upper bound (exclusive) on allocated vertex IDs.
  vertex_t VertexCount() const {
    return next_vertex_.load(std::memory_order_acquire);
  }

  /// Current visible epoch (the paper's GRE) — the frontier of the
  /// engine's EpochDomain.
  timestamp_t ReadEpoch() const { return domain_->visible(); }

  /// The visibility-epoch domain this engine commits into (private by
  /// default, shared across shards under a ShardedStore).
  EpochDomain* epoch_domain() const { return domain_.get(); }

  /// Writes a checkpoint of `snapshot` (its pinned epoch, exact) into
  /// `dir` using `threads` writer threads (§6 "Recovery"). The durable
  /// store's cross-shard checkpoint (ShardedStore::Checkpoint) pins ONE
  /// domain epoch and checkpoints every shard at it. Returns the epoch, or
  /// -1 when an I/O failure prevented the checkpoint — the previous one
  /// in `dir` (if any) stays authoritative and the next cadence retries.
  timestamp_t CheckpointSnapshot(const ReadTransaction& snapshot,
                                 const std::string& dir, int threads = 1);

  /// Truncates the WAL once a durable checkpoint holds its contents
  /// (ShardedStore::Recover, on every restart, so a torn cross-shard
  /// suffix can never resurface).
  void ResetWal();

  /// Installs (nullptr clears) the durable-batch tee on this engine's WAL —
  /// the replication hub's hook (docs/REPLICATION.md). No-op without a WAL.
  void SetWalSink(Wal::DurableSink* sink) {
    if (wal_ != nullptr) wal_->SetDurableSink(sink);
  }

  /// Streams `snapshot`'s vertices in [lo, hi) as synthetic WAL-record
  /// payloads (kOpPutVertex + kOpAddEdge, edges oldest-first), in ~256 KiB
  /// chunks. Replaying every emitted payload through the WAL apply path on
  /// an empty engine reconstructs that part of the snapshot exactly — the
  /// replication bootstrap for followers too far behind the primary's log
  /// (docs/REPLICATION.md), and the content of checkpoint shard files.
  void ExportSnapshot(const ReadTransaction& snapshot, vertex_t lo,
                      vertex_t hi,
                      const std::function<void(std::string_view)>& emit) const;

  /// Runs one synchronous compaction pass over all dirty vertices (§6
  /// "Compaction"). Also invoked automatically every
  /// `options.compaction_interval` committed transactions.
  void RunCompactionPass();

  struct MemoryStats {
    uint64_t block_store_allocated;  // bump high-water mark
    uint64_t block_store_free;       // recycled, awaiting reuse
    uint64_t block_store_retired;    // awaiting epoch reclamation
    uint64_t block_store_live;       // allocated - free - retired
    uint64_t index_bytes;            // vertex index + lock array footprint
    uint64_t wal_bytes;              // bytes written to the WAL so far
  };
  MemoryStats CollectMemoryStats() const;

  /// Count of live TEL blocks per block size in bytes (Figure 7b).
  std::map<size_t, size_t> CollectTelSizeHistogram() const;

  const GraphOptions& options() const { return options_; }

  /// Degraded-mode status: kOk while healthy; the first durable-path
  /// failure (WAL append/sync) latches its typed status here and the
  /// engine becomes read-only — reads/scans/analytics keep serving the
  /// last durable epoch, new write transactions are rejected with this
  /// status at commit. Cleared only by restart + recovery.
  Status degraded_status() const {
    return degraded_.load(std::memory_order_acquire);
  }

  /// Latches degraded mode (first error wins). Called by the commit
  /// pipeline when the WAL poisons itself; idempotent.
  void EnterDegraded(Status status);

  /// Installs (an empty function clears) the hook the commit pipeline
  /// calls, on the leader's thread, after it made parked commits durable
  /// (Transaction::TryCommit): the reactor server rings the event loops
  /// that hold them. Commits park only when the WAL syncs.
  void SetCommitWake(std::function<void()> wake);
  /// True when the WAL syncs, so a commit may park (it has a flusher to
  /// lead its group).
  bool parks_commits() const;

 private:
  friend class CommitManager;
  friend class ReadTransaction;
  friend class Transaction;
  friend class ShardedStore;  // per-shard recovery plumbing (src/shard/)
  friend struct internal::GraphAccess;

  /// Per-running-transaction bookkeeping slot. Slots double as the
  /// reading-epoch table used by compaction to find the oldest active read
  /// epoch (§6).
  struct WorkerSlot {
    std::atomic<timestamp_t> reading_epoch{kIdleEpoch};
    std::atomic<bool> in_use{false};
    /// Vertices written since the last compaction pass (paper's per-worker
    /// dirty vertex set, §6).
    std::mutex dirty_mu;
    std::vector<vertex_t> dirty_vertices;
    /// Pooled write-phase arenas: the slot's current transaction stages
    /// into these and resets them (capacity-preserving) on commit/abort,
    /// so repeated transactions on a session allocate nothing.
    TxnScratch scratch;
  };

  WorkerSlot* AcquireSlot();
  void ReleaseSlot(WorkerSlot* slot);

  /// Publishes `slot`'s read epoch and returns the transaction's TRE using
  /// the store-recheck protocol that makes compaction's min-epoch scan
  /// race-free.
  timestamp_t PublishReadEpoch(WorkerSlot* slot);

  VertexIndexEntry* IndexEntry(vertex_t v) const {
    return reinterpret_cast<VertexIndexEntry*>(index_region_.data()) + v;
  }
  FutexLock* LockFor(vertex_t v) const {
    return reinterpret_cast<FutexLock*>(lock_region_.data()) + v;
  }

  TelBlock Tel(block_ptr_t ptr) const {
    return TelBlock(block_manager_->Pointer(ptr), BlockOrder(ptr),
                    options_.enable_bloom_filters);
  }

  /// Finds the TEL for (v, label): packed ptr or kNullBlock.
  block_ptr_t FindTel(vertex_t v, label_t label) const;

  /// Ensures a label-index slot exists for (v, label) and returns a pointer
  /// to its TEL slot. Caller must hold the vertex lock.
  std::atomic<block_ptr_t>* FindOrCreateLabelSlot(vertex_t v, label_t label);

  /// Allocates + initializes an empty TEL block.
  block_ptr_t NewTel(vertex_t src, uint8_t order);

  /// Minimum epoch any current or future transaction can read at.
  timestamp_t SafeEpoch() const;

  /// Compaction internals (core/compaction.cc).
  void CompactionThreadMain();
  void CompactVertex(vertex_t v, timestamp_t safe_epoch);
  /// Queues v for the next pass (a vertex this pass had to skip).
  void RequeueDirty(vertex_t v);
  void MaybeScheduleCompaction();

  /// Recovery internals (core/checkpoint.cc).
  /// Replays one WAL payload as one replay-mode transaction; false, with
  /// nothing applied, when the decoder rejects it or the commit fails.
  bool ApplyWalRecord(std::string_view payload);
  /// Loads the checkpoint CheckpointSnapshot wrote into `dir`. False,
  /// after one log line naming the file, for a missing or damaged one.
  bool LoadCheckpoint(const std::string& dir);

  GraphOptions options_;
  /// Visibility domain (owns GWE/GRE; see epoch_domain.h). Private unless
  /// options supplied a shared one.
  std::shared_ptr<EpochDomain> domain_;
  std::unique_ptr<BlockManager> block_manager_;
  MmapRegion index_region_;  // VertexIndexEntry[max_vertices]
  MmapRegion lock_region_;   // FutexLock[max_vertices]

  std::atomic<vertex_t> next_vertex_{0};
  std::atomic<uint64_t> next_tid_{1};
  std::atomic<uint64_t> committed_txns_{0};
  /// Committed-transaction count at which the next compaction pass fires;
  /// compare-exchanged forward by the committer that crosses it, so
  /// concurrent commits jumping the counter across the boundary cannot
  /// skip a trigger (an exact `% interval == 0` observation can be missed).
  std::atomic<uint64_t> next_compaction_at_{0};

  std::vector<std::unique_ptr<WorkerSlot>> slots_;

  std::unique_ptr<Wal> wal_;
  std::unique_ptr<CommitManager> commit_manager_;
  /// Sticky read-only degraded mode (see degraded_status()).
  std::atomic<Status> degraded_{Status::kOk};

  // Background compaction.
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> compaction_requested_{false};
  std::mutex compaction_mu_;
  std::condition_variable compaction_cv_;
  std::thread compaction_thread_;
  std::mutex compaction_pass_mu_;  // serializes manual + background passes
};

}  // namespace livegraph

#endif  // LIVEGRAPH_CORE_GRAPH_H_
