// Read-write and read-only transactions (paper §4 and §5).
#ifndef LIVEGRAPH_CORE_TRANSACTION_H_
#define LIVEGRAPH_CORE_TRANSACTION_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/status.h"
#include "core/blocks.h"
#include "core/graph.h"
#include "core/txn_scratch.h"
#include "util/types.h"

namespace livegraph {

/// Purely sequential adjacency list scan (§4): walks a TEL's edge log from
/// the tail (newest entry) towards the block end (oldest), returning only
/// entries visible at the transaction's read timestamp. The visibility
/// check reads the entry's embedded double timestamps — no auxiliary
/// structures, no random accesses.
class EdgeIterator {
 public:
  EdgeIterator() = default;

  bool Valid() const { return entry_ != nullptr; }
  vertex_t DstId() const { return entry_->dst; }
  /// This edge's property bytes (view into the TEL; valid while the owning
  /// transaction lives).
  std::string_view Properties() const;
  /// Creation timestamp of the visible entry (useful for time-ordered
  /// queries; LinkBench/TAO read "most recently added" edges first).
  /// relaxed: SkipInvisible already acquire-loaded this entry's timestamps
  /// to admit it, so the value here is pinned — either our own snapshot's
  /// committed TWE or our own -TID staging mark, never mid-conversion
  /// (conversion happens strictly above a reader's LS snapshot).
  timestamp_t CreationTimestamp() const {
    return entry_->creation_ts.load(std::memory_order_relaxed);
  }

  /// Advances to the next visible (older) edge entry.
  void Next();

  /// Address range of the edge-log strip this scan walks, for out-of-core
  /// page-touch accounting by store adapters. {nullptr, 0} when empty.
  std::pair<const void*, size_t> ScanSpan() const {
    if (entry_ == nullptr) return {nullptr, 0};
    return {entry_, static_cast<size_t>(reinterpret_cast<const uint8_t*>(end_) -
                                        reinterpret_cast<const uint8_t*>(entry_))};
  }

 private:
  friend class ReadTransaction;
  friend class Transaction;

  EdgeIterator(TelBlock block, uint32_t total_entries, timestamp_t tre,
               int64_t tid);

  void SkipInvisible();

  TelBlock block_{};
  EdgeEntry* entry_ = nullptr;  // current position
  EdgeEntry* end_ = nullptr;    // one past the oldest entry
  const uint8_t* props_base_ = nullptr;
  timestamp_t tre_ = 0;
  int64_t tid_ = 0;
};

/// A read-only snapshot transaction. Cheap to create; safe to share across
/// threads for whole-graph analytics (§7.4). Releases its reading-epoch
/// slot on destruction.
class ReadTransaction {
 public:
  ~ReadTransaction();
  ReadTransaction(ReadTransaction&& other) noexcept;
  ReadTransaction& operator=(ReadTransaction&&) = delete;
  ReadTransaction(const ReadTransaction&) = delete;
  ReadTransaction& operator=(const ReadTransaction&) = delete;

  timestamp_t read_epoch() const { return tre_; }

  /// Latest committed properties of `v` visible in this snapshot, or
  /// kNotFound if the vertex does not exist (never created, not yet
  /// committed, or deleted).
  StatusOr<std::string_view> GetVertex(vertex_t v) const;

  /// Sequential scan of (v, label)'s adjacency list, newest edges first.
  EdgeIterator GetEdges(vertex_t v, label_t label) const;

  /// Single-edge lookup, Bloom-filter assisted (§4 "Reading a single edge").
  StatusOr<std::string_view> GetEdge(vertex_t v, label_t label,
                                     vertex_t dst) const;

  /// Number of visible edges in (v, label)'s list.
  size_t CountEdges(vertex_t v, label_t label) const;

  vertex_t VertexCount() const { return graph_->VertexCount(); }

 private:
  friend class Graph;
  ReadTransaction(Graph* graph, Graph::WorkerSlot* slot, timestamp_t tre)
      : graph_(graph), slot_(slot), tre_(tre) {}

  Graph* graph_;
  Graph::WorkerSlot* slot_;
  timestamp_t tre_;
};

/// A read-write transaction under snapshot isolation. Single-threaded.
/// Writes are staged in the graph's TELs with negative (-TID) timestamps,
/// invisible to every other transaction until commit (§5).
class Transaction {
 public:
  ~Transaction();
  Transaction(Transaction&& other) noexcept;
  Transaction& operator=(Transaction&&) = delete;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  timestamp_t read_epoch() const { return tre_; }
  bool active() const { return state_ == State::kActive; }

  // --- Vertex operations (§4) ---

  /// Allocates a fresh vertex ID and stages its first version. The ID is
  /// assigned eagerly; the vertex payload becomes visible at commit.
  /// Returns kNullVertex when `GraphOptions::max_vertices` is exhausted —
  /// the transaction stays active (capacity is not a conflict) — or when
  /// the transaction aborted (lock timeout / already dead).
  vertex_t AddVertex(std::string_view properties = {});

  /// Stages a new version of v's properties (copy-on-write, §3).
  Status PutVertex(vertex_t v, std::string_view properties);

  /// Stages a tombstone version of v.
  Status DeleteVertex(vertex_t v);

  /// Visible properties of `v`, including this transaction's own staged
  /// writes; kNotFound if absent or deleted.
  StatusOr<std::string_view> GetVertex(vertex_t v) const;

  // --- Edge operations (§4) ---

  /// Upsert: appends a new edge log entry; if a previous version of
  /// (v,label,dst) exists (Bloom-checked), its entry is invalidated. On
  /// kOk, `*overwrote` (when given) says whether such a version existed —
  /// the same probe, so callers need no separate GetEdge.
  Status AddEdge(vertex_t v, label_t label, vertex_t dst,
                 std::string_view properties = {},
                 bool* overwrote = nullptr);

  /// Invalidates the current version of (v,label,dst). kNotFound if the
  /// edge is not visible.
  Status DeleteEdge(vertex_t v, label_t label, vertex_t dst);

  StatusOr<std::string_view> GetEdge(vertex_t v, label_t label,
                                     vertex_t dst) const;

  EdgeIterator GetEdges(vertex_t v, label_t label) const;

  size_t CountEdges(vertex_t v, label_t label) const;

  // --- Lifecycle (§5: work / persist / apply phases) ---

  /// Runs the persist phase through the transaction manager (group commit
  /// + WAL fsync) and the apply phase (publish LS/CT, convert -TID
  /// timestamps to the write epoch). Returns the commit epoch: the write
  /// epoch (TWE) assigned by the commit manager, or the read epoch for a
  /// transaction that staged no writes. On conflict/timeout the
  /// transaction was already aborted at the failing operation and this
  /// returns kNotActive.
  StatusOr<timestamp_t> Commit();

  /// Commit one piece of a multi-shard transaction at a coordinator-
  /// acquired epoch from the shared EpochDomain. `participants` is the
  /// number of shards committing a piece at `epoch` (recorded in the WAL
  /// so recovery can detect a half-durable cross-shard transaction).
  /// Unlike Commit(), CommitAt does NOT wait for the epoch to become
  /// visible — the coordinator waits once after its last piece — and it
  /// ALWAYS reports the piece's MarkApplied to the domain, even on the
  /// failure paths, so the visibility frontier can never wedge on a dead
  /// piece.
  StatusOr<timestamp_t> CommitAt(timestamp_t epoch, uint32_t participants);

  /// Reverts all staged changes (§5: restore invalidation timestamps,
  /// release locks, return new blocks to the memory manager).
  void Abort();

  // --- Cross-thread hand-off ---
  //
  // A transaction may be moved between threads mid-life (the reactor
  // server runs the work phase on an event-loop thread and Commit() on a
  // commit-worker thread). The futex vertex locks themselves are not
  // thread-affine, but the debug lock-rank ledger (util/lock_rank.h) is
  // per-thread: call DetachFromThread() on the old thread after the last
  // operation there and AttachToThread() on the new thread before the
  // next one. No-ops outside LIVEGRAPH_DCHECK builds; exactly one thread
  // may operate on the transaction at a time either way.
  void DetachFromThread();
  void AttachToThread();

  /// Non-blocking LockVertex for callers that wait elsewhere (the reactor
  /// server parks the connection instead of blocking its event loop).
  /// true: v is locked by this transaction (re-entrant), or v is out of
  /// range and takes no lock, so the following operation reports
  /// kNotFound itself. false: another transaction holds the lock; nothing
  /// changed and the transaction stays active. Once the caller has waited
  /// `waited_ns` >= GraphOptions::lock_timeout_ns, the transaction aborts
  /// and this returns kTimeout, the same rollback as a blocking
  /// LockVertex timeout (§5). kNotActive after commit/abort.
  StatusOr<bool> TryLockVertex(vertex_t v, int64_t waited_ns);

 private:
  friend class Graph;
  friend class CommitManager;

  enum class State { kActive, kCommitted, kAborted };

  Transaction(Graph* graph, Graph::WorkerSlot* slot, timestamp_t tre,
              int64_t tid);

  /// Acquires v's futex lock (once per transaction). kTimeout on deadlock
  /// timeout, after which the caller aborts.
  Status LockVertex(vertex_t v);
  /// Records a freshly acquired lock on v in the write set.
  void NoteLocked(vertex_t v);

  TelWrite* FindTelWrite(vertex_t v, label_t label);
  /// Locks, conflict-checks (CT vs TRE) and stages the TEL for writing.
  Status PrepareTelWrite(vertex_t v, label_t label, TelWrite** out);

  /// Moves the TEL into a block of twice the size (§3 upgrade), preserving
  /// all entries and timestamps; swaps the label-index slot.
  void UpgradeTel(TelWrite* w, uint32_t needed_bytes);

  /// Work-phase edge write shared by AddEdge/DeleteEdge.
  Status WriteEdge(vertex_t v, label_t label, vertex_t dst,
                   std::string_view properties, bool is_delete,
                   bool* invalidated = nullptr);

  /// Apply phase (runs on the committing worker thread after persist).
  void ApplyCommit(timestamp_t twe);
  void UndoWrites();
  void ReleaseLocksAndSlot();
  void MarkDirty();

  // WAL logical-record staging (storage format documented in wal.h users).
  void LogAddVertex(vertex_t v, std::string_view props);
  void LogPutVertex(vertex_t v, std::string_view props);
  void LogDeleteVertex(vertex_t v);
  void LogAddEdge(vertex_t v, label_t label, vertex_t dst,
                  std::string_view props);
  void LogDeleteEdge(vertex_t v, label_t label, vertex_t dst);

  Graph* graph_;
  Graph::WorkerSlot* slot_;
  timestamp_t tre_;
  int64_t tid_;
  State state_ = State::kActive;
  timestamp_t write_epoch_ = 0;  // TWE, assigned by the commit manager

  /// The slot's pooled write-set arenas (core/txn_scratch.h). Exclusive to
  /// this transaction while it is active; reset — capacity preserved — on
  /// commit/abort so the next transaction on the slot reuses the memory.
  TxnScratch* scratch_;
  bool replay_mode_ = false;  // recovery: skip WAL logging
};

}  // namespace livegraph

#endif  // LIVEGRAPH_CORE_TRANSACTION_H_
