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
#include "core/wal_ops.h"
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

  /// Advances to the next visible (older) edge entry. Defined here so the
  /// per-edge step inlines into every scan loop.
  void Next() {
    ++entry_;
    SkipInvisible();
  }

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

  void SkipInvisible() {
    while (entry_ != end_ && !entry_->VisibleTo(tre_, tid_)) ++entry_;
    if (entry_ == end_) entry_ = nullptr;
  }

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

  /// Runs the persist phase (leader-based group commit: this thread
  /// writes its group's WAL batch or waits for the leader that does), the
  /// apply phase (publish LS/CT, convert -TID timestamps to the write
  /// epoch), and waits until the epoch is visible, so this thread's next
  /// transaction reads its own commit. Returns the commit epoch: the write
  /// epoch (TWE) the group's leader assigned, or the read epoch for a
  /// transaction that staged no writes. On conflict/timeout the
  /// transaction was already aborted at the failing operation and this
  /// returns kNotActive.
  StatusOr<timestamp_t> Commit();

  /// Commit() for a caller that must not block (the reactor server): true,
  /// with *epoch set, once committed; false while the commit waits on a
  /// device flush or on its epoch's visibility — call again later (the
  /// group's leader calls the wake hook, Graph::SetCommitWake); otherwise
  /// Commit()'s error. Without a WAL that syncs it finishes on the first
  /// call, doing exactly what Commit() does. A published commit cannot be
  /// aborted (its WAL record replays at recovery): destroying the
  /// transaction between calls still completes durability and apply, and
  /// skips only the visibility wait.
  StatusOr<bool> TryCommit(timestamp_t* epoch);

  // --- Commit stages ---
  //
  // Commit() and TryCommit() run these in order; a multi-shard coordinator
  // runs them on each shard's piece, so that no piece applies before
  // every piece is durable.

  /// Stage 1: publishes the WAL request, at the group's fresh epoch or —
  /// for one piece of a multi-shard transaction — at the coordinator's
  /// `epoch`, with `participants` pieces recorded in the WAL so recovery
  /// can detect a half-durable transaction. `park`: the caller will not
  /// wait in CommitDurable, so the engine's flusher leads the group (a WAL
  /// with fsync on only). A transaction with no writes commits right here.
  /// On failure (kNotActive, degraded engine) the transaction is rolled
  /// back; a piece reports its MarkApplied on every path, so the
  /// visibility frontier never wedges on it.
  Status PublishCommit(timestamp_t epoch, uint32_t participants, bool park);
  /// Stage 2 gate: true once the published request is durable (or failed
  /// to be). `wait` blocks, leading the group when no one leads.
  bool CommitDurable(bool wait);
  /// The WAL write's outcome once CommitDurable; kOk in any other stage.
  Status persist_status() const;
  /// Stage 2, once CommitDurable: applies the writes and reports the
  /// epoch applied. When the WAL write failed, or with `undo` (a sibling
  /// piece's failed), rolls the writes back instead — the epoch is still
  /// reported applied — and returns the WAL's error.
  Status FinishCommit(bool undo);
  /// Stage 3: true once the commit epoch is visible; `wait` blocks. A
  /// multi-shard coordinator calls it on each piece once its own epoch
  /// is visible.
  bool CommitVisible(bool wait);
  /// The commit epoch, valid after FinishCommit.
  timestamp_t commit_epoch() const { return write_epoch_; }

  /// Reverts all staged changes (§5: restore invalidation timestamps,
  /// release locks, return new blocks to the memory manager).
  void Abort();

  /// Non-blocking LockVertex for callers that wait elsewhere (the reactor
  /// server parks the connection instead of blocking its event loop).
  /// true: v is locked by this transaction (re-entrant), or v is out of
  /// range and takes no lock, so the following operation reports
  /// kNotFound itself. false: another transaction holds the lock; nothing
  /// changed and the transaction stays active. Once the caller has waited
  /// `waited_ns` >= GraphOptions::lock_timeout_ns, the transaction aborts
  /// and this returns kTimeout, the same rollback as a blocking
  /// LockVertex timeout (§5). kNotActive after commit/abort. Records the
  /// wait (livegraph_lock_wait) when it acquires after a nonzero
  /// `waited_ns` or times out, as LockVertex does for a blocking wait.
  StatusOr<bool> TryLockVertex(vertex_t v, int64_t waited_ns);

 private:
  friend class Graph;
  friend class CommitManager;

  /// kPublished: the WAL request is in the commit pipeline. kApplied: the
  /// writes are applied and the epoch reported; it may not be visible yet.
  enum class State { kActive, kPublished, kApplied, kCommitted, kAborted };

  Transaction(Graph* graph, Graph::WorkerSlot* slot, timestamp_t tre,
              int64_t tid);

  /// Acquires v's futex lock (once per transaction). kTimeout on deadlock
  /// timeout, after which the caller aborts. A lock not free at the first
  /// try records its wait (and a timeout) like TryLockVertex.
  Status LockVertex(vertex_t v);
  /// Records a freshly acquired lock on v in the write set.
  void NoteLocked(vertex_t v);

  TelWrite* FindTelWrite(vertex_t v, label_t label);
  /// Locks, conflict-checks (CT vs TRE) and stages the TEL for writing.
  Status PrepareTelWrite(vertex_t v, label_t label, TelWrite** out);

  /// Moves the TEL into a larger block (§3 upgrade) and swaps the
  /// label-index slot. With compaction enabled the copy drops committed
  /// entries invalidated at or before the safe epoch and is sized from the
  /// survivors (it may shrink); otherwise it preserves every entry and
  /// timestamp in a block at least twice the size.
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
  /// After the apply phase, once visible (or when the visibility wait is
  /// skipped): queues the written vertices for compaction and resets the
  /// scratch.
  void Settle();

  /// Stages `op` into the WAL payload (core/wal_ops.h); a no-op in replay
  /// mode or without a WAL.
  void Log(const wal_ops::Op& op) {
    if (!replay_mode_ && graph_->wal_ != nullptr) {
      wal_ops::Encode(&scratch_->wal_payload, op);
    }
  }

  Graph* graph_;
  Graph::WorkerSlot* slot_;
  timestamp_t tre_;
  int64_t tid_;
  State state_ = State::kActive;
  timestamp_t write_epoch_ = 0;  // TWE, assigned by the group's leader
  /// Stage timing of a sampled commit (metrics::SampleStageTiming): the
  /// publish time (0 when unsampled), the persist wait, and the apply end.
  uint64_t commit_start_ns_ = 0;
  uint64_t persist_ns_ = 0;
  uint64_t applied_ns_ = 0;

  /// The slot's pooled write-set arenas (core/txn_scratch.h). Exclusive to
  /// this transaction while it is active; reset — capacity preserved — on
  /// commit/abort so the next transaction on the slot reuses the memory.
  TxnScratch* scratch_;
  bool replay_mode_ = false;  // recovery: skip WAL logging
  /// Graph::SafeEpoch() as first read by UpgradeTel, -1 before that.
  timestamp_t safe_epoch_ = -1;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_CORE_TRANSACTION_H_
