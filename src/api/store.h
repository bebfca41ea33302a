// The v2 engine-neutral storage surface: a transaction-first session API
// (docs/API.md).
//
// The paper's §7.1 methodology drives one workload harness against
// LiveGraph and each baseline through embedded-store adaptors. The seed
// expressed that as a per-operation `GraphStore` (begin/commit hidden
// inside every call) plus a separate `GraphReadView`, with std::function
// callbacks on the scan path. v2 collapses both into explicit sessions:
//
//   auto txn = store->BeginTxn();         // writes + read-your-writes
//   txn->AddLink(src, label, dst, data);
//   StatusOr<timestamp_t> epoch = txn->Commit();
//
//   auto read = store->BeginReadTxn();    // consistent multi-op reads
//   for (EdgeCursor c = read->ScanLinks(v, label); c.Valid(); c.Next())
//     Use(c.dst(), c.properties());
//
// LiveGraph backs sessions with MVCC snapshots (readers never block);
// lock-based baselines hold their latch for the session's lifetime —
// exactly the contrast the paper measures on SNB complex queries (§7.3).
#ifndef LIVEGRAPH_API_STORE_H_
#define LIVEGRAPH_API_STORE_H_

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "api/edge_cursor.h"
#include "api/status.h"
#include "util/types.h"

namespace livegraph {

/// What a driver may assume about an engine beyond the common contract.
/// Conformance tests key their stricter assertions off these.
struct StoreTraits {
  /// ScanLinks returns edges newest-first (LiveGraph TELs, linked-list
  /// prepend order). Engines keyed on (src, label, dst) — B+ tree, LSMT —
  /// scan in destination order instead: serving "most recent first" without
  /// a secondary time index is exactly the cost §7.2 attributes to them.
  bool time_ordered_scans = false;
  /// Read sessions are MVCC snapshots: concurrent commits stay invisible
  /// and readers never block writers. Latch-based engines instead pin
  /// consistency by holding their shared latch open.
  bool snapshot_reads = false;
  /// Write sessions stage privately and roll back on Abort(). Non-MVCC
  /// baselines apply writes in place; for them Abort() only ends the
  /// session (the paper's comparators are no stronger).
  bool transactional_writes = false;
};

/// A consistent read session. MVCC engines never block writers; latch-based
/// engines hold their read latch until the session is destroyed.
class StoreReadTxn {
 public:
  /// No bound on ScanLinks.
  static constexpr size_t kScanAll = std::numeric_limits<size_t>::max();

  virtual ~StoreReadTxn() = default;

  virtual StatusOr<std::string> GetNode(vertex_t id) = 0;
  virtual StatusOr<std::string> GetLink(vertex_t src, label_t label,
                                        vertex_t dst) = 0;
  /// Cursor over (src, label)'s adjacency list, yielding at most `limit`
  /// edges. See StoreTraits for order. The limit keeps LIMIT-style queries
  /// (LinkBench GET_LINKS_LIST, SNB top-k) O(limit) on engines that
  /// materialize their cursor; LiveGraph's lazy cursor enforces the same
  /// bound with a counter, so the contract is uniform across engines.
  virtual EdgeCursor ScanLinks(vertex_t src, label_t label,
                               size_t limit) = 0;
  EdgeCursor ScanLinks(vertex_t src, label_t label) {
    return ScanLinks(src, label, kScanAll);
  }
  virtual size_t CountLinks(vertex_t src, label_t label) = 0;
  /// Upper bound (exclusive) on node IDs visible to this session.
  virtual vertex_t VertexCount() = 0;

  /// Health of the session itself, for operations without a status
  /// channel (CountLinks, ScanLinks): kOk for embedded engines; a remote
  /// session reports kUnavailable once its connection is gone, so a
  /// driver can tell "empty adjacency list" from "the store stopped
  /// answering" (docs/SERVER.md).
  virtual Status SessionStatus() const { return Status::kOk; }
};

/// A read-write session. Supports every read (with read-your-writes) plus
/// LinkBench-style node/link mutations. End with Commit() or Abort();
/// destroying an open session aborts it.
class StoreTxn : public StoreReadTxn {
 public:
  // --- Node operations ---
  virtual StatusOr<vertex_t> AddNode(std::string_view data) = 0;
  /// kNotFound for tombstoned or never-written IDs (LinkBench UPDATE_NODE
  /// must not resurrect).
  virtual Status UpdateNode(vertex_t id, std::string_view data) = 0;
  virtual Status DeleteNode(vertex_t id) = 0;

  // --- Link operations ---
  /// Upsert (LinkBench ADD_LINK): true if the link was newly inserted,
  /// false if an existing link was overwritten.
  virtual StatusOr<bool> AddLink(vertex_t src, label_t label, vertex_t dst,
                                 std::string_view data) = 0;
  /// kNotFound if the link does not exist.
  virtual Status UpdateLink(vertex_t src, label_t label, vertex_t dst,
                            std::string_view data) = 0;
  virtual Status DeleteLink(vertex_t src, label_t label, vertex_t dst) = 0;

  // --- Lifecycle ---
  /// Persists and publishes the session's writes; returns the commit epoch
  /// (engines without global versioning return a monotonic commit
  /// sequence). kConflict/kTimeout losers are already rolled back — rerun
  /// the whole session (see RunWrite).
  virtual StatusOr<timestamp_t> Commit() = 0;
  /// Ends the session; rolls back iff StoreTraits::transactional_writes.
  virtual void Abort() = 0;

  // --- Non-blocking lock acquisition ---
  /// Takes the write lock a mutation of vertex `v` would wait for, without
  /// waiting: true when held (or when `v` takes none, e.g. out of range —
  /// the mutation then reports kNotFound itself), false when another
  /// session holds it (no side effect; the session stays active). Once the
  /// caller has retried for `waited_ns` >= the engine's deadlock timeout
  /// it rolls the session back and returns kTimeout, as a blocking
  /// acquisition would. The reactor server calls it before UpdateNode,
  /// DeleteNode and the link writes, each of which locks exactly that one
  /// vertex, so a contended wait parks the connection instead of its
  /// event loop. The default reports acquired: engines without per-vertex
  /// write locks never make a mutation wait on another session.
  virtual StatusOr<bool> TryLockVertex(vertex_t /*v*/,
                                       int64_t /*waited_ns*/) {
    return true;
  }

  // --- Cross-thread hand-off ---
  /// True if the session may migrate between threads mid-life (work phase
  /// on one thread, Commit/Abort on another, one thread at a time). The
  /// reactor server keys on this to run group-commit waits on its commit
  /// workers instead of stalling an event loop. Engines whose
  /// sessions hold thread-affine state (pthread latches held for the
  /// session's lifetime, thread-local caches) must leave this false; the
  /// server then commits them inline on the owning thread.
  virtual bool SupportsThreadHandoff() const { return false; }
  /// Hand-off notifications: DetachFromThread() on the old thread after
  /// its last operation, AttachToThread() on the new thread before the
  /// next. Default no-ops; engines returning SupportsThreadHandoff() use
  /// them to migrate debug-ledger state (util/lock_rank.h).
  virtual void DetachFromThread() {}
  virtual void AttachToThread() {}
};

/// An embedded graph store: a factory for sessions.
class Store {
 public:
  virtual ~Store() = default;

  virtual std::string Name() const = 0;
  virtual StoreTraits Traits() const = 0;

  virtual std::unique_ptr<StoreTxn> BeginTxn() = 0;
  virtual std::unique_ptr<StoreReadTxn> BeginReadTxn() = 0;

  /// True if one thread may hold several open sessions at once. Engines
  /// whose sessions hold a pthread latch from Begin to Commit (BTree,
  /// LinkedList) return false: a second session begun on the holder's
  /// thread relocks the latch, which deadlocks or throws EDEADLK.
  /// GraphServer multiplexes many sessions on each event-loop thread, so
  /// it refuses to serve such engines.
  virtual bool SupportsInterleavedSessions() const { return true; }

  // --- Auto-commit convenience wrappers ---
  // One-operation sessions with bounded conflict retry, for loaders and
  // examples; latency-sensitive drivers manage sessions themselves.

  vertex_t AddNode(std::string_view data);
  StatusOr<std::string> GetNode(vertex_t id);
  Status UpdateNode(vertex_t id, std::string_view data);
  Status DeleteNode(vertex_t id);
  StatusOr<bool> AddLink(vertex_t src, label_t label, vertex_t dst,
                         std::string_view data);
  Status UpdateLink(vertex_t src, label_t label, vertex_t dst,
                    std::string_view data);
  Status DeleteLink(vertex_t src, label_t label, vertex_t dst);
  StatusOr<std::string> GetLink(vertex_t src, label_t label, vertex_t dst);
  size_t CountLinks(vertex_t src, label_t label);
};

/// Runs `fn(StoreTxn&)` in a fresh session and commits, retrying the whole
/// body on write-write conflicts (kConflict) up to `max_retries` times with
/// capped exponential backoff — the retry discipline the paper's LinkBench
/// harness applies to embedded stores (§7.1). Only kConflict is replayed:
/// it is the one outcome where the losing session was rolled back purely
/// because another writer won the race, so an immediate rerun is both safe
/// and likely to succeed. Every other status — logical results (kNotFound),
/// lock timeouts (kTimeout, the caller may be part of the deadlock), and
/// remote I/O failures (kUnavailable, the connection is gone) — surfaces
/// immediately instead of burning the retry budget against a store that
/// cannot answer.
template <typename Fn>
Status RunWrite(Store& store, Fn&& fn, int max_retries = 32) {
  constexpr auto kBackoffBase = std::chrono::microseconds(2);
  constexpr auto kBackoffCap = std::chrono::microseconds(512);
  Status last = Status::kConflict;
  for (int attempt = 0; attempt < max_retries; ++attempt) {
    if (attempt > 0) {
      auto backoff = attempt < 16 ? kBackoffBase * (1 << (attempt - 1))
                                  : kBackoffCap;
      std::this_thread::sleep_for(std::min(backoff, kBackoffCap));
    }
    std::unique_ptr<StoreTxn> txn = store.BeginTxn();
    Status st = fn(*txn);
    if (st != Status::kOk) {
      txn->Abort();
      if (st != Status::kConflict) return st;
      last = st;
      continue;
    }
    StatusOr<timestamp_t> committed = txn->Commit();
    if (committed.ok()) return Status::kOk;
    if (committed.status() != Status::kConflict) return committed.status();
    last = committed.status();
  }
  return last;
}

inline vertex_t Store::AddNode(std::string_view data) {
  vertex_t id = kNullVertex;
  Status st = RunWrite(*this, [&](StoreTxn& txn) -> Status {
    StatusOr<vertex_t> added = txn.AddNode(data);
    if (!added.ok()) return added.status();
    id = *added;
    return Status::kOk;
  });
  return st == Status::kOk ? id : kNullVertex;
}

inline StatusOr<std::string> Store::GetNode(vertex_t id) {
  return BeginReadTxn()->GetNode(id);
}

inline Status Store::UpdateNode(vertex_t id, std::string_view data) {
  return RunWrite(*this,
                  [&](StoreTxn& txn) { return txn.UpdateNode(id, data); });
}

inline Status Store::DeleteNode(vertex_t id) {
  return RunWrite(*this, [&](StoreTxn& txn) { return txn.DeleteNode(id); });
}

inline StatusOr<bool> Store::AddLink(vertex_t src, label_t label, vertex_t dst,
                                     std::string_view data) {
  bool inserted = false;
  Status st = RunWrite(*this, [&](StoreTxn& txn) -> Status {
    StatusOr<bool> added = txn.AddLink(src, label, dst, data);
    if (!added.ok()) return added.status();
    inserted = *added;
    return Status::kOk;
  });
  if (st != Status::kOk) return st;
  return inserted;
}

inline Status Store::UpdateLink(vertex_t src, label_t label, vertex_t dst,
                                std::string_view data) {
  return RunWrite(*this, [&](StoreTxn& txn) {
    return txn.UpdateLink(src, label, dst, data);
  });
}

inline Status Store::DeleteLink(vertex_t src, label_t label, vertex_t dst) {
  return RunWrite(*this, [&](StoreTxn& txn) {
    return txn.DeleteLink(src, label, dst);
  });
}

inline StatusOr<std::string> Store::GetLink(vertex_t src, label_t label,
                                            vertex_t dst) {
  return BeginReadTxn()->GetLink(src, label, dst);
}

inline size_t Store::CountLinks(vertex_t src, label_t label) {
  return BeginReadTxn()->CountLinks(src, label);
}

}  // namespace livegraph

#endif  // LIVEGRAPH_API_STORE_H_
