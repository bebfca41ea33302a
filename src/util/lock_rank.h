// Lock-rank table: runtime lock-order-inversion detection (debug builds).
//
// The engine's blocking primitives form a small set whose nesting order is
// part of the concurrency protocol but was previously only prose in
// docs/DESIGN.md. This header makes the order machine-checked: every
// acquisition notes its rank on a thread-local ledger, and acquiring a rank
// at or below the highest rank already held aborts through
// LIVEGRAPH_DCHECK — a deterministic crash at the inversion site instead of
// a once-a-month deadlock in production.
//
// The rank order (lower acquires first; a thread may only acquire strictly
// increasing ranks):
//
//   kCompactionPass   Graph::compaction_pass_mu_ — serializes manual and
//                     background compaction passes. Outermost: a pass then
//                     takes vertex locks and dirty sets below it.
//   kVertexLock       per-vertex futex locks (§5). SAME-RANK REACQUISITION
//                     IS ALLOWED: transactions lock many vertices in
//                     arbitrary (data-dependent) order, and deadlock among
//                     them is broken by the paper's timeout-and-rollback,
//                     not by ordering. The rank table therefore only
//                     asserts vertex locks are never taken after anything
//                     ranked above them.
//   kCommitCoordinator The multi-shard commit section of a ShardedWriteTxn
//                     (epoch acquire + every piece's publish). Entered
//                     while the work phase's vertex locks are still held —
//                     hence above kVertexLock — and must never itself
//                     acquire new vertex locks (writes after commit start
//                     would escape the WAL record). It never waits, so a
//                     reactor loop never parks inside it.
//   kDirtySet         WorkerSlot::dirty_mu — leaf mutex guarding a slot's
//                     dirty-vertex list; taken inside commit (MarkDirty)
//                     and inside a compaction pass while a vertex lock is
//                     held (the contended-vertex requeue).
//   kWalAppend        Wal::AppendBatch — not a mutex but a single-writer
//                     section owned by the group-commit leader: a
//                     committing thread that still holds its own
//                     transaction's vertex locks (ranked below), or the
//                     flusher thread, which holds nothing.
//                     Ranked above every engine lock, so code that tried
//                     to take one inside the append (say, from the
//                     replication tee) trips the checker.
//   kReplicationLog   ReplicationLog::mu_ — guards the primary's in-memory
//                     replication buffer. Acquired by the WAL durable-sink
//                     tee INSIDE the append section (hence above
//                     kWalAppend) and by subscriber threads that hold
//                     nothing; it is a leaf — nothing is acquired under it.
//
// All of it compiles away without LIVEGRAPH_DCHECK_ENABLED.
#ifndef LIVEGRAPH_UTIL_LOCK_RANK_H_
#define LIVEGRAPH_UTIL_LOCK_RANK_H_

#include <cstdint>

#include "util/invariant.h"

namespace livegraph {

enum class LockRank : uint8_t {
  kNone = 0,
  kCompactionPass = 1,
  kVertexLock = 2,
  kCommitCoordinator = 3,
  kDirtySet = 4,
  kWalAppend = 5,
  kReplicationLog = 6,
};

#ifdef LIVEGRAPH_DCHECK_ENABLED

namespace lock_rank {

inline constexpr int kNumRanks = 7;

/// Per-thread count of held locks at each rank.
struct ThreadLedger {
  uint32_t held[kNumRanks] = {};
};

inline ThreadLedger& Ledger() {
  thread_local ThreadLedger ledger;
  return ledger;
}

inline const char* Name(LockRank rank) {
  switch (rank) {
    case LockRank::kNone: return "none";
    case LockRank::kCompactionPass: return "compaction-pass";
    case LockRank::kVertexLock: return "vertex-futex";
    case LockRank::kCommitCoordinator: return "commit-coordinator";
    case LockRank::kDirtySet: return "dirty-set";
    case LockRank::kWalAppend: return "wal-append";
    case LockRank::kReplicationLog: return "replication-log";
  }
  return "?";
}

/// Highest rank this thread currently holds (kNone when lock-free).
inline LockRank Highest() {
  ThreadLedger& ledger = Ledger();
  for (int r = kNumRanks - 1; r > 0; --r) {
    if (ledger.held[r] != 0) return static_cast<LockRank>(r);
  }
  return LockRank::kNone;
}

inline void NoteAcquire(LockRank rank) {
  LockRank highest = Highest();
  // Strictly increasing ranks, except vertex locks against themselves
  // (arbitrary-order acquisition with timeout-based deadlock recovery).
  bool ok = highest < rank ||
            (highest == rank && rank == LockRank::kVertexLock);
  LIVEGRAPH_DCHECK(ok,
                   "lock-order inversion: acquiring %s while holding %s "
                   "(see the rank table in util/lock_rank.h)",
                   Name(rank), Name(highest));
  ++Ledger().held[static_cast<int>(rank)];
}

inline void NoteRelease(LockRank rank) {
  uint32_t& held = Ledger().held[static_cast<int>(rank)];
  LIVEGRAPH_DCHECK(held != 0, "releasing %s that this thread does not hold",
                   Name(rank));
  --held;
}

}  // namespace lock_rank

/// RAII rank note for scoped sections (mutex guards, the WAL append
/// section, the multi-shard commit section).
class ScopedLockRank {
 public:
  explicit ScopedLockRank(LockRank rank) : rank_(rank) {
    lock_rank::NoteAcquire(rank_);
  }
  ~ScopedLockRank() { lock_rank::NoteRelease(rank_); }
  ScopedLockRank(const ScopedLockRank&) = delete;
  ScopedLockRank& operator=(const ScopedLockRank&) = delete;

 private:
  LockRank rank_;
};

#define LIVEGRAPH_LOCK_RANK_ACQUIRE(rank) \
  ::livegraph::lock_rank::NoteAcquire(rank)
#define LIVEGRAPH_LOCK_RANK_RELEASE(rank) \
  ::livegraph::lock_rank::NoteRelease(rank)
#define LIVEGRAPH_LOCK_RANK_CONCAT_INNER(a, b) a##b
#define LIVEGRAPH_LOCK_RANK_CONCAT(a, b) LIVEGRAPH_LOCK_RANK_CONCAT_INNER(a, b)
#define LIVEGRAPH_SCOPED_LOCK_RANK(rank)                                  \
  ::livegraph::ScopedLockRank LIVEGRAPH_LOCK_RANK_CONCAT(                 \
      livegraph_scoped_lock_rank_, __LINE__)(rank)

#else  // !LIVEGRAPH_DCHECK_ENABLED

#define LIVEGRAPH_LOCK_RANK_ACQUIRE(rank) ((void)0)
#define LIVEGRAPH_LOCK_RANK_RELEASE(rank) ((void)0)
#define LIVEGRAPH_SCOPED_LOCK_RANK(rank) ((void)0)

#endif  // LIVEGRAPH_DCHECK_ENABLED

}  // namespace livegraph

#endif  // LIVEGRAPH_UTIL_LOCK_RANK_H_
