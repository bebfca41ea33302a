// Leader-based group commit (paper §5, persist phase) over the unified
// EpochDomain.
//
// The paper batches commits on "one transaction manager thread". Here the
// committing threads take turns as that manager (the write-group scheme of
// RocksDB and MySQL's binlog group commit): a committer enqueues its
// request, and the first one that finds no leader drains the queue,
// persists the group's WAL records with one writev (+ fsync), hands every
// member its write epoch TWE and releases the group. Committers that
// arrive meanwhile form the next group. Visibility is the EpochDomain's
// business (private to a Graph, shared by every shard of a ShardedStore):
// an epoch becomes readable only after every lower epoch finished its
// apply phase on every attached engine.
//
// Two kinds of commit requests flow through the same ring:
//
//   * Fresh commits (the default): the leader acquires ONE fresh epoch
//     per group and every fresh request in the group commits at it — the
//     classic group commit, epochs dense per attached engine set.
//   * Externally-stamped commits: a multi-shard coordinator already
//     acquired one epoch for the whole transaction; each shard's piece
//     carries that epoch through its own shard's pipeline untouched, so
//     all pieces surface at a single point of the global visibility order.
//
// No lock on this path: requests go through a lock-free MPSC ring
// (Vyukov-style sequence numbers) that only leaders consume, followers
// spin and then sleep on a futex word while a leader is active, and each
// member's apply phase overlaps the next leader's WAL write
// (docs/DESIGN.md §2).
#ifndef LIVEGRAPH_CORE_COMMIT_MANAGER_H_
#define LIVEGRAPH_CORE_COMMIT_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "storage/wal.h"
#include "util/types.h"

namespace livegraph {

class Graph;

class CommitManager {
 public:
  /// `wal` may be null (durability disabled); epoch sequencing still runs.
  CommitManager(Graph* graph, Wal* wal, size_t max_batch);

  CommitManager(const CommitManager&) = delete;
  CommitManager& operator=(const CommitManager&) = delete;

  /// Persist phase entry point, called by the committing thread. Blocks
  /// until the transaction's WAL record is durable — leading the group
  /// that writes it, or waiting for the leader that does — and returns the
  /// assigned write epoch TWE. With `external_epoch` != 0 the record is
  /// stamped with that coordinator-acquired epoch (and `participants`
  /// counts the shard WALs holding a piece of it); otherwise the group's
  /// fresh epoch is assigned. The caller must then run its apply phase and
  /// call FinishApply(TWE). The payload is borrowed until return.
  ///
  /// When the WAL append/sync fails, *error (if non-null) receives the
  /// typed status (kIOError/kResourceExhausted) and the engine has entered
  /// degraded mode. The returned epoch is still valid and the caller MUST
  /// still account for it to the domain (undo its writes, then
  /// FinishApply) — every acquired epoch needs exactly one MarkApplied per
  /// participant on every path, or the visibility frontier wedges.
  timestamp_t Persist(std::string_view wal_payload,
                      timestamp_t external_epoch = 0,
                      uint32_t participants = 1, Status* error = nullptr);

  /// Signals the domain that the calling transaction completed its apply
  /// phase. With `wait_visible` (every fresh commit) it then blocks until
  /// the epoch is visible, so a worker's next transaction always reads its
  /// own commit; a multi-shard coordinator passes false per piece and
  /// waits once itself after the last shard.
  void FinishApply(timestamp_t epoch, bool wait_visible = true);

 private:
  /// One committer's hand-off cell; lives on the committer's stack for the
  /// duration of Persist().
  struct Request {
    std::string_view payload;
    timestamp_t external_epoch = 0;
    uint32_t participants = 1;
    /// Enqueue time for the formation-latency sample; 0 when unsampled.
    uint64_t enqueued_nanos = 0;
    timestamp_t epoch = 0;                // result, set by the leader
    Status status = Status::kOk;          // result, set before durable flips
    std::atomic<uint32_t> durable{0};
  };

  struct alignas(64) RingSlot {
    std::atomic<uint64_t> seq{0};
    Request* req = nullptr;
  };

  void Enqueue(Request* req);
  /// Leader only: drains whatever is published (up to max_batch_) into
  /// batch_, stopping at the first claimed-but-unpublished slot.
  void DrainRing();
  /// Leader only (leading_ held): persists one group and releases it and
  /// the leadership.
  void LeadGroup();
  /// Follower: sleeps on durable_word_ while a leader is active and
  /// `request` is not yet durable.
  void WaitForLeader(const Request& request);

  Graph* graph_;
  Wal* wal_;
  size_t max_batch_;
  /// Follower spin budget before a futex sleep; zero on a single hardware
  /// thread, where spinning can only delay the leader.
  int spin_iters_;

  // MPSC ring: committers produce, the current leader consumes.
  size_t ring_mask_;
  std::vector<RingSlot> ring_;
  alignas(64) std::atomic<uint64_t> ring_tail_{0};  // producers claim slots

  /// 1 while a committer leads a group. Its exchange/store pair hands the
  /// leader-only state below from one leader to the next.
  alignas(64) std::atomic<uint32_t> leading_{0};
  uint64_t ring_head_ = 0;              // leader only
  std::vector<Request*> batch_;         // leader only, reused per group
  std::vector<Wal::Record> records_;    // leader only, reused per group

  /// Bumped once per released group; the futex word followers sleep on.
  alignas(64) std::atomic<uint32_t> durable_word_{0};
  /// Followers asleep (or about to sleep) on durable_word_; lets a leader
  /// skip the wake syscall when nobody sleeps.
  std::atomic<uint32_t> waiters_{0};
};

}  // namespace livegraph

#endif  // LIVEGRAPH_CORE_COMMIT_MANAGER_H_
