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
//
// When the WAL syncs, a committer may also publish without waiting — the
// reactor server parks the connection instead of blocking its event loop
// in fdatasync. Such a request needs a leader that is not its committer,
// so a WAL with fsync on gets one flusher thread: it leads whenever
// parked requests are queued and no committer leads, and after a group
// with parked members the leader calls the wake hook (SetWake) so their
// loops retry.
// Without fsync there is no flusher: every committer leads or waits.
#ifndef LIVEGRAPH_CORE_COMMIT_MANAGER_H_
#define LIVEGRAPH_CORE_COMMIT_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "storage/wal.h"
#include "util/types.h"

namespace livegraph {

class Graph;

class CommitManager {
 public:
  /// One committer's hand-off cell. It lives in the committing
  /// transaction's worker slot (TxnScratch), so it stays at one address
  /// from Publish until its committer has read the result, however long
  /// the committer parks in between.
  struct Request {
    std::string_view payload;
    timestamp_t external_epoch = 0;
    uint32_t participants = 1;
    /// Published without waiting: the group's leader calls the wake hook.
    bool parked = false;
    /// Enqueue time for the formation-latency sample; 0 when unsampled.
    uint64_t enqueued_nanos = 0;
    timestamp_t epoch = 0;                // result, set by the leader
    Status status = Status::kOk;          // result, set before durable flips
    std::atomic<uint32_t> durable{0};
  };

  /// `wal` may be null (durability disabled); epoch sequencing still runs.
  /// A WAL that syncs starts the flusher thread; the destructor joins it.
  CommitManager(Graph* graph, Wal* wal, size_t max_batch);
  ~CommitManager();

  CommitManager(const CommitManager&) = delete;
  CommitManager& operator=(const CommitManager&) = delete;

  /// Persist phase, step 1: queues `request` (payload, external_epoch,
  /// participants set; the payload is borrowed until durable). With
  /// `external_epoch` != 0 the record is stamped with that
  /// coordinator-acquired epoch (and `participants` counts the shard WALs
  /// holding a piece of it); otherwise the group's fresh epoch is
  /// assigned. `park`: the committer will not wait in WaitDurable, so the
  /// flusher leads its group; only valid when has_flusher().
  void Publish(Request* request, bool park);

  /// True once `request`'s WAL record is durable, or failed to be: then
  /// request.status holds the typed error (kIOError/kResourceExhausted)
  /// and the engine has entered degraded mode. Either way request.epoch
  /// is valid and the committer MUST account for it to the domain (apply
  /// or undo, then MarkApplied) — every acquired epoch needs exactly one
  /// MarkApplied per participant on every path, or the visibility
  /// frontier wedges.
  static bool Durable(const Request& request) {
    return request.durable.load(std::memory_order_acquire) != 0;
  }

  /// Persist phase, step 2 for a blocking committer: returns once
  /// Durable(*request), leading the group that writes it — or the next
  /// ones — whenever no one leads, and otherwise waiting for the leader.
  void WaitDurable(const Request& request);

  /// True when the WAL syncs: commits may park (Publish with `park`).
  bool has_flusher() const { return flusher_.joinable(); }

  /// Installs (an empty function clears) the hook a leader calls after
  /// releasing a group that holds parked requests.
  void SetWake(std::function<void()> wake);

 private:
  struct alignas(64) RingSlot {
    std::atomic<uint64_t> seq{0};
    Request* req = nullptr;
  };

  void Enqueue(Request* req);
  /// Leader only: drains whatever is published (up to max_batch_) into
  /// batch_, stopping at the first claimed-but-unpublished slot. Returns
  /// how many of the drained requests are parked.
  uint32_t DrainRing();
  /// Leader only (leading_ held): persists one group and releases it and
  /// the leadership.
  void LeadGroup();
  /// Takes the leadership if nobody holds it.
  bool TryLead() {
    // relaxed pre-check: a contention hint; the exchange decides, and its
    // acquire pairs with the previous leader's release of the leader-only
    // state (ring_head_, batch_, records_).
    return leading_.load(std::memory_order_relaxed) == 0 &&
           leading_.exchange(1, std::memory_order_seq_cst) == 0;
  }
  /// Sleeps on durable_word_ while a leader is active and `done` (when
  /// given) is not yet durable.
  void WaitForLeader(const Request* done);
  void FlusherMain();

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

  /// 1 while a committer (or the flusher) leads a group. Its
  /// exchange/store pair hands the leader-only state below from one
  /// leader to the next.
  alignas(64) std::atomic<uint32_t> leading_{0};
  uint64_t ring_head_ = 0;              // leader only
  std::vector<Request*> batch_;         // leader only, reused per group
  std::vector<Wal::Record> records_;    // leader only, reused per group

  /// Bumped once per released group; the futex word followers sleep on.
  alignas(64) std::atomic<uint32_t> durable_word_{0};
  /// Followers asleep (or about to sleep) on durable_word_; lets a leader
  /// skip the wake syscall when nobody sleeps.
  std::atomic<uint32_t> waiters_{0};

  /// Parked requests published and not yet drained by a leader: the
  /// flusher leads while there are any. Blocking committers lead their
  /// own requests, so the flusher never competes with them for nothing.
  alignas(64) std::atomic<uint32_t> parked_queued_{0};
  /// The flusher's futex word: bumped by parked publishes and shutdown.
  std::atomic<uint32_t> flush_word_{0};
  std::atomic<bool> flusher_asleep_{false};
  std::atomic<bool> stopping_{false};

  /// Held across each call of wake_: clearing it returns only once no
  /// call is running, so its target may be destroyed right after.
  std::mutex wake_mu_;
  std::function<void()> wake_;

  /// Last: it uses every member above.
  std::thread flusher_;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_CORE_COMMIT_MANAGER_H_
