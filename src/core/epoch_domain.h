// The unified visibility-epoch domain (docs/SHARDING.md "Epoch domain").
//
// One EpochDomain is the single source of commit timestamps for every
// engine attached to it: a standalone Graph owns a private domain, a
// ShardedStore shares one domain across all of its shards. Epochs are
// issued densely from one monotone counter and become *visible* strictly
// in issue order — epoch e is readable only once every participant of
// every epoch <= e has finished its apply phase, on every attached engine.
// That single invariant is what makes cross-shard snapshots, time travel
// and the checkpoint manifest exact: a reader pins ONE epoch and is
// guaranteed that no shard holds a half-applied commit at or below it.
//
// Three kinds of clients:
//   * Commit managers acquire a fresh epoch per commit group
//     (Acquire(participants = group size)); every transaction of the group
//     reports MarkApplied(epoch) after converting its timestamps.
//   * A multi-shard coordinator acquires one epoch for the whole
//     transaction (participants = writer shards) and each shard's piece
//     reports MarkApplied once — the epoch turns visible only when the
//     last shard finishes, so the commit is all-or-nothing by construction.
//   * Read sessions pin the current visible epoch (PinRead) so compaction
//     on any attached engine keeps every version such a snapshot can reach.
#ifndef LIVEGRAPH_CORE_EPOCH_DOMAIN_H_
#define LIVEGRAPH_CORE_EPOCH_DOMAIN_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace livegraph {

class EpochDomain {
 public:
  /// `window` bounds epochs in flight (issued, not yet visible); it is
  /// rounded up to a power of two. Size it past the worst-case concurrent
  /// transaction count of every attached engine — Acquire backpressures
  /// (it cannot deadlock: the wait is on strictly older epochs, whose
  /// participants never wait on younger ones).
  explicit EpochDomain(size_t window = 4096);
  ~EpochDomain();

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  /// Issues the next epoch. `participants` is the number of MarkApplied
  /// calls required before the epoch can become visible (>= 1).
  timestamp_t Acquire(uint32_t participants);

  /// Reports that one participant of `epoch` finished its apply phase. The
  /// last participant publishes the epoch: the visible frontier cascades
  /// over every consecutive fully-applied epoch and wakes waiters.
  void MarkApplied(timestamp_t epoch);

  /// The visible frontier: every epoch <= visible() is fully applied on
  /// every attached engine. Monotone.
  timestamp_t visible() const {
    return visible_.load(std::memory_order_seq_cst);
  }

  /// Upper bound on issued epochs (diagnostics; racy by nature).
  timestamp_t issued() const {
    return next_.load(std::memory_order_acquire);
  }

  /// Blocks until visible() >= epoch.
  void WaitVisible(timestamp_t epoch);

  /// Recovery only: jumps an idle domain (no epochs in flight) forward so
  /// post-recovery commits continue the durable epoch sequence instead of
  /// re-issuing epochs that already exist in WAL records and checkpoint
  /// manifests. No-op if the domain is already past `epoch`.
  void FastForward(timestamp_t epoch);

  // --- Reader pins (compaction safety for cross-engine snapshots) ---

  /// A pinned read epoch: while held, no attached engine's compaction may
  /// reclaim a version still visible at `epoch`.
  struct ReadPin {
    timestamp_t epoch = 0;
    uint32_t slot = 0;
  };

  /// Pins the current visible epoch (store-recheck protocol, so a
  /// concurrent compaction scan either sees the pin or used a frontier
  /// the pin does not precede).
  ReadPin PinRead();

  /// Pins a historical epoch, clamped to [0, visible()] (time travel).
  ReadPin PinReadAt(timestamp_t epoch);

  void Unpin(const ReadPin& pin);

  /// Minimum over `bound` and every live pin — the floor attached engines
  /// fold into their SafeEpoch scans.
  timestamp_t OldestPin(timestamp_t bound) const;

 private:
  struct alignas(16) Slot {
    /// MarkApplied countdown for the epoch currently mapped to this slot.
    std::atomic<uint32_t> pending{0};
    /// The epoch value once fully applied — lap-safe: the cascade compares
    /// against the exact epoch it expects, never a flag.
    std::atomic<timestamp_t> applied{0};
  };

  uint32_t ClaimPinSlot();

  size_t mask_;
  std::vector<Slot> slots_;
  /// Worker-side spin budget before sleeping on the visibility futex.
  int spin_iters_;

  alignas(64) std::atomic<timestamp_t> next_{0};
  alignas(64) std::atomic<timestamp_t> visible_{0};
  /// 32-bit futex word bumped on every visibility advance.
  std::atomic<uint32_t> visible_word_{0};

  /// Read-pin table. kFreePin marks a free slot; a live slot holds the
  /// pinned epoch.
  static constexpr uint32_t kPinSlots = 2048;
  static constexpr timestamp_t kFreePin = INT64_MAX;
  std::vector<std::atomic<timestamp_t>> pins_;

  /// Frontier/pin gauges sampled at metrics-collection time; removed in
  /// the destructor (removal blocks out in-flight collection).
  uint64_t metrics_probe_ = 0;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_CORE_EPOCH_DOMAIN_H_
