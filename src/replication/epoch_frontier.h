// EpochFrontier: "which epochs can this node serve reads at?" — the one
// question epoch-gated reads (kBeginReadTxnAt, docs/REPLICATION.md) need
// answered, abstracted over the two kinds of node:
//
//   * A primary's frontier IS its EpochDomain's visible() — every epoch at
//     or below it is fully applied on every shard (DomainFrontier).
//   * A follower's frontier is driven externally by the replica apply
//     loop: it advances to primary epoch e only when every primary epoch
//     <= e has been applied on every local shard — the same rule
//     ShardedStore::Recover enforces once, made continuous
//     (ReplicaFrontier). Note the follower frontier counts PRIMARY epochs;
//     the follower's own EpochDomain runs a separate local sequence.
#ifndef LIVEGRAPH_REPLICATION_EPOCH_FRONTIER_H_
#define LIVEGRAPH_REPLICATION_EPOCH_FRONTIER_H_

#include <atomic>

#include "core/epoch_domain.h"
#include "util/types.h"

namespace livegraph {

class EpochFrontier {
 public:
  virtual ~EpochFrontier() = default;

  /// The highest epoch fully applied here. Monotone. Epoch-gated reads
  /// poll it from their parked connection (docs/SERVER.md), so nothing
  /// blocks on it.
  virtual timestamp_t Frontier() const = 0;
};

/// Primary: the serving engine's own visibility frontier.
class DomainFrontier : public EpochFrontier {
 public:
  explicit DomainFrontier(EpochDomain* domain) : domain_(domain) {}

  timestamp_t Frontier() const override { return domain_->visible(); }

 private:
  EpochDomain* domain_;
};

/// Follower: advanced by the replica apply loop, polled by read sessions
/// carrying a read-your-epoch bound.
class ReplicaFrontier : public EpochFrontier {
 public:
  timestamp_t Frontier() const override {
    return frontier_.load(std::memory_order_acquire);
  }

  /// Monotone advance (lower/equal values are ignored). Called by the
  /// replica apply loop AFTER every piece of every primary epoch <=
  /// `epoch` has been applied locally.
  void Advance(timestamp_t epoch) {
    timestamp_t current = frontier_.load(std::memory_order_acquire);
    while (current < epoch &&
           !frontier_.compare_exchange_weak(current, epoch,
                                            std::memory_order_acq_rel)) {
    }
  }

 private:
  std::atomic<timestamp_t> frontier_{0};
};

}  // namespace livegraph

#endif  // LIVEGRAPH_REPLICATION_EPOCH_FRONTIER_H_
