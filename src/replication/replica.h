// Replica: the follower side of WAL shipping (docs/REPLICATION.md).
//
// One background thread runs the subscription loop: connect to the
// primary, SUBSCRIBE from the durable local frontier, bootstrap from a
// streamed snapshot when the primary says so, then apply LOG_BATCH frames
// through the recovery apply path (ShardedStore::ApplyReplicated) and
// advance a ReplicaFrontier — the read-only frontier in PRIMARY epochs —
// only when every lower primary epoch has been applied on every local
// shard. That is ShardedStore::Recover's visibility rule made continuous;
// the LOG_BATCH `frontier` field carries exactly that bound from the
// primary, so the follower applies buffered epochs <= frontier in epoch
// order and then advances.
//
// Epoch spaces: the follower's OWN EpochDomain runs a separate local
// sequence (replay-mode commits draw fresh local epochs), so local
// CreationTimestamps are never comparable with the primary's. Progress,
// acks, durable resume points, and read-your-epoch waits are all primary
// epochs, tracked solely by the ReplicaFrontier.
//
// Durable resume: replay-mode applies write no local WAL, so the follower
// periodically checkpoints its store and then writes <dir>/REPLICA_STATE
// (the applied primary frontier) via tmp+fsync+rename. State is written
// AFTER the checkpoint, so at rest state <= checkpoint; a crash between
// the two resubscribes a little low and re-applies the overlap, which is
// safe (replicated applies are upserts) and converges (re-applied epochs
// are the newest on both sides, so edge order matches).
//
// A broken connection (primary restart, network, kLapped eviction) drops
// back to connect-with-backoff and resubscribes from the durable frontier;
// buffered-but-unapplied epochs are discarded (the primary re-ships them).
// A payload the apply path rejects (ids beyond this follower's
// max_vertices) ends the session the same way, with the frontier unmoved.
#ifndef LIVEGRAPH_REPLICATION_REPLICA_H_
#define LIVEGRAPH_REPLICATION_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/graph.h"
#include "replication/epoch_frontier.h"
#include "replication/replica_store.h"
#include "server/net.h"
#include "shard/sharded_store.h"

namespace livegraph {

class Replica {
 public:
  struct Options {
    std::string primary_host = "127.0.0.1";
    uint16_t primary_port = 0;
    /// Durable directory: <dir>/REPLICA_STATE + <dir>/store/... Empty runs
    /// the follower in memory (fresh bootstrap on every start).
    std::string dir;
    /// Template for the local store's shards (shard count always follows
    /// the primary's).
    GraphOptions graph;
    /// Checkpoint + REPLICA_STATE cadence, in advanced primary epochs.
    /// <= 0 disables periodic checkpoints (still one after bootstrap).
    int64_t checkpoint_every_epochs = 65536;
  };

  explicit Replica(Options options);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Loads durable local state if present, then starts the subscription
  /// thread. Always succeeds (the thread retries the primary forever); a
  /// local store that recovery refuses counts as no state, so the first
  /// session bootstraps from the primary.
  void Start();
  void Stop();

  /// The swappable serving facade (writes kUnavailable, reads delegate).
  ReplicaStore& store() { return serving_; }
  /// Applied-primary-epoch frontier; read sessions gate on it.
  ReplicaFrontier& frontier() { return frontier_; }

  /// Blocks until the follower has a serving store AND, in some session
  /// since starting, has applied everything the primary had made visible
  /// when it answered the subscription (the bootstrap snapshot, or the
  /// log up to the primary's frontier then). False on timeout.
  bool WaitReady(int64_t timeout_ms);

  /// Times the subscription loop reconnected (observability, tests).
  uint64_t resubscribes() const {
    return resubscribes_.load(std::memory_order_relaxed);
  }

 private:
  void ThreadMain();
  /// One connect->subscribe->stream session; returns when the connection
  /// breaks or Stop() is called.
  void RunSession();
  /// Discards any local store and builds a fresh empty one with `shards`
  /// shards (invalidating REPLICA_STATE first, so a crash mid-bootstrap
  /// restarts from scratch instead of trusting a destroyed store).
  void BuildFreshStore(uint32_t shards);
  /// Checkpoint + REPLICA_STATE write (durable dir only).
  void PersistState();
  /// Reads <dir>/REPLICA_STATE; false when absent/corrupt.
  bool LoadState(uint32_t* shards, timestamp_t* out_frontier);

  std::string StorePath() const { return options_.dir + "/store"; }
  std::string StatePath() const { return options_.dir + "/REPLICA_STATE"; }

  Options options_;
  ReplicaStore serving_;
  ReplicaFrontier frontier_;
  std::shared_ptr<ShardedStore> store_;  // apply-loop-owned generation
  std::atomic<bool> running_{false};
  std::atomic<bool> ready_{false};
  std::atomic<uint64_t> resubscribes_{0};
  std::atomic<uint64_t> frames_{0};  // frames received across sessions
  /// Resume point: the primary frontier the durable state covers.
  timestamp_t durable_frontier_ = 0;
  timestamp_t last_persisted_frontier_ = 0;
  Socket socket_;  // live session socket; Shutdown() unblocks the thread
  std::mutex socket_mu_;
  std::thread thread_;
  /// Follower gauges probe (registered in the ctor, removed in the dtor).
  uint64_t metrics_probe_ = 0;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_REPLICATION_REPLICA_H_
