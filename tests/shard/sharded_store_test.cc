// Cross-shard correctness for the sharded store (docs/SHARDING.md):
// ID partitioning, edge co-location, multi-shard transaction atomicity,
// epoch-vector snapshot consistency under concurrent multi-shard writers,
// the EdgeCursor shard fan-in mode, and the parallel analytics fan-out
// against a single-engine reference.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analytics/conncomp.h"
#include "analytics/pagerank.h"
#include "baselines/livegraph_store.h"
#include "shard/sharded_store.h"
#include "util/random.h"

namespace livegraph {
namespace {

constexpr int kShards = 4;

ShardOptions SmallShardOptions(int shards = kShards) {
  ShardOptions options;
  options.shards = shards;
  options.graph.region_reserve = size_t{1} << 30;
  options.graph.max_vertices = 1 << 18;
  return options;
}

TEST(ShardedStoreTest, RoundRobinPlacementYieldsDenseGlobalIds) {
  ShardedStore store(SmallShardOptions());
  // Sequential AddNode round-robins across shards; with the interleaved
  // encoding (global = local * N + shard) that fills 0,1,2,... densely.
  for (vertex_t expect = 0; expect < 8; ++expect) {
    EXPECT_EQ(store.AddNode("v" + std::to_string(expect)), expect);
  }
  EXPECT_EQ(store.VertexCount(), 8);
  auto read = store.BeginReadTxn();
  for (vertex_t v = 0; v < 8; ++v) {
    StatusOr<std::string> props = read->GetNode(v);
    ASSERT_TRUE(props.ok()) << "vertex " << v;
    EXPECT_EQ(*props, "v" + std::to_string(v));
  }
  EXPECT_EQ(read->GetNode(8).status(), Status::kNotFound);
  EXPECT_EQ(read->GetNode(-1).status(), Status::kNotFound);
}

TEST(ShardedStoreTest, EdgesCoLocatedWithSourceYieldGlobalDstIds) {
  ShardedStore store(SmallShardOptions());
  vertex_t hub = store.AddNode("hub");
  std::vector<vertex_t> leaves;
  for (int i = 0; i < 12; ++i) {
    vertex_t leaf = store.AddNode("leaf");
    ASSERT_TRUE(store.AddLink(hub, 0, leaf, "e" + std::to_string(i)).ok());
    leaves.push_back(leaf);
  }
  // The leaves span every shard; the hub's whole list lives in hub's shard.
  std::set<int> shards_hit;
  for (vertex_t leaf : leaves) shards_hit.insert(store.ShardOf(leaf));
  EXPECT_EQ(shards_hit.size(), static_cast<size_t>(kShards));

  auto read = store.BeginReadTxn();
  EXPECT_EQ(read->CountLinks(hub, 0), 12u);
  std::vector<vertex_t> scanned;
  for (EdgeCursor c = read->ScanLinks(hub, 0); c.Valid(); c.Next()) {
    scanned.push_back(c.dst());
  }
  // Newest-first, destinations reported as global IDs.
  std::vector<vertex_t> expect(leaves.rbegin(), leaves.rend());
  EXPECT_EQ(scanned, expect);
  EXPECT_EQ(*read->GetLink(hub, 0, leaves[3]), "e3");
}

TEST(ShardedStoreTest, MultiShardTransactionIsAtomic) {
  ShardedStore store(SmallShardOptions());
  // Pre-create vertices pinned to distinct shards.
  vertex_t a = store.AddNode("a");
  vertex_t b = store.AddNode("b");
  ASSERT_NE(store.ShardOf(a), store.ShardOf(b));

  {
    auto txn = store.BeginTxn();
    ASSERT_EQ(txn->UpdateNode(a, "a-staged"), Status::kOk);
    ASSERT_EQ(txn->UpdateNode(b, "b-staged"), Status::kOk);
    ASSERT_TRUE(txn->AddLink(a, 0, b, "ab").ok());
    ASSERT_TRUE(txn->AddLink(b, 0, a, "ba").ok());
    // Read-your-writes across shards inside the session.
    EXPECT_EQ(*txn->GetNode(a), "a-staged");
    EXPECT_EQ(*txn->GetNode(b), "b-staged");
    txn->Abort();
  }
  EXPECT_EQ(*store.GetNode(a), "a");
  EXPECT_EQ(*store.GetNode(b), "b");
  EXPECT_EQ(store.GetLink(a, 0, b).status(), Status::kNotFound);
  EXPECT_EQ(store.GetLink(b, 0, a).status(), Status::kNotFound);

  {
    auto txn = store.BeginTxn();
    ASSERT_EQ(txn->UpdateNode(a, "a2"), Status::kOk);
    ASSERT_EQ(txn->UpdateNode(b, "b2"), Status::kOk);
    ASSERT_TRUE(txn->AddLink(a, 0, b, "ab").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  EXPECT_EQ(*store.GetNode(a), "a2");
  EXPECT_EQ(*store.GetNode(b), "b2");
  EXPECT_EQ(*store.GetLink(a, 0, b), "ab");
}

TEST(ShardedStoreTest, CommitEpochsMonotonicAcrossFastAndCoordinatedPaths) {
  ShardedStore store(SmallShardOptions());
  vertex_t a = store.AddNode("a");
  vertex_t b = store.AddNode("b");
  timestamp_t last = 0;
  for (int i = 0; i < 6; ++i) {
    auto txn = store.BeginTxn();
    if (i % 2 == 0) {
      // Single-shard fast path.
      ASSERT_EQ(txn->UpdateNode(a, "x" + std::to_string(i)), Status::kOk);
    } else {
      // Multi-shard coordinated path.
      ASSERT_EQ(txn->UpdateNode(a, "y" + std::to_string(i)), Status::kOk);
      ASSERT_EQ(txn->UpdateNode(b, "z" + std::to_string(i)), Status::kOk);
    }
    StatusOr<timestamp_t> epoch = txn->Commit();
    ASSERT_TRUE(epoch.ok());
    EXPECT_GT(*epoch, last) << "commit " << i;
    last = *epoch;
  }
}

// The satellite contract: under concurrent multi-shard writers, no read
// session may ever observe a cross-shard transaction's writes in one shard
// but not another — the epoch vector is pinned entirely before or entirely
// after every coordinated commit.
TEST(ShardedStoreTest, NoTornCrossShardSnapshotsUnderConcurrentWriters) {
  ShardedStore store(SmallShardOptions());
  constexpr int kPairs = 4;
  constexpr int kWritesPerPair = 200;
  // Pair k = (a_k, b_k) on different shards; every transaction writes the
  // same sequence number to both sides.
  std::vector<std::pair<vertex_t, vertex_t>> pairs;
  for (int k = 0; k < kPairs; ++k) {
    vertex_t a = store.AddNode("0");
    vertex_t b = store.AddNode("0");
    ASSERT_NE(store.ShardOf(a), store.ShardOf(b));
    pairs.emplace_back(a, b);
  }

  constexpr int kReaders = 2;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> snapshots_checked{0};
  // The writers wait until every reader has checked one snapshot, so the
  // readers always overlap the writes (a writer pool can otherwise finish
  // before a reader thread has been scheduled).
  std::latch readers_checked(kReaders);

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      bool first = true;
      while (!done.load(std::memory_order_acquire)) {
        auto read = store.BeginReadTxn();
        for (auto [a, b] : pairs) {
          StatusOr<std::string> va = read->GetNode(a);
          StatusOr<std::string> vb = read->GetNode(b);
          if (!va.ok() || !vb.ok() || *va != *vb) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
        snapshots_checked.fetch_add(1, std::memory_order_relaxed);
        if (first) readers_checked.count_down();
        first = false;
      }
    });
  }

  std::vector<std::thread> writers;
  writers.reserve(kPairs);
  for (int k = 0; k < kPairs; ++k) {
    writers.emplace_back([&store, &pairs, &readers_checked, k] {
      readers_checked.wait();
      auto [a, b] = pairs[static_cast<size_t>(k)];
      for (int i = 1; i <= kWritesPerPair; ++i) {
        std::string value = std::to_string(i);
        Status st = RunWrite(store, [&](StoreTxn& txn) {
          Status sa = txn.UpdateNode(a, value);
          if (sa != Status::kOk) return sa;
          return txn.UpdateNode(b, value);
        });
        ASSERT_EQ(st, Status::kOk);
      }
    });
  }

  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(snapshots_checked.load(), 0u);
  // And the final state is the last write on both sides.
  auto read = store.BeginReadTxn();
  for (auto [a, b] : pairs) {
    EXPECT_EQ(*read->GetNode(a), std::to_string(kWritesPerPair));
    EXPECT_EQ(*read->GetNode(b), std::to_string(kWritesPerPair));
  }
}

TEST(ShardedStoreTest, FanInScanMergesPerShardCursors) {
  ShardedStore store(SmallShardOptions());
  // Three sources on three different shards, each with its own list.
  std::vector<vertex_t> srcs;
  std::vector<std::vector<vertex_t>> dsts(3);
  for (int s = 0; s < 3; ++s) srcs.push_back(store.AddNode("src"));
  for (int i = 0; i < 5; ++i) {
    for (int s = 0; s < 3; ++s) {
      vertex_t d = store.AddNode("leaf");
      ASSERT_TRUE(store
                      .AddLink(srcs[static_cast<size_t>(s)], 0, d,
                               "s" + std::to_string(s))
                      .ok());
      dsts[static_cast<size_t>(s)].push_back(d);
    }
  }

  auto read = static_cast<ShardedStore&>(store).BeginShardedReadTxn();
  // Union: every edge of every source, attributed to its source.
  std::vector<std::vector<vertex_t>> seen(3);
  size_t total = 0;
  for (EdgeCursor c = read->FanInScan(srcs, 0); c.Valid(); c.Next()) {
    ASSERT_LT(c.merge_source(), srcs.size());
    EXPECT_EQ(c.properties(), "s" + std::to_string(c.merge_source()));
    seen[c.merge_source()].push_back(c.dst());
    ++total;
  }
  EXPECT_EQ(total, 15u);
  for (int s = 0; s < 3; ++s) {
    // Per-source order is exact newest-first (the child cursor's order).
    std::vector<vertex_t> expect(dsts[static_cast<size_t>(s)].rbegin(),
                                 dsts[static_cast<size_t>(s)].rend());
    EXPECT_EQ(seen[static_cast<size_t>(s)], expect) << "source " << s;
  }
  // The limit bounds the merged stream as a whole.
  size_t limited = 0;
  for (EdgeCursor c = read->FanInScan(srcs, 0, 7); c.Valid(); c.Next()) {
    ++limited;
  }
  EXPECT_EQ(limited, 7u);
  // Unknown label: merged cursor over three empty children.
  EXPECT_FALSE(read->FanInScan(srcs, 9).Valid());
}

TEST(ShardedStoreTest, ShardedAnalyticsMatchSingleEngine) {
  // Same logical graph in a 4-shard store and a single engine: the shard
  // fan-out kernels must produce identical results over global IDs.
  ShardedStore sharded(SmallShardOptions());
  GraphOptions single_options;
  single_options.region_reserve = size_t{1} << 30;
  single_options.max_vertices = 1 << 18;
  LiveGraphStore single(single_options);

  constexpr vertex_t kVertices = 200;
  for (vertex_t v = 0; v < kVertices; ++v) {
    ASSERT_EQ(sharded.AddNode("v"), v);
    ASSERT_EQ(single.AddNode("v"), v);
  }
  Xorshift rng(42);
  for (int e = 0; e < 600; ++e) {
    auto u = static_cast<vertex_t>(rng.Next() % kVertices);
    auto v = static_cast<vertex_t>(rng.Next() % kVertices);
    ASSERT_TRUE(sharded.AddLink(u, 0, v, {}).ok());
    ASSERT_TRUE(single.AddLink(u, 0, v, {}).ok());
  }

  std::vector<ReadTransaction> snapshots = sharded.PinShardSnapshots();
  auto reference = single.graph().BeginReadOnlyTransaction();

  PageRankOptions pr;
  pr.threads = 4;
  std::vector<double> sharded_pr =
      PageRankOnShardSnapshots(snapshots, 0, pr);
  std::vector<double> single_pr = PageRankOnSnapshot(reference, 0, pr);
  ASSERT_EQ(sharded_pr.size(), single_pr.size());
  for (size_t v = 0; v < single_pr.size(); ++v) {
    EXPECT_NEAR(sharded_pr[v], single_pr[v], 1e-9) << "vertex " << v;
  }

  std::vector<vertex_t> sharded_cc =
      ConnCompOnShardSnapshots(snapshots, 0, 4);
  std::vector<vertex_t> single_cc = ConnCompOnSnapshot(reference, 0, 4);
  EXPECT_EQ(sharded_cc, single_cc);
}

TEST(ShardedStoreTest, DurableDirHoldsOneWalPerShard) {
  namespace fs = std::filesystem;
  const std::string dir = "/tmp/livegraph_shard_dir_test_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  {
    ShardOptions options = SmallShardOptions();
    options.dir = dir;
    options.graph.fsync_wal = false;
    ShardedStore store(options);
    vertex_t a = store.AddNode("a");
    vertex_t b = store.AddNode("b");
    auto txn = store.BeginTxn();
    ASSERT_TRUE(txn->AddLink(a, 0, b, "x").ok());
    ASSERT_TRUE(txn->AddLink(b, 0, a, "y").ok());
    ASSERT_TRUE(txn->Commit().ok());
    for (int s = 0; s < kShards; ++s) {
      EXPECT_TRUE(fs::exists(dir + "/shard" + std::to_string(s) + "/wal"))
          << "shard " << s;
    }
  }
  fs::remove_all(dir);
}

// Read sessions pin ONE global epoch (no per-shard vector): the session's
// read_epoch covers every shard, a commit's epoch is immediately visible
// to the next session, and the epoch is exact under time travel.
TEST(ShardedStoreTest, ReadSessionsPinASingleGlobalEpoch) {
  ShardedStore store(SmallShardOptions());
  vertex_t a = store.AddNode("a");
  vertex_t b = store.AddNode("b");
  ASSERT_NE(store.ShardOf(a), store.ShardOf(b));

  // State 1: multi-shard commit at epoch e1.
  timestamp_t e1;
  {
    auto txn = store.BeginTxn();
    ASSERT_EQ(txn->UpdateNode(a, "a1"), Status::kOk);
    ASSERT_EQ(txn->UpdateNode(b, "b1"), Status::kOk);
    StatusOr<timestamp_t> epoch = txn->Commit();
    ASSERT_TRUE(epoch.ok());
    e1 = *epoch;
  }
  // State 2: single-shard fast-path commit at epoch e2 > e1.
  timestamp_t e2;
  {
    auto txn = store.BeginTxn();
    ASSERT_EQ(txn->UpdateNode(a, "a2"), Status::kOk);
    StatusOr<timestamp_t> epoch = txn->Commit();
    ASSERT_TRUE(epoch.ok());
    e2 = *epoch;
  }
  ASSERT_GT(e2, e1);

  // A fresh session pins one epoch >= e2 and sees the latest state on
  // both shards.
  auto now = store.BeginShardedReadTxn();
  EXPECT_GE(now->read_epoch(), e2);
  EXPECT_EQ(*now->GetNode(a), "a2");
  EXPECT_EQ(*now->GetNode(b), "b1");

  // Cross-shard time travel is exact: at e1 the multi-shard write is
  // visible on BOTH shards and the later fast-path write on neither.
  auto past = store.BeginTimeTravelReadTxn(e1);
  EXPECT_EQ(past->read_epoch(), e1);
  EXPECT_EQ(*past->GetNode(a), "a1");
  EXPECT_EQ(*past->GetNode(b), "b1");
  auto before = store.BeginTimeTravelReadTxn(e1 - 1);
  EXPECT_EQ(*before->GetNode(a), "a");
  EXPECT_EQ(*before->GetNode(b), "b");
}

// Satellite: AddNode falls back to the next shard with room (round-robin
// probe) instead of failing kOutOfRange while other shards have capacity.
TEST(ShardedStoreTest, AddNodeProbesPastFullShards) {
  ShardOptions options = SmallShardOptions(2);
  options.graph.max_vertices = 6;  // 3 local IDs per shard
  ShardedStore store(options);

  // Burn shard capacity unevenly: aborted AddNodes consume local IDs (IDs
  // are claimed eagerly and never returned) and advance the round-robin
  // cursor, so one shard fills while the other still has room.
  {
    auto doomed = store.BeginTxn();
    ASSERT_TRUE(doomed->AddNode("burn0").ok());
    ASSERT_TRUE(doomed->AddNode("burn1").ok());
    ASSERT_TRUE(doomed->AddNode("burn2").ok());
    doomed->Abort();
  }
  // 6 local IDs total, 3 burned. The remaining 3 must all be reachable
  // even when the round-robin cursor lands on a full shard.
  std::vector<vertex_t> added;
  for (int i = 0; i < 3; ++i) {
    auto txn = store.BeginTxn();
    StatusOr<vertex_t> id = txn->AddNode("keep" + std::to_string(i));
    ASSERT_TRUE(id.ok()) << "node " << i << ": " << StatusName(id.status());
    ASSERT_TRUE(txn->Commit().ok());
    added.push_back(*id);
  }
  // Now every shard is at capacity: kOutOfRange, and the session survives.
  auto txn = store.BeginTxn();
  StatusOr<vertex_t> overflow = txn->AddNode("overflow");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status(), Status::kOutOfRange);
  // The session is still usable after the capacity failure.
  ASSERT_EQ(txn->UpdateNode(added[0], "still-usable"), Status::kOk);
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(*store.GetNode(added[0]), "still-usable");
}

}  // namespace
}  // namespace livegraph
