// Compaction and garbage collection (paper §6).
#include <gtest/gtest.h>

#include <string>

#include "core/graph.h"
#include "core/transaction.h"

namespace livegraph {
namespace {

GraphOptions TestOptions() {
  GraphOptions options;
  options.region_reserve = size_t{1} << 30;
  options.max_vertices = 1 << 18;
  options.enable_compaction = false;  // passes triggered manually
  return options;
}

TEST(Compaction, ReclaimsInvalidatedEdgeEntries) {
  Graph graph(TestOptions());
  vertex_t v, d;
  {
    auto txn = graph.BeginTransaction();
    v = txn.AddVertex();
    d = txn.AddVertex();
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  // 200 upserts of the same edge = 200 log entries, 199 invalidated.
  for (int i = 0; i < 200; ++i) {
    auto txn = graph.BeginTransaction();
    ASSERT_EQ(txn.AddEdge(v, 0, d, "version-" + std::to_string(i)),
              Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  auto before = graph.CollectMemoryStats();
  graph.RunCompactionPass();
  graph.RunCompactionPass();  // second pass reclaims the retired blocks
  auto after = graph.CollectMemoryStats();
  EXPECT_LT(after.block_store_live, before.block_store_live)
      << "compaction should shrink the live footprint";
  // Content is preserved.
  auto read = graph.BeginReadOnlyTransaction();
  EXPECT_EQ(read.CountEdges(v, 0), 1u);
  EXPECT_EQ(read.GetEdge(v, 0, d).value(), "version-199");
  // The TEL shrank back towards the minimal block.
  auto histogram = graph.CollectTelSizeHistogram();
  ASSERT_EQ(histogram.size(), 1u);
  EXPECT_LE(histogram.begin()->first, 256u);
}

TEST(Compaction, PreservesActiveSnapshots) {
  Graph graph(TestOptions());
  vertex_t v, d1, d2;
  {
    auto txn = graph.BeginTransaction();
    v = txn.AddVertex();
    d1 = txn.AddVertex();
    d2 = txn.AddVertex();
    ASSERT_EQ(txn.AddEdge(v, 0, d1, "old"), Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  auto snapshot = graph.BeginReadOnlyTransaction();
  {
    auto txn = graph.BeginTransaction();
    ASSERT_EQ(txn.DeleteEdge(v, 0, d1), Status::kOk);
    ASSERT_EQ(txn.AddEdge(v, 0, d2, "new"), Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  graph.RunCompactionPass();
  // The snapshot predates the delete: compaction must not steal its data.
  EXPECT_EQ(snapshot.CountEdges(v, 0), 1u);
  EXPECT_EQ(snapshot.GetEdge(v, 0, d1).value(), "old");
  EXPECT_FALSE(snapshot.GetEdge(v, 0, d2).has_value());
  auto fresh = graph.BeginReadOnlyTransaction();
  EXPECT_EQ(fresh.GetEdge(v, 0, d2).value(), "new");
  EXPECT_FALSE(fresh.GetEdge(v, 0, d1).has_value());
}

// A hot list is written again after the oldest snapshot began, so its CT
// is above the safe epoch. The write has finished applying, so one pass
// still rewrites the list: the dead entries go, and the snapshot keeps
// reading what it read before.
TEST(Compaction, ReclaimsHotTelWrittenAfterOldestSnapshot) {
  Graph graph(TestOptions());
  vertex_t v, d, d2;
  {
    auto txn = graph.BeginTransaction();
    v = txn.AddVertex();
    d = txn.AddVertex();
    d2 = txn.AddVertex();
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  for (int i = 0; i < 200; ++i) {
    auto txn = graph.BeginTransaction();
    ASSERT_EQ(txn.AddEdge(v, 0, d, "version-" + std::to_string(i)),
              Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  auto snapshot = graph.BeginReadOnlyTransaction();
  {
    auto txn = graph.BeginTransaction();
    ASSERT_EQ(txn.AddEdge(v, 0, d2, "later"), Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  graph.RunCompactionPass();

  auto histogram = graph.CollectTelSizeHistogram();
  ASSERT_EQ(histogram.size(), 1u);
  EXPECT_LE(histogram.begin()->first, 256u)
      << "the pass skipped a TEL whose last commit had finished applying";
  EXPECT_EQ(snapshot.CountEdges(v, 0), 1u);
  EXPECT_EQ(snapshot.GetEdge(v, 0, d).value(), "version-199");
  EXPECT_FALSE(snapshot.GetEdge(v, 0, d2).has_value());
  auto fresh = graph.BeginReadOnlyTransaction();
  EXPECT_EQ(fresh.CountEdges(v, 0), 2u);
  EXPECT_EQ(fresh.GetEdge(v, 0, d2).value(), "later");
}

TEST(Compaction, CollectsVertexVersionChains) {
  Graph graph(TestOptions());
  vertex_t v;
  {
    auto txn = graph.BeginTransaction();
    v = txn.AddVertex("v0");
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  for (int i = 1; i <= 100; ++i) {
    auto txn = graph.BeginTransaction();
    ASSERT_EQ(txn.PutVertex(v, "v" + std::to_string(i)), Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  auto before = graph.CollectMemoryStats();
  graph.RunCompactionPass();
  graph.RunCompactionPass();
  auto after = graph.CollectMemoryStats();
  EXPECT_LT(after.block_store_live, before.block_store_live);
  auto read = graph.BeginReadOnlyTransaction();
  EXPECT_EQ(read.GetVertex(v).value(), "v100");
}

TEST(Compaction, PrunesUpgradeChains) {
  Graph graph(TestOptions());
  vertex_t hub;
  {
    auto txn = graph.BeginTransaction();
    hub = txn.AddVertex();
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  // Grow the TEL through many upgrades; each upgrade leaves the old block
  // linked as history until compaction prunes it.
  for (int i = 0; i < 500; ++i) {
    auto txn = graph.BeginTransaction();
    ASSERT_EQ(txn.AddEdge(hub, 0, txn.AddVertex(), "payload"), Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  auto before = graph.CollectMemoryStats();
  graph.RunCompactionPass();
  graph.RunCompactionPass();
  auto after = graph.CollectMemoryStats();
  EXPECT_LT(after.block_store_live, before.block_store_live);
  auto read = graph.BeginReadOnlyTransaction();
  EXPECT_EQ(read.CountEdges(hub, 0), 500u);
}

TEST(Compaction, EmptiedTelFullyCollected) {
  Graph graph(TestOptions());
  vertex_t v;
  {
    auto txn = graph.BeginTransaction();
    v = txn.AddVertex();
    for (int i = 0; i < 50; ++i) {
      ASSERT_EQ(txn.AddEdge(v, 0, txn.AddVertex()), Status::kOk);
    }
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  {
    auto read = graph.BeginReadOnlyTransaction();
    auto txn = graph.BeginTransaction();
    std::vector<vertex_t> dsts;
    for (auto it = txn.GetEdges(v, 0); it.Valid(); it.Next()) {
      dsts.push_back(it.DstId());
    }
    for (vertex_t d : dsts) ASSERT_EQ(txn.DeleteEdge(v, 0, d), Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  graph.RunCompactionPass();
  graph.RunCompactionPass();
  auto read = graph.BeginReadOnlyTransaction();
  EXPECT_EQ(read.CountEdges(v, 0), 0u);
  // Further writes to the emptied list still work.
  auto txn = graph.BeginTransaction();
  ASSERT_EQ(txn.AddEdge(v, 0, v, "again"), Status::kOk);
  ASSERT_EQ(txn.Commit(), Status::kOk);
  auto fresh = graph.BeginReadOnlyTransaction();
  EXPECT_EQ(fresh.CountEdges(v, 0), 1u);
}

TEST(Compaction, BackgroundThreadTriggersAutomatically) {
  GraphOptions options = TestOptions();
  options.enable_compaction = true;
  options.compaction_interval = 64;  // compact frequently for the test
  Graph graph(options);
  vertex_t v, d;
  {
    auto txn = graph.BeginTransaction();
    v = txn.AddVertex();
    d = txn.AddVertex();
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  for (int i = 0; i < 1000; ++i) {
    auto txn = graph.BeginTransaction();
    ASSERT_EQ(txn.AddEdge(v, 0, d, std::string(100, 'x')), Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  // Give the background thread a moment, then verify correctness (memory
  // effects are asserted in the synchronous tests above).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto read = graph.BeginReadOnlyTransaction();
  EXPECT_EQ(read.CountEdges(v, 0), 1u);
}

TEST(Compaction, IdempotentWhenNothingToDo) {
  Graph graph(TestOptions());
  {
    auto txn = graph.BeginTransaction();
    vertex_t v = txn.AddVertex();
    ASSERT_EQ(txn.AddEdge(v, 0, v), Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  graph.RunCompactionPass();
  auto s1 = graph.CollectMemoryStats();
  graph.RunCompactionPass();
  graph.RunCompactionPass();
  auto s2 = graph.CollectMemoryStats();
  EXPECT_EQ(s1.block_store_live, s2.block_store_live);
}

}  // namespace
}  // namespace livegraph
