// WAL replay and checkpoint recovery (paper §6 "Recovery").
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/graph.h"
#include "core/transaction.h"

namespace livegraph {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lg_recovery_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  GraphOptions DurableOptions() {
    GraphOptions options;
    options.region_reserve = size_t{1} << 30;
    options.max_vertices = 1 << 18;
    options.enable_compaction = false;
    options.wal_path = (dir_ / "wal.log").string();
    options.fsync_wal = false;  // tmpfs: test logical replay, not fsync
    return options;
  }

  // A 2-thread checkpoint of 100 committed vertices, each with an edge to
  // the next; the WAL holds nothing newer.
  void WriteCheckpoint() {
    Graph graph(DurableOptions());
    auto txn = graph.BeginTransaction();
    for (int i = 0; i < 100; ++i) txn.AddVertex("v" + std::to_string(i));
    for (vertex_t v = 0; v + 1 < 100; ++v) {
      ASSERT_EQ(txn.AddEdge(v, 0, v + 1, "next"), Status::kOk);
    }
    ASSERT_EQ(txn.Commit(), Status::kOk);
    epoch_ = graph.Checkpoint(dir_.string(), /*threads=*/2);
    ASSERT_GT(epoch_, 0);
  }

  std::filesystem::path ShardFile(int s) const {
    return dir_ / ("shard_" + std::to_string(s) + "." +
                   std::to_string(epoch_) + ".ckpt");
  }

  // Recovery of a damaged checkpoint must refuse, naming the file.
  void ExpectRefused() {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(Graph::Recover(DurableOptions(), dir_.string()), nullptr);
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  ShardFile(1).string()),
              std::string::npos);
  }

  std::filesystem::path dir_;
  timestamp_t epoch_ = 0;
};

TEST_F(RecoveryTest, WalOnlyReplayRestoresGraph) {
  vertex_t a, b, c;
  {
    Graph graph(DurableOptions());
    auto txn = graph.BeginTransaction();
    a = txn.AddVertex("alice");
    b = txn.AddVertex("bob");
    c = txn.AddVertex("carol");
    ASSERT_EQ(txn.AddEdge(a, 0, b, "follows"), Status::kOk);
    ASSERT_EQ(txn.AddEdge(a, 1, c, "blocks"), Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
    auto txn2 = graph.BeginTransaction();
    ASSERT_EQ(txn2.PutVertex(b, "bob-v2"), Status::kOk);
    ASSERT_EQ(txn2.DeleteEdge(a, 1, c), Status::kOk);
    ASSERT_EQ(txn2.Commit(), Status::kOk);
  }  // crash
  auto graph = Graph::Recover(DurableOptions(), "");
  auto read = graph->BeginReadOnlyTransaction();
  EXPECT_EQ(read.GetVertex(a).value(), "alice");
  EXPECT_EQ(read.GetVertex(b).value(), "bob-v2");
  EXPECT_EQ(read.GetVertex(c).value(), "carol");
  EXPECT_EQ(read.GetEdge(a, 0, b).value(), "follows");
  EXPECT_FALSE(read.GetEdge(a, 1, c).has_value());
  EXPECT_EQ(graph->VertexCount(), 3);
}

TEST_F(RecoveryTest, AbortedTransactionsNotReplayed) {
  vertex_t a;
  {
    Graph graph(DurableOptions());
    auto txn = graph.BeginTransaction();
    a = txn.AddVertex("committed");
    ASSERT_EQ(txn.Commit(), Status::kOk);
    auto doomed = graph.BeginTransaction();
    doomed.AddVertex("aborted");
    (void)doomed.PutVertex(a, "dirty");
    doomed.Abort();
  }
  auto graph = Graph::Recover(DurableOptions(), "");
  auto read = graph->BeginReadOnlyTransaction();
  EXPECT_EQ(read.GetVertex(a).value(), "committed");
  EXPECT_FALSE(read.GetVertex(1).has_value());
}

TEST_F(RecoveryTest, CheckpointPlusWalTail) {
  vertex_t a, b;
  std::string ckpt = dir_.string();
  {
    Graph graph(DurableOptions());
    {
      auto txn = graph.BeginTransaction();
      a = txn.AddVertex("a");
      b = txn.AddVertex("b");
      ASSERT_EQ(txn.AddEdge(a, 0, b, "pre-ckpt"), Status::kOk);
      ASSERT_EQ(txn.Commit(), Status::kOk);
    }
    timestamp_t epoch = graph.Checkpoint(ckpt, /*threads=*/2);
    EXPECT_GT(epoch, 0);
    {
      auto txn = graph.BeginTransaction();
      ASSERT_EQ(txn.PutVertex(b, "b-post"), Status::kOk);
      ASSERT_EQ(txn.AddEdge(b, 0, a, "post-ckpt"), Status::kOk);
      ASSERT_EQ(txn.Commit(), Status::kOk);
    }
  }  // crash
  auto graph = Graph::Recover(DurableOptions(), ckpt);
  auto read = graph->BeginReadOnlyTransaction();
  EXPECT_EQ(read.GetVertex(a).value(), "a");
  EXPECT_EQ(read.GetVertex(b).value(), "b-post");
  EXPECT_EQ(read.GetEdge(a, 0, b).value(), "pre-ckpt");
  EXPECT_EQ(read.GetEdge(b, 0, a).value(), "post-ckpt");
}

TEST_F(RecoveryTest, IntactCheckpointRecoversEveryVertex) {
  WriteCheckpoint();
  auto graph = Graph::Recover(DurableOptions(), dir_.string());
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->VertexCount(), 100);
  auto read = graph->BeginReadOnlyTransaction();
  for (vertex_t v = 0; v < 100; ++v) {
    EXPECT_EQ(read.GetVertex(v).value(), "v" + std::to_string(v));
    EXPECT_EQ(read.CountEdges(v, 0), v + 1 < 100 ? 1u : 0u);
  }
}

TEST_F(RecoveryTest, MissingShardFileIsRefused) {
  WriteCheckpoint();
  std::filesystem::remove(ShardFile(1));
  ExpectRefused();
}

TEST_F(RecoveryTest, TruncatedShardFileIsRefused) {
  WriteCheckpoint();
  std::filesystem::resize_file(ShardFile(1),
                               std::filesystem::file_size(ShardFile(1)) / 2);
  ExpectRefused();
}

TEST_F(RecoveryTest, FlippedByteInShardFileIsRefused) {
  WriteCheckpoint();
  std::fstream file(ShardFile(1),
                    std::ios::binary | std::ios::in | std::ios::out);
  const auto middle =
      static_cast<std::streamoff>(std::filesystem::file_size(ShardFile(1)) / 2);
  file.seekg(middle);
  char byte = 0;
  file.get(byte);
  file.seekp(middle);
  file.put(static_cast<char>(byte ^ 0x10));
  file.close();
  ExpectRefused();
}

TEST_F(RecoveryTest, TornTailTruncatedSoPostRecoveryCommitsSurvive) {
  // Crash mid-append leaves unreadable bytes at the WAL tail. Recovery
  // must truncate them: the recovered graph keeps appending to the same
  // log, and without the cut every post-recovery commit would sit behind
  // the torn record and be silently dropped by the NEXT recovery.
  vertex_t a;
  {
    Graph graph(DurableOptions());
    auto txn = graph.BeginTransaction();
    a = txn.AddVertex("pre-crash");
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  {
    // The torn tail: a header promising more bytes than exist.
    std::ofstream f(DurableOptions().wal_path,
                    std::ios::binary | std::ios::app);
    uint32_t len = 5000, crc = 0xdeadbeef, participants = 1, reserved = 0;
    timestamp_t epoch = 99;
    f.write(reinterpret_cast<char*>(&len), 4);
    f.write(reinterpret_cast<char*>(&crc), 4);
    f.write(reinterpret_cast<char*>(&epoch), 8);
    f.write(reinterpret_cast<char*>(&participants), 4);
    f.write(reinterpret_cast<char*>(&reserved), 4);
    f.write("torn", 4);
  }
  {
    auto graph = Graph::Recover(DurableOptions(), "");
    auto read = graph->BeginReadOnlyTransaction();
    EXPECT_EQ(read.GetVertex(a).value(), "pre-crash");
    // Durable work after the first crash's recovery.
    auto txn = graph->BeginTransaction();
    ASSERT_EQ(txn.PutVertex(a, "post-crash"), Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  // Second crash + recovery: the post-crash commit must be there.
  auto graph = Graph::Recover(DurableOptions(), "");
  auto read = graph->BeginReadOnlyTransaction();
  EXPECT_EQ(read.GetVertex(a).value(), "post-crash");
}

TEST_F(RecoveryTest, RecoverEmptyStateIsEmptyGraph) {
  auto graph = Graph::Recover(DurableOptions(), dir_.string());
  EXPECT_EQ(graph->VertexCount(), 0);
}

TEST_F(RecoveryTest, SecondRecoveryIsStable) {
  {
    Graph graph(DurableOptions());
    auto txn = graph.BeginTransaction();
    vertex_t v = txn.AddVertex("root");
    for (int i = 0; i < 20; ++i) {
      ASSERT_EQ(txn.AddEdge(v, 0, txn.AddVertex("leaf")), Status::kOk);
    }
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  {
    auto graph = Graph::Recover(DurableOptions(), "");
    auto read = graph->BeginReadOnlyTransaction();
    ASSERT_EQ(read.CountEdges(0, 0), 20u);
    // Write more after the first recovery.
    auto txn = graph->BeginTransaction();
    ASSERT_EQ(txn.AddEdge(0, 0, txn.AddVertex("post-recovery")), Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  auto graph = Graph::Recover(DurableOptions(), "");
  auto read = graph->BeginReadOnlyTransaction();
  EXPECT_EQ(read.CountEdges(0, 0), 21u);
  EXPECT_EQ(graph->VertexCount(), 22);
}

TEST_F(RecoveryTest, DeleteVertexSurvivesRecovery) {
  vertex_t a, b;
  {
    Graph graph(DurableOptions());
    auto txn = graph.BeginTransaction();
    a = txn.AddVertex("keep");
    b = txn.AddVertex("remove");
    ASSERT_EQ(txn.Commit(), Status::kOk);
    auto txn2 = graph.BeginTransaction();
    ASSERT_EQ(txn2.DeleteVertex(b), Status::kOk);
    ASSERT_EQ(txn2.Commit(), Status::kOk);
  }
  auto graph = Graph::Recover(DurableOptions(), "");
  auto read = graph->BeginReadOnlyTransaction();
  EXPECT_TRUE(read.GetVertex(a).has_value());
  EXPECT_FALSE(read.GetVertex(b).has_value());
}

TEST_F(RecoveryTest, ConcurrentCheckpointDoesNotBlockWrites) {
  // The §7.2 experiment: checkpoint while a workload runs. Here we just
  // assert correctness: everything committed before the checkpoint call
  // must be in checkpoint+tail; concurrent commits must never be lost.
  Graph graph(DurableOptions());
  vertex_t hub;
  {
    auto txn = graph.BeginTransaction();
    hub = txn.AddVertex("hub");
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> added{0};
  std::thread writer([&] {
    while (!stop.load()) {
      auto txn = graph.BeginTransaction();
      if (txn.AddEdge(hub, 0, txn.AddVertex()) == Status::kOk &&
          txn.Commit() == Status::kOk) {
        added++;
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  graph.Checkpoint(dir_.string(), 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  writer.join();
  auto read = graph.BeginReadOnlyTransaction();
  EXPECT_EQ(read.CountEdges(hub, 0), static_cast<size_t>(added.load()));
}

}  // namespace
}  // namespace livegraph
