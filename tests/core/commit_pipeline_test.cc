// Stress tests for the pipelined group-commit path: GRE monotonicity,
// all-or-nothing group visibility under concurrent snapshots, total epoch
// order across writers, WAL durability of overlapped groups, leader
// hand-off with and without fsync, and the graceful max_vertices capacity
// failure.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/livegraph_store.h"
#include "core/epoch_domain.h"
#include "core/graph.h"
#include "core/transaction.h"
#include "shard/sharded_store.h"
#include "storage/wal_reader.h"
#include "util/metrics.h"

namespace livegraph {
namespace {

GraphOptions StressOptions() {
  GraphOptions options;
  options.region_reserve = size_t{1} << 31;
  options.max_vertices = 1 << 20;
  options.enable_compaction = false;
  return options;
}

std::string TempWalPath(const char* tag) {
  return "/tmp/livegraph_commit_pipeline_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".wal";
}

/// Opens (recovers) a one-shard durable directory whose shard 0 runs
/// `options`: the restart path of every durable engine.
std::unique_ptr<ShardedStore> OpenDir(const GraphOptions& options,
                                      const std::string& dir) {
  ShardOptions sharded;
  sharded.shards = 1;
  sharded.dir = dir;
  sharded.graph = options;
  return ShardedStore::Recover(sharded);
}

// N writers commit continuously while readers assert that the global read
// epoch never moves backwards and that every commit epoch a writer gets
// back is already visible when Commit() returns.
TEST(CommitPipeline, GreAdvancesMonotonicallyUnderLoad) {
  GraphOptions options = StressOptions();
  options.wal_path = TempWalPath("gre");
  options.fsync_wal = false;
  constexpr int kWriters = 8;
  constexpr int kTxnsPerWriter = 300;
  {
    Graph graph(options);
    std::vector<vertex_t> bases(kWriters);
    {
      auto txn = graph.BeginTransaction();
      for (auto& b : bases) b = txn.AddVertex("base");
      ASSERT_EQ(txn.Commit(), Status::kOk);
    }

    std::atomic<bool> stop{false};
    std::atomic<bool> violation{false};
    std::thread monitor([&] {
      timestamp_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        timestamp_t now = graph.ReadEpoch();
        if (now < last) violation.store(true, std::memory_order_release);
        last = now;
        std::this_thread::yield();
      }
    });

    std::vector<std::vector<timestamp_t>> epochs(kWriters);
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kTxnsPerWriter; ++i) {
          auto txn = graph.BeginTransaction();
          ASSERT_EQ(txn.AddEdge(bases[static_cast<size_t>(w)], 0,
                                1000 + i, "e"),
                    Status::kOk);
          StatusOr<timestamp_t> committed = txn.Commit();
          ASSERT_EQ(committed, Status::kOk);
          // Commit() must not return before its whole group is visible.
          EXPECT_GE(graph.ReadEpoch(), *committed);
          epochs[static_cast<size_t>(w)].push_back(*committed);
        }
      });
    }
    for (auto& t : writers) t.join();
    stop.store(true, std::memory_order_release);
    monitor.join();
    EXPECT_FALSE(violation.load());

    // Per-writer commit epochs are non-decreasing (each transaction began
    // after the previous one's group was visible), and the final GRE
    // covers the maximum epoch handed out.
    timestamp_t max_epoch = 0;
    for (const auto& per_writer : epochs) {
      for (size_t i = 1; i < per_writer.size(); ++i) {
        EXPECT_GT(per_writer[i], per_writer[i - 1]);
      }
      if (!per_writer.empty()) {
        max_epoch = std::max(max_epoch, per_writer.back());
      }
    }
    EXPECT_EQ(graph.ReadEpoch(), max_epoch);
  }
  std::remove(options.wal_path.c_str());
}

// Every transaction writes the same value to TWO vertices; snapshot
// readers must never observe the pair out of sync (a half-visible commit
// group) no matter how the pipeline overlaps persist and apply phases.
TEST(CommitPipeline, SnapshotsNeverSeePartialCommitGroup) {
  GraphOptions options = StressOptions();
  options.wal_path = TempWalPath("atomic");
  options.fsync_wal = false;
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kTxnsPerWriter = 250;
  {
    Graph graph(options);
    std::vector<std::pair<vertex_t, vertex_t>> pairs(kWriters);
    {
      auto txn = graph.BeginTransaction();
      for (auto& [a, b] : pairs) {
        a = txn.AddVertex("0");
        b = txn.AddVertex("0");
      }
      ASSERT_EQ(txn.Commit(), Status::kOk);
    }

    std::atomic<bool> stop{false};
    std::atomic<int> torn_reads{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          auto read = graph.BeginReadOnlyTransaction();
          for (const auto& [a, b] : pairs) {
            StatusOr<std::string_view> va = read.GetVertex(a);
            StatusOr<std::string_view> vb = read.GetVertex(b);
            ASSERT_TRUE(va.ok());
            ASSERT_TRUE(vb.ok());
            if (*va != *vb) torn_reads.fetch_add(1);
          }
        }
      });
    }

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 1; i <= kTxnsPerWriter; ++i) {
          auto txn = graph.BeginTransaction();
          std::string value = std::to_string(i);
          ASSERT_EQ(txn.PutVertex(pairs[static_cast<size_t>(w)].first, value),
                    Status::kOk);
          ASSERT_EQ(txn.PutVertex(pairs[static_cast<size_t>(w)].second, value),
                    Status::kOk);
          ASSERT_EQ(txn.Commit(), Status::kOk);
        }
      });
    }
    for (auto& t : writers) t.join();
    stop.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();
    EXPECT_EQ(torn_reads.load(), 0);

    auto read = graph.BeginReadOnlyTransaction();
    for (const auto& [a, b] : pairs) {
      EXPECT_EQ(*read.GetVertex(a), std::to_string(kTxnsPerWriter));
      EXPECT_EQ(*read.GetVertex(b), std::to_string(kTxnsPerWriter));
    }
  }
  std::remove(options.wal_path.c_str());
}

// Commit epochs form one total order: collecting every epoch from every
// writer and sorting must yield a dense range (each group advances GWE by
// exactly one and GRE follows in the same order).
TEST(CommitPipeline, CommitEpochsAreTotalisedInOrder) {
  GraphOptions options = StressOptions();
  constexpr int kWriters = 6;
  constexpr int kTxnsPerWriter = 200;
  Graph graph(options);
  std::vector<vertex_t> bases(kWriters);
  {
    auto txn = graph.BeginTransaction();
    for (auto& b : bases) b = txn.AddVertex();
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  std::vector<std::vector<timestamp_t>> epochs(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kTxnsPerWriter; ++i) {
        auto txn = graph.BeginTransaction();
        ASSERT_EQ(
            txn.AddEdge(bases[static_cast<size_t>(w)], 0, 5000 + i, {}),
            Status::kOk);
        StatusOr<timestamp_t> committed = txn.Commit();
        ASSERT_EQ(committed, Status::kOk);
        epochs[static_cast<size_t>(w)].push_back(*committed);
      }
    });
  }
  for (auto& t : writers) t.join();

  std::vector<timestamp_t> all;
  for (const auto& per_writer : epochs) {
    all.insert(all.end(), per_writer.begin(), per_writer.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_FALSE(all.empty());
  // Dense: every epoch between the first group's and the last group's was
  // produced by some group (groups may hold many transactions, so
  // duplicates are expected — gaps are not).
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i] - all[i - 1], 1) << "gap in commit epoch sequence";
  }
  EXPECT_EQ(graph.ReadEpoch(), all.back());
}

// Concurrent committers' WAL batches (gathered with writev from pooled
// per-worker buffers) must replay to the same graph after a restart.
TEST(CommitPipeline, OverlappedGroupsRecoverFromWal) {
  GraphOptions options = StressOptions();
  options.fsync_wal = false;
  const std::string dir = TempWalPath("recover");
  std::filesystem::remove_all(dir);
  constexpr int kWriters = 6;
  constexpr int kTxnsPerWriter = 120;
  std::vector<vertex_t> bases(kWriters);
  {
    auto store = OpenDir(options, dir);
    ASSERT_NE(store, nullptr);
    Graph& graph = store->shard(0);
    {
      auto txn = graph.BeginTransaction();
      for (auto& b : bases) b = txn.AddVertex("hub");
      ASSERT_EQ(txn.Commit(), Status::kOk);
    }
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kTxnsPerWriter; ++i) {
          auto txn = graph.BeginTransaction();
          std::string props = "w" + std::to_string(w) + "#" +
                              std::to_string(i);
          ASSERT_EQ(txn.AddEdge(bases[static_cast<size_t>(w)], 0,
                                10000 + i, props),
                    Status::kOk);
          ASSERT_EQ(txn.Commit(), Status::kOk);
        }
      });
    }
    for (auto& t : writers) t.join();
  }

  auto recovered = OpenDir(options, dir);
  ASSERT_NE(recovered, nullptr);
  auto read = recovered->shard(0).BeginReadOnlyTransaction();
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(read.CountEdges(bases[static_cast<size_t>(w)], 0),
              static_cast<size_t>(kTxnsPerWriter));
    StatusOr<std::string_view> props = read.GetEdge(
        bases[static_cast<size_t>(w)], 0, 10000 + kTxnsPerWriter - 1);
    ASSERT_TRUE(props.ok());
    EXPECT_EQ(*props, "w" + std::to_string(w) + "#" +
                          std::to_string(kTxnsPerWriter - 1));
  }
  std::filesystem::remove_all(dir);
}

// Leader-based group commit under every hand-off pattern: with
// group_commit_max_batch = 1 each group holds one request, so leadership
// changes hands on every commit and most committers find their request
// behind someone else's; with the default, groups form from whoever
// queued while the previous leader wrote. Each runs with fsync off and on.
struct HandoffCase {
  const char* name;
  size_t max_batch;
  bool fsync;
};

class LeaderHandoff : public ::testing::TestWithParam<HandoffCase> {};

TEST_P(LeaderHandoff, EveryCommitIsDurableOrderedAndReplayed) {
  const HandoffCase& param = GetParam();
  GraphOptions options = StressOptions();
  options.fsync_wal = param.fsync;
  options.group_commit_max_batch = param.max_batch;
  const std::string dir = TempWalPath(param.name);
  constexpr int kWriters = 8;
  const int per_writer = param.fsync ? 100 : 500;
  std::filesystem::remove_all(dir);
  metrics::Counter& groups = metrics::Registry::Instance().GetCounter(
      "livegraph_commit_groups_total");

  std::vector<vertex_t> bases(kWriters);
  std::vector<timestamp_t> committed;  // every epoch Commit() returned
  timestamp_t last_epoch = 0;
  std::string wal_path;
  {
    auto store = OpenDir(options, dir);
    ASSERT_NE(store, nullptr);
    Graph& graph = store->shard(0);
    wal_path = store->wal_path(0);
    {
      auto txn = graph.BeginTransaction();
      for (auto& b : bases) b = txn.AddVertex("hub");
      StatusOr<timestamp_t> epoch = txn.Commit();
      ASSERT_EQ(epoch, Status::kOk);
      committed.push_back(*epoch);
    }
    const uint64_t groups_before = groups.Value();
    std::atomic<int> slow_commits{0};
    std::vector<std::vector<timestamp_t>> epochs(kWriters);
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < per_writer; ++i) {
          auto txn = graph.BeginTransaction();
          ASSERT_EQ(txn.AddEdge(bases[static_cast<size_t>(w)], 0, 20000 + i,
                                "w" + std::to_string(w) + "#" +
                                    std::to_string(i)),
                    Status::kOk);
          const auto start = std::chrono::steady_clock::now();
          StatusOr<timestamp_t> epoch = txn.Commit();
          if (std::chrono::steady_clock::now() - start >=
              std::chrono::milliseconds(50)) {
            slow_commits.fetch_add(1, std::memory_order_relaxed);
          }
          ASSERT_EQ(epoch, Status::kOk);
          epochs[static_cast<size_t>(w)].push_back(*epoch);
        }
      });
    }
    for (auto& t : writers) t.join();
    const uint64_t group_count = groups.Value() - groups_before;
    // A wait that FutexWait's 50 ms safety net ends is a lost wake. A
    // group takes µs without fsync and well under a millisecond with it, so
    // only a rare descheduled thread or disk stall may take that long;
    // a lost wake in the follower's sleep makes most commits that slow.
    EXPECT_LT(slow_commits.load(), kWriters * per_writer / 10);

    for (const auto& per_thread : epochs) {
      ASSERT_EQ(per_thread.size(), static_cast<size_t>(per_writer));
      // Each transaction began after the previous one was visible, so its
      // group came strictly later.
      for (size_t i = 1; i < per_thread.size(); ++i) {
        EXPECT_GT(per_thread[i], per_thread[i - 1]);
      }
      committed.insert(committed.end(), per_thread.begin(), per_thread.end());
      last_epoch = std::max(last_epoch, per_thread.back());
    }
    // Nothing in flight: the frontier sits exactly at the last epoch any
    // leader issued.
    EXPECT_EQ(graph.epoch_domain()->issued(), last_epoch);
    EXPECT_EQ(graph.ReadEpoch(), last_epoch);
    const uint64_t commits = static_cast<uint64_t>(kWriters) * per_writer;
    if (param.max_batch == 1) {
      EXPECT_EQ(group_count, commits);
    } else {
      EXPECT_GE(group_count, 1u);
      EXPECT_LE(group_count, commits);
    }
  }

  // The log holds exactly the committed records, one per commit, stamped
  // with the epochs the committers got back.
  std::vector<timestamp_t> logged;
  {
    WalReader reader(wal_path);
    timestamp_t epoch = 0;
    std::string payload;
    while (reader.Next(&epoch, &payload)) logged.push_back(epoch);
    EXPECT_EQ(reader.valid_bytes(), reader.file_bytes());
  }
  std::sort(logged.begin(), logged.end());
  std::sort(committed.begin(), committed.end());
  EXPECT_EQ(logged, committed);

  // Recovery replays every one of them.
  auto recovered = OpenDir(options, dir);
  ASSERT_NE(recovered, nullptr);
  auto read = recovered->shard(0).BeginReadOnlyTransaction();
  for (int w = 0; w < kWriters; ++w) {
    const vertex_t base = bases[static_cast<size_t>(w)];
    EXPECT_EQ(read.CountEdges(base, 0), static_cast<size_t>(per_writer));
    for (int i = 0; i < per_writer; ++i) {
      StatusOr<std::string_view> props = read.GetEdge(base, 0, 20000 + i);
      ASSERT_TRUE(props.ok()) << "writer " << w << " commit " << i;
      EXPECT_EQ(*props, "w" + std::to_string(w) + "#" + std::to_string(i));
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    CommitPipeline, LeaderHandoff,
    ::testing::Values(
        HandoffCase{"OnePerGroup", 1, false},
        HandoffCase{"OnePerGroupFsync", 1, true},
        HandoffCase{"DefaultBatch", GraphOptions{}.group_commit_max_batch,
                    false},
        HandoffCase{"DefaultBatchFsync", GraphOptions{}.group_commit_max_batch,
                    true}),
    [](const ::testing::TestParamInfo<HandoffCase>& info) {
      return std::string(info.param.name);
    });

// Exhausting max_vertices fails the operation, not the process, and the
// transaction stays usable; the v2 Store surface reports kOutOfRange.
TEST(CommitPipeline, AddVertexPastCapacityFailsGracefully) {
  GraphOptions options = StressOptions();
  options.max_vertices = 4;
  {
    Graph graph(options);
    auto txn = graph.BeginTransaction();
    for (int i = 0; i < 4; ++i) {
      EXPECT_NE(txn.AddVertex("v"), kNullVertex);
    }
    EXPECT_EQ(txn.AddVertex("overflow"), kNullVertex);
    EXPECT_TRUE(txn.active());  // capacity is not a conflict
    ASSERT_EQ(txn.Commit(), Status::kOk);
    auto read = graph.BeginReadOnlyTransaction();
    EXPECT_EQ(read.VertexCount(), 4);
  }

  LiveGraphStore store(options);
  auto txn = store.BeginTxn();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(txn->AddNode("n").ok());
  }
  StatusOr<vertex_t> overflow = txn->AddNode("overflow");
  EXPECT_EQ(overflow.status(), Status::kOutOfRange);
  // The session survives the capacity failure.
  EXPECT_EQ(txn->UpdateNode(0, "updated"), Status::kOk);
  EXPECT_EQ(txn->Commit(), Status::kOk);
}

}  // namespace
}  // namespace livegraph
