// Race-detection stress shaped for ThreadSanitizer (docs/TESTING.md).
//
// These are reduced-repetition versions of the commit-pipeline and
// sharded-store stress tests: iteration counts are sized so the whole
// binary stays fast under TSan's ~5-15x slowdown while still driving every
// cross-thread edge the annotations in util/sync_annotations.h document —
// futex lock hand-off, commit-ring slot recycling, epoch publish/observe,
// compaction against live writers, and the multi-shard coordinator path.
// The binary also runs (quickly) in normal builds, where it doubles as a
// smoke test for the same interleavings.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/graph.h"
#include "core/transaction.h"
#include "shard/sharded_store.h"
#include "util/metrics.h"

namespace livegraph {
namespace {

// Under TSan everything is instrumented and slow; keep wall-clock bounded.
#if defined(__SANITIZE_THREAD__)
constexpr int kTxnsPerWriter = 60;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kTxnsPerWriter = 60;
#else
constexpr int kTxnsPerWriter = 200;
#endif
#else
constexpr int kTxnsPerWriter = 200;
#endif

// Writers hammer a SMALL shared vertex set (maximum futex-lock contention
// and TEL reuse) while snapshot readers scan concurrently and compaction
// runs at an aggressive interval, so lock hand-off, epoch publication, and
// block retire/reclaim all interleave with live traffic. Afterwards each
// list must hold exactly the edges the committed transactions left.
TEST(TsanStress, CommitPipelineWithCompactionAndReaders) {
  GraphOptions options;
  options.region_reserve = size_t{1} << 30;
  options.max_vertices = 1 << 16;
  options.enable_compaction = true;
  options.compaction_interval = 32;  // many passes during the run
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kSharedVertices = 4;

  Graph graph(options);
  std::vector<vertex_t> hubs(kSharedVertices);
  {
    auto txn = graph.BeginTransaction();
    for (auto& h : hubs) h = txn.AddVertex("0");
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto read = graph.BeginReadOnlyTransaction();
        for (vertex_t h : hubs) {
          StatusOr<std::string_view> props = read.GetVertex(h);
          ASSERT_TRUE(props.ok());
          // Walk the adjacency list to race scans against writers and
          // compaction rewrites; every admitted entry must be coherent.
          size_t n = 0;
          for (auto it = read.GetEdges(h, 0); it.Valid(); it.Next()) {
            ASSERT_GE(it.DstId(), 1000);
            n++;
          }
          ASSERT_EQ(n, read.CountEdges(h, 0));
        }
      }
    });
  }

  // left[w][h]: the edges on hub h that writer w's committed
  // transactions added and did not delete.
  std::vector<std::vector<std::set<vertex_t>>> left(
      kWriters, std::vector<std::set<vertex_t>>(kSharedVertices));
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 1; i <= kTxnsPerWriter; ++i) {
        const auto h = static_cast<size_t>((w + i) % kSharedVertices);
        const vertex_t dst = 1000 + w * kTxnsPerWriter + i;
        // The edge this writer added kSharedVertices transactions ago,
        // on the same hub.
        const vertex_t old_dst = dst - kSharedVertices;
        // Writers share hubs, so vertex-lock conflicts (the paper's
        // timeout-and-rollback, §5) are expected — abort and retry; the
        // interleaving, not the success rate, is what this test drives.
        while (true) {
          auto txn = graph.BeginTransaction();
          // Churn: add one edge, delete an older one, rewrite the vertex
          // — feeds compaction dead entries and version chains.
          Status st = txn.AddEdge(hubs[h], 0, dst, "e");
          if (st == Status::kOk && i > kSharedVertices) {
            Status deleted = txn.DeleteEdge(hubs[h], 0, old_dst);
            if (!txn.active()) {
              st = Status::kConflict;
            } else {
              EXPECT_EQ(deleted, Status::kOk) << "edge " << old_dst;
            }
          }
          if (st == Status::kOk) {
            st = txn.PutVertex(hubs[h], std::to_string(i));
          }
          if (st != Status::kOk) {
            if (txn.active()) txn.Abort();
            continue;
          }
          StatusOr<timestamp_t> committed = txn.Commit();
          if (!committed.ok()) continue;  // commit-time conflict
          EXPECT_GE(graph.ReadEpoch(), *committed);
          left[static_cast<size_t>(w)][h].insert(dst);
          left[static_cast<size_t>(w)][h].erase(old_dst);
          break;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);

  // A pass that copied an entry whose -TID stamp was still being
  // converted would leave that edge invisible (or its delete undone)
  // forever; every list must hold exactly what the commits left.
  graph.RunCompactionPass();
  auto read = graph.BeginReadOnlyTransaction();
  for (size_t h = 0; h < hubs.size(); ++h) {
    std::set<vertex_t> expected;
    for (const auto& per_writer : left) {
      expected.insert(per_writer[h].begin(), per_writer[h].end());
    }
    std::set<vertex_t> actual;
    for (auto it = read.GetEdges(hubs[h], 0); it.Valid(); it.Next()) {
      EXPECT_TRUE(actual.insert(it.DstId()).second)
          << "hub " << h << " lists edge " << it.DstId() << " twice";
    }
    EXPECT_EQ(actual, expected) << "hub " << h;
  }
}

// Two writers upsert a fixed destination set on one hot list, so its TEL
// keeps filling with dead versions and the writers' upgrades keep dropping
// them, while two readers scan snapshots of it. Every snapshot must list
// each destination exactly once: an upgrade that dropped an entry some
// snapshot can see, or appended at a stale index, shows up as a missing or
// doubled destination.
TEST(TsanStress, WriterUpgradesDropDeadEntriesUnderReaders) {
  GraphOptions options;
  options.region_reserve = size_t{1} << 30;
  options.max_vertices = 1 << 16;
  options.enable_compaction = true;
  options.compaction_interval = uint64_t{1} << 40;  // writers compact alone
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr size_t kDestinations = 16;
  metrics::Counter& dropped = metrics::Registry::Instance().GetCounter(
      "livegraph_tel_upgrade_dropped_entries_total");
  const uint64_t dropped_before = dropped.Value();

  Graph graph(options);
  vertex_t hub;
  std::vector<vertex_t> dsts(kDestinations);
  {
    auto txn = graph.BeginTransaction();
    hub = txn.AddVertex();
    for (auto& d : dsts) {
      d = txn.AddVertex();
      ASSERT_EQ(txn.AddEdge(hub, 0, d, "0"), Status::kOk);
    }
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto read = graph.BeginReadOnlyTransaction();
        std::set<vertex_t> seen;
        for (auto it = read.GetEdges(hub, 0); it.Valid(); it.Next()) {
          ASSERT_TRUE(seen.insert(it.DstId()).second)
              << "edge " << it.DstId() << " listed twice";
          ASSERT_FALSE(it.Properties().empty());
        }
        ASSERT_EQ(seen.size(), kDestinations);
        ASSERT_EQ(read.CountEdges(hub, 0), kDestinations);
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // At least kTxnsPerWriter transactions, then on until some upgrade
      // has dropped dead entries: a reader descheduled mid-scan holds the
      // safe epoch back, and on a loaded machine that can outlast the
      // fixed-length run.
      for (int i = 1;
           i <= kTxnsPerWriter || (dropped.Value() == dropped_before &&
                                   i <= 50 * kTxnsPerWriter);
           ++i) {
        // Two upserts per transaction: an upgrade between them remaps the
        // first one's invalidation into the new block.
        const vertex_t first = dsts[static_cast<size_t>(w + i) % kDestinations];
        const vertex_t second =
            dsts[static_cast<size_t>(w + 3 * i + 1) % kDestinations];
        const std::string payload = std::to_string(w) + ":" + std::to_string(i);
        while (true) {
          auto txn = graph.BeginTransaction();
          if (txn.AddEdge(hub, 0, first, payload) != Status::kOk ||
              txn.AddEdge(hub, 0, second, payload) != Status::kOk) {
            if (txn.active()) txn.Abort();
            continue;  // lock timeout or CT conflict: rolled back, retry
          }
          if (txn.Commit().ok()) break;
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GT(dropped.Value(), dropped_before)
      << "no upgrade dropped dead entries";
  auto read = graph.BeginReadOnlyTransaction();
  std::set<vertex_t> seen;
  for (auto it = read.GetEdges(hub, 0); it.Valid(); it.Next()) {
    EXPECT_TRUE(seen.insert(it.DstId()).second) << "edge " << it.DstId();
  }
  EXPECT_EQ(seen, std::set<vertex_t>(dsts.begin(), dsts.end()));
}

// Multi-shard transactions write a value pair spanning two shards while
// readers assert both-or-neither visibility. This drives the coordinator
// path: one EpochDomain epoch acquired for several shards, CommitAt fan
// out, WaitVisible, and the up-front read-pin of write sessions.
TEST(TsanStress, ShardedMultiShardCommitAtomicity) {
  ShardOptions options;
  options.shards = 3;
  options.graph.region_reserve = size_t{1} << 29;
  options.graph.max_vertices = 1 << 15;
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;

  ShardedStore store(options);
  // One cross-shard pair per writer.
  std::vector<std::pair<vertex_t, vertex_t>> pairs(kWriters);
  for (auto& [a, b] : pairs) {
    a = store.AddNode("0");
    do {
      b = store.AddNode("0");
    } while (store.ShardOf(b) == store.ShardOf(a));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto read = store.BeginReadTxn();
        for (const auto& [a, b] : pairs) {
          StatusOr<std::string> va = read->GetNode(a);
          StatusOr<std::string> vb = read->GetNode(b);
          ASSERT_TRUE(va.ok());
          ASSERT_TRUE(vb.ok());
          if (*va != *vb) torn.fetch_add(1);
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 1; i <= kTxnsPerWriter; ++i) {
        auto txn = store.BeginTxn();
        std::string value = std::to_string(i);
        ASSERT_EQ(txn->UpdateNode(pairs[static_cast<size_t>(w)].first, value),
                  Status::kOk);
        ASSERT_EQ(txn->UpdateNode(pairs[static_cast<size_t>(w)].second, value),
                  Status::kOk);
        ASSERT_TRUE(txn->Commit().ok());
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);

  auto read = store.BeginReadTxn();
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(*read->GetNode(a), std::to_string(kTxnsPerWriter));
    EXPECT_EQ(*read->GetNode(b), std::to_string(kTxnsPerWriter));
  }
}

}  // namespace
}  // namespace livegraph
