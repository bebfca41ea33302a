// TEL layout and block-level behaviour (paper §3, Figure 3).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/blocks.h"
#include "core/graph.h"
#include "core/transaction.h"
#include "util/metrics.h"

namespace livegraph {
namespace {

TEST(TelLayout, EntryAndHeaderSizes) {
  // 32-byte header + one 32-byte entry fit the minimal 64-byte block: a
  // fresh vertex's adjacency list occupies one cache line (§3).
  EXPECT_EQ(sizeof(TelHeader), 32u);
  EXPECT_EQ(sizeof(EdgeEntry), 32u);
  TelGeometry g = TelGeometry::For(6, /*enable_bloom=*/true);
  EXPECT_EQ(g.block_size, 64u);
  EXPECT_EQ(g.bloom_bytes, 0u);  // too small for a blocked filter
  EXPECT_EQ(g.prop_start, 32u);
}

TEST(TelLayout, BloomSizedAtOneSixteenth) {
  // Blocks >= 1 KiB embed a filter of block/16 bytes (§4).
  TelGeometry g10 = TelGeometry::For(10, true);
  EXPECT_EQ(g10.bloom_bytes, 64u);
  TelGeometry g16 = TelGeometry::For(16, true);
  EXPECT_EQ(g16.bloom_bytes, 4096u);
  TelGeometry g16_off = TelGeometry::For(16, false);
  EXPECT_EQ(g16_off.bloom_bytes, 0u);
}

TEST(TelLayout, EntriesGrowBackwardsFromBlockEnd) {
  alignas(64) uint8_t buffer[256] = {};
  TelBlock block(buffer, 8, false);
  EdgeEntry* oldest = block.Entry(0);
  EdgeEntry* newer = block.Entry(1);
  EXPECT_EQ(reinterpret_cast<uint8_t*>(oldest) + sizeof(EdgeEntry),
            buffer + 256);
  EXPECT_LT(reinterpret_cast<uint8_t*>(newer),
            reinterpret_cast<uint8_t*>(oldest));
}

TEST(TelLayout, FitsAccountsForBothRegions) {
  TelBlock block(nullptr, 6, true);  // 64 B: header 32 + one entry 32
  EXPECT_TRUE(block.Fits(1, 0));
  EXPECT_FALSE(block.Fits(1, 1));  // any property overflows
  EXPECT_FALSE(block.Fits(2, 0));
}

TEST(TelVisibility, DoubleTimestampRules) {
  EdgeEntry entry;
  entry.dst = 7;
  entry.creation_ts.store(5);
  entry.invalidation_ts.store(kNullTimestamp);
  // Committed live entry: visible iff TRE >= creation.
  EXPECT_FALSE(entry.VisibleTo(4, 0));
  EXPECT_TRUE(entry.VisibleTo(5, 0));
  EXPECT_TRUE(entry.VisibleTo(100, 0));

  // Committed invalidation at 10: visible in [5, 10).
  entry.invalidation_ts.store(10);
  EXPECT_TRUE(entry.VisibleTo(9, 0));
  EXPECT_FALSE(entry.VisibleTo(10, 0));

  // Pending invalidation (-TID of another transaction) does not hide the
  // entry from readers (Figure 4a, R3).
  entry.invalidation_ts.store(-42);
  EXPECT_TRUE(entry.VisibleTo(9, 0));
  EXPECT_TRUE(entry.VisibleTo(100, 7));
  // ...but hides it from the invalidating transaction itself.
  EXPECT_FALSE(entry.VisibleTo(100, 42));

  // Uncommitted entry (-TID creation) visible only to its own transaction.
  entry.creation_ts.store(-42);
  entry.invalidation_ts.store(kNullTimestamp);
  EXPECT_FALSE(entry.VisibleTo(100, 0));
  EXPECT_FALSE(entry.VisibleTo(100, 7));
  EXPECT_TRUE(entry.VisibleTo(0, 42));
  // Own entry already self-invalidated: invisible even to the owner.
  entry.invalidation_ts.store(-42);
  EXPECT_FALSE(entry.VisibleTo(0, 42));
}

TEST(TelUpgrade, PreservesHistoryAcrossResizes) {
  GraphOptions options;
  options.region_reserve = size_t{1} << 30;
  options.max_vertices = 1 << 16;
  options.enable_compaction = false;
  Graph graph(options);

  vertex_t hub;
  {
    auto txn = graph.BeginTransaction();
    hub = txn.AddVertex();
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  // Insert in many small transactions, snapshotting along the way; each
  // snapshot must keep seeing its own prefix even as the TEL is upgraded
  // through several block sizes.
  std::vector<std::pair<ReadTransaction, size_t>> snapshots;
  for (int i = 0; i < 300; ++i) {
    {
      auto txn = graph.BeginTransaction();
      vertex_t d = txn.AddVertex();
      ASSERT_EQ(txn.AddEdge(hub, 0, d, "payload-bytes"), Status::kOk);
      ASSERT_EQ(txn.Commit(), Status::kOk);
    }
    if (i % 50 == 0) {
      auto snapshot = graph.BeginReadOnlyTransaction();
      size_t count = snapshot.CountEdges(hub, 0);
      snapshots.emplace_back(std::move(snapshot), count);
    }
  }
  for (auto& [snapshot, expected] : snapshots) {
    EXPECT_EQ(snapshot.CountEdges(hub, 0), expected)
        << "snapshot drifted after TEL upgrades";
  }
  auto fresh = graph.BeginReadOnlyTransaction();
  EXPECT_EQ(fresh.CountEdges(hub, 0), 300u);
}

TEST(TelUpgrade, AbortAfterUpgradeRestoresOriginalBlock) {
  GraphOptions options;
  options.region_reserve = size_t{1} << 30;
  options.max_vertices = 1 << 16;
  options.enable_compaction = false;
  Graph graph(options);

  vertex_t hub, first;
  {
    auto txn = graph.BeginTransaction();
    hub = txn.AddVertex();
    first = txn.AddVertex();
    ASSERT_EQ(txn.AddEdge(hub, 0, first, "committed"), Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  {
    // Force several upgrades, then abort.
    auto txn = graph.BeginTransaction();
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(txn.AddEdge(hub, 0, txn.AddVertex(), "bulk-payload"),
                Status::kOk);
    }
    ASSERT_EQ(txn.DeleteEdge(hub, 0, first), Status::kOk);
    txn.Abort();
  }
  auto read = graph.BeginReadOnlyTransaction();
  EXPECT_EQ(read.CountEdges(hub, 0), 1u);
  EXPECT_EQ(read.GetEdge(hub, 0, first).value(), "committed");
}

// --- Writer-side compaction: filtered TEL upgrades ---
//
// With compaction enabled, an upgrade drops committed entries invalidated
// at or before the safe epoch. The interval keeps the background pass from
// ever running, so every drop below is the writer's.

uint64_t UpgradeDroppedEntries() {
  return metrics::Registry::Instance()
      .GetCounter("livegraph_tel_upgrade_dropped_entries_total")
      .Value();
}

size_t SpanEntries(const EdgeIterator& it) {
  return it.ScanSpan().second / sizeof(EdgeEntry);
}

/// dst -> payload, in scan order, as one snapshot sees the list.
std::vector<std::pair<vertex_t, std::string>> ListView(
    const ReadTransaction& txn, vertex_t v) {
  std::vector<std::pair<vertex_t, std::string>> view;
  for (auto it = txn.GetEdges(v, 0); it.Valid(); it.Next()) {
    view.emplace_back(it.DstId(), std::string(it.Properties()));
  }
  return view;
}

class TelFilteredUpgradeTest : public ::testing::Test {
 protected:
  static constexpr int kDestinations = 6;

  static GraphOptions Options() {
    GraphOptions options;
    options.region_reserve = size_t{1} << 30;
    options.max_vertices = 1 << 16;
    options.enable_compaction = true;
    options.compaction_interval = uint64_t{1} << 40;  // no background pass
    return options;
  }

  TelFilteredUpgradeTest() : graph_(Options()) {}

  // A hub with kDestinations edges, each updated `rounds` times in its own
  // transaction: the log carries dead versions, the newest of them not yet
  // dropped by any upgrade.
  void SetUp() override {
    auto txn = graph_.BeginTransaction();
    hub_ = txn.AddVertex();
    for (int i = 0; i < kDestinations; ++i) {
      dsts_.push_back(txn.AddVertex());
      ASSERT_EQ(txn.AddEdge(hub_, 0, dsts_.back(), "v0"), Status::kOk);
    }
    ASSERT_EQ(txn.Commit(), Status::kOk);
    for (int round = 1; round <= 3; ++round) {
      for (vertex_t d : dsts_) Update(d, "v" + std::to_string(round));
    }
  }

  void Update(vertex_t dst, const std::string& payload) {
    auto txn = graph_.BeginTransaction();
    ASSERT_EQ(txn.AddEdge(hub_, 0, dst, payload), Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }

  // In `txn`, updates dsts_[2..] round-robin until an upgrade drops dead
  // entries; true when one did within a bounded number of writes.
  bool UpdateUntilFilteredUpgrade(Transaction* txn) {
    const uint64_t before = UpgradeDroppedEntries();
    for (int i = 0; i < 256; ++i) {
      vertex_t dst = dsts_[2 + static_cast<size_t>(i) % (kDestinations - 2)];
      if (txn->AddEdge(hub_, 0, dst, "fill" + std::to_string(i)) !=
          Status::kOk) {
        return false;
      }
      if (UpgradeDroppedEntries() > before) return true;
    }
    return false;
  }

  Graph graph_;
  vertex_t hub_ = kNullVertex;
  std::vector<vertex_t> dsts_;
};

TEST_F(TelFilteredUpgradeTest, PinnedReaderKeepsItsViewAcrossADroppingUpgrade) {
  auto pinned = graph_.BeginReadOnlyTransaction();
  const auto pinned_view = ListView(pinned, hub_);
  ASSERT_EQ(pinned_view.size(), static_cast<size_t>(kDestinations));

  // One update per transaction until an upgrade drops entries; the span
  // just before that write is the log the upgrade started from.
  const uint64_t dropped_before = UpgradeDroppedEntries();
  size_t span_before_upgrade = 0;
  std::map<vertex_t, std::string> live;
  for (vertex_t d : dsts_) live[d] = "v3";
  for (int i = 0; i < 256 && UpgradeDroppedEntries() == dropped_before; ++i) {
    span_before_upgrade =
        SpanEntries(graph_.BeginReadOnlyTransaction().GetEdges(hub_, 0));
    vertex_t dst = dsts_[static_cast<size_t>(i) % kDestinations];
    live[dst] = "u" + std::to_string(i);
    Update(dst, live[dst]);
  }
  ASSERT_GT(UpgradeDroppedEntries(), dropped_before)
      << "no upgrade dropped dead entries";

  // The pinned snapshot reads the upgraded block now, and sees exactly
  // what it saw before: same edges, same payloads, same order.
  EXPECT_EQ(ListView(pinned, hub_), pinned_view);

  auto fresh = graph_.BeginReadOnlyTransaction();
  std::map<vertex_t, std::string> seen;
  for (const auto& [dst, payload] : ListView(fresh, hub_)) {
    EXPECT_TRUE(seen.emplace(dst, payload).second) << "dst " << dst << " twice";
  }
  EXPECT_EQ(seen, live);
  EXPECT_LT(SpanEntries(fresh.GetEdges(hub_, 0)), span_before_upgrade);
}

TEST_F(TelFilteredUpgradeTest, AbortAcrossADroppingUpgradeRestoresBoth) {
  const vertex_t a = dsts_[0];
  const vertex_t b = dsts_[1];
  auto before = graph_.BeginReadOnlyTransaction();
  const auto view_before = ListView(before, hub_);
  const auto span_before = before.GetEdges(hub_, 0).ScanSpan();
  {
    auto txn = graph_.BeginTransaction();
    ASSERT_EQ(txn.AddEdge(hub_, 0, a, "new-a"), Status::kOk);
    ASSERT_TRUE(UpdateUntilFilteredUpgrade(&txn));
    ASSERT_EQ(txn.AddEdge(hub_, 0, b, "new-b"), Status::kOk);
    EXPECT_EQ(txn.GetEdge(hub_, 0, a).value(), "new-a");
    EXPECT_EQ(txn.GetEdge(hub_, 0, b).value(), "new-b");
    txn.Abort();
  }
  auto after = graph_.BeginReadOnlyTransaction();
  EXPECT_EQ(after.GetEdge(hub_, 0, a).value(), "v3");
  EXPECT_EQ(after.GetEdge(hub_, 0, b).value(), "v3");
  EXPECT_EQ(ListView(after, hub_), view_before);
  // Same block, same committed log: the original is back in the slot.
  EXPECT_EQ(after.GetEdges(hub_, 0).ScanSpan(), span_before);
}

TEST_F(TelFilteredUpgradeTest, CommitAcrossADroppingUpgradeAppliesBoth) {
  const vertex_t a = dsts_[0];
  const vertex_t b = dsts_[1];
  {
    auto txn = graph_.BeginTransaction();
    ASSERT_EQ(txn.AddEdge(hub_, 0, a, "new-a"), Status::kOk);
    ASSERT_TRUE(UpdateUntilFilteredUpgrade(&txn));
    ASSERT_EQ(txn.AddEdge(hub_, 0, b, "new-b"), Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  auto read = graph_.BeginReadOnlyTransaction();
  EXPECT_EQ(read.GetEdge(hub_, 0, a).value(), "new-a");
  EXPECT_EQ(read.GetEdge(hub_, 0, b).value(), "new-b");
  std::map<vertex_t, int> per_dst;
  for (const auto& entry : ListView(read, hub_)) per_dst[entry.first]++;
  ASSERT_EQ(per_dst.size(), static_cast<size_t>(kDestinations));
  for (const auto& [dst, n] : per_dst) {
    EXPECT_EQ(n, 1) << "dst " << dst;
  }
  EXPECT_EQ(read.CountEdges(hub_, 0), static_cast<size_t>(kDestinations));
}

// Property sweep: random interleavings of inserts/updates/deletes against a
// reference map, across block-size-forcing payload sizes.
struct TelSweepParam {
  int operations;
  size_t payload;
  bool bloom;
  // Writer-side compaction: upgrades drop dead entries (no background pass).
  bool compaction = false;
};

class TelSweepTest : public ::testing::TestWithParam<TelSweepParam> {};

TEST_P(TelSweepTest, MatchesReferenceAdjacencySet) {
  const TelSweepParam param = GetParam();
  GraphOptions options;
  options.region_reserve = size_t{1} << 30;
  options.max_vertices = 1 << 16;
  options.enable_compaction = param.compaction;
  options.compaction_interval = uint64_t{1} << 40;
  options.enable_bloom_filters = param.bloom;
  Graph graph(options);

  vertex_t src;
  {
    auto txn = graph.BeginTransaction();
    src = txn.AddVertex();
    for (int i = 0; i < 64; ++i) txn.AddVertex();
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  std::map<vertex_t, std::string> reference;
  uint64_t state = 88172645463325252ull ^ param.operations ^ param.payload;
  auto next_random = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < param.operations; ++i) {
    vertex_t dst = 1 + static_cast<vertex_t>(next_random() % 64);
    auto txn = graph.BeginTransaction();
    if (next_random() % 4 == 0 && !reference.empty()) {
      Status st = txn.DeleteEdge(src, 0, dst);
      if (reference.count(dst) > 0) {
        EXPECT_EQ(st, Status::kOk);
        reference.erase(dst);
      } else {
        EXPECT_EQ(st, Status::kNotFound);
      }
    } else {
      std::string payload(param.payload, static_cast<char>('a' + i % 26));
      ASSERT_EQ(txn.AddEdge(src, 0, dst, payload), Status::kOk);
      reference[dst] = payload;
    }
    ASSERT_EQ(txn.Commit(), Status::kOk);
  }
  auto read = graph.BeginReadOnlyTransaction();
  EXPECT_EQ(read.CountEdges(src, 0), reference.size());
  for (const auto& [dst, payload] : reference) {
    auto props = read.GetEdge(src, 0, dst);
    ASSERT_TRUE(props.has_value()) << "missing dst " << dst;
    EXPECT_EQ(*props, payload);
  }
  // And nothing extra.
  for (auto it = read.GetEdges(src, 0); it.Valid(); it.Next()) {
    EXPECT_EQ(reference.count(it.DstId()), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TelSweepTest,
    ::testing::Values(TelSweepParam{50, 0, true}, TelSweepParam{50, 0, false},
                      TelSweepParam{300, 8, true},
                      TelSweepParam{300, 100, true},
                      TelSweepParam{300, 100, false},
                      TelSweepParam{1000, 24, true},
                      TelSweepParam{2000, 3, true},
                      TelSweepParam{1000, 24, true, true},
                      TelSweepParam{1000, 100, false, true}));

}  // namespace
}  // namespace livegraph
