// Crash-recovery fuzzing: truncate the WAL at arbitrary byte offsets
// (simulating a crash mid-write) and verify that recovery restores exactly
// the prefix of whole committed transactions that survives — never a
// partial transaction, never a corrupted state. Each cut log is the WAL of
// a one-shard durable directory, recovered by ShardedStore::Recover.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/graph.h"
#include "core/transaction.h"
#include "shard/sharded_store.h"
#include "storage/wal.h"
#include "util/random.h"

namespace livegraph {
namespace {

struct ModelState {
  std::map<vertex_t, std::string> vertices;
  std::map<std::pair<vertex_t, vertex_t>, std::string> edges;
};

class RecoveryFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lg_fuzz_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A one-shard durable directory `name` under the test directory.
  ShardOptions Options(const std::string& name) {
    ShardOptions options;
    options.shards = 1;
    options.dir = (dir_ / name).string();
    options.graph.region_reserve = size_t{1} << 30;
    options.graph.max_vertices = 1 << 16;
    options.graph.enable_compaction = false;
    options.graph.fsync_wal = false;
    // One transaction per group so the WAL record order equals the commit
    // order deterministically (the fuzz oracle depends on it).
    options.graph.group_commit_max_batch = 1;
    return options;
  }

  std::filesystem::path dir_;
};

TEST_P(RecoveryFuzzTest, TruncatedWalRecoversExactPrefix) {
  const uint64_t seed = GetParam();
  Xorshift rng(seed);
  constexpr int kTxns = 120;
  constexpr int kDomain = 12;

  // Run a deterministic single-threaded workload. Only transactions that
  // stage at least one logged operation produce a WAL record (no-op
  // transactions short-circuit commit), so the model snapshots below are
  // recorded *per WAL record*, in record order.
  std::vector<ModelState> state_after_record;
  state_after_record.emplace_back();  // empty state before any record
  std::string wal_path;
  {
    auto store = ShardedStore::Recover(Options("live"));
    ASSERT_NE(store, nullptr);
    wal_path = store->wal_path(0);
    Graph& graph = store->shard(0);
    ModelState model;
    for (int t = 0; t < kTxns; ++t) {
      auto txn = graph.BeginTransaction();
      bool logged = false;
      switch (rng.NextBounded(4)) {
        case 0: {
          std::string payload = "v" + std::to_string(t);
          vertex_t v = txn.AddVertex(payload);
          model.vertices[v] = payload;
          logged = true;
          break;
        }
        case 1: {
          auto a = static_cast<vertex_t>(rng.NextBounded(kDomain));
          std::string payload = "p" + std::to_string(t);
          if (txn.PutVertex(a, payload) == Status::kOk) {
            model.vertices[a] = payload;
            logged = true;
          }
          break;
        }
        case 2: {
          auto a = static_cast<vertex_t>(rng.NextBounded(kDomain));
          auto b = static_cast<vertex_t>(rng.NextBounded(kDomain));
          std::string payload = "e" + std::to_string(t);
          if (txn.AddEdge(a, 0, b, payload) == Status::kOk) {
            model.edges[{a, b}] = payload;
            logged = true;
          }
          break;
        }
        default: {
          auto a = static_cast<vertex_t>(rng.NextBounded(kDomain));
          auto b = static_cast<vertex_t>(rng.NextBounded(kDomain));
          if (txn.DeleteEdge(a, 0, b) == Status::kOk) {
            model.edges.erase({a, b});
            logged = true;
          }
          break;
        }
      }
      if (txn.active()) {
        ASSERT_EQ(txn.Commit(), Status::kOk);
      }
      if (logged) state_after_record.push_back(model);
    }
  }

  // Read the intact WAL once to find record boundaries (via the public
  // reader), then fuzz cut points.
  auto wal_size = static_cast<uint64_t>(std::filesystem::file_size(wal_path));
  std::string wal_bytes;
  {
    std::ifstream in(wal_path, std::ios::binary);
    wal_bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(wal_bytes.size(), wal_size);

  Xorshift cut_rng(seed * 31 + 7);
  for (int trial = 0; trial < 6; ++trial) {
    uint64_t cut = trial == 0 ? wal_size : cut_rng.NextBounded(wal_size + 1);
    const ShardOptions cut_options = Options("cut_" + std::to_string(trial));
    const std::string cut_path = cut_options.dir + "/shard0/wal";
    std::filesystem::create_directories(cut_options.dir + "/shard0");
    {
      std::ofstream out(cut_path, std::ios::binary);
      out.write(wal_bytes.data(), static_cast<std::streamsize>(cut));
    }
    // Oracle: number of whole records surviving the cut.
    size_t survivors = 0;
    {
      Wal::Reader reader(cut_path);
      timestamp_t epoch;
      std::string payload;
      while (reader.Next(&epoch, &payload)) survivors++;
    }
    ASSERT_LT(survivors, state_after_record.size());

    auto store = ShardedStore::Recover(cut_options);
    ASSERT_NE(store, nullptr);
    auto read = store->shard(0).BeginReadOnlyTransaction();

    const ModelState& expected = state_after_record[survivors];
    for (const auto& [v, props] : expected.vertices) {
      auto got = read.GetVertex(v);
      ASSERT_TRUE(got.has_value())
          << "cut=" << cut << " survivors=" << survivors << " vertex " << v;
      EXPECT_EQ(*got, props);
    }
    for (const auto& [key, props] : expected.edges) {
      auto got = read.GetEdge(key.first, 0, key.second);
      ASSERT_TRUE(got.has_value())
          << "cut=" << cut << " survivors=" << survivors << " edge "
          << key.first << "->" << key.second;
      EXPECT_EQ(*got, props);
    }
    // No extra edges beyond the prefix state.
    for (vertex_t v = 0; v < kDomain; ++v) {
      size_t expected_degree = 0;
      for (const auto& [key, unused] : expected.edges) {
        if (key.first == v) expected_degree++;
      }
      EXPECT_EQ(read.CountEdges(v, 0), expected_degree)
          << "cut=" << cut << " survivors=" << survivors << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace livegraph
