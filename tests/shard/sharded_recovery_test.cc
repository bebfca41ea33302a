// Crash-recovery matrix for the sharded engine (docs/SHARDING.md
// "Recovery"): checkpoint + per-shard WAL tail replay, atomicity of
// multi-shard transactions whose pieces were only partially durable when
// the process died, WAL truncation to the manifest-consistent state, and
// snapshot consistency of the recovered store under fresh concurrent load.
//
// Crash points are simulated at the WAL level, which is exact: the persist
// phase makes a commit's record durable before Commit() returns and the
// apply phase touches only memory, so
//   * "killed between persist and apply"  == the record is fully on disk
//     (a graceful close leaves byte-identical logs), and
//   * "killed mid multi-shard commit"     == some shards hold the
//     transaction's piece and others do not — reproduced here by
//     rewriting one shard's WAL without its piece.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "shard/sharded_store.h"
#include "storage/wal.h"

namespace livegraph {
namespace {

namespace fs = std::filesystem;

constexpr int kShards = 4;

class ShardedRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("lg_shard_recovery_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ShardOptions DurableOptions(int shards = kShards) {
    ShardOptions options;
    options.shards = shards;
    options.dir = dir_;
    options.graph.region_reserve = size_t{1} << 30;
    options.graph.max_vertices = 1 << 18;
    options.graph.fsync_wal = false;  // tmpfs: logical replay, not fsync
    return options;
  }

  std::string ShardWal(int s) const {
    return dir_ + "/shard" + std::to_string(s) + "/wal";
  }

  /// Rewrites shard `s`'s WAL dropping record `victim` (0-based index in
  /// log order) — the surgical "this shard's fsync never happened" crash.
  void DropWalRecord(int s, size_t victim) {
    struct Rec {
      timestamp_t epoch;
      uint32_t participants;
      std::string payload;
    };
    std::vector<Rec> records;
    {
      Wal::Reader reader(ShardWal(s));
      Rec r;
      while (reader.Next(&r.epoch, &r.participants, &r.payload)) {
        records.push_back(r);
      }
    }
    ASSERT_LT(victim, records.size());
    records.erase(records.begin() + static_cast<ptrdiff_t>(victim));
    fs::remove(ShardWal(s));
    Wal wal({ShardWal(s), /*fsync=*/false});
    for (const Rec& r : records) {
      wal.AppendBatch({Wal::Record{r.epoch, r.participants, r.payload}});
    }
  }

  /// Index (in log order) and epoch of the last multi-shard piece in
  /// shard `s`'s WAL; returns false if the shard holds none.
  bool LastMultiShardPiece(int s, size_t* index, timestamp_t* epoch) {
    Wal::Reader reader(ShardWal(s));
    timestamp_t e = 0;
    uint32_t participants = 0;
    std::string payload;
    bool found = false;
    size_t i = 0;
    while (reader.Next(&e, &participants, &payload)) {
      if (participants > 1) {
        *index = i;
        *epoch = e;
        found = true;
      }
      ++i;
    }
    return found;
  }

  /// Commits 100 nodes, each linked to the next, and checkpoints them
  /// with 2 threads per shard; returns the checkpoint's file of thread 1
  /// on shard 1.
  std::string WriteCheckpoint() {
    ShardedStore store(DurableOptions());
    std::vector<vertex_t> nodes;
    for (int i = 0; i < 100; ++i) {
      nodes.push_back(store.AddNode("n" + std::to_string(i)));
    }
    for (size_t i = 0; i + 1 < nodes.size(); ++i) {
      EXPECT_TRUE(store.AddLink(nodes[i], 0, nodes[i + 1], "next").ok());
    }
    const timestamp_t epoch = store.Checkpoint(/*threads=*/2);
    EXPECT_GT(epoch, 0);
    return dir_ + "/shard1/checkpoint/" + std::to_string(epoch) +
           "/shard_1." + std::to_string(epoch) + ".ckpt";
  }

  /// Recovery of a damaged checkpoint must refuse, naming the file.
  void ExpectRefused(const std::string& file) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(ShardedStore::Recover(DurableOptions()), nullptr);
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(file),
              std::string::npos);
  }

  std::string dir_;
};

// Kill after persist, before/while applying: every committed transaction's
// record is fully durable, so recovery must restore all of them — the
// single-shard fast path and the coordinated multi-shard path alike — and
// the epoch domain must resume past every durable epoch.
TEST_F(ShardedRecoveryTest, ReplaysBothCommitPathsAfterKill) {
  vertex_t a, b, c;
  timestamp_t last_epoch = 0;
  {
    ShardedStore store(DurableOptions());
    a = store.AddNode("a");
    b = store.AddNode("b");
    c = store.AddNode("c");
    ASSERT_NE(store.ShardOf(a), store.ShardOf(b));
    // Multi-shard commit.
    {
      auto txn = store.BeginTxn();
      ASSERT_EQ(txn->UpdateNode(a, "a-multi"), Status::kOk);
      ASSERT_EQ(txn->UpdateNode(b, "b-multi"), Status::kOk);
      ASSERT_TRUE(txn->AddLink(a, 0, b, "ab").ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
    // Single-shard fast-path commits.
    ASSERT_EQ(store.UpdateNode(c, "c-fast"), Status::kOk);
    ASSERT_TRUE(store.AddLink(b, 1, c, "bc").ok());
    auto read = store.BeginShardedReadTxn();
    last_epoch = read->read_epoch();
  }  // "crash": WAL records of every returned commit are on disk

  auto store = ShardedStore::Recover(DurableOptions());
  ASSERT_NE(store, nullptr);
  auto read = store->BeginShardedReadTxn();
  EXPECT_EQ(*read->GetNode(a), "a-multi");
  EXPECT_EQ(*read->GetNode(b), "b-multi");
  EXPECT_EQ(*read->GetNode(c), "c-fast");
  EXPECT_EQ(*read->GetLink(a, 0, b), "ab");
  EXPECT_EQ(*read->GetLink(b, 1, c), "bc");
  EXPECT_EQ(store->VertexCount(), 3);

  // The epoch domain resumed past every durable epoch: new commits land
  // strictly above anything the pre-crash store handed out.
  auto txn = store->BeginTxn();
  ASSERT_EQ(txn->UpdateNode(a, "post"), Status::kOk);
  StatusOr<timestamp_t> epoch = txn->Commit();
  ASSERT_TRUE(epoch.ok());
  EXPECT_GT(*epoch, last_epoch);
}

// Kill mid multi-shard commit: one shard's piece reached its WAL, the
// other's fsync never happened. Recovery must drop the transaction on
// EVERY shard (no torn state), while keeping unrelated commits — including
// ones logged after the torn piece on the surviving shard.
TEST_F(ShardedRecoveryTest, TornMultiShardCommitDroppedAtomically) {
  vertex_t a, b;
  {
    ShardedStore store(DurableOptions());
    a = store.AddNode("a");
    b = store.AddNode("b");
    ASSERT_NE(store.ShardOf(a), store.ShardOf(b));
    // The victim: a multi-shard transaction spanning a's and b's shards.
    {
      auto txn = store.BeginTxn();
      ASSERT_EQ(txn->UpdateNode(a, "torn-a"), Status::kOk);
      ASSERT_EQ(txn->UpdateNode(b, "torn-b"), Status::kOk);
      ASSERT_TRUE(txn->Commit().ok());
    }
    // A later single-shard commit on a's shard, behind the torn piece in
    // the same log.
    ASSERT_EQ(store.UpdateNode(a, "after-torn"), Status::kOk);
  }

  // Simulate the crash: b's shard never fsynced its piece.
  int shard_b = -1;
  {
    ShardOptions probe = DurableOptions();
    shard_b = shard_id::ShardOf(b, probe.shards);
  }
  size_t victim = 0;
  timestamp_t torn_epoch = 0;
  ASSERT_TRUE(LastMultiShardPiece(shard_b, &victim, &torn_epoch));
  DropWalRecord(shard_b, victim);

  auto store = ShardedStore::Recover(DurableOptions());
  auto read = store->BeginShardedReadTxn();
  // All-or-nothing: the torn transaction is gone from BOTH shards...
  EXPECT_EQ(*read->GetNode(b), "b") << "torn piece must not survive";
  StatusOr<std::string> va = read->GetNode(a);
  ASSERT_TRUE(va.ok());
  EXPECT_NE(*va, "torn-a") << "torn piece must not survive on any shard";
  // ...while the independent commit logged after it is preserved.
  EXPECT_EQ(*va, "after-torn");
}

// Checkpoint + WAL tail: commits before the manifest come back from the
// per-shard checkpoint files, commits after it from the WAL tails, and a
// multi-shard transaction straddling the boundary stays atomic.
TEST_F(ShardedRecoveryTest, CheckpointPlusWalTail) {
  vertex_t a, b;
  timestamp_t checkpoint_epoch = 0;
  {
    ShardedStore store(DurableOptions());
    a = store.AddNode("a");
    b = store.AddNode("b");
    ASSERT_NE(store.ShardOf(a), store.ShardOf(b));
    {
      auto txn = store.BeginTxn();
      ASSERT_EQ(txn->UpdateNode(a, "a-pre"), Status::kOk);
      ASSERT_EQ(txn->UpdateNode(b, "b-pre"), Status::kOk);
      ASSERT_TRUE(txn->Commit().ok());
    }
    checkpoint_epoch = store.Checkpoint(/*threads=*/2);
    EXPECT_GT(checkpoint_epoch, 0);
    EXPECT_TRUE(fs::exists(dir_ + "/MANIFEST"));
    {
      auto txn = store.BeginTxn();
      ASSERT_EQ(txn->UpdateNode(a, "a-post"), Status::kOk);
      ASSERT_EQ(txn->UpdateNode(b, "b-post"), Status::kOk);
      ASSERT_TRUE(txn->AddLink(b, 0, a, "tail").ok());
      ASSERT_TRUE(txn->Commit().ok());
    }
  }

  auto store = ShardedStore::Recover(DurableOptions());
  auto read = store->BeginShardedReadTxn();
  EXPECT_EQ(*read->GetNode(a), "a-post");
  EXPECT_EQ(*read->GetNode(b), "b-post");
  EXPECT_EQ(*read->GetLink(b, 0, a), "tail");
  EXPECT_GT(read->read_epoch(), checkpoint_epoch);
}

// A checkpoint the manifest names must load whole. A shard file that is
// gone, cut short or bit-flipped refuses recovery instead of silently
// losing the vertices it held (the WAL records at or below the checkpoint
// epoch are never replayed).
TEST_F(ShardedRecoveryTest, IntactCheckpointRecoversEveryNode) {
  ASSERT_TRUE(fs::exists(WriteCheckpoint()));
  auto store = ShardedStore::Recover(DurableOptions());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->VertexCount(), 100);
  auto read = store->BeginShardedReadTxn();
  for (vertex_t v = 0; v < 100; ++v) {
    EXPECT_EQ(*read->GetNode(v), "n" + std::to_string(v));
  }
}

TEST_F(ShardedRecoveryTest, MissingCheckpointFileIsRefused) {
  const std::string file = WriteCheckpoint();
  fs::remove(file);
  ExpectRefused(file);
}

TEST_F(ShardedRecoveryTest, TruncatedCheckpointFileIsRefused) {
  const std::string file = WriteCheckpoint();
  fs::resize_file(file, fs::file_size(file) / 2);
  ExpectRefused(file);
}

TEST_F(ShardedRecoveryTest, FlippedByteInCheckpointFileIsRefused) {
  const std::string file = WriteCheckpoint();
  std::fstream stream(file, std::ios::binary | std::ios::in | std::ios::out);
  const auto middle = static_cast<std::streamoff>(fs::file_size(file) / 2);
  stream.seekg(middle);
  char byte = 0;
  stream.get(byte);
  stream.seekp(middle);
  stream.put(static_cast<char>(byte ^ 0x10));
  stream.close();
  ExpectRefused(file);
}

// Recovery seals its result: the WALs are truncated to the fresh manifest
// (so a dropped torn suffix can never resurface) and recovering again —
// even repeatedly — reproduces the identical state.
TEST_F(ShardedRecoveryTest, RecoveryTruncatesWalsAndIsIdempotent) {
  vertex_t a, b;
  {
    ShardedStore store(DurableOptions());
    a = store.AddNode("a");
    b = store.AddNode("b");
    auto txn = store.BeginTxn();
    ASSERT_EQ(txn->UpdateNode(a, "a1"), Status::kOk);
    ASSERT_EQ(txn->UpdateNode(b, "b1"), Status::kOk);
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    auto store = ShardedStore::Recover(DurableOptions());
    EXPECT_TRUE(fs::exists(dir_ + "/MANIFEST"));
    for (int s = 0; s < kShards; ++s) {
      EXPECT_EQ(fs::file_size(ShardWal(s)), 0u)
          << "shard " << s << " WAL not truncated after recovery";
    }
    // New durable work on the recovered store.
    ASSERT_EQ(store->UpdateNode(a, "a2"), Status::kOk);
  }
  {
    auto store = ShardedStore::Recover(DurableOptions());
    EXPECT_EQ(*store->GetNode(a), "a2");
    EXPECT_EQ(*store->GetNode(b), "b1");
  }
  // Third recovery with no intervening writes: still identical.
  auto store = ShardedStore::Recover(DurableOptions());
  EXPECT_EQ(*store->GetNode(a), "a2");
  EXPECT_EQ(*store->GetNode(b), "b1");
  EXPECT_EQ(store->VertexCount(), 2);
}

// The recovered store is a first-class engine: under concurrent
// multi-shard writers and snapshot readers it upholds the same
// no-torn-cross-shard-snapshots contract as a freshly built store (the
// NoTornCrossShardSnapshots shape from sharded_store_test.cc, run on a
// store that went through Recover()).
TEST_F(ShardedRecoveryTest, RecoveredStoreServesConsistentSnapshots) {
  constexpr int kPairs = 3;
  constexpr int kWritesPerPair = 60;
  std::vector<std::pair<vertex_t, vertex_t>> pairs;
  {
    ShardedStore store(DurableOptions());
    for (int k = 0; k < kPairs; ++k) {
      vertex_t a = store.AddNode("0");
      vertex_t b = store.AddNode("0");
      ASSERT_NE(store.ShardOf(a), store.ShardOf(b));
      pairs.emplace_back(a, b);
    }
  }
  auto recovered = ShardedStore::Recover(DurableOptions());
  ShardedStore& store = *recovered;

  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> snapshots_checked{0};
  std::vector<std::thread> writers;
  for (int k = 0; k < kPairs; ++k) {
    writers.emplace_back([&store, &pairs, &snapshots_checked, k] {
      // Start once a reader is running, so that on a loaded machine the
      // writes cannot all finish before any snapshot is checked.
      while (snapshots_checked.load(std::memory_order_relaxed) == 0) {
        std::this_thread::yield();
      }
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
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
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
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(snapshots_checked.load(), 0u);
  auto read = store.BeginReadTxn();
  for (auto [a, b] : pairs) {
    EXPECT_EQ(*read->GetNode(a), std::to_string(kWritesPerPair));
    EXPECT_EQ(*read->GetNode(b), std::to_string(kWritesPerPair));
  }
}

// A crash image taken mid-workload (a byte copy of the durable directory
// while the store keeps committing) recovers to a consistent prefix:
// every commit whose records are in the image, nothing torn, nothing from
// after the copy.
TEST_F(ShardedRecoveryTest, PointInTimeCrashImageRecoversCleanPrefix) {
  const std::string image = dir_ + "_image";
  fs::remove_all(image);
  vertex_t a, b;
  {
    ShardedStore store(DurableOptions());
    a = store.AddNode("a");
    b = store.AddNode("b");
    for (int i = 1; i <= 10; ++i) {
      auto txn = store.BeginTxn();
      ASSERT_EQ(txn->UpdateNode(a, "v" + std::to_string(i)), Status::kOk);
      ASSERT_EQ(txn->UpdateNode(b, "v" + std::to_string(i)), Status::kOk);
      ASSERT_TRUE(txn->Commit().ok());
    }
    // The "crash image": the WAL bytes as they were at this instant.
    fs::copy(dir_, image, fs::copy_options::recursive);
    // The store keeps going; none of this may appear in the image.
    for (int i = 11; i <= 15; ++i) {
      auto txn = store.BeginTxn();
      ASSERT_EQ(txn->UpdateNode(a, "v" + std::to_string(i)), Status::kOk);
      ASSERT_EQ(txn->UpdateNode(b, "v" + std::to_string(i)), Status::kOk);
      ASSERT_TRUE(txn->Commit().ok());
    }
  }
  ShardOptions options = DurableOptions();
  options.dir = image;
  auto store = ShardedStore::Recover(options);
  auto read = store->BeginShardedReadTxn();
  StatusOr<std::string> va = read->GetNode(a);
  StatusOr<std::string> vb = read->GetNode(b);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(vb.ok());
  EXPECT_EQ(*va, "v10");
  EXPECT_EQ(*vb, "v10") << "image taken after commit 10 returned";
  fs::remove_all(image);
}

}  // namespace
}  // namespace livegraph
