// Crash-at-failpoint harness: a forked child runs a real workload with a
// `crash` failpoint armed (::_exit(42) — no flushes, no destructors, a
// power cut), reporting each acknowledged commit to a side file as it
// happens. The parent reaps the child, recovers the same one-shard durable
// directory (ShardedStore::Recover), and asserts zero acknowledged-commit
// loss. Gated on the fault build.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/graph.h"
#include "core/transaction.h"
#include "shard/sharded_store.h"
#include "util/fault_injection.h"

namespace livegraph {
namespace {

#if defined(LIVEGRAPH_FAULTS_ENABLED)

class CrashHarnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    faults::Clear();
    dir_ = std::filesystem::temp_directory_path() /
           ("lg_crash_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    faults::Clear();
    std::filesystem::remove_all(dir_);
  }

  ShardOptions DurableOptions(bool fsync) {
    ShardOptions options;
    options.shards = 1;
    options.dir = (dir_ / "db").string();
    options.graph.region_reserve = size_t{1} << 30;
    options.graph.max_vertices = 1 << 16;
    options.graph.enable_compaction = false;
    options.graph.fsync_wal = fsync;
    return options;
  }

  std::string ReportPath() { return (dir_ / "acked.txt").string(); }

  /// Child body: commit vertices one by one, appending "<id> <i>" to the
  /// report file after each acknowledged commit. Never returns normally
  /// when the armed crash point fires. Exit codes: 0 = workload finished
  /// without crashing (the caller decides if that's a failure), 3 = bad
  /// spec, 4 = unexpected commit failure.
  [[noreturn]] void ChildWorkload(const char* spec, bool fsync,
                                  bool checkpoint_at_end) {
    std::string error;
    if (!faults::Configure(spec, &error)) ::_exit(3);
    std::unique_ptr<ShardedStore> store =
        ShardedStore::Recover(DurableOptions(fsync));
    if (store == nullptr) ::_exit(4);
    Graph& graph = store->shard(0);
    std::FILE* report = std::fopen(ReportPath().c_str(), "a");
    if (report == nullptr) ::_exit(4);
    for (int i = 0; i < 32; ++i) {
      auto txn = graph.BeginTransaction();
      vertex_t v = txn.AddVertex("crash" + std::to_string(i));
      if (txn.Commit() != Status::kOk) ::_exit(4);
      std::fprintf(report, "%lld %d\n", static_cast<long long>(v), i);
      std::fflush(report);
    }
    if (checkpoint_at_end) (void)store->Checkpoint();
    std::fclose(report);
    ::_exit(0);
  }

  /// Forks the child workload and returns its exit status (waitpid).
  int RunChild(const char* spec, bool fsync, bool checkpoint_at_end) {
    pid_t pid = ::fork();
    if (pid == 0) ChildWorkload(spec, fsync, checkpoint_at_end);
    EXPECT_GT(pid, 0);
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    return status;
  }

  std::filesystem::path dir_;

  /// Every line the child acknowledged must be present after recovery.
  void ExpectAckedCommitsSurvive(Graph& recovered) {
    std::ifstream report(ReportPath());
    ASSERT_TRUE(report.good()) << "child never acknowledged anything";
    auto read = recovered.BeginReadOnlyTransaction();
    long long v;
    int i;
    int acked = 0;
    while (report >> v >> i) {
      auto props = read.GetVertex(static_cast<vertex_t>(v));
      ASSERT_TRUE(props.has_value()) << "acked commit " << i << " lost";
      EXPECT_EQ(*props, "crash" + std::to_string(i));
      ++acked;
    }
    EXPECT_GT(acked, 0) << "harness must observe acknowledged commits";
  }
};

TEST_F(CrashHarnessTest, CrashAtFdatasyncLosesNoAckedCommit) {
  int status = RunChild("wal.fdatasync=crash@after=5", /*fsync=*/true,
                        /*checkpoint_at_end=*/false);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 42) << "the crash point must have fired";
  auto recovered = ShardedStore::Recover(DurableOptions(/*fsync=*/true));
  ASSERT_NE(recovered, nullptr);
  ExpectAckedCommitsSurvive(recovered->shard(0));
  // The recovered engine is healthy and writes again.
  auto txn = recovered->shard(0).BeginTransaction();
  txn.AddVertex("after");
  EXPECT_EQ(txn.Commit(), Status::kOk);
}

TEST_F(CrashHarnessTest, CrashAtAppendLosesNoAckedCommit) {
  int status = RunChild("wal.append=crash@after=9", /*fsync=*/false,
                        /*checkpoint_at_end=*/false);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 42);
  auto recovered = ShardedStore::Recover(DurableOptions(/*fsync=*/false));
  ASSERT_NE(recovered, nullptr);
  ExpectAckedCommitsSurvive(recovered->shard(0));
}

TEST_F(CrashHarnessTest, CrashDuringCheckpointRecoversFromWal) {
  // The child finishes its workload, then dies inside Checkpoint(): only
  // .tmp checkpoint files exist and no manifest names them, the WAL holds
  // everything, and recovery replays it all.
  int status = RunChild("ckpt.sync=crash", /*fsync=*/false,
                        /*checkpoint_at_end=*/true);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 42);
  auto recovered = ShardedStore::Recover(DurableOptions(/*fsync=*/false));
  ASSERT_NE(recovered, nullptr);
  ExpectAckedCommitsSurvive(recovered->shard(0));
}

#else  // !LIVEGRAPH_FAULTS_ENABLED

TEST(CrashHarnessTest, RequiresFaultBuild) {
  GTEST_SKIP() << "build with -DLIVEGRAPH_FAULTS=ON to run crash tests";
}

#endif  // LIVEGRAPH_FAULTS_ENABLED

}  // namespace
}  // namespace livegraph
