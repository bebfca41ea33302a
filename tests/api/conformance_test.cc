// Cross-engine conformance for the v2 transaction-first API: every engine
// — LiveGraph, its paged (out-of-core) configuration, the three baselines,
// the hash-partitioned sharded engine, and the remote deployments of both
// LiveGraph and ShardedLiveGraph over loopback TCP — must satisfy the same
// StoreTxn/StoreReadTxn contract behind one parameterized suite, so the
// LinkBench/SNB harnesses run unmodified against all of them (the paper's
// §7.1 methodology). Engine-specific
// strengths (newest-first order, MVCC snapshots, rollback) are asserted
// exactly where StoreTraits declares them.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analytics/etl.h"
#include "api/store.h"
#include "baselines/btree_store.h"
#include "baselines/linked_list_store.h"
#include "baselines/livegraph_store.h"
#include "baselines/lsmt_store.h"
#include "server/loopback.h"
#include "shard/sharded_store.h"

namespace livegraph {
namespace {

GraphOptions SmallGraphOptions() {
  GraphOptions options;
  options.region_reserve = size_t{1} << 30;
  options.max_vertices = 1 << 18;
  return options;
}

ShardOptions SmallShardOptions() {
  ShardOptions options;
  // Default 4; LG_CONFORMANCE_SHARDS overrides so CI can sweep other
  // shard counts through the identical contract suite.
  if (const char* env = std::getenv("LG_CONFORMANCE_SHARDS")) {
    int n = std::atoi(env);
    if (n > 0) options.shards = n;
  }
  options.graph = SmallGraphOptions();
  return options;
}

using StoreFactory = std::function<std::unique_ptr<Store>()>;

/// Wraps a store whose durable state lives under `dir`; removes the
/// directory when the store is destroyed so per-test recovery backends
/// leave nothing in /tmp.
class ScopedDirStore : public Store {
 public:
  ScopedDirStore(std::unique_ptr<Store> inner, std::string dir)
      : inner_(std::move(inner)), dir_(std::move(dir)) {}
  ~ScopedDirStore() override {
    inner_.reset();
    std::filesystem::remove_all(dir_);
  }
  std::string Name() const override { return inner_->Name(); }
  StoreTraits Traits() const override { return inner_->Traits(); }
  std::unique_ptr<StoreTxn> BeginTxn() override { return inner_->BeginTxn(); }
  std::unique_ptr<StoreReadTxn> BeginReadTxn() override {
    return inner_->BeginReadTxn();
  }

 private:
  std::unique_ptr<Store> inner_;
  std::string dir_;
};

class StoreConformanceTest
    : public ::testing::TestWithParam<std::pair<const char*, StoreFactory>> {
 protected:
  void SetUp() override { store_ = GetParam().second(); }
  std::unique_ptr<Store> store_;
};

TEST_P(StoreConformanceTest, NodeLifecycleThroughOneSession) {
  auto txn = store_->BeginTxn();
  StatusOr<vertex_t> added = txn->AddNode("alpha");
  ASSERT_TRUE(added.ok());
  vertex_t id = *added;
  // Read-your-writes inside the session.
  StatusOr<std::string> props = txn->GetNode(id);
  ASSERT_TRUE(props.ok());
  EXPECT_EQ(*props, "alpha");
  EXPECT_EQ(txn->UpdateNode(id, "beta"), Status::kOk);
  ASSERT_TRUE(txn->Commit().ok());

  auto read = store_->BeginReadTxn();
  props = read->GetNode(id);
  ASSERT_TRUE(props.ok());
  EXPECT_EQ(*props, "beta");
  EXPECT_GT(read->VertexCount(), id);
  read.reset();  // latch-based engines: release before writing

  EXPECT_EQ(store_->DeleteNode(id), Status::kOk);
  EXPECT_EQ(store_->GetNode(id).status(), Status::kNotFound);
  EXPECT_EQ(store_->UpdateNode(id, "gamma"), Status::kNotFound)
      << "UPDATE_NODE must not resurrect deleted nodes";
}

TEST_P(StoreConformanceTest, LinkUpsertSemantics) {
  vertex_t a = store_->AddNode("a");
  vertex_t b = store_->AddNode("b");
  StatusOr<bool> first = store_->AddLink(a, 0, b, "v1");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first) << "first add is an insert";
  StatusOr<bool> second = store_->AddLink(a, 0, b, "v2");
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(*second) << "second add is an update";
  StatusOr<std::string> out = store_->GetLink(a, 0, b);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "v2");
  EXPECT_EQ(store_->UpdateLink(a, 0, b, "v3"), Status::kOk);
  out = store_->GetLink(a, 0, b);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "v3");
  EXPECT_EQ(store_->UpdateLink(a, 0, a, "nope"), Status::kNotFound)
      << "update of missing link must fail";
  EXPECT_EQ(store_->DeleteLink(a, 0, b), Status::kOk);
  EXPECT_EQ(store_->GetLink(a, 0, b).status(), Status::kNotFound);
  EXPECT_EQ(store_->DeleteLink(a, 0, b), Status::kNotFound);
}

TEST_P(StoreConformanceTest, ScanVisitsAllAndNewestFirstWhereDeclared) {
  vertex_t hub = store_->AddNode("hub");
  std::vector<vertex_t> dsts;  // insertion order
  for (int i = 0; i < 50; ++i) {
    vertex_t d = store_->AddNode("leaf");
    ASSERT_TRUE(store_->AddLink(hub, 0, d, "e" + std::to_string(i)).ok());
    dsts.push_back(d);
  }
  auto read = store_->BeginReadTxn();
  EXPECT_EQ(read->CountLinks(hub, 0), 50u);
  std::vector<vertex_t> scanned;
  for (EdgeCursor c = read->ScanLinks(hub, 0); c.Valid(); c.Next()) {
    scanned.push_back(c.dst());
  }
  ASSERT_EQ(scanned.size(), 50u);
  EXPECT_EQ(std::set<vertex_t>(scanned.begin(), scanned.end()),
            std::set<vertex_t>(dsts.begin(), dsts.end()));
  if (store_->Traits().time_ordered_scans) {
    // LinkBench GET_LINKS_LIST contract: most recently added first
    // (§7.2 "storing edges by time order").
    std::vector<vertex_t> newest_first(dsts.rbegin(), dsts.rend());
    EXPECT_EQ(scanned, newest_first);
  }
}

TEST_P(StoreConformanceTest, CursorEarlyExitAndProperties) {
  vertex_t hub = store_->AddNode("hub");
  for (int i = 0; i < 20; ++i) {
    vertex_t d = store_->AddNode("leaf");
    ASSERT_TRUE(store_->AddLink(hub, 0, d, "payload").ok());
  }
  auto read = store_->BeginReadTxn();
  // LIMIT-style consumption: stop after 5 — no callback to thread a stop
  // condition through, the caller just leaves the loop.
  size_t visited = 0;
  for (EdgeCursor c = read->ScanLinks(hub, 0); c.Valid(); c.Next()) {
    EXPECT_EQ(c.properties(), "payload");
    if (++visited == 5) break;
  }
  EXPECT_EQ(visited, 5u);
  // An exhausted cursor goes invalid.
  EdgeCursor c = read->ScanLinks(hub, 0);
  while (c.Valid()) c.Next();
  EXPECT_FALSE(c.Valid());
  // Scanning a vertex with no adjacency yields an empty cursor.
  EXPECT_FALSE(read->ScanLinks(hub, 77).Valid());
}

TEST_P(StoreConformanceTest, ScanLimitBoundsCursorUniformly) {
  vertex_t hub = store_->AddNode("hub");
  for (int i = 0; i < 20; ++i) {
    vertex_t d = store_->AddNode("leaf");
    ASSERT_TRUE(store_->AddLink(hub, 0, d, "e").ok());
  }
  auto read = store_->BeginReadTxn();
  // GET_LINKS_LIST-style bound: every engine yields exactly min(limit,
  // degree) even if the caller keeps iterating.
  size_t yielded = 0;
  for (EdgeCursor c = read->ScanLinks(hub, 0, 5); c.Valid(); c.Next()) {
    yielded++;
  }
  EXPECT_EQ(yielded, 5u);
  yielded = 0;
  for (EdgeCursor c = read->ScanLinks(hub, 0, 100); c.Valid(); c.Next()) {
    yielded++;
  }
  EXPECT_EQ(yielded, 20u);
  EXPECT_FALSE(read->ScanLinks(hub, 0, 0).Valid());
}

TEST_P(StoreConformanceTest, LabelsAreDisjoint) {
  vertex_t a = store_->AddNode("a");
  vertex_t b = store_->AddNode("b");
  ASSERT_TRUE(store_->AddLink(a, 1, b, "L1").ok());
  ASSERT_TRUE(store_->AddLink(a, 2, b, "L2").ok());
  auto read = store_->BeginReadTxn();
  EXPECT_EQ(read->CountLinks(a, 1), 1u);
  EXPECT_EQ(read->CountLinks(a, 2), 1u);
  EXPECT_EQ(read->CountLinks(a, 3), 0u);
  StatusOr<std::string> out = read->GetLink(a, 1, b);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "L1");
  read.reset();
  EXPECT_EQ(store_->DeleteLink(a, 1, b), Status::kOk);
  read = store_->BeginReadTxn();
  EXPECT_EQ(read->CountLinks(a, 1), 0u);
  EXPECT_EQ(read->CountLinks(a, 2), 1u);
}

TEST_P(StoreConformanceTest, ReadTxnIsConsistentSession) {
  vertex_t a = store_->AddNode("node-a");
  vertex_t b = store_->AddNode("node-b");
  ASSERT_TRUE(store_->AddLink(a, 0, b, "edge").ok());
  auto read = store_->BeginReadTxn();
  // Multi-operation reads inside one session agree with each other.
  StatusOr<std::string> node = read->GetNode(a);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, "node-a");
  StatusOr<std::string> link = read->GetLink(a, 0, b);
  ASSERT_TRUE(link.ok());
  EXPECT_EQ(*link, "edge");
  EXPECT_EQ(read->CountLinks(a, 0), 1u);
  EdgeCursor c = read->ScanLinks(a, 0);
  ASSERT_TRUE(c.Valid());
  EXPECT_EQ(c.dst(), b);
  // Repeated reads of the same key within the session are stable.
  EXPECT_EQ(*read->GetNode(a), *node);
}

TEST_P(StoreConformanceTest, SnapshotIsolationWhereDeclared) {
  if (!store_->Traits().snapshot_reads) {
    GTEST_SKIP() << "latch-based engine: writers block instead";
  }
  vertex_t a = store_->AddNode("a");
  vertex_t b = store_->AddNode("b");
  ASSERT_TRUE(store_->AddLink(a, 0, b, "old").ok());
  auto snapshot = store_->BeginReadTxn();
  // Concurrent commits after the snapshot began must stay invisible —
  // and must not block (MVCC: "readers never block writers").
  ASSERT_TRUE(store_->AddLink(a, 0, a, "new-edge").ok());
  ASSERT_EQ(store_->UpdateNode(a, "a2"), Status::kOk);
  EXPECT_EQ(*snapshot->GetNode(a), "a");
  EXPECT_EQ(snapshot->CountLinks(a, 0), 1u);
  auto fresh = store_->BeginReadTxn();
  EXPECT_EQ(*fresh->GetNode(a), "a2");
  EXPECT_EQ(fresh->CountLinks(a, 0), 2u);
}

TEST_P(StoreConformanceTest, AbortRollsBackWhereDeclared) {
  if (!store_->Traits().transactional_writes) {
    GTEST_SKIP() << "in-place engine: Abort only ends the session";
  }
  vertex_t a = store_->AddNode("a");
  {
    auto txn = store_->BeginTxn();
    ASSERT_TRUE(txn->AddLink(a, 0, a, "staged").ok());
    ASSERT_EQ(txn->UpdateNode(a, "mutated"), Status::kOk);
    txn->Abort();
  }
  EXPECT_EQ(*store_->GetNode(a), "a");
  EXPECT_EQ(store_->GetLink(a, 0, a).status(), Status::kNotFound);
  {
    // Destroying an open session must abort, not leak the writes.
    auto txn = store_->BeginTxn();
    ASSERT_TRUE(txn->AddLink(a, 0, a, "dropped").ok());
  }
  EXPECT_EQ(store_->GetLink(a, 0, a).status(), Status::kNotFound);
}

TEST_P(StoreConformanceTest, CommitEpochsAreMonotonic) {
  timestamp_t last = 0;
  for (int i = 0; i < 5; ++i) {
    auto txn = store_->BeginTxn();
    ASSERT_TRUE(txn->AddNode("n").ok());
    StatusOr<timestamp_t> epoch = txn->Commit();
    ASSERT_TRUE(epoch.ok());
    EXPECT_GT(*epoch, last) << "commit " << i;
    last = *epoch;
  }
}

TEST_P(StoreConformanceTest, MultiObjectSessionCommitsAtomically) {
  // SNB-style update: several objects in one write session.
  vertex_t author = store_->AddNode("author");
  auto txn = store_->BeginTxn();
  StatusOr<vertex_t> post = txn->AddNode("post");
  ASSERT_TRUE(post.ok());
  ASSERT_TRUE(txn->AddLink(author, 1, *post, "created").ok());
  ASSERT_TRUE(txn->AddLink(*post, 2, author, "creator").ok());
  ASSERT_TRUE(txn->Commit().ok());

  auto read = store_->BeginReadTxn();
  EXPECT_TRUE(read->GetNode(*post).ok());
  EXPECT_EQ(read->CountLinks(author, 1), 1u);
  EXPECT_EQ(read->CountLinks(*post, 2), 1u);
}

TEST_P(StoreConformanceTest, ExportToCsrThroughSessionApi) {
  // The analytics ETL path must work on any engine via cursors.
  vertex_t v0 = store_->AddNode("v0");
  vertex_t v1 = store_->AddNode("v1");
  vertex_t v2 = store_->AddNode("v2");
  ASSERT_TRUE(store_->AddLink(v0, 0, v1, {}).ok());
  ASSERT_TRUE(store_->AddLink(v0, 0, v2, {}).ok());
  ASSERT_TRUE(store_->AddLink(v2, 0, v0, {}).ok());
  auto read = store_->BeginReadTxn();
  Csr csr = ExportToCsr(*read, 0);
  EXPECT_EQ(csr.edge_count(), 3);
  EXPECT_EQ(csr.Degree(v0), 2);
  EXPECT_EQ(csr.Degree(v1), 0);
  EXPECT_EQ(csr.Degree(v2), 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, StoreConformanceTest,
    ::testing::Values(
        std::make_pair("LiveGraph",
                       StoreFactory([] {
                         return std::unique_ptr<Store>(
                             new LiveGraphStore(SmallGraphOptions()));
                       })),
        std::make_pair("PagedLiveGraph",
                       StoreFactory([] {
                         return std::unique_ptr<Store>(new LiveGraphStore(
                             SmallGraphOptions(),
                             PageCacheSim::Optane(/*capacity_pages=*/256)));
                       })),
        std::make_pair("BTree",
                       StoreFactory([] {
                         return std::unique_ptr<Store>(new BTreeStore());
                       })),
        std::make_pair("Lsmt",
                       StoreFactory([] {
                         return std::unique_ptr<Store>(new LsmtStore());
                       })),
        std::make_pair("LinkedList",
                       StoreFactory([] {
                         return std::unique_ptr<Store>(
                             new LinkedListStore());
                       })),
        // The sharded engine behind the same contract: N independent
        // LiveGraph shards, cross-shard snapshot transactions
        // (docs/SHARDING.md). Shard count defaults to 4;
        // LG_CONFORMANCE_SHARDS overrides.
        std::make_pair("ShardedLiveGraph",
                       StoreFactory([] {
                         return std::unique_ptr<Store>(
                             new ShardedStore(SmallShardOptions()));
                       })),
        // The sharded engine opened through ShardedStore::Recover with a
        // live per-shard WAL directory: every contract runs on a store
        // that went through the recovery path and logs durably while the
        // contracts execute (docs/SHARDING.md "Recovery").
        std::make_pair("RecoveredShardedLiveGraph",
                       StoreFactory([] {
                         static int counter = 0;
                         std::string dir =
                             "/tmp/lg_conformance_recover_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(counter++);
                         std::filesystem::remove_all(dir);
                         ShardOptions options = SmallShardOptions();
                         options.dir = dir;
                         options.graph.fsync_wal = false;
                         return std::unique_ptr<Store>(new ScopedDirStore(
                             ShardedStore::Recover(options), dir));
                       })),
        // The network subsystem behind the same contract: a LiveGraph
        // engine served by GraphServer over loopback TCP, driven through
        // RemoteStore. Same 12 contracts, every request on the wire.
        std::make_pair("RemoteLiveGraph",
                       StoreFactory([] {
                         return MakeLoopbackStore(
                             std::make_unique<LiveGraphStore>(
                                 SmallGraphOptions()));
                       })),
        // Both at once: the sharded engine served over loopback TCP —
        // every contract crosses the wire AND the shard coordinator.
        std::make_pair("RemoteShardedLiveGraph",
                       StoreFactory([] {
                         return MakeLoopbackStore(
                             std::make_unique<ShardedStore>(
                                 SmallShardOptions()));
                       })),
        // The replication topology behind the same contract: a durable
        // sharded primary with WAL shipping attached, a follower applying
        // the stream, and a client that writes to the primary and reads
        // from the follower under the read-your-epoch rule
        // (docs/REPLICATION.md). Every read contract is answered by the
        // replica over real loopback TCP.
        std::make_pair("ReplicatedLiveGraph",
                       StoreFactory([] {
                         static int counter = 0;
                         std::string root =
                             "/tmp/lg_conformance_repl_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(counter++);
                         std::filesystem::remove_all(root);
                         std::filesystem::create_directories(root);
                         ShardOptions options = SmallShardOptions();
                         options.dir = root + "/primary";
                         options.graph.fsync_wal = false;
                         return std::unique_ptr<Store>(new ScopedDirStore(
                             MakeReplicatedLoopbackStore(options,
                                                         root + "/replica"),
                             root));
                       }))),
    [](const auto& info) { return info.param.first; });

// Commits one two-node write session through StoreTxn::TryCommit, calling
// again until it finishes; returns whether the first call finished it.
bool FirstTryCommitFinishes(Store& store) {
  auto txn = store.BeginTxn();
  StatusOr<vertex_t> a = txn->AddNode("a");
  StatusOr<vertex_t> b = txn->AddNode("b");
  EXPECT_TRUE(a.ok() && b.ok());
  timestamp_t epoch = -1;
  StatusOr<bool> done = txn->TryCommit(&epoch);
  const bool first = done.ok() && *done;
  for (int i = 0; i < 5000 && done.ok() && !*done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    done = txn->TryCommit(&epoch);
  }
  EXPECT_TRUE(done.ok() && *done) << store.Name();
  EXPECT_GE(epoch, 0);
  auto read = store.BeginReadTxn();
  EXPECT_EQ(read->GetNode(*a).value_or(""), "a") << store.Name();
  EXPECT_EQ(read->GetNode(*b).value_or(""), "b") << store.Name();
  return first;
}

// A parked commit waits for the WAL's flusher, so TryCommit may leave a
// commit unfinished only where a WAL syncs; everywhere else it must do
// what Commit() does in one call. For all five fsync-on sessions to
// finish at the first call, five flushes would each have to beat the
// check that follows the publish.
bool TryCommitParks(Store& store) {
  bool parked = false;
  for (int i = 0; i < 5; ++i) parked |= !FirstTryCommitFinishes(store);
  return parked;
}

TEST(TryCommit, ParksOnlyForAWalWithFsync) {
  const std::string root = "/tmp/lg_conformance_sync_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  auto graph = [&](const char* wal, bool fsync) {
    GraphOptions options = SmallGraphOptions();
    if (wal != nullptr) options.wal_path = root + "/" + wal;
    options.fsync_wal = fsync;
    return options;
  };
  auto sharded = [&](const char* dir, bool fsync) {
    ShardOptions options = SmallShardOptions();
    if (dir != nullptr) options.dir = root + "/" + dir;
    options.graph.fsync_wal = fsync;
    return options;
  };
  auto finishes = [](std::unique_ptr<Store> store) {
    return FirstTryCommitFinishes(*store);
  };
  auto parks = [](std::unique_ptr<Store> store) {
    return TryCommitParks(*store);
  };

  // fsync_wal defaults to true: without a WAL there is nothing to sync.
  EXPECT_TRUE(finishes(std::make_unique<LiveGraphStore>(graph(nullptr, true))));
  EXPECT_TRUE(
      finishes(std::make_unique<LiveGraphStore>(graph("nosync.wal", false))));
  EXPECT_TRUE(parks(std::make_unique<LiveGraphStore>(graph("sync.wal", true))));

  // With more than one shard the two nodes land on two shards: the
  // multi-shard commit path.
  EXPECT_TRUE(finishes(std::make_unique<ShardedStore>(sharded(nullptr, true))));
  EXPECT_TRUE(
      finishes(std::make_unique<ShardedStore>(sharded("nosync", false))));
  EXPECT_TRUE(parks(std::make_unique<ShardedStore>(sharded("sync", true))));
  // A graph WAL path stands in for the directory (ShardOptions::dir).
  ShardOptions via_wal = sharded(nullptr, true);
  via_wal.graph.wal_path = root + "/via_wal";
  EXPECT_TRUE(parks(std::make_unique<ShardedStore>(via_wal)));

  EXPECT_TRUE(finishes(std::make_unique<LsmtStore>()));
  EXPECT_TRUE(finishes(std::make_unique<BTreeStore>()));
  EXPECT_TRUE(finishes(std::make_unique<LinkedListStore>()));
  // The client side of a served engine never parks itself: the server
  // parks its connection instead.
  EXPECT_TRUE(finishes(MakeLoopbackStore(
      std::make_unique<LiveGraphStore>(graph("served.wal", true)))));
  std::filesystem::remove_all(root);
}

// StoreTxn::TryLockVertex on the engines that hold per-vertex write locks:
// the non-blocking acquisition the reactor server parks connections on.
class VertexLockTest : public StoreConformanceTest {
 protected:
  const int64_t timeout_ns_ = GraphOptions{}.lock_timeout_ns;
};

TEST_P(VertexLockTest, TryLockVertexIsReentrant) {
  vertex_t v = store_->AddNode("v");
  std::unique_ptr<StoreTxn> txn = store_->BeginTxn();
  ASSERT_TRUE(txn->TryLockVertex(v, 0).value_or(false));
  ASSERT_TRUE(txn->TryLockVertex(v, 0).value_or(false));
  // The mutation's own acquisition finds the lock already held.
  EXPECT_EQ(txn->UpdateNode(v, "x"), Status::kOk);
  ASSERT_TRUE(txn->TryLockVertex(v, timeout_ns_).value_or(false));
  EXPECT_TRUE(txn->Commit().ok());
  EXPECT_EQ(store_->GetNode(v).value_or(""), "x");
}

TEST_P(VertexLockTest, TryLockVertexWouldBlockWhileHeld) {
  vertex_t v = store_->AddNode("v");
  vertex_t w = store_->AddNode("w");
  std::unique_ptr<StoreTxn> holder = store_->BeginTxn();
  ASSERT_TRUE(holder->TryLockVertex(v, 0).value_or(false));

  std::unique_ptr<StoreTxn> waiter = store_->BeginTxn();
  StatusOr<bool> locked = waiter->TryLockVertex(v, timeout_ns_ - 1);
  ASSERT_TRUE(locked.ok());
  EXPECT_FALSE(*locked);
  // No side effect: the waiter is still active and can write elsewhere.
  EXPECT_EQ(waiter->UpdateNode(w, "w2"), Status::kOk);

  holder->Abort();
  ASSERT_TRUE(waiter->TryLockVertex(v, 0).value_or(false));
  EXPECT_EQ(waiter->UpdateNode(v, "v2"), Status::kOk);
  EXPECT_TRUE(waiter->Commit().ok());
  EXPECT_EQ(store_->GetNode(v).value_or(""), "v2");
  EXPECT_EQ(store_->GetNode(w).value_or(""), "w2");
}

TEST_P(VertexLockTest, TryLockVertexTimesOutAndAborts) {
  vertex_t v = store_->AddNode("v");
  vertex_t w = store_->AddNode("w");
  std::unique_ptr<StoreTxn> holder = store_->BeginTxn();
  ASSERT_TRUE(holder->TryLockVertex(v, 0).value_or(false));

  std::unique_ptr<StoreTxn> waiter = store_->BeginTxn();
  ASSERT_EQ(waiter->UpdateNode(w, "lost"), Status::kOk);
  EXPECT_EQ(waiter->TryLockVertex(v, timeout_ns_).status(), Status::kTimeout);
  // Rolled back: inactive, its write undone and its lock on w released.
  EXPECT_EQ(waiter->UpdateNode(w, "again"), Status::kNotActive);
  EXPECT_EQ(waiter->Commit().status(), Status::kNotActive);
  std::unique_ptr<StoreTxn> next = store_->BeginTxn();
  EXPECT_TRUE(next->TryLockVertex(w, 0).value_or(false));
  next->Abort();
  holder->Abort();
  EXPECT_EQ(store_->GetNode(w).value_or(""), "w");
}

TEST_P(VertexLockTest, OutOfRangeVertexTakesNoLock) {
  store_->AddNode("v");
  const vertex_t beyond = 1 << 17;  // in no engine's range yet
  std::unique_ptr<StoreTxn> txn = store_->BeginTxn();
  EXPECT_TRUE(txn->TryLockVertex(beyond, 0).value_or(false));
  EXPECT_TRUE(txn->TryLockVertex(-1, 0).value_or(false));
  // The operation itself reports the missing vertex, and the session
  // stays usable.
  EXPECT_EQ(txn->UpdateNode(beyond, "x"), Status::kNotFound);
  EXPECT_EQ(txn->AddLink(beyond, 0, 0, "e").status(), Status::kNotFound);
  EXPECT_TRUE(txn->Commit().ok());
  // Even past the deadline nothing times out: there was nothing to wait on.
  std::unique_ptr<StoreTxn> late = store_->BeginTxn();
  EXPECT_TRUE(late->TryLockVertex(beyond, timeout_ns_).value_or(false));
  EXPECT_TRUE(late->Commit().ok());
}

INSTANTIATE_TEST_SUITE_P(
    LockingEngines, VertexLockTest,
    ::testing::Values(
        std::make_pair("LiveGraph",
                       StoreFactory([] {
                         return std::unique_ptr<Store>(
                             new LiveGraphStore(SmallGraphOptions()));
                       })),
        std::make_pair("ShardedLiveGraph",
                       StoreFactory([] {
                         return std::unique_ptr<Store>(
                             new ShardedStore(SmallShardOptions()));
                       }))),
    [](const auto& info) { return info.param.first; });

}  // namespace
}  // namespace livegraph
