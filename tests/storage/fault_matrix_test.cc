// Deterministic fault matrix over the storage failpoints (docs/FAULTS.md):
// every injected durability failure must surface as a typed Status, leave
// the store serving consistent reads at the last durable epoch, reject
// writes without aborting, and — after the fault clears and the process
// restarts — recover every acknowledged commit. Durable state is a
// one-shard directory, recovered by ShardedStore::Recover like every
// durable engine's. The last cases serve the engine: a commit whose WAL
// syncs parks its connection on the reactor until the flush ends.
// Compiled against the failpoint registry; in a normal build the whole
// matrix skips.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/livegraph_store.h"
#include "core/epoch_domain.h"
#include "core/graph.h"
#include "core/transaction.h"
#include "server/graph_server.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/remote_store.h"
#include "server/wire.h"
#include "shard/sharded_store.h"
#include "util/fault_injection.h"
#include "util/metrics.h"

namespace livegraph {
namespace {

#if defined(LIVEGRAPH_FAULTS_ENABLED)

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    faults::Clear();
    dir_ = std::filesystem::temp_directory_path() /
           ("lg_faults_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    faults::Clear();
    std::filesystem::remove_all(dir_);
  }

  /// The one-shard durable directory; its engine never compacts.
  ShardOptions DurableOptions(bool fsync = false) {
    ShardOptions options;
    options.shards = 1;
    options.dir = (dir_ / "db").string();
    options.graph.region_reserve = size_t{1} << 30;
    options.graph.max_vertices = 1 << 16;
    options.graph.enable_compaction = false;
    options.graph.fsync_wal = fsync;
    return options;
  }

  /// Opens (recovers) the directory: a fresh one is an empty store.
  std::unique_ptr<ShardedStore> Open(bool fsync = false) {
    auto store = ShardedStore::Recover(DurableOptions(fsync));
    EXPECT_NE(store, nullptr);
    return store;
  }

  /// Commits `n` single-vertex transactions; returns their ids.
  static std::vector<vertex_t> CommitSome(Graph& graph, int n,
                                          const char* prefix) {
    std::vector<vertex_t> ids;
    for (int i = 0; i < n; ++i) {
      auto txn = graph.BeginTransaction();
      ids.push_back(txn.AddVertex(prefix + std::to_string(i)));
      EXPECT_EQ(txn.Commit(), Status::kOk);
    }
    return ids;
  }

  static void ExpectPresent(Graph& graph, const std::vector<vertex_t>& ids,
                            const char* prefix) {
    auto read = graph.BeginReadOnlyTransaction();
    for (size_t i = 0; i < ids.size(); ++i) {
      auto props = read.GetVertex(ids[i]);
      ASSERT_TRUE(props.has_value()) << prefix << i;
      EXPECT_EQ(*props, prefix + std::to_string(i));
    }
  }

  std::filesystem::path dir_;
};

// The acceptance criterion, verbatim: ENOSPC on WAL append mid-workload
// leaves the store serving consistent reads at the last durable epoch and
// rejecting writes with a typed Status (no abort); clearing the fault and
// restarting recovers with zero committed-transaction loss.
TEST_F(FaultMatrixTest, EnospcOnAppendDegradesAndRecoversLossFree) {
  auto store = Open();
  Graph* graph = &store->shard(0);
  std::vector<vertex_t> committed = CommitSome(*graph, 5, "ok");

  ASSERT_TRUE(faults::Configure("wal.append=error:ENOSPC"));
  vertex_t doomed;
  {
    auto txn = graph->BeginTransaction();
    doomed = txn.AddVertex("doomed");
    EXPECT_EQ(txn.Commit(), Status::kResourceExhausted);
  }
  EXPECT_EQ(graph->degraded_status(), Status::kResourceExhausted);

  // Writes fast-reject with the same typed status, before touching the WAL.
  {
    auto txn = graph->BeginTransaction();
    txn.AddVertex("rejected");
    EXPECT_EQ(txn.Commit(), Status::kResourceExhausted);
  }
  // Reads keep serving the last durable epoch: every acknowledged commit,
  // nothing from the failed one.
  ExpectPresent(*graph, committed, "ok");
  {
    auto read = graph->BeginReadOnlyTransaction();
    EXPECT_FALSE(read.GetVertex(doomed).has_value());
  }

  // Clearing the fault does NOT un-degrade a live engine: degraded mode is
  // sticky until restart (the log is poisoned).
  faults::Clear();
  {
    auto txn = graph->BeginTransaction();
    txn.AddVertex("still-rejected");
    EXPECT_EQ(txn.Commit(), Status::kResourceExhausted);
  }

  // Restart: zero committed-transaction loss, failed commit absent, and
  // the store writes again.
  store.reset();
  auto reopened = Open();
  Graph* recovered = &reopened->shard(0);
  ExpectPresent(*recovered, committed, "ok");
  {
    auto read = recovered->BeginReadOnlyTransaction();
    EXPECT_FALSE(read.GetVertex(doomed).has_value());
  }
  EXPECT_EQ(recovered->degraded_status(), Status::kOk);
  std::vector<vertex_t> fresh = CommitSome(*recovered, 3, "fresh");
  ExpectPresent(*recovered, fresh, "fresh");
}

// A torn (short) append writes real partial bytes, then fails the commit;
// recovery truncates the torn tail and keeps every acknowledged commit.
TEST_F(FaultMatrixTest, TornAppendTruncatedOnRecovery) {
  auto store = Open();
  Graph* graph = &store->shard(0);
  std::vector<vertex_t> committed = CommitSome(*graph, 5, "ok");

  ASSERT_TRUE(faults::Configure("wal.append=short:7"));
  {
    auto txn = graph->BeginTransaction();
    txn.AddVertex("torn");
    EXPECT_EQ(txn.Commit(), Status::kIOError);
  }
  EXPECT_EQ(graph->degraded_status(), Status::kIOError);
  faults::Clear();

  store.reset();
  auto reopened = Open();
  Graph* recovered = &reopened->shard(0);
  ExpectPresent(*recovered, committed, "ok");
  {
    auto read = recovered->BeginReadOnlyTransaction();
    EXPECT_FALSE(read.GetVertex(committed.back() + 1).has_value())
        << "the torn record must not replay";
  }
  std::vector<vertex_t> fresh = CommitSome(*recovered, 3, "fresh");
  ExpectPresent(*recovered, fresh, "fresh");
}

// fsyncgate: a failed fdatasync poisons the log permanently — the engine
// must never retry the sync against a page cache that may have dropped
// the dirty pages. Acknowledged commits survive restart.
TEST_F(FaultMatrixTest, FdatasyncFailurePoisonsStickily) {
  auto store = Open(/*fsync=*/true);
  Graph* graph = &store->shard(0);
  std::vector<vertex_t> committed = CommitSome(*graph, 4, "ok");

  ASSERT_TRUE(faults::Configure("wal.fdatasync=error:EIO@once"));
  {
    auto txn = graph->BeginTransaction();
    txn.AddVertex("unacked");
    EXPECT_EQ(txn.Commit(), Status::kIOError);
  }
  EXPECT_EQ(graph->degraded_status(), Status::kIOError);
  faults::Clear();

  // Sticky: the @once trigger is spent and the fault cleared, yet the
  // engine must NOT sync again and must keep rejecting writes.
  const uint64_t syncs_after_poison = faults::HitCount("wal.fdatasync");
  for (int i = 0; i < 3; ++i) {
    auto txn = graph->BeginTransaction();
    txn.AddVertex("rejected");
    EXPECT_EQ(txn.Commit(), Status::kIOError);
  }
  EXPECT_EQ(faults::HitCount("wal.fdatasync"), syncs_after_poison)
      << "a poisoned log must never reach fdatasync again";
  ExpectPresent(*graph, committed, "ok");

  // Restart recovers every acknowledged commit. (The unacknowledged one
  // may or may not replay — its bytes hit the file before the failed
  // sync; either outcome is correct WAL semantics.)
  store.reset();
  auto reopened = Open(/*fsync=*/true);
  Graph* recovered = &reopened->shard(0);
  ExpectPresent(*recovered, committed, "ok");
  std::vector<vertex_t> fresh = CommitSome(*recovered, 2, "fresh");
  ExpectPresent(*recovered, fresh, "fresh");
}

// A failed append fails every member of the group that shared it. The
// first committer leads a group whose fdatasync is held for 300 ms; the
// seven that commit meanwhile queue behind it and form the next group,
// whose append hits ENOSPC. Every member gets the typed error, the
// failed epoch still passes the visibility frontier (no member wedges
// it), and the engine rejects later writes.
TEST_F(FaultMatrixTest, FailedAppendFailsEveryMemberOfItsGroup) {
  auto store = Open(/*fsync=*/true);
  Graph* graph = &store->shard(0);
  std::vector<vertex_t> committed = CommitSome(*graph, 3, "ok");
  metrics::Counter& groups = metrics::Registry::Instance().GetCounter(
      "livegraph_commit_groups_total");
  const uint64_t groups_before = groups.Value();

  ASSERT_TRUE(faults::Configure(
      "wal.fdatasync=delay:300@once;wal.append=error:ENOSPC@after=1"));
  Status first_status = Status::kIOError;
  vertex_t first = kNullVertex;
  std::thread leader([&] {
    auto txn = graph->BeginTransaction();
    first = txn.AddVertex("first");
    first_status = txn.Commit().status();
  });
  // Let the first group reach its held sync, then queue seven behind it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  constexpr int kMembers = 7;
  std::vector<Status> member_status(kMembers, Status::kOk);
  std::vector<vertex_t> members(kMembers, kNullVertex);
  std::vector<std::thread> threads;
  for (int m = 0; m < kMembers; ++m) {
    threads.emplace_back([&, m] {
      auto txn = graph->BeginTransaction();
      members[static_cast<size_t>(m)] = txn.AddVertex("member");
      member_status[static_cast<size_t>(m)] = txn.Commit().status();
    });
  }
  leader.join();
  for (auto& t : threads) t.join();

  EXPECT_EQ(first_status, Status::kOk);
  for (Status status : member_status) {
    EXPECT_EQ(status, Status::kResourceExhausted);
  }
  EXPECT_EQ(groups.Value() - groups_before, 2u)
      << "the seven committers queued behind the held sync share a group";
  EXPECT_EQ(graph->degraded_status(), Status::kResourceExhausted);
  // Nothing in flight: the failed group's epoch was accounted for and
  // the frontier passed it.
  EXPECT_EQ(graph->ReadEpoch(), graph->epoch_domain()->issued());
  {
    auto txn = graph->BeginTransaction();
    txn.AddVertex("rejected");
    EXPECT_EQ(txn.Commit(), Status::kResourceExhausted);
  }
  committed.push_back(first);
  {
    auto read = graph->BeginReadOnlyTransaction();
    EXPECT_TRUE(read.GetVertex(first).has_value());
    for (vertex_t member : members) {
      EXPECT_FALSE(read.GetVertex(member).has_value());
    }
  }

  // Restart: the acknowledged commits replay, the failed group does not.
  faults::Clear();
  store.reset();
  auto reopened = Open(/*fsync=*/true);
  Graph* recovered = &reopened->shard(0);
  auto read = recovered->BeginReadOnlyTransaction();
  for (vertex_t v : committed) EXPECT_TRUE(read.GetVertex(v).has_value());
  for (vertex_t member : members) {
    EXPECT_FALSE(read.GetVertex(member).has_value());
  }
}

// Checkpoint failpoints: open/write/sync/rename failures must return -1,
// leave the previous checkpoint authoritative, NOT degrade the engine
// (the WAL still holds everything), and succeed on the next cadence.
TEST_F(FaultMatrixTest, CheckpointFailuresLeavePreviousAuthoritative) {
  const char* points[] = {"ckpt.open=error:ENOSPC", "ckpt.write=error:EIO",
                          "ckpt.sync=error:EIO", "wal.rename=error:EIO"};
  auto store = Open();
  Graph* graph = &store->shard(0);
  std::vector<vertex_t> first = CommitSome(*graph, 4, "first");
  ASSERT_GT(store->Checkpoint(), 0);

  std::vector<vertex_t> second = CommitSome(*graph, 4, "second");
  for (const char* spec : points) {
    ASSERT_TRUE(faults::Configure(spec));
    EXPECT_EQ(store->Checkpoint(), -1) << spec;
    EXPECT_EQ(graph->degraded_status(), Status::kOk)
        << spec << ": a failed checkpoint must not degrade the engine";
    faults::Clear();
  }
  // Next cadence (fault gone) succeeds; recovery sees everything.
  EXPECT_GT(store->Checkpoint(), 0);
  store.reset();
  auto reopened = Open();
  Graph* recovered = &reopened->shard(0);
  ExpectPresent(*recovered, first, "first");
  ExpectPresent(*recovered, second, "second");
}

// A multi-thread checkpoint that fails after renaming some of its shard
// files must not touch the files the current manifest names: shard files
// are named for their epoch, so the previous checkpoint still loads
// (recovery checks every record's epoch against the manifest and would
// refuse a mix of the two).
TEST_F(FaultMatrixTest, PartlyRenamedCheckpointLeavesPreviousLoadable) {
  auto store = Open();
  Graph* graph = &store->shard(0);
  std::vector<vertex_t> first = CommitSome(*graph, 4, "first");
  ASSERT_GT(store->Checkpoint(/*threads=*/2), 0);
  std::vector<vertex_t> second = CommitSome(*graph, 4, "second");
  ASSERT_TRUE(faults::Configure("wal.rename=error:EIO@after=1"));
  EXPECT_EQ(store->Checkpoint(/*threads=*/2), -1);
  faults::Clear();
  store.reset();
  auto reopened = Open();
  ASSERT_NE(reopened, nullptr);
  Graph* recovered = &reopened->shard(0);
  ExpectPresent(*recovered, first, "first");
  ExpectPresent(*recovered, second, "second");
}

// The WAL-open failpoint: an engine whose log cannot even be created
// starts degraded instead of aborting, and still serves (empty) reads.
TEST_F(FaultMatrixTest, WalOpenFailureStartsDegraded) {
  ASSERT_TRUE(faults::Configure("wal.open=error:EIO"));
  GraphOptions options = DurableOptions().graph;
  options.wal_path = (dir_ / "wal.log").string();
  Graph graph(options);
  faults::Clear();
  {
    auto txn = graph.BeginTransaction();
    txn.AddVertex("x");
    EXPECT_EQ(txn.Commit(), Status::kIOError);
  }
  auto read = graph.BeginReadOnlyTransaction();
  EXPECT_FALSE(read.GetVertex(0).has_value());
}

// Sharded store: a WAL failure on any shard degrades the whole store,
// reads stay consistent, and Recover restores every acknowledged commit.
TEST_F(FaultMatrixTest, ShardedEnospcDegradesAndRecovers) {
  ShardOptions options;
  options.shards = 2;
  options.dir = (dir_ / "sharded").string();
  options.graph.region_reserve = size_t{1} << 30;
  options.graph.max_vertices = 1 << 16;
  options.graph.fsync_wal = false;
  std::filesystem::create_directories(options.dir);

  auto store = ShardedStore::Recover(options);
  ASSERT_NE(store, nullptr);
  std::vector<vertex_t> committed;
  for (int i = 0; i < 8; ++i) {
    committed.push_back(store->AddNode("n" + std::to_string(i)));
  }

  ASSERT_TRUE(faults::Configure("wal.append=error:ENOSPC"));
  {
    auto txn = store->BeginTxn();
    ASSERT_TRUE(txn->AddNode("doomed").ok());
    EXPECT_EQ(txn->Commit().status(), Status::kResourceExhausted);
  }
  EXPECT_EQ(store->degraded_status(), Status::kResourceExhausted);
  {
    auto txn = store->BeginTxn();
    ASSERT_TRUE(txn->AddNode("rejected").ok());
    EXPECT_EQ(txn->Commit().status(), Status::kResourceExhausted);
  }
  {
    auto read = store->BeginReadTxn();
    for (size_t i = 0; i < committed.size(); ++i) {
      StatusOr<std::string> props = read->GetNode(committed[i]);
      ASSERT_TRUE(props.ok()) << i;
      EXPECT_EQ(*props, "n" + std::to_string(i));
    }
  }
  // A degraded store must refuse to checkpoint over its last good state.
  faults::Clear();
  store.reset();

  auto recovered = ShardedStore::Recover(options);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->degraded_status(), Status::kOk);
  {
    auto read = recovered->BeginReadTxn();
    for (size_t i = 0; i < committed.size(); ++i) {
      StatusOr<std::string> props = read->GetNode(committed[i]);
      ASSERT_TRUE(props.ok()) << i;
      EXPECT_EQ(*props, "n" + std::to_string(i));
    }
  }
  EXPECT_GE(recovered->AddNode("fresh"), 0);
}

// Sharded checkpoint failure: Checkpoint() returns -1, the global
// MANIFEST keeps describing the previous checkpoint, and recovery from
// that state is exact.
TEST_F(FaultMatrixTest, ShardedCheckpointFailureKeepsManifest) {
  ShardOptions options;
  options.shards = 2;
  options.dir = (dir_ / "sharded").string();
  options.graph.region_reserve = size_t{1} << 30;
  options.graph.max_vertices = 1 << 16;
  options.graph.fsync_wal = false;
  std::filesystem::create_directories(options.dir);

  auto store = ShardedStore::Recover(options);
  ASSERT_NE(store, nullptr);
  std::vector<vertex_t> committed;
  for (int i = 0; i < 6; ++i) {
    committed.push_back(store->AddNode("n" + std::to_string(i)));
  }
  ASSERT_GT(store->Checkpoint(), 0);

  committed.push_back(store->AddNode("late"));
  ASSERT_TRUE(faults::Configure("ckpt.sync=error:ENOSPC"));
  EXPECT_EQ(store->Checkpoint(), -1);
  faults::Clear();
  EXPECT_GT(store->Checkpoint(), 0) << "next cadence retries clean";
  store.reset();

  auto recovered = ShardedStore::Recover(options);
  ASSERT_NE(recovered, nullptr);
  auto read = recovered->BeginReadTxn();
  EXPECT_EQ(read->GetNode(committed.back()).value_or(""), "late");
}

// --- Parked durable commits over the reactor server -----------------------

uint64_t CommitParks() {
  return metrics::Registry::Instance().Collect().counter(
      "livegraph_server_commit_parks_total");
}

/// One raw protocol connection past its Hello: a commit can be in flight
/// without a client thread blocked on the reply.
class RawConn {
 public:
  explicit RawConn(uint16_t port) : sock_(ConnectTcp("127.0.0.1", port)) {
    sock_.SetRecvTimeout(10'000);
    std::string body;
    WireWriter(&body).PutU32(kProtocolVersion);
    EXPECT_EQ(Call(MsgType::kHello, body), Status::kOk);
  }

  bool Send(MsgType type, const std::string& body) {
    return sock_.WriteFrame(type, kFlagNone, body, &scratch_);
  }
  /// The next reply's status (kUnavailable when the connection ended).
  Status Reply() {
    Frame reply;
    if (!sock_.ReadFrame(&reply)) return Status::kUnavailable;
    WireReader reader(reply.body);
    uint8_t wire = 0;
    if (!reader.GetU8(&wire)) return Status::kUnavailable;
    return StatusFromWire(wire);
  }
  Status Call(MsgType type, const std::string& body) {
    return Send(type, body) ? Reply() : Status::kUnavailable;
  }
  bool ReplyPending() const { return sock_.Readable(0); }
  /// Closes with a reset, so the server fails its next read and tears the
  /// connection down at once instead of serving what it already has.
  void Reset() {
    struct linger abortive = {1, 0};
    ::setsockopt(sock_.fd(), SOL_SOCKET, SO_LINGER, &abortive,
                 sizeof(abortive));
    sock_.Close();
  }

 private:
  Socket sock_;
  std::string scratch_;
};

std::string TxnBody(uint64_t txn) {
  std::string body;
  WireWriter(&body).PutU64(txn);
  return body;
}

std::string UpdateNodeBody(uint64_t txn, vertex_t v, std::string_view data) {
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn);
  writer.PutI64(v);
  writer.PutBytes(data);
  return body;
}

/// Opens write transaction `txn` on `conn` and stages v := data in it.
void StageUpdate(RawConn* conn, uint64_t txn, vertex_t v,
                 std::string_view data) {
  ASSERT_EQ(conn->Call(MsgType::kBeginTxn, TxnBody(txn)), Status::kOk);
  ASSERT_EQ(conn->Call(MsgType::kUpdateNode, UpdateNodeBody(txn, v, data)),
            Status::kOk);
}

/// A served engine whose WAL syncs, on ONE event loop.
/// Served like a one-shard durable server: the recovered directory's
/// shard 0 through the engine's native sessions.
struct ServedDurableGraph {
  explicit ServedDurableGraph(const ShardOptions& options)
      : durable(ShardedStore::Recover(options)),
        store(durable->shard(0)),
        server(store, OneLoop()) {
    EXPECT_TRUE(server.Start());
  }
  static GraphServer::Options OneLoop() {
    GraphServer::Options options;
    options.reactors = 1;
    return options;
  }
  Graph& graph() { return store.graph(); }

  std::unique_ptr<ShardedStore> durable;
  LiveGraphStore store;
  GraphServer server;
};

// The commit's reply waits out the held fdatasync (at least 300 ms),
// while a client on the same loop keeps being served.
TEST_F(FaultMatrixTest, ParkedCommitRepliesAfterTheFlush) {
  ServedDurableGraph served(DurableOptions(/*fsync=*/true));
  const vertex_t v = served.store.AddNode("v");
  auto reader = RemoteStore::Connect("127.0.0.1", served.server.port());
  ASSERT_NE(reader, nullptr);
  RawConn writer(served.server.port());
  StageUpdate(&writer, 1, v, "parked");
  const uint64_t parks_before = CommitParks();

  ASSERT_TRUE(faults::Configure("wal.fdatasync=delay:300@once"));
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(writer.Send(MsgType::kCommit, TxnBody(1)));
  int reads = 0;
  while (!writer.ReplyPending()) {
    // The value may flip to "parked" just before the reply is readable.
    ASSERT_TRUE(reader->GetNode(v).ok());
    ++reads;
    ASSERT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10));
  }
  EXPECT_EQ(writer.Reply(), Status::kOk);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(300));
  EXPECT_GT(reads, 0);
  EXPECT_EQ(CommitParks(), parks_before + 1);
  EXPECT_EQ(reader->GetNode(v).value_or(""), "parked");
}

// A failed flush fails the parked commit with the typed status, the
// frontier passes its epoch, and the degraded engine refuses the next
// commit.
TEST_F(FaultMatrixTest, ParkedCommitFlushErrorRepliesIOError) {
  ServedDurableGraph served(DurableOptions(/*fsync=*/true));
  const vertex_t v = served.store.AddNode("v");
  RawConn writer(served.server.port());
  StageUpdate(&writer, 1, v, "lost");

  ASSERT_TRUE(faults::Configure("wal.fdatasync=error:EIO@once"));
  EXPECT_EQ(writer.Call(MsgType::kCommit, TxnBody(1)), Status::kIOError);
  EXPECT_EQ(served.graph().ReadEpoch(),
            served.graph().epoch_domain()->issued());
  EXPECT_EQ(served.graph().degraded_status(), Status::kIOError);

  StageUpdate(&writer, 2, v, "refused");
  EXPECT_EQ(writer.Call(MsgType::kCommit, TxnBody(2)), Status::kIOError);
  EXPECT_EQ(served.store.GetNode(v).value_or(""), "v");
}

// A published commit cannot be aborted: when its connection resets, or
// the server stops, while the commit is parked, the commit still finishes.
// Its vertex lock comes free, the frontier passes its epoch, and its
// record replays after a restart. The closed connection does not hold its
// loop for the flush: the next client on that loop is served while the
// commit is still unapplied.
TEST_F(FaultMatrixTest, ParkedCommitFinishesWhenItsConnectionCloses) {
  ShardOptions options = DurableOptions(/*fsync=*/true);
  options.graph.lock_timeout_ns = 2'000'000'000;
  vertex_t v = kNullVertex;
  vertex_t w = kNullVertex;
  {
    ServedDurableGraph served(options);
    v = served.store.AddNode("v");
    w = served.store.AddNode("w");
    const uint64_t parks_before = CommitParks();

    RawConn closed(served.server.port());
    StageUpdate(&closed, 1, v, "closed");
    ASSERT_TRUE(faults::Configure("wal.fdatasync=delay:300@once"));
    ASSERT_TRUE(closed.Send(MsgType::kCommit, TxnBody(1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    closed.Reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto client = RemoteStore::Connect("127.0.0.1", served.server.port());
    ASSERT_NE(client, nullptr);
    EXPECT_EQ(client->GetNode(w).value_or(""), "w");
    EXPECT_LT(served.graph().ReadEpoch(),
              served.graph().epoch_domain()->issued())
        << "the loop waited out the closed connection's flush";
    // The link write locks v: it fails with kTimeout if the lock leaked.
    EXPECT_TRUE(client->AddLink(v, 0, w, "after").ok());
    EXPECT_EQ(served.graph().ReadEpoch(),
              served.graph().epoch_domain()->issued());

    RawConn stopped(served.server.port());
    StageUpdate(&stopped, 1, w, "stopped");
    ASSERT_TRUE(faults::Configure("wal.fdatasync=delay:300@once"));
    ASSERT_TRUE(stopped.Send(MsgType::kCommit, TxnBody(1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    client.reset();
    served.server.Stop();
    EXPECT_EQ(served.graph().ReadEpoch(),
              served.graph().epoch_domain()->issued());
    EXPECT_GE(CommitParks(), parks_before + 2);
  }
  faults::Clear();
  auto recovered = ShardedStore::Recover(options);
  ASSERT_NE(recovered, nullptr);
  auto read = recovered->shard(0).BeginReadOnlyTransaction();
  EXPECT_EQ(read.GetVertex(v).value_or(""), "closed");
  EXPECT_EQ(read.GetVertex(w).value_or(""), "stopped");
  EXPECT_EQ(read.GetEdge(v, 0, w).value_or(""), "after");
}

#else  // !LIVEGRAPH_FAULTS_ENABLED

TEST(FaultMatrixTest, RequiresFaultBuild) {
  GTEST_SKIP() << "build with -DLIVEGRAPH_FAULTS=ON to run the fault matrix";
}

#endif  // LIVEGRAPH_FAULTS_ENABLED

}  // namespace
}  // namespace livegraph
