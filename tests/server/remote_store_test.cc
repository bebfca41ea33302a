// Server/client integration over real loopback TCP: session mapping,
// pipelined scan streaming (multi-batch, early exit, connection reuse),
// failure degradation, concurrent clients, the version handshake, the
// blocking waits a session costs, and where a lazily begun snapshot falls
// against other sessions' commits. Contract-level behavior is
// covered by the conformance suite's RemoteLiveGraph backend; these tests
// pin the network-specific mechanics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/btree_store.h"
#include "baselines/linked_list_store.h"
#include "baselines/livegraph_store.h"
#include "baselines/lsmt_store.h"
#include "server/graph_server.h"
#include "server/loopback.h"
#include "server/net.h"
#include "server/remote_store.h"
#include "server/wire.h"
#include "shard/sharded_store.h"
#include "util/metrics.h"

namespace livegraph {
namespace {

GraphOptions SmallGraphOptions() {
  GraphOptions options;
  options.region_reserve = size_t{1} << 30;
  options.max_vertices = 1 << 18;
  return options;
}

// Engine + server + connected client, with a tiny scan batch budget so
// even short adjacency lists stream across several frames.
struct Harness {
  explicit Harness(size_t scan_batch_edges = 4) {
    engine = std::make_unique<LiveGraphStore>(SmallGraphOptions());
    GraphServer::Options options;
    options.scan_batch_edges = scan_batch_edges;
    // CI hook: LG_TEST_REACTORS pins the event-loop count (the tsan job
    // runs these integration tests at 2); unset keeps the default.
    if (const char* env = std::getenv("LG_TEST_REACTORS")) {
      options.reactors = std::atoi(env);
    }
    server = std::make_unique<GraphServer>(*engine, options);
    EXPECT_TRUE(server->Start());
    client = RemoteStore::Connect("127.0.0.1", server->port());
    EXPECT_NE(client, nullptr);
  }
  ~Harness() {
    client.reset();
    server->Stop();
  }

  std::unique_ptr<Store> engine;
  std::unique_ptr<GraphServer> server;
  std::unique_ptr<RemoteStore> client;
};

TEST(RemoteStore, HandshakeReportsEngineNameAndTraits) {
  Harness harness;
  EXPECT_EQ(harness.client->Name(), "remote/LiveGraph");
  StoreTraits traits = harness.client->Traits();
  EXPECT_TRUE(traits.time_ordered_scans);
  EXPECT_TRUE(traits.snapshot_reads);
  EXPECT_TRUE(traits.transactional_writes);
  EXPECT_EQ(harness.client->BeginReadTxn()->SessionStatus(), Status::kOk);
}

TEST(RemoteStore, ConnectFailsAgainstClosedPort) {
  // Grab a port that is guaranteed closed by binding then releasing it.
  uint16_t dead_port = 0;
  {
    Socket listener = ListenTcp("127.0.0.1", 0, &dead_port);
    ASSERT_TRUE(listener.valid());
  }
  EXPECT_EQ(RemoteStore::Connect("127.0.0.1", dead_port), nullptr);
}

// A fake server that accepts one connection, reads its Hello, and answers
// kOk with `version` and plausible name/traits.
TEST(RemoteStore, ConnectRejectsAHelloReplyOfAnotherVersion) {
  uint16_t port = 0;
  Socket listener = ListenTcp("127.0.0.1", 0, &port);
  ASSERT_TRUE(listener.valid());
  std::thread fake([&] {
    Socket peer = AcceptTcp(listener);
    if (!peer.valid()) return;
    peer.SetRecvTimeout(5'000);
    Frame hello;
    if (!peer.ReadFrame(&hello)) return;
    std::string body;
    WireWriter writer(&body);
    writer.PutU8(StatusToWire(Status::kOk));
    writer.PutU32(3);  // a v3 server
    writer.PutBytes("LiveGraph");
    writer.PutU8(1);
    writer.PutU8(1);
    writer.PutU8(1);
    std::string scratch;
    peer.WriteFrame(MsgType::kReply, kFlagNone, body, &scratch);
    char byte;
    peer.ReadFull(&byte, 1);  // hold the connection until the client hangs up
  });
  EXPECT_EQ(RemoteStore::Connect("127.0.0.1", port), nullptr);
  fake.join();
}

TEST(RemoteStore, WritesAreVisibleThroughTheEmbeddedEngine) {
  Harness harness;
  vertex_t id = harness.client->AddNode("over-the-wire");
  ASSERT_NE(id, kNullVertex);
  // The server applied it to the real engine: read it locally.
  StatusOr<std::string> local = harness.engine->GetNode(id);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(*local, "over-the-wire");
}

TEST(RemoteStore, ScanStreamsAcrossManyBatches) {
  Harness harness(/*scan_batch_edges=*/4);
  vertex_t hub = harness.client->AddNode("hub");
  std::vector<vertex_t> dsts;
  for (int i = 0; i < 23; ++i) {  // 23 edges / 4 per batch -> 6 frames
    vertex_t d = harness.client->AddNode("leaf");
    ASSERT_TRUE(
        harness.client->AddLink(hub, 0, d, "p" + std::to_string(i)).ok());
    dsts.push_back(d);
  }
  auto read = harness.client->BeginReadTxn();
  std::vector<vertex_t> scanned;
  std::vector<std::string> props;
  for (EdgeCursor c = read->ScanLinks(hub, 0); c.Valid(); c.Next()) {
    scanned.push_back(c.dst());
    props.push_back(std::string(c.properties()));
  }
  ASSERT_EQ(scanned.size(), 23u);
  // LiveGraph scans newest-first; properties must track their edges across
  // batch boundaries.
  for (size_t i = 0; i < scanned.size(); ++i) {
    size_t original = scanned.size() - 1 - i;
    EXPECT_EQ(scanned[i], dsts[original]);
    EXPECT_EQ(props[i], "p" + std::to_string(original));
  }
}

TEST(RemoteStore, EarlyExitScanLeavesConnectionUsable) {
  Harness harness(/*scan_batch_edges=*/4);
  vertex_t hub = harness.client->AddNode("hub");
  for (int i = 0; i < 40; ++i) {
    vertex_t d = harness.client->AddNode("leaf");
    ASSERT_TRUE(harness.client->AddLink(hub, 0, d, "x").ok());
  }
  auto read = harness.client->BeginReadTxn();
  {
    // Abandon the stream after 3 of ~10 batches.
    EdgeCursor cursor = read->ScanLinks(hub, 0);
    size_t seen = 0;
    for (; cursor.Valid() && seen < 3; cursor.Next()) seen++;
    EXPECT_EQ(seen, 3u);
  }
  // The same session (same connection) must keep working: the pending
  // batches are drained transparently before the next request.
  EXPECT_EQ(read->CountLinks(hub, 0), 40u);
  // And a fresh full scan still sees everything.
  size_t total = 0;
  for (EdgeCursor c = read->ScanLinks(hub, 0); c.Valid(); c.Next()) total++;
  EXPECT_EQ(total, 40u);
}

TEST(RemoteStore, NestedScansAndPointReadsInterleaveOnOneSession) {
  // SNB traversal shape: an outer cursor with point reads and nested
  // scans issued mid-stream on the same session. The outer stream's
  // pending batches must be parked, not lost.
  Harness harness(/*scan_batch_edges=*/2);  // force many in-flight frames
  vertex_t hub = harness.client->AddNode("hub");
  std::vector<vertex_t> mids;
  for (int m = 0; m < 9; ++m) {
    vertex_t mid = harness.client->AddNode("mid" + std::to_string(m));
    ASSERT_TRUE(harness.client->AddLink(hub, 0, mid, "hm").ok());
    for (int l = 0; l < 5; ++l) {
      vertex_t leaf = harness.client->AddNode("leaf");
      ASSERT_TRUE(harness.client->AddLink(mid, 1, leaf, "ml").ok());
    }
    mids.push_back(mid);
  }
  auto read = harness.client->BeginReadTxn();
  size_t outer_count = 0;
  for (EdgeCursor outer = read->ScanLinks(hub, 0); outer.Valid();
       outer.Next()) {
    outer_count++;
    // Point read mid-stream.
    StatusOr<std::string> props = read->GetNode(outer.dst());
    ASSERT_TRUE(props.ok());
    EXPECT_EQ(props->substr(0, 3), "mid");
    // Nested scan mid-stream.
    size_t inner_count = 0;
    for (EdgeCursor inner = read->ScanLinks(outer.dst(), 1); inner.Valid();
         inner.Next()) {
      inner_count++;
      EXPECT_EQ(inner.properties(), "ml");
    }
    EXPECT_EQ(inner_count, 5u);
  }
  EXPECT_EQ(outer_count, 9u);
}

TEST(RemoteStore, ScanLimitIsEnforcedServerSide) {
  Harness harness(/*scan_batch_edges=*/4);
  vertex_t hub = harness.client->AddNode("hub");
  for (int i = 0; i < 30; ++i) {
    vertex_t d = harness.client->AddNode("leaf");
    ASSERT_TRUE(harness.client->AddLink(hub, 0, d, "x").ok());
  }
  auto read = harness.client->BeginReadTxn();
  size_t yielded = 0;
  for (EdgeCursor c = read->ScanLinks(hub, 0, 7); c.Valid(); c.Next()) {
    yielded++;
  }
  EXPECT_EQ(yielded, 7u);
  EXPECT_FALSE(read->ScanLinks(hub, 0, 0).Valid());
  EXPECT_FALSE(read->ScanLinks(hub, 99).Valid());  // empty list
}

TEST(RemoteStore, SessionsReuseConnectionsFromThePool) {
  Harness harness;
  for (int i = 0; i < 8; ++i) {
    auto txn = harness.client->BeginTxn();
    ASSERT_TRUE(txn->AddNode("n").ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // Sequential sessions ride one pooled connection — no dial per session.
  EXPECT_EQ(harness.client->idle_connections(), 1u);
}

TEST(RemoteStore, OpsAfterServerStopReportUnavailable) {
  Harness harness;
  vertex_t id = harness.client->AddNode("n");
  ASSERT_NE(id, kNullVertex);
  harness.server->Stop();
  // New sessions cannot dial; their operations degrade to kUnavailable
  // (and RunWrite-backed wrappers surface failure without retry storms).
  auto txn = harness.client->BeginTxn();
  EXPECT_EQ(txn->AddNode("x").status(), Status::kUnavailable);
  EXPECT_EQ(txn->Commit().status(), Status::kUnavailable);
  EXPECT_EQ(harness.client->GetNode(id).status(), Status::kUnavailable);
  // Status-less reads (CountLinks, ScanLinks) expose the dead connection
  // through SessionStatus, so drivers can count the op as failed.
  auto read = harness.client->BeginReadTxn();
  EXPECT_EQ(read->CountLinks(id, 0), 0u);
  EXPECT_EQ(read->SessionStatus(), Status::kUnavailable);
}

TEST(RemoteStore, GarbageBytesTearDownTheConnectionNotTheServer) {
  Harness harness;
  // A raw socket spews non-protocol bytes: the server must drop that
  // connection (CRC/magic guard) and keep serving others.
  Socket raw = ConnectTcp("127.0.0.1", harness.server->port());
  ASSERT_TRUE(raw.valid());
  std::string garbage(64, '\xEE');
  // The write itself may race the server's hang-up; only the outcome
  // (connection closed, server alive) is asserted.
  raw.WriteFull(garbage.data(), garbage.size());
  char byte;
  EXPECT_FALSE(raw.ReadFull(&byte, 1)) << "server should hang up";
  // The real client still works.
  EXPECT_NE(harness.client->AddNode("still-alive"), kNullVertex);
}

TEST(RemoteStore, DroppedConnectionAbortsOpenTransactions) {
  Harness harness;
  vertex_t id = harness.client->AddNode("base");
  {
    // Speak the protocol over a raw socket so the connection can vanish
    // mid-transaction with no polite Abort on the wire.
    Socket raw = ConnectTcp("127.0.0.1", harness.server->port());
    ASSERT_TRUE(raw.valid());
    std::string scratch;
    auto call = [&](MsgType type, const std::string& body, Frame* reply) {
      return raw.WriteFrame(type, kFlagNone, body, &scratch) &&
             raw.ReadFrame(reply);
    };
    std::string body;
    WireWriter hello(&body);
    hello.PutU32(kProtocolVersion);
    Frame reply;
    ASSERT_TRUE(call(MsgType::kHello, body, &reply));

    const uint64_t txn_id = 1;  // v4: the client picks the id
    body.clear();
    WireWriter begin(&body);
    begin.PutU64(txn_id);
    ASSERT_TRUE(call(MsgType::kBeginTxn, body, &reply));
    WireReader reader(reply.body);
    uint8_t status;
    ASSERT_TRUE(reader.GetU8(&status));
    ASSERT_EQ(StatusFromWire(status), Status::kOk);
    ASSERT_TRUE(reader.Exhausted());

    body.clear();
    WireWriter add(&body);
    add.PutU64(txn_id);
    add.PutI64(id);
    add.PutU16(0);
    add.PutI64(id);
    add.PutBytes("staged");
    ASSERT_TRUE(call(MsgType::kAddLink, body, &reply));
    // Socket closes here — no Commit, no Abort frame.
  }
  // Server-side session cleanup aborted the staged write.
  for (int i = 0; i < 100; ++i) {  // connection teardown is asynchronous
    if (harness.server->active_connections() <= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(harness.engine->GetLink(id, 0, id).status(), Status::kNotFound);
}

// One blocking wait per request: the begin rides in the first request's
// send and END_READ is never waited for.
TEST(RemoteStore, OneOpReadSessionsCostOneWaitEach) {
  Harness harness(/*scan_batch_edges=*/4);
  RemoteStore& client = *harness.client;
  vertex_t hub = client.AddNode("hub");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.AddLink(hub, 0, client.AddNode("leaf"), "e").ok());
  }
  const uint64_t before = client.reply_waits();
  for (int i = 0; i < 100; ++i) {
    auto read = client.BeginReadTxn();
    switch (i % 3) {
      case 0:
        ASSERT_EQ(read->GetNode(hub).value_or(""), "hub");
        break;
      case 1:
        ASSERT_EQ(read->CountLinks(hub, 0), 3u);
        break;
      default: {
        size_t edges = 0;
        for (EdgeCursor c = read->ScanLinks(hub, 0); c.Valid(); c.Next()) {
          ++edges;
        }
        ASSERT_EQ(edges, 3u);
      }
    }
  }
  EXPECT_EQ(client.reply_waits() - before, 100u);
}

TEST(RemoteStore, OneMutationWriteSessionCostsTwoWaits) {
  Harness harness;
  RemoteStore& client = *harness.client;
  vertex_t a = client.AddNode("a");
  vertex_t b = client.AddNode("b");
  const uint64_t before = client.reply_waits();
  auto txn = client.BeginTxn();
  ASSERT_TRUE(txn->AddLink(a, 0, b, "edge").ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(client.reply_waits() - before, 2u);
}

uint64_t ServerRequests(const char* op) {
  return metrics::Registry::Instance().Collect().counter(
      std::string("livegraph_server_requests_total{op=\"") + op + "\"}");
}

TEST(RemoteStore, ReadSessionWithoutRequestsSendsNothing) {
  Harness harness;
  RemoteStore& client = *harness.client;
  ASSERT_NE(client.AddNode("warm"), kNullVertex);
  const uint64_t begins = ServerRequests("BEGIN_READ_TXN");
  const uint64_t writes = ServerRequests("BEGIN_TXN");
  const uint64_t waits = client.reply_waits();
  { auto read = client.BeginReadTxn(); }
  EXPECT_EQ(client.reply_waits(), waits);
  // A write on the same pooled connection: once the server has answered
  // it, every frame sent before it has been handled too.
  ASSERT_NE(client.AddNode("after"), kNullVertex);
  EXPECT_EQ(ServerRequests("BEGIN_TXN") - writes, 1u);
  EXPECT_EQ(ServerRequests("BEGIN_READ_TXN"), begins);
}

// END_READ is one-way and may be held back for the connection's next
// request; on a connection that stays idle it still reaches the server
// (the kernel's cork ceiling is about 200 ms), so no snapshot stays pinned.
TEST(RemoteStore, EndReadReachesTheServerOnAnIdleConnection) {
  Harness harness;
  vertex_t v = harness.client->AddNode("v");
  auto open_txns = [] {
    return metrics::Registry::Instance().Collect().gauge(
        "livegraph_server_open_txns");
  };
  const int64_t before = open_txns();
  {
    auto read = harness.client->BeginReadTxn();
    ASSERT_EQ(read->GetNode(v).value_or(""), "v");
    EXPECT_EQ(open_txns(), before + 1);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (open_txns() != before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(open_txns(), before);
}

ShardOptions SmallShardOptions() {
  ShardOptions options;
  options.shards = 4;
  options.graph = SmallGraphOptions();
  return options;
}

// A lazy begin still takes its snapshot before any commit the same
// RemoteStore sends after Begin*() returned: thread A begins, thread B
// then commits an update through the same store, and A's first read (sent
// after that commit) must see the old value.
void ExpectSnapshotPrecedesLaterCommits(std::unique_ptr<Store> engine) {
  GraphServer::Options options;
  if (const char* env = std::getenv("LG_TEST_REACTORS")) {
    options.reactors = std::atoi(env);
  }
  std::unique_ptr<Store> store = MakeLoopbackStore(std::move(engine), options);
  ASSERT_NE(store, nullptr);
  vertex_t v = store->AddNode("value-0");
  ASSERT_NE(v, kNullVertex);
  constexpr int kRounds = 1000;
  std::atomic<int> step{0};  // 2i+1: A began round i; 2i+2: B committed
  auto await = [&](int value) {
    while (step.load(std::memory_order_acquire) < value) {
      std::this_thread::yield();
    }
  };
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 1; i <= kRounds; ++i) {
      await(2 * i - 1);
      if (store->UpdateNode(v, "value-" + std::to_string(i)) != Status::kOk) {
        failures.fetch_add(1);
      }
      step.store(2 * i, std::memory_order_release);
    }
  });
  int stale_violations = 0;
  for (int i = 1; i <= kRounds; ++i) {
    auto read = store->BeginReadTxn();
    step.store(2 * i - 1, std::memory_order_release);
    await(2 * i);
    if (read->GetNode(v).value_or("") != "value-" + std::to_string(i - 1)) {
      ++stale_violations;
    }
  }
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(stale_violations, 0);
}

TEST(RemoteStore, LazyBeginPrecedesLaterCommitsOnLiveGraph) {
  ExpectSnapshotPrecedesLaterCommits(
      std::make_unique<LiveGraphStore>(SmallGraphOptions()));
}

TEST(RemoteStore, LazyBeginPrecedesLaterCommitsOnShardedLiveGraph) {
  ExpectSnapshotPrecedesLaterCommits(
      std::make_unique<ShardedStore>(SmallShardOptions()));
}

TEST(RemoteStore, ConcurrentClientsCommitIndependently) {
  Harness harness;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto txn = harness.client->BeginTxn();
        StatusOr<vertex_t> added = txn->AddNode("c");
        if (!added.ok() || !txn->Commit().ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  auto read = harness.client->BeginReadTxn();
  EXPECT_GE(read->VertexCount(), vertex_t{kThreads * kOpsPerThread});
}

TEST(LoopbackStore, WrapsBaselineEngine) {
  auto loopback = MakeLoopbackStore(std::make_unique<LsmtStore>());
  ASSERT_NE(loopback, nullptr);
  EXPECT_EQ(loopback->Name(), "remote/LSMT(RocksDB)");
  EXPECT_FALSE(loopback->Traits().snapshot_reads);
  vertex_t a = loopback->AddNode("a");
  vertex_t b = loopback->AddNode("b");
  ASSERT_TRUE(loopback->AddLink(a, 3, b, "edge").ok());
  StatusOr<std::string> out = loopback->GetLink(a, 3, b);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "edge");
  EXPECT_EQ(loopback->CountLinks(a, 3), 1u);
}

// One event loop multiplexes every connection: overlapping write and read
// sessions (one pooled connection each) all make progress on it.
TEST(LoopbackStore, OverlappingSessionsShareOneEventLoop) {
  GraphServer::Options options;
  options.reactors = 1;
  auto loopback = MakeLoopbackStore(std::make_unique<LsmtStore>(), options);
  ASSERT_NE(loopback, nullptr);
  auto first = loopback->BeginTxn();
  auto second = loopback->BeginTxn();
  auto read = loopback->BeginReadTxn();
  StatusOr<vertex_t> a = first->AddNode("a");
  StatusOr<vertex_t> b = second->AddNode("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(read->GetNode(*a).ok());  // the LSMT writes in place
  EXPECT_TRUE(second->Commit().ok());
  EXPECT_TRUE(first->Commit().ok());
}

// The latch baselines hold a pthread latch from Begin to Commit, so a
// second session on the same event-loop thread would relock it there
// (EDEADLK or a hang). The server refuses them instead of serving the
// first session and wedging on the second.
TEST(LoopbackStore, RefusesEnginesWithoutInterleavedSessions) {
  GraphServer::Options options;
  options.reactors = 1;
  EXPECT_EQ(MakeLoopbackStore(std::make_unique<LinkedListStore>(), options),
            nullptr);
  BTreeStore btree;
  GraphServer server(btree, options);
  EXPECT_FALSE(server.Start());
  EXPECT_EQ(server.active_connections(), 0u);
}

}  // namespace
}  // namespace livegraph
