// Replication under adversity. Two groups:
//
//  * Multi-follower topology tests (always compiled): N >= 2 subscribers
//    on one hub, including one follower lapped past the log's hard cap
//    while the other stays live — both must converge.
//  * Chaos tests (fault build only): injected push failures, torn frames,
//    and send delays on the replication stream must end sessions cleanly
//    and converge after resubscription — never wedge, never diverge. The
//    client's buffered reply path keeps the same torn-read failpoint.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/store.h"
#include "replication/epoch_frontier.h"
#include "replication/replica.h"
#include "replication/replication_hub.h"
#include "server/graph_server.h"
#include "server/net.h"
#include "server/remote_store.h"
#include "shard/sharded_store.h"
#include "util/fault_injection.h"
#include "util/metrics.h"

#include "frontier_wait.h"

namespace livegraph {
namespace {

std::string TempDir(const char* tag) {
  static int counter = 0;
  std::string dir = std::string("/tmp/lg_repl_chaos_") + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter++);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

ShardOptions PrimaryOptions(const std::string& dir) {
  ShardOptions options;
  options.shards = 2;
  options.dir = dir;
  options.graph.region_reserve = size_t{1} << 30;
  options.graph.max_vertices = 1 << 16;
  options.graph.fsync_wal = false;
  return options;
}

// One primary node; `log_options` sizes the replication buffer (tiny caps
// force laps).
struct Primary {
  explicit Primary(const std::string& dir,
                   ReplicationLog::Options log_options = {})
      : hub(log_options) {
    store = ShardedStore::Recover(PrimaryOptions(dir));
    if (store == nullptr) return;
    if (!hub.Attach(*store)) return;
    frontier = std::make_unique<DomainFrontier>(hub.domain());
    GraphServer::Options options;
    options.replication = &hub;
    options.frontier = frontier.get();
    server = std::make_unique<GraphServer>(*store, options);
    ok = server->Start();
  }
  ~Primary() {
    if (server != nullptr) server->Stop();
  }

  std::unique_ptr<ShardedStore> store;
  ReplicationHub hub;
  std::unique_ptr<DomainFrontier> frontier;
  std::unique_ptr<GraphServer> server;
  bool ok = false;
};

std::unique_ptr<Replica> StartFollower(Primary& primary) {
  Replica::Options options;
  options.primary_port = primary.server->port();
  options.graph = PrimaryOptions("").graph;
  auto replica = std::make_unique<Replica>(options);
  replica->Start();
  return replica;
}

timestamp_t WriteOne(Store& store, const std::string& props, vertex_t src,
                     label_t label) {
  auto txn = store.BeginTxn();
  StatusOr<vertex_t> added = txn->AddNode(props);
  EXPECT_TRUE(added.ok());
  if (added.ok()) {
    EXPECT_TRUE(txn->AddLink(src, label, *added, "e-" + props).ok());
  }
  StatusOr<timestamp_t> epoch = txn->Commit();
  EXPECT_TRUE(epoch.ok());
  return epoch.ok() ? *epoch : 0;
}

std::vector<std::pair<vertex_t, std::string>> Links(StoreReadTxn& read,
                                                    vertex_t src,
                                                    label_t label) {
  std::vector<std::pair<vertex_t, std::string>> out;
  for (EdgeCursor c = read.ScanLinks(src, label); c.Valid(); c.Next()) {
    out.emplace_back(c.dst(), std::string(c.properties()));
  }
  return out;
}

void ExpectConverged(Store& primary, Store& follower) {
  auto p = primary.BeginReadTxn();
  auto f = follower.BeginReadTxn();
  ASSERT_EQ(f->SessionStatus(), Status::kOk);
  ASSERT_EQ(p->VertexCount(), f->VertexCount());
  for (vertex_t v = 0; v < p->VertexCount(); ++v) {
    auto pn = p->GetNode(v);
    auto fn = f->GetNode(v);
    ASSERT_EQ(pn.status(), fn.status()) << "vertex " << v;
    if (pn.ok()) {
      EXPECT_EQ(*pn, *fn) << "vertex " << v;
    }
    for (label_t label = 0; label < 2; ++label) {
      EXPECT_EQ(Links(*p, v, label), Links(*f, v, label))
          << "adjacency of " << v << "/" << label;
    }
  }
}

// --- Multi-follower topology (runs in every build) ----------------------

TEST(MultiFollower, TwoSubscribersConvergeIndependently) {
  std::string root = TempDir("two");
  Primary primary(root + "/primary");
  ASSERT_TRUE(primary.ok);

  vertex_t hub_vertex = primary.store->AddNode("hub");
  auto follower_a = StartFollower(primary);
  auto follower_b = StartFollower(primary);
  ASSERT_TRUE(follower_a->WaitReady(10000));
  ASSERT_TRUE(follower_b->WaitReady(10000));

  timestamp_t last = 0;
  for (int i = 0; i < 32; ++i) {
    last = WriteOne(*primary.store, "n" + std::to_string(i), hub_vertex,
                    static_cast<label_t>(i % 2));
  }
  ASSERT_GT(last, 0);
  ASSERT_TRUE(WaitCovered(follower_a->frontier(), last, 10000));
  ASSERT_TRUE(WaitCovered(follower_b->frontier(), last, 10000));
  ExpectConverged(*primary.store, follower_a->store());
  ExpectConverged(*primary.store, follower_b->store());

  follower_a->Stop();
  follower_b->Stop();
  std::filesystem::remove_all(root);
}

TEST(MultiFollower, LappedFollowerResubscribesWhileOtherStaysLive) {
  std::string root = TempDir("lapped");
  // A log small enough that any pause laps a subscriber.
  ReplicationLog::Options log_options;
  log_options.soft_bytes = 256;
  log_options.hard_bytes = 512;
  Primary primary(root + "/primary", log_options);
  ASSERT_TRUE(primary.ok);

  vertex_t hub_vertex = primary.store->AddNode("hub");
  auto live = StartFollower(primary);
  auto laggard = StartFollower(primary);
  ASSERT_TRUE(live->WaitReady(10000));
  ASSERT_TRUE(laggard->WaitReady(10000));

  // Take the laggard down, then push far more bytes than the hard cap:
  // its resume point is guaranteed evicted.
  laggard->Stop();
  timestamp_t last = 0;
  for (int i = 0; i < 64; ++i) {
    last = WriteOne(*primary.store, "burst" + std::to_string(i), hub_vertex,
                    static_cast<label_t>(i % 2));
  }
  ASSERT_GT(primary.hub.log().trim_epoch(), 0) << "the log must have lapped";
  ASSERT_TRUE(WaitCovered(live->frontier(), last, 10000))
      << "the live follower must not be disturbed by the laggard";

  // The laggard comes back with a stale frontier: the hub must route it
  // through the snapshot tier, and it still converges.
  laggard->Start();
  ASSERT_TRUE(laggard->WaitReady(10000));
  ASSERT_TRUE(WaitCovered(laggard->frontier(), last, 10000));
  ExpectConverged(*primary.store, live->store());
  ExpectConverged(*primary.store, laggard->store());

  live->Stop();
  laggard->Stop();
  std::filesystem::remove_all(root);
}

#if defined(LIVEGRAPH_FAULTS_ENABLED)

// --- Chaos (fault build only) -------------------------------------------

class ReplicationChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { faults::Clear(); }
  void TearDown() override { faults::Clear(); }
};

// An injected failure in the primary's push loop kills the session; the
// follower must notice the dead stream, resubscribe, and converge.
TEST_F(ReplicationChaosTest, DroppedPushStreamResubscribesAndConverges) {
  std::string root = TempDir("drop");
  Primary primary(root + "/primary");
  ASSERT_TRUE(primary.ok);
  vertex_t hub_vertex = primary.store->AddNode("hub");

  auto follower = StartFollower(primary);
  ASSERT_TRUE(follower->WaitReady(10000));
  for (int i = 0; i < 8; ++i) {
    WriteOne(*primary.store, "pre" + std::to_string(i), hub_vertex, 0);
  }

  // Kill the live push session once; the next subscription streams clean.
  ASSERT_TRUE(faults::Configure("repl.push=error:EPIPE@once"));
  timestamp_t last = 0;
  for (int i = 0; i < 24; ++i) {
    last = WriteOne(*primary.store, "post" + std::to_string(i), hub_vertex,
                    static_cast<label_t>(i % 2));
  }
  ASSERT_TRUE(WaitCovered(follower->frontier(), last, 15000))
      << "follower must resubscribe through the injected drop";
  EXPECT_GE(follower->resubscribes(), 1u);
  ExpectConverged(*primary.store, follower->store());

  follower->Stop();
  std::filesystem::remove_all(root);
}

// A torn frame (short network read, then mid-frame close) tears exactly
// one session; framing (CRC + resubscribe) keeps the topology convergent.
TEST_F(ReplicationChaosTest, TornFrameConvergesAfterResubscribe) {
  std::string root = TempDir("torn");
  Primary primary(root + "/primary");
  ASSERT_TRUE(primary.ok);
  vertex_t hub_vertex = primary.store->AddNode("hub");

  auto follower = StartFollower(primary);
  ASSERT_TRUE(follower->WaitReady(10000));

  ASSERT_TRUE(faults::Configure("net.recv=short:3@after=4,once"));
  timestamp_t last = 0;
  for (int i = 0; i < 24; ++i) {
    last = WriteOne(*primary.store, "t" + std::to_string(i), hub_vertex,
                    static_cast<label_t>(i % 2));
  }
  ASSERT_TRUE(WaitCovered(follower->frontier(), last, 15000));
  ExpectConverged(*primary.store, follower->store());

  follower->Stop();
  std::filesystem::remove_all(root);
}

// Injected send delays stretch the stream without breaking it: the
// follower still converges, with zero forced resubscriptions required.
TEST_F(ReplicationChaosTest, DelayedStreamStillConverges) {
  std::string root = TempDir("delay");
  Primary primary(root + "/primary");
  ASSERT_TRUE(primary.ok);
  vertex_t hub_vertex = primary.store->AddNode("hub");

  auto follower = StartFollower(primary);
  ASSERT_TRUE(follower->WaitReady(10000));

  ASSERT_TRUE(faults::Configure("net.send=delay:20@prob=0.25"));
  timestamp_t last = 0;
  for (int i = 0; i < 16; ++i) {
    last = WriteOne(*primary.store, "d" + std::to_string(i), hub_vertex,
                    static_cast<label_t>(i % 2));
  }
  ASSERT_TRUE(WaitCovered(follower->frontier(), last, 15000));
  faults::Clear();
  ExpectConverged(*primary.store, follower->store());

  follower->Stop();
  std::filesystem::remove_all(root);
}

// A degraded primary surfaces its typed status over the wire: remote
// commits report kResourceExhausted/kIOError, remote reads keep working.
TEST_F(ReplicationChaosTest, DegradedPrimarySurfacesTypedStatusOnWire) {
  std::string root = TempDir("wire");
  Primary primary(root + "/primary");
  ASSERT_TRUE(primary.ok);
  vertex_t seeded = primary.store->AddNode("seed");

  auto client = RemoteStore::Connect("127.0.0.1", primary.server->port());
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(faults::Configure("wal.append=error:ENOSPC"));
  {
    auto txn = client->BeginTxn();
    ASSERT_TRUE(txn->AddNode("doomed").ok());
    EXPECT_EQ(txn->Commit().status(), Status::kResourceExhausted)
        << "the typed degraded status must cross the wire intact";
  }
  faults::Clear();
  {
    auto txn = client->BeginTxn();
    ASSERT_TRUE(txn->AddNode("rejected").ok());
    EXPECT_EQ(txn->Commit().status(), Status::kResourceExhausted)
        << "degraded mode is sticky until restart";
  }
  {
    auto read = client->BeginReadTxn();
    auto props = read->GetNode(seeded);
    ASSERT_TRUE(props.ok()) << "reads keep serving the last durable epoch";
    EXPECT_EQ(*props, "seed");
  }

  client.reset();
  std::filesystem::remove_all(root);
}

// The refills of FrameReader (RemoteStore's reply path) count received
// bytes and go through the "net.recv" failpoint: a torn refill fails the
// read instead of waiting for the rest of the frame.
TEST_F(ReplicationChaosTest, TornRefillFailsTheBufferedReplyRead) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket writer(fds[0]);
  Socket reader(fds[1]);
  metrics::Counter& rx = metrics::Registry::Instance().GetCounter(
      "livegraph_test_frame_reader_rx_bytes_total");
  reader.SetByteCounters(&rx, nullptr);
  std::string frame;
  EncodeFrame(MsgType::kReply, kFlagNone, "a reply body", &frame);
  std::atomic<uint64_t> recvs{0};
  FrameReader frames(&recvs);
  Frame got;

  const uint64_t rx_before = rx.Value();
  ASSERT_TRUE(writer.WriteFull(frame.data(), frame.size()));
  ASSERT_TRUE(frames.Read(&reader, &got));
  EXPECT_EQ(rx.Value() - rx_before, frame.size());
  EXPECT_EQ(recvs.load(), 1u);

  ASSERT_TRUE(writer.WriteFull(frame.data(), frame.size()));
  ASSERT_TRUE(faults::Configure("net.recv=short:3@once"));
  EXPECT_FALSE(frames.Read(&reader, &got));
  EXPECT_EQ(recvs.load(), 2u);
  faults::Clear();
  EXPECT_FALSE(frames.Read(&reader, &got)) << "the stream stays torn";
}

#endif  // LIVEGRAPH_FAULTS_ENABLED

}  // namespace
}  // namespace livegraph
