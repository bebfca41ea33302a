// Replication subsystem (docs/REPLICATION.md): the primary-side log and
// follower frontier as units, then the full topology end to end over real
// loopback TCP — catch-up mid-workload, durable resubscribe after a
// follower death, read-your-epoch failover, the follower's write
// rejection, and a primary drain tearing down a live push stream.
// Convergence is always asserted on rows (dst + properties + order), never
// on timestamps: the two nodes run separate epoch spaces by design.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/store.h"
#include "replication/epoch_frontier.h"
#include "replication/replica.h"
#include "replication/replication_hub.h"
#include "replication/replication_log.h"
#include "server/graph_server.h"
#include "server/remote_store.h"
#include "shard/sharded_store.h"

#include "frontier_wait.h"

namespace livegraph {
namespace {

// --- ReplicationLog ----------------------------------------------------

TEST(ReplicationLogTest, FetchFiltersCatchUpEpochsSilently) {
  ReplicationLog log;
  for (timestamp_t e = 1; e <= 5; ++e) {
    log.Append(/*shard=*/0, e, /*participants=*/1, "p" + std::to_string(e));
  }
  timestamp_t trim = -1;
  uint64_t cursor = log.OpenCursor(&trim);
  EXPECT_EQ(trim, 0) << "nothing evicted yet";

  std::vector<ReplicationLog::Entry> out;
  bool more = true;
  // Epochs <= 2 reached the subscriber through its catch-up phase; the
  // live drain must consume them without delivering them.
  ASSERT_EQ(log.Fetch(cursor, /*filter_epoch=*/2, 1 << 20, /*timeout_ms=*/0,
                      &out, &more),
            ReplicationLog::FetchStatus::kOk);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].epoch, 3);
  EXPECT_EQ(out[2].epoch, 5);
  EXPECT_EQ(out[2].payload, "p5");
  EXPECT_FALSE(more);

  // Drained: nothing new within a zero deadline is a heartbeat tick.
  EXPECT_EQ(log.Fetch(cursor, 2, 1 << 20, 0, &out, &more),
            ReplicationLog::FetchStatus::kTimeout);
  log.CloseCursor(cursor);
}

TEST(ReplicationLogTest, MoreFlagHoldsFrontierUntilDrained) {
  ReplicationLog log;
  const std::string payload(100, 'x');
  for (timestamp_t e = 1; e <= 3; ++e) log.Append(0, e, 1, payload);
  timestamp_t trim = 0;
  uint64_t cursor = log.OpenCursor(&trim);

  std::vector<ReplicationLog::Entry> out;
  bool more = false;
  // max_bytes below one payload: progress guarantee still delivers the
  // first entry, and `more` warns the push loop not to advance its
  // shipped frontier yet.
  ASSERT_EQ(log.Fetch(cursor, 0, /*max_bytes=*/1, 0, &out, &more),
            ReplicationLog::FetchStatus::kOk);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].epoch, 1);
  EXPECT_TRUE(more);

  size_t total = out.size();
  while (more) {
    ASSERT_EQ(log.Fetch(cursor, 0, 1, 0, &out, &more),
              ReplicationLog::FetchStatus::kOk);
    total += out.size();
  }
  EXPECT_EQ(total, 3u);
  log.CloseCursor(cursor);
}

TEST(ReplicationLogTest, HardCapEvictionLapsSlowCursor) {
  ReplicationLog::Options options;
  options.soft_bytes = 64;
  options.hard_bytes = 128;
  ReplicationLog log(options);

  timestamp_t trim = 0;
  uint64_t cursor = log.OpenCursor(&trim);
  const std::string payload(64, 'x');
  for (timestamp_t e = 1; e <= 10; ++e) log.Append(0, e, 1, payload);

  // 640 bytes through a 128-byte hard cap: the open cursor could not hold
  // eviction back, so it must report the lap instead of silently skipping.
  EXPECT_LE(log.buffered_bytes(), options.hard_bytes);
  EXPECT_GE(log.trim_epoch(), 8);
  std::vector<ReplicationLog::Entry> out;
  bool more = false;
  EXPECT_EQ(log.Fetch(cursor, 0, 1 << 20, 0, &out, &more),
            ReplicationLog::FetchStatus::kLapped);
  log.CloseCursor(cursor);

  // A fresh subscription registered now sees the trim bound it must
  // catch up to by other means.
  uint64_t cursor2 = log.OpenCursor(&trim);
  EXPECT_EQ(trim, log.trim_epoch());
  EXPECT_EQ(log.Fetch(cursor2, trim, 1 << 20, 0, &out, &more),
            ReplicationLog::FetchStatus::kOk);
  for (const ReplicationLog::Entry& entry : out) EXPECT_GT(entry.epoch, trim);
  log.CloseCursor(cursor2);
}

TEST(ReplicationLogTest, CloseWakesBlockedFetch) {
  ReplicationLog log;
  timestamp_t trim = 0;
  uint64_t cursor = log.OpenCursor(&trim);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    log.Close();
  });
  std::vector<ReplicationLog::Entry> out;
  bool more = false;
  EXPECT_EQ(log.Fetch(cursor, 0, 1 << 20, /*timeout_ms=*/5000, &out, &more),
            ReplicationLog::FetchStatus::kClosed);
  closer.join();
}

// --- ReplicaFrontier ---------------------------------------------------

TEST(ReplicaFrontierTest, AdvanceIsMonotoneAndSeenByPollers) {
  ReplicaFrontier frontier;
  EXPECT_EQ(frontier.Frontier(), 0);
  frontier.Advance(5);
  frontier.Advance(3);  // stale advances are ignored
  EXPECT_EQ(frontier.Frontier(), 5);

  EXPECT_TRUE(WaitCovered(frontier, 5, 0)) << "already covered: no wait";
  EXPECT_FALSE(WaitCovered(frontier, 6, 30))
      << "an uncovered (possibly garbage) epoch must time out, not hang";

  std::thread advancer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    frontier.Advance(10);
  });
  EXPECT_TRUE(WaitCovered(frontier, 10, 5000));
  advancer.join();
}

// --- End to end over loopback TCP --------------------------------------

std::string TempDir(const char* tag) {
  static int counter = 0;
  std::string dir = std::string("/tmp/lg_replication_") + tag + "_" +
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

// One primary node: recovered durable store, hub attached, server up.
struct Primary {
  explicit Primary(const std::string& dir) {
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

// One committed write txn; returns the primary commit epoch.
timestamp_t WriteOne(Store& store, const std::string& node_props,
                     vertex_t link_src, label_t label,
                     const std::string& link_props) {
  auto txn = store.BeginTxn();
  StatusOr<vertex_t> added = txn->AddNode(node_props);
  EXPECT_TRUE(added.ok());
  if (added.ok()) {
    StatusOr<bool> linked = txn->AddLink(link_src, label, *added, link_props);
    EXPECT_TRUE(linked.ok());
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

// Rows must match bit for bit: same vertices, same properties, same
// adjacency contents in the same order. Timestamps are deliberately never
// compared — the epoch spaces diverge.
void ExpectConverged(Store& primary, Store& follower) {
  auto p = primary.BeginReadTxn();
  auto f = follower.BeginReadTxn();
  ASSERT_EQ(f->SessionStatus(), Status::kOk);
  ASSERT_EQ(p->VertexCount(), f->VertexCount());
  for (vertex_t v = 0; v < p->VertexCount(); ++v) {
    StatusOr<std::string> pn = p->GetNode(v);
    StatusOr<std::string> fn = f->GetNode(v);
    ASSERT_EQ(pn.status(), fn.status()) << "vertex " << v;
    if (pn.ok()) EXPECT_EQ(*pn, *fn) << "vertex " << v;
    for (label_t label = 0; label < 2; ++label) {
      EXPECT_EQ(Links(*p, v, label), Links(*f, v, label))
          << "adjacency of " << v << "/" << label;
    }
  }
}

TEST(ReplicationEndToEnd, FollowerCatchesUpMidWorkloadAndConverges) {
  std::string root = TempDir("catchup");
  Primary primary(root + "/primary");
  ASSERT_TRUE(primary.ok);

  // Phase 1: a workload already durable before the follower exists — its
  // subscription has to bootstrap all of this.
  std::vector<vertex_t> nodes;
  for (int i = 0; i < 24; ++i) {
    nodes.push_back(primary.store->AddNode("n" + std::to_string(i)));
  }
  for (int i = 0; i < 24; ++i) {
    primary.store->AddLink(nodes[static_cast<size_t>(i % 6)], 0,
                           nodes[static_cast<size_t>(i)],
                           "e" + std::to_string(i));
  }

  // Follower subscribes mid-workload (in-memory: fresh snapshot
  // bootstrap) ...
  Replica::Options replica_options;
  replica_options.primary_port = primary.server->port();
  replica_options.graph = PrimaryOptions("").graph;
  Replica replica(replica_options);
  replica.Start();
  ASSERT_TRUE(replica.WaitReady(10000));

  // ... while phase 2 keeps committing against the live stream.
  timestamp_t last = 0;
  for (int i = 0; i < 48; ++i) {
    last = WriteOne(*primary.store, "m" + std::to_string(i),
                    nodes[static_cast<size_t>(i) % nodes.size()], 1,
                    "late" + std::to_string(i));
  }
  ASSERT_GT(last, 0);
  ASSERT_TRUE(WaitCovered(replica.frontier(), last, 10000))
      << "follower frontier never covered the final primary commit";

  ExpectConverged(*primary.store, replica.store());
  replica.Stop();
  std::filesystem::remove_all(root);
}

TEST(ReplicationEndToEnd, RestartedFollowerResubscribesFromDurableState) {
  std::string root = TempDir("restart");
  Primary primary(root + "/primary");
  ASSERT_TRUE(primary.ok);

  timestamp_t last = 0;
  vertex_t hub_vertex = primary.store->AddNode("hub");
  for (int i = 0; i < 20; ++i) {
    last = WriteOne(*primary.store, "a" + std::to_string(i), hub_vertex, 0,
                    "e" + std::to_string(i));
  }

  Replica::Options replica_options;
  replica_options.primary_port = primary.server->port();
  replica_options.dir = root + "/replica";
  replica_options.graph = PrimaryOptions("").graph;
  // Tight cadence so the durable frontier trails the stream closely.
  replica_options.checkpoint_every_epochs = 4;
  {
    Replica replica(replica_options);
    replica.Start();
    ASSERT_TRUE(replica.WaitReady(10000));
    ASSERT_TRUE(WaitCovered(replica.frontier(), last, 10000));
    replica.Stop();  // dies mid-workload; REPLICA_STATE stays behind
  }
  ASSERT_TRUE(std::filesystem::exists(root + "/replica/REPLICA_STATE"));

  // The primary keeps committing while the follower is down.
  for (int i = 0; i < 20; ++i) {
    last = WriteOne(*primary.store, "b" + std::to_string(i), hub_vertex, 1,
                    "f" + std::to_string(i));
  }

  Replica replica(replica_options);
  replica.Start();
  // Durable resume: the frontier is restored from REPLICA_STATE before
  // the subscription thread even connects.
  EXPECT_GT(replica.frontier().Frontier(), 0)
      << "restart must resume from the persisted frontier, not epoch 0";
  ASSERT_TRUE(replica.WaitReady(10000));
  ASSERT_TRUE(WaitCovered(replica.frontier(), last, 10000));
  ExpectConverged(*primary.store, replica.store());
  replica.Stop();
  std::filesystem::remove_all(root);
}

TEST(ReplicationEndToEnd, FollowerWithDamagedStoreBootstrapsFromPrimary) {
  std::string root = TempDir("damaged");
  Primary primary(root + "/primary");
  ASSERT_TRUE(primary.ok);
  vertex_t hub_vertex = primary.store->AddNode("hub");
  timestamp_t last = 0;
  for (int i = 0; i < 20; ++i) {
    last = WriteOne(*primary.store, "a" + std::to_string(i), hub_vertex, 0,
                    "e" + std::to_string(i));
  }

  Replica::Options replica_options;
  replica_options.primary_port = primary.server->port();
  replica_options.dir = root + "/replica";
  replica_options.graph = PrimaryOptions("").graph;
  replica_options.checkpoint_every_epochs = 4;
  {
    Replica replica(replica_options);
    replica.Start();
    ASSERT_TRUE(replica.WaitReady(10000));
    ASSERT_TRUE(WaitCovered(replica.frontier(), last, 10000));
    replica.Stop();
  }
  // Cut every checkpoint shard file of the follower's store in half.
  int damaged = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root + "/replica")) {
    if (entry.path().extension() == ".ckpt") {
      std::filesystem::resize_file(entry.path(), entry.file_size() / 2);
      ++damaged;
    }
  }
  ASSERT_GT(damaged, 0);

  // Recovery refuses the damaged store; the follower starts as if it had
  // no saved state and bootstraps from the primary.
  Replica replica(replica_options);
  ::testing::internal::CaptureStderr();
  replica.Start();
  EXPECT_EQ(replica.frontier().Frontier(), 0);
  ASSERT_TRUE(replica.WaitReady(10000));
  ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(WaitCovered(replica.frontier(), last, 10000));
  ExpectConverged(*primary.store, replica.store());
  replica.Stop();
  std::filesystem::remove_all(root);
}

TEST(ReplicationEndToEnd, FollowerRejectsIdsPastItsMaxVertices) {
  std::string root = TempDir("small");
  Primary primary(root + "/primary");
  ASSERT_TRUE(primary.ok);
  // 40 nodes over 2 shards reach local id 19; this follower's shards hold
  // 8 vertices each, so the first payload past them is rejected: each
  // session ends with the frontier short of that commit, and the follower
  // keeps retrying.
  timestamp_t first_rejected = 0;
  for (int i = 0; i < 40; ++i) {
    auto txn = primary.store->BeginTxn();
    StatusOr<vertex_t> node = txn->AddNode("n" + std::to_string(i));
    ASSERT_TRUE(node.ok());
    StatusOr<timestamp_t> epoch = txn->Commit();
    ASSERT_TRUE(epoch.ok());
    if (first_rejected == 0 && primary.store->LocalId(*node) >= 8) {
      first_rejected = *epoch;
    }
  }
  ASSERT_GT(first_rejected, 0);
  Replica::Options replica_options;
  replica_options.primary_port = primary.server->port();
  replica_options.graph = PrimaryOptions("").graph;
  replica_options.graph.max_vertices = 8;
  Replica replica(replica_options);
  replica.Start();
  for (int i = 0; i < 200 && replica.resubscribes() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(replica.resubscribes(), 2u);
  EXPECT_LT(replica.frontier().Frontier(), first_rejected);
  replica.Stop();
  std::filesystem::remove_all(root);
}

TEST(ReplicationEndToEnd, ReadSessionsFailOverWhenFollowerDies) {
  std::string root = TempDir("failover");
  Primary primary(root + "/primary");
  ASSERT_TRUE(primary.ok);

  Replica::Options replica_options;
  replica_options.primary_port = primary.server->port();
  replica_options.graph = PrimaryOptions("").graph;
  auto replica = std::make_unique<Replica>(replica_options);
  replica->Start();
  ASSERT_TRUE(replica->WaitReady(10000));

  GraphServer::Options follower_options;
  follower_options.frontier = &replica->frontier();
  auto follower_server =
      std::make_unique<GraphServer>(replica->store(), follower_options);
  ASSERT_TRUE(follower_server->Start());

  RemoteStore::Options client_options;
  client_options.port = primary.server->port();
  client_options.replica_port = follower_server->port();
  client_options.read_your_epoch_timeout_ms = 5000;
  auto client = RemoteStore::Connect(client_options);
  ASSERT_NE(client, nullptr);

  // Write to the primary, read your own write through the follower.
  vertex_t v = client->AddNode("mine");
  EXPECT_GT(client->last_commit_epoch(), 0);
  {
    auto read = client->BeginReadTxn();
    StatusOr<std::string> props = read->GetNode(v);
    ASSERT_TRUE(props.ok()) << "read-your-epoch read through the follower";
    EXPECT_EQ(*props, "mine");
  }
  EXPECT_EQ(client->read_failovers(), 0u);

  // Kill the follower: reads must transparently fail over to the primary.
  follower_server->Stop();
  follower_server.reset();
  replica->Stop();
  replica.reset();
  {
    auto read = client->BeginReadTxn();
    StatusOr<std::string> props = read->GetNode(v);
    ASSERT_TRUE(props.ok()) << "failover read against the primary";
    EXPECT_EQ(*props, "mine");
  }
  EXPECT_GE(client->read_failovers(), 1u);

  // The follower stays in its penalty box: the next read goes straight to
  // the primary without a redial storm.
  {
    auto read = client->BeginReadTxn();
    EXPECT_TRUE(read->GetNode(v).ok());
  }
  client.reset();
  std::filesystem::remove_all(root);
}

// An adopted subscription is a push stream that never ends on its own,
// so a graceful drain must stop at its deadline and tear the stream down
// rather than wait on it.
TEST(ReplicationEndToEnd, DrainTearsDownAdoptedSubscription) {
  std::string root = TempDir("drain");
  Primary primary(root + "/primary");
  ASSERT_TRUE(primary.ok);
  primary.store->AddNode("seed");

  Replica::Options replica_options;
  replica_options.primary_port = primary.server->port();
  replica_options.graph = PrimaryOptions("").graph;
  Replica replica(replica_options);
  replica.Start();
  ASSERT_TRUE(replica.WaitReady(10000));
  // The handshake reply comes from the stream thread, so it is counted.
  ASSERT_GE(primary.server->active_connections(), 1u);

  auto start = std::chrono::steady_clock::now();
  primary.server->Drain(/*deadline_ms=*/200);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_EQ(primary.server->active_connections(), 0u);

  replica.Stop();
  std::filesystem::remove_all(root);
}

size_t CountDirEntries(const char* dir) {
  size_t n = 0;
  for (auto it = std::filesystem::directory_iterator(dir);
       it != std::filesystem::directory_iterator(); ++it) {
    ++n;
  }
  return n;
}

// Every follower reconnect ends the primary's push stream for the old
// connection. The next adoption must reap it — join its thread, close its
// socket — instead of keeping one finished stream per reconnect until
// Stop(). Threads and descriptors are counted once all streams have ended,
// so the only unreaped stream is the one that just finished.
TEST(ReplicationEndToEnd, ReconnectingFollowerLeavesNoFinishedStreams) {
  std::string root = TempDir("reconnect");
  Primary primary(root + "/primary");
  ASSERT_TRUE(primary.ok);
  primary.store->AddNode("seed");

  Replica::Options replica_options;
  replica_options.primary_port = primary.server->port();
  replica_options.graph = PrimaryOptions("").graph;

  // A push stream notices its follower is gone at its next loop turn: a
  // commit wakes its blocked fetch, otherwise the fetch timeout does.
  auto streams_ended = [&primary] {
    primary.store->AddNode("wake");
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (primary.server->active_connections() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return primary.server->active_connections() == 0;
  };

  constexpr int kReconnects = 20;
  size_t base_threads = 0;
  size_t base_fds = 0;
  for (int i = 0; i <= kReconnects; ++i) {
    {
      Replica replica(replica_options);
      replica.Start();
      ASSERT_TRUE(replica.WaitReady(10000)) << "connection " << i;
      replica.Stop();
    }
    ASSERT_TRUE(streams_ended()) << "connection " << i;
    const size_t threads = CountDirEntries("/proc/self/task");
    const size_t fds = CountDirEntries("/proc/self/fd");
    if (i == 0) {
      base_threads = threads;
      base_fds = fds;
      continue;
    }
    EXPECT_LE(threads, base_threads + 2) << "after reconnect " << i;
    EXPECT_LE(fds, base_fds + 2) << "after reconnect " << i;
  }
  std::filesystem::remove_all(root);
}

// A fresh follower catches up from the log, not from a snapshot, so its
// store exists before anything is applied. WaitReady must still wait for
// the commits the primary had made visible when the follower subscribed.
TEST(ReplicationEndToEnd, FreshFollowerIsReadyOnlyOnceItReadsThePrimarysSeed) {
  std::string root = TempDir("ready");
  Primary primary(root + "/primary");
  ASSERT_TRUE(primary.ok);
  // Enough history that applying it keeps the follower busy for a while
  // after its store exists.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_NE(primary.store->AddNode("h" + std::to_string(i)), kNullVertex);
  }
  auto seed = primary.store->BeginTxn();
  StatusOr<vertex_t> node = seed->AddNode("seed");
  ASSERT_TRUE(node.ok());
  StatusOr<timestamp_t> seed_epoch = seed->Commit();
  ASSERT_TRUE(seed_epoch.ok());

  Replica::Options replica_options;
  replica_options.primary_port = primary.server->port();
  replica_options.graph = PrimaryOptions("").graph;
  Replica replica(replica_options);
  replica.Start();
  ASSERT_TRUE(replica.WaitReady(10000));
  EXPECT_GE(replica.frontier().Frontier(), *seed_epoch);
  auto read = replica.store().BeginReadTxn();
  StatusOr<std::string> props = read->GetNode(*node);
  ASSERT_TRUE(props.ok()) << "ready before the seed commit was applied";
  EXPECT_EQ(*props, "seed");
  read.reset();
  replica.Stop();
  std::filesystem::remove_all(root);
}

TEST(ReplicationEndToEnd, FollowerRejectsWritesOverTheWire) {
  std::string root = TempDir("readonly");
  Primary primary(root + "/primary");
  ASSERT_TRUE(primary.ok);
  auto seed = primary.store->BeginTxn();
  ASSERT_TRUE(seed->AddNode("seed").ok());
  StatusOr<timestamp_t> seed_epoch = seed->Commit();
  ASSERT_TRUE(seed_epoch.ok());

  Replica::Options replica_options;
  replica_options.primary_port = primary.server->port();
  replica_options.graph = PrimaryOptions("").graph;
  Replica replica(replica_options);
  replica.Start();
  ASSERT_TRUE(replica.WaitReady(10000));
  ASSERT_GE(replica.frontier().Frontier(), *seed_epoch);

  // In process: the serving facade refuses every mutation.
  {
    auto txn = replica.store().BeginTxn();
    EXPECT_EQ(txn->AddNode("x").status(), Status::kUnavailable);
    EXPECT_EQ(txn->Commit().status(), Status::kUnavailable);
  }

  // Over the wire: a client dialed straight at the follower can read but
  // not write.
  GraphServer::Options follower_options;
  follower_options.frontier = &replica.frontier();
  GraphServer follower_server(replica.store(), follower_options);
  ASSERT_TRUE(follower_server.Start());
  auto client = RemoteStore::Connect("127.0.0.1", follower_server.port());
  ASSERT_NE(client, nullptr);
  {
    auto read = client->BeginReadTxn();
    EXPECT_GT(read->VertexCount(), 0u) << "reads are served";
  }
  {
    auto txn = client->BeginTxn();
    EXPECT_EQ(txn->AddNode("x").status(), Status::kUnavailable);
    txn->Abort();
  }

  follower_server.Stop();
  replica.Stop();
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace livegraph
