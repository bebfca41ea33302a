// Reactor-frontend integration tests over real loopback TCP: in-connection
// pipelining of buffered frames, the client-side Pipeline batching API,
// idle-connection reaping, output backpressure on streaming scans,
// graceful drain, and parked waits — a contended vertex lock or an
// epoch-gated read parks its connection on the event loop, so it neither
// rides to the engine's deadlock timeout nor stalls other clients.
// Protocol semantics live in remote_store_test.cc.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/livegraph_store.h"
#include "replication/epoch_frontier.h"
#include "server/graph_server.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/remote_store.h"
#include "server/wire.h"
#include "util/metrics.h"

namespace livegraph {
namespace {

GraphOptions SmallGraphOptions() {
  GraphOptions options;
  options.region_reserve = size_t{1} << 30;
  options.max_vertices = 1 << 18;
  return options;
}

// CI hook: LG_TEST_REACTORS pins the event-loop count for every harness
// that does not pin one itself (the tsan job runs this suite at 2).
int ResolveReactors(int requested) {
  const char* env = std::getenv("LG_TEST_REACTORS");
  if (requested == 0 && env != nullptr) return std::atoi(env);
  return requested;
}

// Engine + server + connected client.
struct Harness {
  explicit Harness(GraphServer::Options options = {},
                   GraphOptions graph = SmallGraphOptions()) {
    options.reactors = ResolveReactors(options.reactors);
    engine = std::make_unique<LiveGraphStore>(graph);
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

// Raw protocol socket: connect + Hello handshake.
Socket RawHello(uint16_t port) {
  Socket sock = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(sock.valid());
  sock.SetRecvTimeout(10'000);
  std::string body;
  WireWriter writer(&body);
  writer.PutU32(kProtocolVersion);
  std::string scratch;
  EXPECT_TRUE(sock.WriteFrame(MsgType::kHello, kFlagNone, body, &scratch));
  Frame reply;
  EXPECT_TRUE(sock.ReadFrame(&reply));
  EXPECT_EQ(reply.type, MsgType::kReply);
  return sock;
}

// Reply body begins with a status byte; returns it (or kUnavailable on a
// malformed body) and leaves `reader` positioned after it.
Status ReplyStatus(const Frame& frame) {
  WireReader reader(frame.body);
  uint8_t wire = 0;
  if (!reader.GetU8(&wire)) return Status::kUnavailable;
  return StatusFromWire(wire);
}

// The tentpole behavior, pinned at the protocol level: a client that ships
// a whole transaction's frames in ONE write gets every reply, in order,
// without waiting between requests — the reactor drains every complete
// buffered frame before returning to epoll.
TEST(Reactor, PipelinesBufferedFramesInOneWrite) {
  Harness harness;
  ASSERT_GE(harness.server->resolved_reactors(), 1);
  Socket sock = RawHello(harness.server->port());

  // BeginTxn now, so the batch below can reference the txn id.
  std::string scratch;
  ASSERT_TRUE(sock.WriteFrame(MsgType::kBeginTxn, kFlagNone, "", &scratch));
  Frame reply;
  ASSERT_TRUE(sock.ReadFrame(&reply));
  ASSERT_EQ(ReplyStatus(reply), Status::kOk);
  WireReader begin_reader(reply.body);
  uint8_t status_byte = 0;
  uint64_t txn_id = 0;
  ASSERT_TRUE(begin_reader.GetU8(&status_byte));
  ASSERT_TRUE(begin_reader.GetU64(&txn_id));

  // One buffer: 16 AddNode frames plus the Commit, a single send.
  constexpr int kOps = 16;
  std::string batch;
  for (int i = 0; i < kOps; ++i) {
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id);
    writer.PutBytes("pipelined-" + std::to_string(i));
    EncodeFrame(MsgType::kAddNode, kFlagNone, body, &batch);
  }
  {
    std::string body;
    WireWriter writer(&body);
    writer.PutU64(txn_id);
    EncodeFrame(MsgType::kCommit, kFlagNone, body, &batch);
  }
  ASSERT_TRUE(sock.WriteFull(batch.data(), batch.size()));

  // Replies come back strictly in request order.
  for (int i = 0; i < kOps + 1; ++i) {
    ASSERT_TRUE(sock.ReadFrame(&reply)) << "reply " << i;
    EXPECT_EQ(reply.type, MsgType::kReply);
    EXPECT_EQ(ReplyStatus(reply), Status::kOk) << "reply " << i;
  }
  EXPECT_EQ(harness.engine->BeginReadTxn()->VertexCount(),
            static_cast<vertex_t>(kOps));
}

TEST(Reactor, PipelineAppliesWritesOnCommit) {
  Harness harness;
  vertex_t a = harness.client->AddNode("a");
  vertex_t b = harness.client->AddNode("b");
  ASSERT_NE(a, kNullVertex);
  ASSERT_NE(b, kNullVertex);

  auto pipeline = harness.client->NewPipeline();
  ASSERT_TRUE(pipeline->ok());
  constexpr int kLinks = 64;
  for (int i = 0; i < kLinks; ++i) {
    pipeline->AddLink(a, static_cast<label_t>(i % 4), b,
                      "edge-" + std::to_string(i));
  }
  pipeline->UpdateNode(a, "a-rewritten");
  EXPECT_EQ(pipeline->pending(), static_cast<size_t>(kLinks + 1));

  std::vector<Status> statuses;
  ASSERT_TRUE(pipeline->Flush(&statuses));
  ASSERT_EQ(statuses.size(), static_cast<size_t>(kLinks + 1));
  for (Status s : statuses) EXPECT_EQ(s, Status::kOk);
  ASSERT_TRUE(pipeline->Commit().ok());

  // Everything landed in the engine.
  StatusOr<std::string> node = harness.engine->GetNode(a);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, "a-rewritten");
  StatusOr<std::string> edge = harness.engine->GetLink(a, 3, b);
  ASSERT_TRUE(edge.ok());
}

TEST(Reactor, PipelineAbortDiscardsQueuedWrites) {
  Harness harness;
  vertex_t a = harness.client->AddNode("a");
  vertex_t b = harness.client->AddNode("b");

  auto pipeline = harness.client->NewPipeline();
  ASSERT_TRUE(pipeline->ok());
  pipeline->AddLink(a, 0, b, "doomed");
  ASSERT_TRUE(pipeline->Flush());
  pipeline->Abort();

  EXPECT_EQ(harness.engine->GetLink(a, 0, b).status(), Status::kNotFound);
  // The pooled connection survived the abort.
  EXPECT_NE(harness.client->AddNode("after-abort"), kNullVertex);
}

// Satellite: connections silent past idle_timeout_ms are closed (their
// open transactions aborted) and counted.
TEST(Reactor, IdleTimeoutClosesSilentConnections) {
  GraphServer::Options options;
  options.idle_timeout_ms = 100;
  Harness harness(options);
  ASSERT_GE(harness.server->resolved_reactors(), 1);

  uint64_t closed_before = metrics::Registry::Instance().Collect().counter(
      "livegraph_server_idle_closed_total");

  Socket sock = RawHello(harness.server->port());
  // Go silent. The reactor must close us; the blocking read sees EOF well
  // inside the 10s receive deadline RawHello installed.
  Frame frame;
  EXPECT_FALSE(sock.ReadFrame(&frame));

  uint64_t closed_after = metrics::Registry::Instance().Collect().counter(
      "livegraph_server_idle_closed_total");
  EXPECT_GT(closed_after, closed_before);
}

// Satellite: output backpressure. Watermarks far below one scan batch
// force the park/resume cycle (EPOLLIN off above high water, scan parked;
// EPOLLOUT drain below low water resumes) — the stream must still deliver
// every edge, in order, with properties tracking their edges.
TEST(Reactor, BackpressuredScanStreamsCompletely) {
  GraphServer::Options options;
  options.scan_batch_edges = 8;
  options.write_high_water = 4096;
  options.write_low_water = 1024;
  Harness harness(options);
  ASSERT_GE(harness.server->resolved_reactors(), 1);

  vertex_t hub = harness.client->AddNode("hub");
  constexpr int kEdges = 300;
  const std::string pad(128, 'x');  // ~40 KiB total, 10x the high water
  std::vector<vertex_t> dsts;
  for (int i = 0; i < kEdges; ++i) {
    vertex_t d = harness.client->AddNode("leaf");
    ASSERT_TRUE(
        harness.client->AddLink(hub, 0, d, pad + std::to_string(i)).ok());
    dsts.push_back(d);
  }

  auto read = harness.client->BeginReadTxn();
  int seen = 0;
  for (EdgeCursor c = read->ScanLinks(hub, 0); c.Valid(); c.Next(), ++seen) {
    // Newest-first: edge i of the scan is insertion kEdges-1-i.
    int original = kEdges - 1 - seen;
    EXPECT_EQ(c.dst(), dsts[original]);
    EXPECT_EQ(c.properties(), pad + std::to_string(original));
  }
  EXPECT_EQ(seen, kEdges);
}

// Regression for the event-loop lock-wait deadlock: with ONE reactor, two
// connections hammering the same vertex put the lock holder's releasing
// Commit on the same loop as the waiter. A loop that blocked on the lock
// would make every contended acquisition ride to the engine's 50ms
// deadlock timeout and fail with kTimeout (which RunWrite does not
// retry); parking the waiter keeps the loop serving the release, so all
// ops succeed.
TEST(Reactor, ContendedWritesOnOneLoopDoNotTimeout) {
  GraphServer::Options options;
  options.reactors = 1;
  Harness harness(options);
  ASSERT_EQ(harness.server->resolved_reactors(), 1);

  vertex_t hot = harness.client->AddNode("hot");
  vertex_t other = harness.client->AddNode("other");
  auto second = RemoteStore::Connect("127.0.0.1", harness.server->port());
  ASSERT_NE(second, nullptr);

  constexpr int kOpsPerClient = 50;
  std::atomic<int> failures{0};
  auto hammer = [&](RemoteStore* client, int salt) {
    for (int i = 0; i < kOpsPerClient; ++i) {
      if (!client->AddLink(hot, 0, other, std::to_string(salt * 1000 + i))
               .ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread t1(hammer, harness.client.get(), 1);
  std::thread t2(hammer, second.get(), 2);
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0);
}

// Opens a write transaction on a raw connection; returns its id.
uint64_t RawBeginTxn(Socket* sock) {
  std::string scratch;
  EXPECT_TRUE(sock->WriteFrame(MsgType::kBeginTxn, kFlagNone, "", &scratch));
  Frame reply;
  EXPECT_TRUE(sock->ReadFrame(&reply));
  WireReader reader(reply.body);
  uint8_t status = 0;
  uint64_t id = 0;
  EXPECT_TRUE(reader.GetU8(&status));
  EXPECT_TRUE(reader.GetU64(&id));
  return id;
}

bool SendAddLink(Socket* sock, uint64_t txn, vertex_t src, vertex_t dst) {
  std::string body;
  WireWriter writer(&body);
  writer.PutU64(txn);
  writer.PutI64(src);
  writer.PutU16(0);
  writer.PutI64(dst);
  writer.PutBytes("parked");
  std::string scratch;
  return sock->WriteFrame(MsgType::kAddLink, kFlagNone, body, &scratch);
}

// True when a reply is already waiting on the socket.
bool ReplyPending(const Socket& sock) {
  char byte;
  return ::recv(sock.fd(), &byte, 1, MSG_PEEK | MSG_DONTWAIT) > 0;
}

uint64_t LockWaitSamples() {
  metrics::Snapshot snapshot = metrics::Registry::Instance().Collect();
  const metrics::HistogramSample* sample =
      snapshot.histogram("livegraph_server_lock_wait");
  return sample == nullptr ? 0 : sample->count;
}

uint64_t LockTimeouts() {
  return metrics::Registry::Instance().Collect().counter(
      "livegraph_server_lock_timeouts_total");
}

// A writer blocked on a vertex lock parks its connection, not the loop:
// with ONE reactor, a reader's 100 round trips complete while the writer
// waits, and the writer goes through once the holder commits.
TEST(Reactor, ParkedWriterLetsOtherClientsRun) {
  GraphServer::Options options;
  options.reactors = 1;
  GraphOptions graph = SmallGraphOptions();
  graph.lock_timeout_ns = int64_t{30} * 1'000'000'000;  // never the limit
  Harness harness(options, graph);
  vertex_t v = harness.client->AddNode("v");
  vertex_t other = harness.client->AddNode("other");
  const uint64_t samples_before = LockWaitSamples();

  // A holds v's lock: an open transaction that updated it.
  auto a = RemoteStore::Connect("127.0.0.1", harness.server->port());
  ASSERT_NE(a, nullptr);
  std::unique_ptr<StoreTxn> holder = a->BeginTxn();
  ASSERT_EQ(holder->UpdateNode(v, "held"), Status::kOk);

  // B's AddLink on v parks.
  Socket b = RawHello(harness.server->port());
  uint64_t b_txn = RawBeginTxn(&b);
  ASSERT_TRUE(SendAddLink(&b, b_txn, v, other));

  // C is served while B waits.
  auto c = RemoteStore::Connect("127.0.0.1", harness.server->port());
  ASSERT_NE(c, nullptr);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(c->GetNode(other).status(), Status::kOk) << "read " << i;
  }
  EXPECT_FALSE(ReplyPending(b)) << "B answered while A still holds v";

  ASSERT_TRUE(holder->Commit().ok());
  Frame reply;
  ASSERT_TRUE(b.ReadFrame(&reply));
  EXPECT_EQ(ReplyStatus(reply), Status::kOk);
  EXPECT_EQ(LockWaitSamples(), samples_before + 1);
}

// A holder that never commits: the parked writer gets the engine's
// timeout rollback once lock_timeout_ns has passed, its transaction is
// gone, and other clients are served throughout.
TEST(Reactor, ParkedWriterTimesOutAndAborts) {
  GraphServer::Options options;
  options.reactors = 1;
  GraphOptions graph = SmallGraphOptions();
  graph.lock_timeout_ns = 200'000'000;  // 200 ms
  Harness harness(options, graph);
  vertex_t v = harness.client->AddNode("v");
  vertex_t other = harness.client->AddNode("other");
  const uint64_t samples_before = LockWaitSamples();
  const uint64_t timeouts_before = LockTimeouts();

  auto a = RemoteStore::Connect("127.0.0.1", harness.server->port());
  ASSERT_NE(a, nullptr);
  std::unique_ptr<StoreTxn> holder = a->BeginTxn();
  ASSERT_EQ(holder->UpdateNode(v, "held"), Status::kOk);

  Socket b = RawHello(harness.server->port());
  uint64_t b_txn = RawBeginTxn(&b);
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(SendAddLink(&b, b_txn, v, other));

  auto c = RemoteStore::Connect("127.0.0.1", harness.server->port());
  ASSERT_NE(c, nullptr);
  int reads = 0;
  while (!ReplyPending(b)) {
    ASSERT_EQ(c->GetNode(other).status(), Status::kOk);
    ++reads;
    ASSERT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10));
  }
  EXPECT_GT(reads, 0);

  Frame reply;
  ASSERT_TRUE(b.ReadFrame(&reply));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(ReplyStatus(reply), Status::kTimeout);
  EXPECT_GE(waited, std::chrono::nanoseconds(graph.lock_timeout_ns));
  // The timeout rolled B back: its transaction is no longer active.
  ASSERT_TRUE(SendAddLink(&b, b_txn, other, v));
  ASSERT_TRUE(b.ReadFrame(&reply));
  EXPECT_EQ(ReplyStatus(reply), Status::kNotActive);
  EXPECT_EQ(LockWaitSamples(), samples_before + 1);
  EXPECT_EQ(LockTimeouts(), timeouts_before + 1);

  ASSERT_TRUE(holder->Commit().ok());
  EXPECT_EQ(c->GetNode(v).value_or(""), "held");
}

// Epoch-gated reads for an epoch the frontier never reaches park on the
// loop instead of holding worker threads: with ONE worker, two of them
// waiting out 5 s timeouts leave the contended-write hammer unaffected.
TEST(Reactor, ParkedEpochWaitsDoNotStallWriters) {
  auto engine = std::make_unique<LiveGraphStore>(SmallGraphOptions());
  DomainFrontier frontier(engine->graph().epoch_domain());
  GraphServer::Options options;
  options.reactors = 1;
  options.workers = 1;
  options.frontier = &frontier;
  GraphServer server(*engine, options);
  ASSERT_TRUE(server.Start());

  std::vector<Socket> bogus;
  for (int i = 0; i < 2; ++i) {
    bogus.push_back(RawHello(server.port()));
    std::string body;
    WireWriter writer(&body);
    writer.PutI64(INT64_MAX);
    writer.PutU32(5000);
    std::string scratch;
    ASSERT_TRUE(bogus.back().WriteFrame(MsgType::kBeginReadTxnAt, kFlagNone,
                                        body, &scratch));
  }

  auto first = RemoteStore::Connect("127.0.0.1", server.port());
  auto second = RemoteStore::Connect("127.0.0.1", server.port());
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  vertex_t hot = first->AddNode("hot");
  vertex_t other = first->AddNode("other");
  constexpr int kOpsPerClient = 50;
  std::atomic<int> failures{0};
  auto hammer = [&](RemoteStore* client, int salt) {
    for (int i = 0; i < kOpsPerClient; ++i) {
      if (!client->AddLink(hot, 0, other, std::to_string(salt * 1000 + i))
               .ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  const auto start = std::chrono::steady_clock::now();
  std::thread t1(hammer, first.get(), 1);
  std::thread t2(hammer, second.get(), 2);
  t1.join();
  t2.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(2));
  EXPECT_EQ(failures.load(), 0);

  for (Socket& sock : bogus) {
    Frame reply;
    ASSERT_TRUE(sock.ReadFrame(&reply));
    EXPECT_EQ(ReplyStatus(reply), Status::kTimeout);
  }
  first.reset();
  second.reset();
  server.Stop();
}

// Satellite: the reactor exports its event-loop telemetry.
TEST(Reactor, ExportsEventLoopMetrics) {
  Harness harness;
  ASSERT_GE(harness.server->resolved_reactors(), 1);
  uint64_t wakeups_before = metrics::Registry::Instance().Collect().counter(
      "livegraph_server_reactor_wakeups_total");

  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(harness.client->AddNode("tick"), kNullVertex);
  }

  metrics::Snapshot snapshot = metrics::Registry::Instance().Collect();
  EXPECT_GT(snapshot.counter("livegraph_server_reactor_wakeups_total"),
            wakeups_before);
  EXPECT_NE(snapshot.histogram("livegraph_server_frames_per_wakeup"),
            nullptr);
  EXPECT_NE(snapshot.histogram("livegraph_server_pending_write_bytes"),
            nullptr);
  // The per-reactor connection gauge counts our pooled client connection.
  int64_t conns = 0;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name.rfind("livegraph_server_reactor_connections", 0) == 0) {
      conns += value;
    }
  }
  EXPECT_GE(conns, 1);
}

// Graceful drain: stop accepting immediately but let in-flight sessions
// finish before teardown.
TEST(Reactor, DrainLetsInflightSessionsFinish) {
  auto engine = std::make_unique<LiveGraphStore>(SmallGraphOptions());
  GraphServer::Options options;
  options.reactors = ResolveReactors(options.reactors);
  auto server = std::make_unique<GraphServer>(*engine, options);
  ASSERT_TRUE(server->Start());
  uint16_t port = server->port();

  auto client = RemoteStore::Connect("127.0.0.1", port);
  ASSERT_NE(client, nullptr);
  ASSERT_NE(client->AddNode("pre-drain"), kNullVertex);

  // The client finishes its work and disconnects while the drain waits.
  std::atomic<bool> finished{false};
  std::thread worker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (int i = 0; i < 10; ++i) {
      EXPECT_NE(client->AddNode("during-drain-" + std::to_string(i)),
                kNullVertex);
    }
    finished.store(true);
    client.reset();  // last connection gone -> drain completes
  });

  server->Drain(/*deadline_ms=*/10'000);
  worker.join();

  // The drain waited for the session rather than cutting it off...
  EXPECT_TRUE(finished.load());
  EXPECT_EQ(server->active_connections(), 0u);
  EXPECT_EQ(engine->BeginReadTxn()->VertexCount(), 11);
  // ...and the listener is gone: new clients are refused.
  EXPECT_EQ(RemoteStore::Connect("127.0.0.1", port), nullptr);
  server->Stop();
}

// A drain with an unresponsive client still terminates: the deadline
// bounds the wait, after which the remaining connection is torn down.
TEST(Reactor, DrainDeadlineBoundsUnresponsiveClients) {
  auto engine = std::make_unique<LiveGraphStore>(SmallGraphOptions());
  GraphServer::Options options;
  auto server = std::make_unique<GraphServer>(*engine, options);
  ASSERT_TRUE(server->Start());

  Socket idle = RawHello(server->port());
  auto start = std::chrono::steady_clock::now();
  server->Drain(/*deadline_ms=*/200);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_EQ(server->active_connections(), 0u);
  // The forced teardown closed our socket.
  Frame frame;
  EXPECT_FALSE(idle.ReadFrame(&frame));
}

}  // namespace
}  // namespace livegraph
