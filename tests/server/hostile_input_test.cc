// Hostile-input tests for two decoders that take bytes straight from a
// peer: the reactor's in-buffer frame parser (DecodeFrameHeader plus
// ValidateFrame inside ProcessFrames), driven through a live one-reactor
// server over raw sockets, and the STATS snapshot codec (DecodeStats).
// Every truncation and a seeded set of bit flips of known-good encodings
// go in; the contract is that the server replies or closes the connection
// and keeps serving everyone else, and that DecodeStats returns false or a
// snapshot — never a crash. The v4 session frames get the same treatment
// by hand: client-chosen txn ids that collide or are cut short, END_READ
// for an id that is not open, and a Hello from an older client. Runs under
// the ASan+UBSan CI job like every test.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/livegraph_store.h"
#include "server/graph_server.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/remote_store.h"
#include "server/stats_codec.h"
#include "server/wire.h"
#include "util/metrics.h"

namespace livegraph {
namespace {

// Deterministic corruption source (fixed seed: failures reproduce).
struct Rng {
  uint64_t state = 0x9E3779B97F4A7C15ull;
  uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

// Every strict truncation of `original` plus `flips` seeded single-bit
// flips.
std::vector<std::string> Mutations(const std::string& original, int flips,
                                   Rng* rng) {
  std::vector<std::string> out;
  for (size_t length = 0; length < original.size(); ++length) {
    out.push_back(original.substr(0, length));
  }
  for (int i = 0; i < flips; ++i) {
    std::string flipped = original;
    const size_t bit = rng->Next() % (original.size() * 8);
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    out.push_back(std::move(flipped));
  }
  return out;
}

// --- Reactor frame parser ------------------------------------------------

// A v4 begin body: the client-chosen txn id.
std::string TxnIdBody(uint64_t id) {
  std::string body;
  WireWriter(&body).PutU64(id);
  return body;
}

// The frames of protocol_test.cc, plus a v4 begin, encoded.
std::vector<std::string> FrameFixtures() {
  struct Fixture {
    MsgType type;
    uint8_t flags;
    std::string body;
  };
  const Fixture fixtures[] = {
      {MsgType::kScanBatch, kFlagEndOfStream, "edge-bytes"},
      {MsgType::kStats, kFlagNone, ""},
      {MsgType::kBeginTxn, kFlagNone, TxnIdBody(1)},
      {MsgType::kScanBatch, kFlagNone, "first"},
      {MsgType::kScanBatch, kFlagEndOfStream, "second"},
      {MsgType::kHello, kFlagNone, "hi"},
      {MsgType::kGetNode, kFlagNone, "x"},
      {MsgType::kScanBatch, kFlagNone, "body"},
      {MsgType::kAddNode, kFlagNone, "node-properties"},
      {MsgType::kAddNode, kFlagNone, "twelve-bytes"},
  };
  std::vector<std::string> encoded;
  for (const Fixture& fixture : fixtures) {
    encoded.emplace_back();
    EncodeFrame(fixture.type, fixture.flags, fixture.body, &encoded.back());
  }
  return encoded;
}

// Sends `bytes` on a fresh connection and half-closes it, then reads until
// the server closes. False if the server neither closed within the
// timeout nor sent only well-formed frames.
bool ServerRepliesOrCloses(uint16_t port, const std::string& bytes,
                           std::string* why) {
  Socket sock = ConnectTcp("127.0.0.1", port);
  if (!sock.valid()) {
    *why = "connect failed";
    return false;
  }
  sock.SetRecvTimeout(5'000);
  if (!bytes.empty() && !sock.WriteFull(bytes.data(), bytes.size())) {
    *why = "send failed";
    return false;
  }
  ::shutdown(sock.fd(), SHUT_WR);
  std::string received;
  char buf[4096];
  while (true) {
    ssize_t n = ::recv(sock.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      received.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) break;
    *why = "server neither replied nor closed";
    return false;
  }
  // Whatever came back must be whole, valid frames.
  size_t offset = 0;
  while (offset < received.size()) {
    if (received.size() - offset < kFrameHeaderSize) {
      *why = "torn reply header";
      return false;
    }
    char header[kFrameHeaderSize];
    std::memcpy(header, received.data() + offset, kFrameHeaderSize);
    MsgType type;
    uint8_t flags;
    uint32_t body_size;
    offset += kFrameHeaderSize;
    if (!DecodeFrameHeader(header, &type, &flags, &body_size) ||
        received.size() - offset < body_size ||
        !ValidateFrame(header,
                       std::string_view(received).substr(offset, body_size))) {
      *why = "malformed reply";
      return false;
    }
    offset += body_size;
  }
  return true;
}

TEST(HostileInput, ReactorSurvivesTruncatedAndFlippedFrames) {
  GraphOptions graph;
  graph.region_reserve = size_t{1} << 30;
  graph.max_vertices = 1 << 16;
  LiveGraphStore engine(graph);
  GraphServer::Options options;
  options.reactors = 1;
  GraphServer server(engine, options);
  ASSERT_TRUE(server.Start());
  auto bystander = RemoteStore::Connect("127.0.0.1", server.port());
  ASSERT_NE(bystander, nullptr);
  vertex_t v = bystander->AddNode("bystander");

  Rng rng;
  int sent = 0;
  for (const std::string& frame : FrameFixtures()) {
    for (const std::string& bytes : Mutations(frame, 48, &rng)) {
      std::string why;
      ASSERT_TRUE(ServerRepliesOrCloses(server.port(), bytes, &why))
          << why << " (mutation " << sent << ")";
      // A second client's round trip still succeeds.
      ASSERT_EQ(bystander->GetNode(v).value_or(""), "bystander")
          << "after mutation " << sent;
      ++sent;
    }
  }
  EXPECT_GT(sent, 300);
  bystander.reset();
  server.Stop();
}

// --- v4 session frames -----------------------------------------------------

struct OneLoopServer {
  OneLoopServer() {
    GraphOptions graph;
    graph.region_reserve = size_t{1} << 30;
    graph.max_vertices = 1 << 16;
    engine = std::make_unique<LiveGraphStore>(graph);
    GraphServer::Options options;
    options.reactors = 1;
    server = std::make_unique<GraphServer>(*engine, options);
    EXPECT_TRUE(server->Start());
  }
  ~OneLoopServer() { server->Stop(); }

  std::unique_ptr<LiveGraphStore> engine;
  std::unique_ptr<GraphServer> server;
};

// Connects and sends Hello{version}; returns the socket and the reply's
// status (kUnavailable if no reply came).
Socket RawHello(uint16_t port, uint32_t version, Status* status) {
  Socket sock = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(sock.valid());
  sock.SetRecvTimeout(5'000);
  std::string body;
  WireWriter(&body).PutU32(version);
  std::string scratch;
  EXPECT_TRUE(sock.WriteFrame(MsgType::kHello, kFlagNone, body, &scratch));
  Frame reply;
  *status = Status::kUnavailable;
  if (sock.ReadFrame(&reply) && reply.type == MsgType::kReply &&
      !reply.body.empty()) {
    *status = StatusFromWire(static_cast<uint8_t>(reply.body[0]));
  }
  return sock;
}

Socket RawHello(uint16_t port) {
  Status status;
  Socket sock = RawHello(port, kProtocolVersion, &status);
  EXPECT_EQ(status, Status::kOk);
  return sock;
}

bool Send(Socket* sock, MsgType type, const std::string& body) {
  std::string scratch;
  return sock->WriteFrame(type, kFlagNone, body, &scratch);
}

// The status byte of the next reply; kUnavailable when none comes.
Status NextReplyStatus(Socket* sock) {
  Frame reply;
  if (!sock->ReadFrame(&reply) || reply.type != MsgType::kReply ||
      reply.body.empty()) {
    return Status::kUnavailable;
  }
  return StatusFromWire(static_cast<uint8_t>(reply.body[0]));
}

// True when the server closed the connection (EOF within the deadline).
bool ServerClosed(Socket* sock) {
  char byte;
  return ::recv(sock->fd(), &byte, 1, 0) == 0;
}

TEST(HostileInput, DuplicateOpenTxnIdClosesTheConnection) {
  OneLoopServer harness;
  Socket sock = RawHello(harness.server->port());
  ASSERT_TRUE(Send(&sock, MsgType::kBeginTxn, TxnIdBody(7)));
  ASSERT_EQ(NextReplyStatus(&sock), Status::kOk);
  ASSERT_TRUE(Send(&sock, MsgType::kBeginReadTxn, TxnIdBody(7)));
  EXPECT_TRUE(ServerClosed(&sock));
}

TEST(HostileInput, BeginWithTruncatedTxnIdClosesTheConnection) {
  OneLoopServer harness;
  for (MsgType type : {MsgType::kBeginTxn, MsgType::kBeginReadTxn}) {
    Socket sock = RawHello(harness.server->port());
    ASSERT_TRUE(Send(&sock, type, TxnIdBody(1).substr(0, 4)));
    EXPECT_TRUE(ServerClosed(&sock)) << static_cast<int>(type);
  }
}

TEST(HostileInput, EndReadForUnknownIdIsIgnoredAndConnectionServes) {
  OneLoopServer harness;
  vertex_t v = harness.engine->AddNode("v");
  Socket sock = RawHello(harness.server->port());
  std::string get_node = TxnIdBody(1);
  WireWriter(&get_node).PutI64(v);
  // One write: END_READ for ids never opened (1 is not open yet), then a
  // read session 1 with one GetNode, its END_READ, and a GetNode after it.
  std::string batch;
  EncodeFrame(MsgType::kEndRead, kFlagNone, TxnIdBody(99), &batch);
  EncodeFrame(MsgType::kEndRead, kFlagNone, TxnIdBody(1), &batch);
  EncodeFrame(MsgType::kBeginReadTxn, kFlagNone, TxnIdBody(1), &batch);
  EncodeFrame(MsgType::kGetNode, kFlagNone, get_node, &batch);
  EncodeFrame(MsgType::kEndRead, kFlagNone, TxnIdBody(1), &batch);
  EncodeFrame(MsgType::kGetNode, kFlagNone, get_node, &batch);
  ASSERT_TRUE(sock.WriteFull(batch.data(), batch.size()));
  EXPECT_EQ(NextReplyStatus(&sock), Status::kOk);         // begin
  EXPECT_EQ(NextReplyStatus(&sock), Status::kOk);         // GetNode
  EXPECT_EQ(NextReplyStatus(&sock), Status::kNotActive);  // after END_READ
  // Nothing else is owed: the three END_READs sent no reply.
  EXPECT_FALSE(sock.Readable(/*timeout_ms=*/100));
}

TEST(HostileInput, HelloFromAVersion3ClientIsRefused) {
  OneLoopServer harness;
  Status status;
  Socket sock = RawHello(harness.server->port(), 3, &status);
  EXPECT_EQ(status, Status::kUnavailable);
  EXPECT_TRUE(ServerClosed(&sock));
}

// --- STATS codec ----------------------------------------------------------

metrics::Snapshot SampleSnapshot() {
  metrics::Snapshot snapshot;
  snapshot.mono_nanos = 123'456'789;
  snapshot.wall_unix_micros = 1'700'000'000'000'000;
  snapshot.build_info = "sha=\"abc\",type=\"Release\"";
  snapshot.counters = {{"livegraph_commit_txns_total", 42},
                       {"livegraph_server_requests_total{op=\"GET_NODE\"}", 7}};
  snapshot.gauges = {{"livegraph_server_open_txns", -3}};
  metrics::HistogramSample histogram;
  histogram.name = "livegraph_lock_wait";
  histogram.unit = metrics::Unit::kNanos;
  histogram.count = 5;
  histogram.sum = 1234.5;
  histogram.p50 = 100;
  histogram.p90 = 200;
  histogram.p99 = 300;
  histogram.p999 = 400;
  snapshot.histograms = {histogram};
  metrics::SlowOp slow;
  slow.name = "SCAN_LINKS";
  slow.shard = 2;
  slow.epoch = 99;
  slow.total_nanos = 5'000'000;
  slow.stage_nanos[0] = 1;
  slow.wall_unix_micros = 17;
  snapshot.slow_ops = {slow};
  snapshot.slow_ops_total = 1;
  return snapshot;
}

TEST(HostileInput, StatsDecoderSurvivesEveryFlipAndTruncation) {
  std::string encoded;
  EncodeStats(SampleSnapshot(), &encoded);
  metrics::Snapshot decoded;
  ASSERT_TRUE(DecodeStats(encoded, &decoded));
  std::string reencoded;
  EncodeStats(decoded, &reencoded);
  EXPECT_EQ(reencoded, encoded);

  int accepted = 0;
  int rejected = 0;
  auto feed = [&](const std::string& bytes) {
    metrics::Snapshot out;
    if (DecodeStats(bytes, &out)) {
      ++accepted;
      std::string again;
      EncodeStats(out, &again);  // a decoded snapshot is a usable one
    } else {
      ++rejected;
    }
  };
  for (size_t length = 0; length < encoded.size(); ++length) {
    feed(encoded.substr(0, length));
  }
  for (size_t bit = 0; bit < encoded.size() * 8; ++bit) {
    std::string flipped = encoded;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    feed(flipped);
  }
  // Every truncation cuts a length-delimited field short.
  EXPECT_GE(rejected, static_cast<int>(encoded.size()));
  EXPECT_GT(accepted, 0);  // flipped values inside fields still decode
}

}  // namespace
}  // namespace livegraph
