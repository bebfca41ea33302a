// Hostile-input tests for two decoders that take bytes straight from a
// peer: the reactor's in-buffer frame parser (DecodeFrameHeader plus
// ValidateFrame inside ProcessFrames), driven through a live one-reactor
// server over raw sockets, and the STATS snapshot codec (DecodeStats).
// Every truncation and a seeded set of bit flips of known-good encodings
// go in; the contract is that the server replies or closes the connection
// and keeps serving everyone else, and that DecodeStats returns false or a
// snapshot — never a crash. Runs under the ASan+UBSan CI job like every
// test.
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

// The frames of protocol_test.cc, encoded.
std::vector<std::string> FrameFixtures() {
  struct Fixture {
    MsgType type;
    uint8_t flags;
    std::string body;
  };
  const Fixture fixtures[] = {
      {MsgType::kScanBatch, kFlagEndOfStream, "edge-bytes"},
      {MsgType::kBeginTxn, kFlagNone, ""},
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
  histogram.name = "livegraph_server_lock_wait";
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
