// Bounds-checked replay (core/wal_ops.h): the one decoder behind WAL
// recovery, checkpoint loading and replication rejects truncated ops,
// unknown opcodes and vertex ids outside [0, max_vertices), and a
// rejected payload applies nothing — not even a raised vertex count.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/wal_ops.h"
#include "shard/sharded_store.h"

namespace livegraph {
namespace {

std::string PutVertex(vertex_t v, std::string_view props) {
  std::string out;
  wal_ops::Encode(&out, {wal_ops::kOpPutVertex, v, 0, 0, props});
  return out;
}

// A payload holding each of the five ops, and the offsets where its ops
// end.
std::string AllOps(std::set<size_t>* op_ends) {
  std::string out;
  wal_ops::Encode(&out, {wal_ops::kOpAddVertex, 3, 0, 0, "three"});
  op_ends->insert(out.size());
  wal_ops::Encode(&out, {wal_ops::kOpPutVertex, 4, 0, 0, ""});
  op_ends->insert(out.size());
  wal_ops::Encode(&out, {wal_ops::kOpAddEdge, 3, 9, 4, "edge"});
  op_ends->insert(out.size());
  wal_ops::Encode(&out, {wal_ops::kOpDeleteEdge, 3, 9, 4, {}});
  op_ends->insert(out.size());
  wal_ops::Encode(&out, {wal_ops::kOpDeleteVertex, 4, 0, 0, {}});
  op_ends->insert(out.size());
  return out;
}

bool Decodes(std::string_view payload, vertex_t max_vertices) {
  wal_ops::Decoder decoder(payload, max_vertices);
  wal_ops::Op op;
  while (!decoder.done()) {
    if (!decoder.Next(&op)) return false;
  }
  return true;
}

TEST(WalReplay, DecoderRoundTripsEveryOp) {
  std::set<size_t> op_ends;
  const std::string payload = AllOps(&op_ends);
  wal_ops::Decoder decoder(payload, 1024);
  wal_ops::Op op;
  ASSERT_TRUE(decoder.Next(&op));
  EXPECT_EQ(op.code, wal_ops::kOpAddVertex);
  EXPECT_EQ(op.v, 3);
  EXPECT_EQ(op.props, "three");
  ASSERT_TRUE(decoder.Next(&op));
  EXPECT_EQ(op.code, wal_ops::kOpPutVertex);
  EXPECT_EQ(op.v, 4);
  EXPECT_EQ(op.props, "");
  ASSERT_TRUE(decoder.Next(&op));
  EXPECT_EQ(op.code, wal_ops::kOpAddEdge);
  EXPECT_EQ(op.v, 3);
  EXPECT_EQ(op.label, 9);
  EXPECT_EQ(op.dst, 4);
  EXPECT_EQ(op.props, "edge");
  ASSERT_TRUE(decoder.Next(&op));
  EXPECT_EQ(op.code, wal_ops::kOpDeleteEdge);
  EXPECT_EQ(op.label, 9);
  EXPECT_EQ(op.dst, 4);
  ASSERT_TRUE(decoder.Next(&op));
  EXPECT_EQ(op.code, wal_ops::kOpDeleteVertex);
  EXPECT_EQ(op.v, 4);
  EXPECT_TRUE(decoder.done());
}

TEST(WalReplay, DecoderRejectsEveryCutInsideAnOp) {
  std::set<size_t> op_ends;
  const std::string payload = AllOps(&op_ends);
  for (size_t len = 0; len <= payload.size(); ++len) {
    const bool at_boundary = len == 0 || op_ends.count(len) > 0;
    EXPECT_EQ(Decodes(std::string_view(payload).substr(0, len), 1024),
              at_boundary)
        << "prefix of " << len << " bytes";
  }
}

TEST(WalReplay, DecoderRejectsBadIdsAndOpcodes) {
  EXPECT_TRUE(Decodes(PutVertex(1023, "x"), 1024));
  EXPECT_FALSE(Decodes(PutVertex(1024, "x"), 1024));
  EXPECT_FALSE(Decodes(PutVertex(-1, "x"), 1024));
  std::string unknown = PutVertex(1, "x");
  unknown[0] = 6;
  EXPECT_FALSE(Decodes(unknown, 1024));
  // Edge destinations are not bounded: an edge may name another shard's
  // vertex.
  std::string edge;
  wal_ops::Encode(&edge, {wal_ops::kOpAddEdge, 1, 0, vertex_t{1} << 40, ""});
  EXPECT_TRUE(Decodes(edge, 1024));
}

class ReplicatedApply : public ::testing::Test {
 protected:
  ReplicatedApply() : store_(Options()) {}

  static ShardOptions Options() {
    ShardOptions options;
    options.shards = 1;
    options.graph.region_reserve = size_t{1} << 28;
    options.graph.max_vertices = 1024;
    options.graph.enable_compaction = false;
    return options;
  }

  ShardedStore store_;
};

TEST_F(ReplicatedApply, RejectsIdsPastMaxVerticesAndTruncatedOps) {
  ASSERT_TRUE(store_.ApplyReplicated(0, PutVertex(5, "five")));
  ASSERT_EQ(store_.VertexCount(), 6);
  const std::string truncated = PutVertex(7, "seven").substr(0, 4);
  for (const std::string& payload :
       {PutVertex(2000, "x"), PutVertex(vertex_t{1} << 22, "x"), truncated}) {
    EXPECT_FALSE(store_.ApplyReplicated(0, payload));
    EXPECT_EQ(store_.VertexCount(), 6);
  }
}

TEST_F(ReplicatedApply, RejectedPayloadAppliesNothing) {
  // A valid op ahead of a bad one: the whole payload is refused.
  const std::string payload = PutVertex(9, "nine") + PutVertex(4096, "x");
  EXPECT_FALSE(store_.ApplyReplicated(0, payload));
  EXPECT_EQ(store_.VertexCount(), 0);
  auto read = store_.BeginReadTxn();
  EXPECT_FALSE(read->GetNode(9).ok());
}

TEST_F(ReplicatedApply, RejectsOutOfRangeShards) {
  EXPECT_FALSE(store_.ApplyReplicated(1, PutVertex(1, "x")));
  EXPECT_FALSE(store_.ApplyReplicated(-1, PutVertex(1, "x")));
  EXPECT_EQ(store_.VertexCount(), 0);
}

}  // namespace
}  // namespace livegraph
