// Pins the WAL payload bytes of each of the five graph-record ops
// (core/wal_ops.h): they are the on-disk format that recovery of existing
// logs reads, so a change to the encoders that alters any byte fails
// here. The test drives only the public transaction API and the WAL
// reader, so it checks any implementation of the encoders.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/graph.h"
#include "core/transaction.h"
#include "storage/wal_reader.h"

namespace livegraph {
namespace {

std::string Bytes(std::initializer_list<int> bytes) {
  std::string out;
  for (int b : bytes) out.push_back(static_cast<char>(b));
  return out;
}

TEST(WalFormat, EveryOpEncodesToItsPinnedBytes) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("lg_wal_format_" + std::to_string(::getpid()) + ".log"))
          .string();
  std::filesystem::remove(path);
  {
    GraphOptions options;
    options.region_reserve = size_t{1} << 28;
    options.max_vertices = 1024;
    options.enable_compaction = false;
    options.wal_path = path;
    options.fsync_wal = false;
    Graph graph(options);
    auto add = graph.BeginTransaction();
    const vertex_t a = add.AddVertex("ab");  // kOpAddVertex
    const vertex_t b = add.AddVertex("");
    ASSERT_EQ(add.Commit(), Status::kOk);
    auto put = graph.BeginTransaction();
    ASSERT_EQ(put.PutVertex(a, "xyz"), Status::kOk);       // kOpPutVertex
    ASSERT_EQ(put.AddEdge(a, 7, b, "e1"), Status::kOk);    // kOpAddEdge
    ASSERT_EQ(put.Commit(), Status::kOk);
    auto del = graph.BeginTransaction();
    ASSERT_EQ(del.DeleteEdge(a, 7, b), Status::kOk);  // kOpDeleteEdge
    ASSERT_EQ(del.DeleteVertex(b), Status::kOk);      // kOpDeleteVertex
    ASSERT_EQ(del.Commit(), Status::kOk);
  }
  // Op byte, then native-endian (little-endian here) fields: i64 vertex
  // ids, u16 labels, and properties as {u32 len, bytes}.
  const std::vector<std::string> want = {
      Bytes({0x01, 0, 0, 0, 0, 0, 0, 0, 0,  // AddVertex v=0
             0x02, 0, 0, 0, 'a', 'b',       // props "ab"
             0x01, 1, 0, 0, 0, 0, 0, 0, 0,  // AddVertex v=1
             0, 0, 0, 0}),                  // props ""
      Bytes({0x02, 0, 0, 0, 0, 0, 0, 0, 0,  // PutVertex v=0
             0x03, 0, 0, 0, 'x', 'y', 'z',  // props "xyz"
             0x04, 0, 0, 0, 0, 0, 0, 0, 0,  // AddEdge v=0
             0x07, 0,                       // label 7
             1, 0, 0, 0, 0, 0, 0, 0,        // dst 1
             0x02, 0, 0, 0, 'e', '1'}),     // props "e1"
      Bytes({0x05, 0, 0, 0, 0, 0, 0, 0, 0,  // DeleteEdge v=0
             0x07, 0,                       // label 7
             1, 0, 0, 0, 0, 0, 0, 0,        // dst 1
             0x03, 1, 0, 0, 0, 0, 0, 0, 0}),  // DeleteVertex v=1
  };
  std::vector<std::string> got;
  WalReader reader(path);
  WalRecordView view;
  while (reader.Next(&view)) {
    got.emplace_back(reinterpret_cast<const char*>(view.payload),
                     view.payload_len);
  }
  std::filesystem::remove(path);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "record " << i;
  }
}

}  // namespace
}  // namespace livegraph
