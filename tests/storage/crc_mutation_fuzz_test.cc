// Deterministic mutation fuzz for the CRC32C-guarded decoders: wire
// frames read through Socket::ReadFrame (the blocking receive path
// replication followers use) and through FrameReader (the buffered one
// RemoteStore reads replies with), WAL files read through WalReader
// (recovery and replication catch-up), and the checkpoint files of a
// one-shard durable directory read by ShardedStore::Recover. Every single-bit flip, every truncation, a set of
// trailing extensions and a seeded stream of multi-byte corruptions are
// applied to known-good encodings. The contract for streams: the decoder
// returns exactly the intact records in front of the damage, bit for bit,
// then stops — it never returns a damaged record and never crashes. For
// a checkpoint: recovery returns exactly the checkpointed graph or
// refuses (null). Runs under the ASan+UBSan CI job like every test.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/graph.h"
#include "core/transaction.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/wire.h"
#include "shard/sharded_store.h"
#include "storage/wal.h"
#include "storage/wal_reader.h"

namespace livegraph {
namespace {

// Deterministic corruption source (fixed seed: failures reproduce).
struct Rng {
  uint64_t state = 0x2545F4914F6CDD1Dull;
  uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

// One damaged copy of `original`: the mutation plus the byte offset of
// its first change (size() of the original for pure extensions).
struct Mutation {
  std::string bytes;
  size_t first_change;
};

// Every single-bit flip, every strict truncation, trailing garbage of
// several shapes, and `random_trials` seeded 1-4 byte corruptions.
// `first_record_end` is where the first encoded record ends.
std::vector<Mutation> Mutations(const std::string& original,
                                size_t first_record_end, int random_trials) {
  std::vector<Mutation> out;
  for (size_t byte = 0; byte < original.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = original;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      out.push_back({std::move(flipped), byte});
    }
  }
  for (size_t length = 0; length < original.size(); ++length) {
    out.push_back({original.substr(0, length), length});
  }
  Rng rng;
  for (size_t extra : {1, 7, 16, 24, 33, 200}) {
    std::string zeros = original + std::string(extra, '\0');
    out.push_back({std::move(zeros), original.size()});
    std::string garbage = original;
    for (size_t i = 0; i < extra; ++i) {
      garbage.push_back(static_cast<char>(rng.Next()));
    }
    out.push_back({std::move(garbage), original.size()});
  }
  // A torn copy of the first record: a genuine header whose body never
  // fully arrives.
  for (size_t prefix : {size_t{8}, size_t{16}, size_t{24},
                        first_record_end - 1}) {
    if (prefix >= first_record_end) continue;
    std::string echo = original + original.substr(0, prefix);
    out.push_back({std::move(echo), original.size()});
  }
  for (int trial = 0; trial < random_trials; ++trial) {
    std::string damaged = original;
    size_t first = original.size();
    const int changes = 1 + static_cast<int>(rng.Next() % 4);
    for (int c = 0; c < changes; ++c) {
      const size_t at = rng.Next() % original.size();
      const auto delta = static_cast<uint8_t>(1 + rng.Next() % 255);
      damaged[at] = static_cast<char>(damaged[at] ^ delta);
      first = std::min(first, at);
    }
    out.push_back({std::move(damaged), first});
  }
  return out;
}

// --- Wire frames ----------------------------------------------------------

struct EncodedFrame {
  MsgType type;
  uint8_t flags;
  std::string body;
};

// The frames of tests/server/protocol_test.cc, plus a v4 begin (its
// client-chosen txn id) and a scan-sized body so the checksum's 8-byte
// word loop and its tail both run.
std::vector<EncodedFrame> FrameFixtures() {
  std::string scan_body;
  for (int i = 0; i < 301; ++i) scan_body.push_back(static_cast<char>(i * 7));
  std::string begin_body;
  WireWriter(&begin_body).PutU64(1);
  return {
      {MsgType::kScanBatch, kFlagEndOfStream, "edge-bytes"},
      {MsgType::kStats, kFlagNone, ""},
      {MsgType::kBeginTxn, kFlagNone, begin_body},
      {MsgType::kScanBatch, kFlagNone, "first"},
      {MsgType::kScanBatch, kFlagEndOfStream, "second"},
      {MsgType::kHello, kFlagNone, "hi"},
      {MsgType::kGetNode, kFlagNone, "x"},
      {MsgType::kScanBatch, kFlagNone, "body"},
      {MsgType::kAddNode, kFlagNone, "node-properties"},
      {MsgType::kAddNode, kFlagNone, "twelve-bytes"},
      {MsgType::kScanBatch, kFlagEndOfStream, scan_body},
  };
}

// Feeds `bytes` through a socket pair and reads frames with a real
// receive path (Socket::ReadFrame, or FrameReader when `buffered`) until
// it refuses one (or the stream ends).
std::vector<Frame> ReadAllFrames(const std::string& bytes, bool buffered) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket writer(fds[0]);
  Socket reader(fds[1]);
  EXPECT_TRUE(writer.WriteFull(bytes.data(), bytes.size()));
  writer.Shutdown();
  std::vector<Frame> frames;
  Frame frame;
  FrameReader frame_reader;
  while (buffered ? frame_reader.Read(&reader, &frame)
                  : reader.ReadFrame(&frame)) {
    frames.push_back(frame);
  }
  return frames;
}

void ExpectFramePrefix(const std::vector<Frame>& got,
                       const std::vector<EncodedFrame>& want, size_t count,
                       const std::string& context) {
  ASSERT_EQ(got.size(), count) << context;
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(got[i].type, want[i].type) << context << " frame " << i;
    EXPECT_EQ(got[i].flags, want[i].flags) << context << " frame " << i;
    EXPECT_EQ(got[i].body, want[i].body) << context << " frame " << i;
  }
}

// Runs every mutation of the encoding of `frames` and checks that exactly
// the frames ending at or before the first changed byte come back intact.
void FuzzFrameStream(const std::vector<EncodedFrame>& frames) {
  std::string encoded;
  std::vector<size_t> ends;
  for (const EncodedFrame& f : frames) {
    EncodeFrame(f.type, f.flags, f.body, &encoded);
    ends.push_back(encoded.size());
  }
  for (bool buffered : {false, true}) {
    const std::string path = buffered ? "FrameReader" : "Socket::ReadFrame";
    ExpectFramePrefix(ReadAllFrames(encoded, buffered), frames, frames.size(),
                      path + ", clean");
    for (const Mutation& m :
         Mutations(encoded, ends[0], /*random_trials=*/200)) {
      size_t intact = 0;
      while (intact < ends.size() && ends[intact] <= m.first_change) ++intact;
      const std::string context = path + ", mutation at byte " +
                                  std::to_string(m.first_change) + ", " +
                                  std::to_string(m.bytes.size()) + " bytes";
      ExpectFramePrefix(ReadAllFrames(m.bytes, buffered), frames, intact,
                        context);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(CrcMutationFuzz, EveryDamagedFrameIsRejected) {
  for (const EncodedFrame& fixture : FrameFixtures()) {
    SCOPED_TRACE("frame type " +
                 std::to_string(static_cast<int>(fixture.type)) + " body " +
                 std::to_string(fixture.body.size()) + " bytes");
    FuzzFrameStream({fixture});
  }
}

TEST(CrcMutationFuzz, DamageStopsAFrameStreamAtTheLastIntactFrame) {
  // Connections batch frames into one send buffer; damage in frame k must
  // leave frames 0..k-1 readable and nothing after.
  FuzzFrameStream(FrameFixtures());
}

// --- WAL files -----------------------------------------------------------

struct LoggedRecord {
  timestamp_t epoch;
  uint32_t participants;
  std::string payload;
};

class WalMutationFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string base =
        (std::filesystem::temp_directory_path() /
         ("lg_crc_fuzz_" + std::to_string(::getpid())))
            .string();
    log_path_ = base + ".log";
    damaged_path_ = base + ".damaged";
  }
  void TearDown() override {
    std::filesystem::remove(log_path_);
    std::filesystem::remove(damaged_path_);
  }

  std::vector<LoggedRecord> Replay(const std::string& path) {
    std::vector<LoggedRecord> out;
    WalReader reader(path);
    WalRecordView view;
    while (reader.Next(&view)) {
      out.push_back({view.epoch, view.participants,
                     std::string(reinterpret_cast<const char*>(view.payload),
                                 view.payload_len)});
    }
    return out;
  }

  void WriteFile(const std::string& path, const std::string& bytes) {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string log_path_;
  std::string damaged_path_;
};

void ExpectRecordPrefix(const std::vector<LoggedRecord>& got,
                        const std::vector<LoggedRecord>& want, size_t count,
                        const std::string& context) {
  ASSERT_EQ(got.size(), count) << context;
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(got[i].epoch, want[i].epoch) << context << " record " << i;
    EXPECT_EQ(got[i].participants, want[i].participants)
        << context << " record " << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << context << " record " << i;
  }
}

// How many leading records of `original` (record k spans
// [starts[k], starts[k+1])) survive in `damaged` unchanged. Any changed,
// missing or extra byte inside a record damages it — the header's 4
// reserved bytes too: they sit outside the CRC, but the reader rejects a
// nonzero value.
size_t IntactRecords(const std::string& original,
                     const std::vector<size_t>& starts,
                     const std::string& damaged) {
  size_t intact = 0;
  for (; intact < starts.size(); ++intact) {
    const size_t begin = starts[intact];
    const size_t end =
        intact + 1 < starts.size() ? starts[intact + 1] : original.size();
    if (damaged.size() < end ||
        damaged.compare(begin, end - begin, original, begin, end - begin) !=
            0) {
      break;
    }
  }
  return intact;
}

TEST_F(WalMutationFuzz, DamageStopsReplayAtTheLastIntactRecord) {
  std::string big(150, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 13);
  const std::vector<LoggedRecord> records = {
      {3, 1, "a"}, {3, 1, ""}, {4, 2, "multi-shard-piece"},
      {5, 1, big}, {9, 1, "tail"}};
  {
    Wal wal({log_path_, /*fsync=*/false});
    std::vector<Wal::Record> batch;
    for (const LoggedRecord& r : records) {
      batch.push_back({r.epoch, r.participants, r.payload});
    }
    ASSERT_EQ(wal.AppendBatch(batch), Status::kOk);
  }
  std::ifstream file(log_path_, std::ios::binary);
  const std::string encoded((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
  std::vector<size_t> starts;
  size_t at = 0;
  for (const LoggedRecord& r : records) {
    starts.push_back(at);
    at += sizeof(WalRecordHeader) + r.payload.size();
  }
  ASSERT_EQ(encoded.size(), at);
  ExpectRecordPrefix(Replay(log_path_), records, records.size(), "clean");

  // Replay failing on the very first record logs a diagnostic; keep those
  // lines out of the test output, and check they name the cause.
  ::testing::internal::CaptureStderr();
  for (const Mutation& m :
       Mutations(encoded, starts[1], /*random_trials=*/300)) {
    WriteFile(damaged_path_, m.bytes);
    const std::string context = "mutation at byte " +
                                std::to_string(m.first_change) + ", " +
                                std::to_string(m.bytes.size()) + " bytes";
    ExpectRecordPrefix(Replay(damaged_path_), records,
                       IntactRecords(encoded, starts, m.bytes), context);
    if (HasFailure()) break;
  }
  const std::string diagnostics = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(diagnostics.find("first record fails its CRC"), std::string::npos);
}

// --- Checkpoint files -----------------------------------------------------

class CheckpointMutationFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lg_ckpt_fuzz_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A one-shard durable directory.
  ShardOptions Options() const {
    ShardOptions options;
    options.shards = 1;
    options.dir = dir_.string();
    options.graph.region_reserve = size_t{1} << 26;
    options.graph.max_vertices = 64;
    options.graph.enable_compaction = false;
    options.graph.fsync_wal = false;
    return options;
  }

  // Everything a recovered graph holds, rendered in scan order.
  static std::string Dump(Graph& graph) {
    std::string out = std::to_string(graph.VertexCount()) + "\n";
    auto read = graph.BeginReadOnlyTransaction();
    for (vertex_t v = 0; v < graph.VertexCount(); ++v) {
      auto props = read.GetVertex(v);
      out += props.has_value() ? std::string(*props) : "<none>";
      for (label_t label = 0; label < 3; ++label) {
        for (EdgeIterator it = read.GetEdges(v, label); it.Valid();
             it.Next()) {
          out += " " + std::to_string(label) + ":" +
                 std::to_string(it.DstId()) + "=" +
                 std::string(it.Properties());
        }
      }
      out += "\n";
    }
    return out;
  }

  static std::string ReadFile(const std::filesystem::path& path) {
    std::ifstream file(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(file)),
                       std::istreambuf_iterator<char>());
  }

  static void WriteFile(const std::filesystem::path& path,
                        const std::string& bytes) {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
};

TEST_F(CheckpointMutationFuzz, DamageRefusesRecoveryOrChangesNothing) {
  // A 2-thread checkpoint: the directory's manifest, the shard's manifest
  // and two shard files, each one data record plus the end record. Labels
  // 0-2, a deleted vertex, an edge overwritten in place, empty and
  // non-empty properties.
  std::string want;
  timestamp_t epoch = 0;
  {
    auto store = ShardedStore::Recover(Options());
    ASSERT_NE(store, nullptr);
    Graph& graph = store->shard(0);
    auto txn = graph.BeginTransaction();
    for (int i = 0; i < 6; ++i) {
      txn.AddVertex(i == 2 ? "" : "v" + std::to_string(i));
    }
    ASSERT_EQ(txn.AddEdge(0, 0, 1, "a"), Status::kOk);
    ASSERT_EQ(txn.AddEdge(0, 0, 5, ""), Status::kOk);
    ASSERT_EQ(txn.AddEdge(0, 2, 3, "c"), Status::kOk);
    ASSERT_EQ(txn.AddEdge(4, 1, 0, "d"), Status::kOk);
    ASSERT_EQ(txn.AddEdge(5, 0, 4, "e"), Status::kOk);
    ASSERT_EQ(txn.Commit(), Status::kOk);
    auto update = graph.BeginTransaction();
    ASSERT_EQ(update.DeleteVertex(3), Status::kOk);
    ASSERT_EQ(update.AddEdge(0, 0, 1, "a2"), Status::kOk);
    ASSERT_EQ(update.Commit(), Status::kOk);
    epoch = store->Checkpoint(/*threads=*/2);
    ASSERT_GT(epoch, 0);
    want = Dump(graph);
  }
  {
    // Nothing past the checkpoint: this first restart truncates the WAL,
    // so every later one recovers from the checkpoint files alone.
    auto clean = ShardedStore::Recover(Options());
    ASSERT_NE(clean, nullptr);
    ASSERT_EQ(Dump(clean->shard(0)), want);
  }

  const std::string suffix = "." + std::to_string(epoch) + ".ckpt";
  const std::filesystem::path ckpt =
      dir_ / "shard0" / "checkpoint" / std::to_string(epoch);
  const std::vector<std::filesystem::path> files = {
      dir_ / "MANIFEST", ckpt / "MANIFEST", ckpt / ("shard_0" + suffix),
      ckpt / ("shard_1" + suffix)};
  std::vector<std::string> originals;
  for (const auto& file : files) originals.push_back(ReadFile(file));
  // Recovery refusing names the damaged file on stderr; keep those lines
  // out of the test output.
  ::testing::internal::CaptureStderr();
  size_t refused = 0;
  size_t trials = 0;
  for (size_t f = 0; f < files.size(); ++f) {
    uint32_t first_len = 0;
    std::memcpy(&first_len, originals[f].data(), sizeof(first_len));
    const size_t first_record_end = sizeof(WalRecordHeader) + first_len;
    for (const Mutation& m :
         Mutations(originals[f], first_record_end, /*random_trials=*/200)) {
      WriteFile(files[f], m.bytes);
      auto recovered = ShardedStore::Recover(Options());
      ++trials;
      if (recovered == nullptr) {
        ++refused;
      } else {
        EXPECT_EQ(Dump(recovered->shard(0)), want)
            << files[f].filename() << ": mutation at byte " << m.first_change
            << ", " << m.bytes.size() << " bytes";
      }
      if (HasFailure()) break;
    }
    WriteFile(files[f], originals[f]);
    if (HasFailure()) break;
  }
  ::testing::internal::GetCapturedStderr();
  // Every mutation changes the bytes of a CRC-covered record or its
  // framing, so each one is refused.
  EXPECT_EQ(refused, trials);
}

}  // namespace
}  // namespace livegraph
