// Checkpointing and recovery (paper §6 "Recovery").
//
// "A checkpointer (which can be configured to use any number of threads)
// periodically persists the latest consistent snapshot (using a read-only
// transaction) ... When a failure happens, LiveGraph first loads the latest
// checkpoint and then replays the WAL to apply committed updates."
//
// Checkpoint format: WAL-framed records (storage/wal_reader.h) stamped
// with the checkpoint epoch. MANIFEST is one record {shard count, next
// vertex ID}; shard file s, named for the epoch, holds the snapshot export
// of thread s's vertex range, then an empty end record. Loading replays
// the records one at a time through ApplyWalRecord, and refuses the whole
// checkpoint for a missing file, a record that fails its check, a missing
// end record or bytes after it. The durable directory that holds these
// files, its cross-shard MANIFEST and the WAL-tail replay belong to
// ShardedStore (shard/sharded_store.h), the one recovery routine.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <cerrno>
#include <filesystem>

#include "core/graph.h"
#include "core/transaction.h"
#include "core/wal_ops.h"
#include "storage/wal_reader.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace livegraph {

namespace {

/// Snapshot export chunk size: a chunk replays as one transaction, and a
/// checkpoint load holds one chunk in memory at a time.
constexpr size_t kExportChunkBytes = 256 * 1024;

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }
/// Named for the epoch, so a new checkpoint never renames a file over one
/// the current manifest names.
std::string ShardPath(const std::string& dir, timestamp_t epoch, int shard) {
  return dir + "/shard_" + std::to_string(shard) + "." +
         std::to_string(epoch) + ".ckpt";
}

struct Manifest {
  timestamp_t epoch = 0;
  struct {
    int64_t shards = 0;
    vertex_t next = 0;
  } body;  // the record's payload
};

/// Reads `dir`'s manifest. kNotFound when there is none; kIOError when it
/// is damaged or names more vertices than `max_vertices`.
Status ReadManifest(const std::string& dir, size_t max_vertices,
                    Manifest* out) {
  Status status = Wal::ReadRecord(ManifestPath(dir), &out->epoch, &out->body,
                                  sizeof(out->body));
  const bool ok = out->epoch >= 0 && out->body.shards >= 1 &&
                  out->body.next >= 0 &&
                  static_cast<size_t>(out->body.next) <= max_vertices;
  return status == Status::kOk && !ok ? Status::kIOError : status;
}

void LogRefusal(const std::string& path, const char* damage) {
  std::fprintf(stderr, "Recover: %s %s — refusing to recover\n",
               path.c_str(), damage);
}

constexpr const char* kManifestDamage =
    "is damaged or names more vertices than max_vertices";
constexpr const char* kRecordRejected = "has a record the decoder rejects";

/// Frames `payload` as one record stamped `epoch` onto `f`.
void WriteRecord(std::FILE* f, timestamp_t epoch, std::string_view payload) {
  const WalRecordHeader header = MakeWalRecordHeader(epoch, 1, payload);
  std::fwrite(&header, sizeof(header), 1, f);
  if (!payload.empty()) std::fwrite(payload.data(), 1, payload.size(), f);
}

}  // namespace

timestamp_t Graph::CheckpointSnapshot(const ReadTransaction& snapshot,
                                      const std::string& dir, int threads) {
  if (threads < 1) threads = 1;
  const timestamp_t epoch = snapshot.read_epoch();
  const vertex_t vertex_count = VertexCount();

  {
    // A missing directory is a config/first-run condition, not an I/O
    // fault; create it rather than failing the cadence.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
  }
  // A checkpoint's content is a function of its epoch: when the manifest
  // already records this epoch, the checkpoint on disk is this one.
  Manifest current;
  if (ReadManifest(dir, options_.max_vertices, &current) ==
          Status::kOk &&
      current.epoch == epoch) {
    return epoch;
  }

  // Shard files are written under tmp names and renamed into place only
  // when every byte landed, under names the current manifest does not
  // use, so a failed checkpoint never corrupts the previous one: the old
  // MANIFEST (and the shard files it describes) stay authoritative and
  // the next cadence simply retries.
  std::vector<std::FILE*> shards(static_cast<size_t>(threads), nullptr);
  std::vector<int> shard_errs(static_cast<size_t>(threads), 0);
  auto cleanup_tmps = [&](const char* what, int err) -> timestamp_t {
    for (std::FILE* f : shards) {
      if (f != nullptr) std::fclose(f);
    }
    for (int s = 0; s < threads; ++s) {
      std::error_code ec;
      std::filesystem::remove(ShardPath(dir, epoch, s) + ".tmp",
                              ec);
    }
    std::fprintf(stderr,
                 "Checkpoint: %s failed: %s (errno %d, dir %s) — previous "
                 "checkpoint stays authoritative\n",
                 what, std::strerror(err), err, dir.c_str());
    return -1;
  };
  for (int s = 0; s < threads; ++s) {
    const std::string tmp = ShardPath(dir, epoch, s) + ".tmp";
    if (faults::Action fault = LIVEGRAPH_FAULT("ckpt.open")) {
      return cleanup_tmps("open", fault.err);
    }
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) return cleanup_tmps("open", errno);
    shards[static_cast<size_t>(s)] = f;
  }

  // Static range split: shard s owns vertices [s*per, (s+1)*per).
  const vertex_t per =
      threads == 1 ? vertex_count : (vertex_count + threads - 1) / threads;
  ParallelFor(0, threads, threads, [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      std::FILE* f = shards[static_cast<size_t>(s)];
      if (faults::Action fault = LIVEGRAPH_FAULT("ckpt.write")) {
        shard_errs[static_cast<size_t>(s)] = fault.err;
        continue;
      }
      vertex_t lo = static_cast<vertex_t>(s) * per;
      vertex_t hi = std::min<vertex_t>(lo + per, vertex_count);
      ExportSnapshot(snapshot, lo, hi, [&](std::string_view payload) {
        WriteRecord(f, epoch, payload);
      });
      WriteRecord(f, epoch, {});  // end record: the file is complete
    }
  }, /*chunk=*/1);

  for (int s = 0; s < threads; ++s) {
    std::FILE* f = shards[static_cast<size_t>(s)];
    int err = shard_errs[static_cast<size_t>(s)];
    if (err == 0 && (std::ferror(f) != 0 || std::fflush(f) != 0)) {
      err = errno != 0 ? errno : EIO;
    }
    if (err == 0) {
      if (faults::Action fault = LIVEGRAPH_FAULT("ckpt.sync")) {
        err = fault.err;
      } else if (::fsync(::fileno(f)) != 0) {
        err = errno;  // shard contents must be durable before the manifest
      }
    }
    if (err != 0) {
      shards[static_cast<size_t>(s)] = nullptr;
      std::fclose(f);
      return cleanup_tmps("write/sync", err);
    }
  }
  for (std::FILE*& f : shards) {
    std::fclose(f);
    f = nullptr;
  }
  for (int s = 0; s < threads; ++s) {
    if (!Wal::CommitRename(ShardPath(dir, epoch, s) + ".tmp",
                           ShardPath(dir, epoch, s))) {
      return cleanup_tmps("rename", EIO);
    }
  }

  // Manifest last: its presence marks the checkpoint complete.
  Manifest manifest{epoch, {threads, VertexCount()}};
  if (int err = Wal::PublishRecord(ManifestPath(dir), epoch,
                                   &manifest.body, sizeof(manifest.body))) {
    return cleanup_tmps("manifest", err);
  }
  // Sweep the shard files of superseded checkpoints (and any .tmp a crash
  // left behind).
  const std::string live = "." + std::to_string(epoch) + ".ckpt";
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("shard_") && !name.ends_with(live)) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  return epoch;
}

void Graph::ExportSnapshot(
    const ReadTransaction& snapshot, vertex_t lo, vertex_t hi,
    const std::function<void(std::string_view)>& emit) const {
  std::string chunk;
  chunk.reserve(kExportChunkBytes + 4096);
  std::vector<std::pair<vertex_t, std::string_view>> edges;
  for (vertex_t v = lo; v < hi; ++v) {
    auto props = snapshot.GetVertex(v);
    if (!props.has_value()) continue;  // never committed or deleted
    wal_ops::Encode(&chunk, {wal_ops::kOpPutVertex, v, 0, 0, *props});
    // Labels via the index, edges via the snapshot.
    block_ptr_t store =
        IndexEntry(v)->edge_store.load(std::memory_order_acquire);
    uint32_t labels = 0;
    LabelIndexEntry* label_entries = nullptr;
    if (store != kNullBlock) {
      uint8_t* base = block_manager_->Pointer(store);
      labels = reinterpret_cast<LabelIndexHeader*>(base)->count.load(
          std::memory_order_acquire);
      label_entries = LabelEntries(base);
    }
    for (uint32_t li = 0; li < labels; ++li) {
      label_t label = label_entries[li].label;
      edges.clear();
      for (EdgeIterator it = snapshot.GetEdges(v, label); it.Valid();
           it.Next()) {
        edges.emplace_back(it.DstId(), it.Properties());
      }
      // Newest-first iterator, oldest-first replay: restores log order.
      for (auto rit = edges.rbegin(); rit != edges.rend(); ++rit) {
        wal_ops::Encode(&chunk,
                        {wal_ops::kOpAddEdge, v, label, rit->first,
                         rit->second});
      }
    }
    // Chunk boundaries only between vertices: a payload replays as ONE
    // transaction, and splitting a vertex's ops across payloads is legal
    // (replay is per-op) but keeps the common case tidy.
    if (chunk.size() >= kExportChunkBytes) {
      emit(chunk);
      chunk.clear();
    }
  }
  if (!chunk.empty()) emit(chunk);
}

bool Graph::LoadCheckpoint(const std::string& dir) {
  Manifest manifest;
  Status status =
      ReadManifest(dir, options_.max_vertices, &manifest);
  if (status != Status::kOk) {
    LogRefusal(ManifestPath(dir),
               status == Status::kNotFound ? "is missing" : kManifestDamage);
    return false;
  }

  std::vector<uint8_t> record;
  for (int s = 0; s < manifest.body.shards; ++s) {
    const std::string path = ShardPath(dir, manifest.epoch, s);
    std::error_code ec;
    uint64_t left = std::filesystem::file_size(path, ec);
    std::FILE* f = ec ? nullptr : std::fopen(path.c_str(), "rb");
    const char* damage = f == nullptr ? "is missing" : nullptr;
    // Records one at a time, each checked by ParseWalRecord, up to the
    // empty end record.
    for (bool ended = false; damage == nullptr && !ended;) {
      WalRecordHeader header;
      WalRecordView view;
      if (left < sizeof(header) ||
          std::fread(&header, sizeof(header), 1, f) != 1 ||
          left - sizeof(header) < header.len) {
        damage = "ends before its end record";
        break;
      }
      record.resize(sizeof(header) + header.len);
      std::memcpy(record.data(), &header, sizeof(header));
      left -= record.size();
      if (std::fread(record.data() + sizeof(header), 1, header.len, f) !=
              header.len ||
          !ParseWalRecord(record.data(), record.size(), 0, &view) ||
          view.epoch != manifest.epoch) {
        damage = "has a record that fails its check";
      } else if (view.payload_len == 0) {
        ended = true;
      } else if (!ApplyWalRecord(std::string_view(
                     reinterpret_cast<const char*>(view.payload),
                     view.payload_len))) {
        damage = kRecordRejected;
      }
    }
    if (damage == nullptr && left != 0) {
      damage = "has bytes after its end record";
    }
    if (f != nullptr) std::fclose(f);
    if (damage != nullptr) {
      LogRefusal(path, damage);
      return false;
    }
  }
  vertex_t expected = next_vertex_.load(std::memory_order_acquire);
  while (expected < manifest.body.next &&
         !next_vertex_.compare_exchange_weak(expected, manifest.body.next,
                                             std::memory_order_acq_rel)) {
  }
  return true;
}

bool Graph::ApplyWalRecord(std::string_view payload) {
  const auto max_vertices = static_cast<vertex_t>(options_.max_vertices);
  wal_ops::Op op;
  // Decode the whole payload before touching the engine: a rejected
  // record leaves nothing behind, not even a raised vertex count.
  for (wal_ops::Decoder check(payload, max_vertices); !check.done();) {
    if (!check.Next(&op)) return false;
  }
  Transaction txn = BeginTransaction();
  txn.replay_mode_ = true;
  for (wal_ops::Decoder ops(payload, max_vertices); !ops.done();) {
    ops.Next(&op);
    // A replayed id becomes addressable: raise the vertex counter past it.
    vertex_t expected = next_vertex_.load(std::memory_order_acquire);
    while (expected <= op.v &&
           !next_vertex_.compare_exchange_weak(expected, op.v + 1,
                                               std::memory_order_acq_rel)) {
    }
    switch (op.code) {
      case wal_ops::kOpAddVertex:
      case wal_ops::kOpPutVertex:
        txn.PutVertex(op.v, op.props);
        break;
      case wal_ops::kOpDeleteVertex:
        txn.DeleteVertex(op.v);
        break;
      case wal_ops::kOpAddEdge:
        txn.AddEdge(op.v, op.label, op.dst, op.props);
        break;
      case wal_ops::kOpDeleteEdge:
        txn.DeleteEdge(op.v, op.label, op.dst);
        break;
    }
  }
  return txn.Commit().ok();
}

}  // namespace livegraph
