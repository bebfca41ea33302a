// Sequential write-ahead log with group commit (paper §5, persist phase).
//
// "The transaction manager first advances the GWE counter by 1, then appends
// a batch of log entries to a sequential write-ahead log (WAL) and uses
// fsync to persist it to stable storage."
//
// Record framing: [u32 payload_len][u32 crc32c(epoch ++ participants ++
//                 payload)][i64 epoch][u32 participants][u32 reserved]
//                 [payload bytes]
// The writer zeroes `reserved`, and the reader treats anything else like a
// CRC mismatch. A torn tail record (crash mid-write) fails its CRC and
// terminates replay.
// Epochs come from the unified EpochDomain, so records of one group-commit
// batch may carry distinct epochs: fresh commits share the batch's epoch
// while coordinator-stamped multi-shard pieces keep the epoch the
// coordinator acquired for the whole transaction. `participants` records
// how many shard WALs hold a piece of that epoch (1 for single-shard
// commits) — sharded recovery replays a multi-shard epoch only when every
// piece is present, so a crash between two shards' fsyncs can never
// resurrect half a transaction.
//
// The batch append gathers every record with writev straight from the
// committing workers' (pooled) payload buffers: headers live in a reusable
// array, payload bytes are never copied into the log's address space. The
// workers block inside the commit pipeline until the batch is durable, so
// the borrowed payload memory cannot be reused mid-write.
#ifndef LIVEGRAPH_STORAGE_WAL_H_
#define LIVEGRAPH_STORAGE_WAL_H_

#include <sys/uio.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "storage/wal_reader.h"
#include "util/types.h"

namespace livegraph {

/// Maps an errno from a failed durable-path syscall to the typed Status
/// surfaced to committers: disk-full conditions (operator can free space
/// and restart) are distinguishable from hard I/O loss.
inline Status IoStatusFromErrno(int err) {
  return (err == ENOSPC || err == EDQUOT) ? Status::kResourceExhausted
                                          : Status::kIOError;
}

class Wal {
 public:
  struct Options {
    std::string path;
    /// fsync after every batch. Disable for benchmarks that isolate
    /// non-durability costs (paper: "persistence features are enabled for
    /// all the systems, except when specified otherwise").
    bool fsync = true;
  };

  /// One logical record of a batch append.
  struct Record {
    timestamp_t epoch = 0;
    /// Shard WALs holding a piece of this epoch (cross-shard atomicity
    /// metadata; 1 for everything but multi-shard transaction pieces).
    uint32_t participants = 1;
    std::string_view payload;
  };

  /// Observer of durable batches — the replication tee (docs/REPLICATION.md).
  /// OnDurableBatch runs inside the single-appender section immediately
  /// after the batch's fdatasync returns, so every record it sees is on
  /// stable storage and notifications arrive in exact log order. The callee
  /// must not call back into this Wal and should only copy the records out
  /// (the payload views borrow the committing workers' buffers).
  class DurableSink {
   public:
    virtual ~DurableSink() = default;
    virtual void OnDurableBatch(const std::vector<Record>& records) = 0;
  };

  explicit Wal(Options options);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one group-commit batch, gathered with writev (zero payload
  /// copies) and made durable with one fsync. On I/O failure the batch is
  /// NOT durable, the log is permanently poisoned (see error()), and the
  /// typed status (kResourceExhausted for ENOSPC/EDQUOT, kIOError
  /// otherwise) is returned for the commit group to surface.
  Status AppendBatch(const std::vector<Record>& records);

  /// Single-epoch convenience (tests, tools): every payload becomes a
  /// record stamped with `epoch`, participants = 1.
  Status AppendBatch(timestamp_t epoch,
                     const std::vector<std::string_view>& payloads);

  /// Truncates the log (after a durable checkpoint supersedes it, §6).
  /// Failure poisons the log like a failed append.
  Status Reset();

  /// First-error-wins sticky status. Once any append/sync/reset fails the
  /// log never touches the fd again: after a failed fsync the kernel may
  /// have dropped the dirty pages, so retrying the sync could "succeed"
  /// without the data ever reaching stable storage (the fsyncgate
  /// failure mode). Recovery is a process restart + WAL replay.
  Status error() const { return error_.load(std::memory_order_acquire); }

  /// Installs (nullptr clears) the durable-batch tee. The pointer is read
  /// with acquire semantics on every append, so installing before the
  /// first append (the replication hub does it at attach time, before the
  /// server accepts traffic) needs no further synchronization. The sink
  /// must outlive the Wal or be cleared first.
  void SetDurableSink(DurableSink* sink) {
    sink_.store(sink, std::memory_order_release);
  }

  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return options_.path; }

  /// fsyncs the directory containing `path` so a just-created or
  /// just-renamed entry survives a crash (file-content fsync alone does
  /// not persist the directory entry). Used after WAL creation and after
  /// checkpoint-manifest renames. Returns false when the directory sync
  /// failed (the entry may not survive a crash).
  static bool FsyncParentDir(const std::string& path);

  /// The atomic-publish tail of every durable file swap: rename `tmp` over
  /// `final_path`, then fsync the directory so the rename itself survives
  /// a crash. The caller fsynced the file contents.
  /// Returns false when the publish is not durable; the previous
  /// `final_path` content (if any) stays authoritative.
  static bool CommitRename(const std::string& tmp,
                           const std::string& final_path);

  /// Durably replaces `path` with one record in the log's framing (so a
  /// torn or damaged file fails its CRC): `epoch`, then `size` payload
  /// bytes. Writes and fsyncs `path`.tmp, then CommitRename. Returns 0, or
  /// the errno of the failed step; the previous `path` then stays
  /// authoritative. Every manifest and state file is written this way.
  static int PublishRecord(const std::string& path, timestamp_t epoch,
                           const void* payload, size_t size);

  /// Reads a file PublishRecord wrote: kNotFound when it is missing,
  /// kIOError unless it holds exactly one intact record of a `size`-byte
  /// payload.
  static Status ReadRecord(const std::string& path, timestamp_t* epoch,
                           void* payload, size_t size);

  /// Replays records from a WAL file in order. Stops at EOF or the first
  /// corrupt/torn record. The parse loop itself lives in
  /// storage/wal_reader.h, shared with the replication disk catch-up.
  using Reader = WalReader;

 private:
  /// The on-disk framing, shared with the reader side.
  using RecordHeader = WalRecordHeader;

  Status WritevAll(struct iovec* iov, size_t count);

  /// Records the first failure: logs one line (operation, errno,
  /// strerror, path) and latches error_. Idempotent; first error wins.
  Status Poison(const char* what, int err);

  Options options_;
  int fd_ = -1;
  std::vector<RecordHeader> headers_;  // reused across batches
  std::vector<struct iovec> iov_;      // reused across batches
  /// Plain (non-atomic) on purpose: AppendBatch is a single-writer section
  /// — only the current group-commit leader appends, and leadership hands
  /// over with acquire/release — enforced by `appending_` below in DCHECK
  /// builds.
  uint64_t bytes_written_ = 0;
  /// Single-appender guard (LIVEGRAPH_DCHECK builds): set for the duration
  /// of AppendBatch; a second concurrent appender aborts loudly instead of
  /// interleaving torn records.
  std::atomic<uint32_t> appending_{0};
  /// Durable-batch tee (replication). Atomic so installation from the
  /// serving thread is safe against a concurrent leader's append; the tee
  /// runs on whichever committing thread leads the group.
  std::atomic<DurableSink*> sink_{nullptr};
  /// Sticky first-error status (see error()). Atomic: committers and the
  /// serving thread may read it while the appender poisons it.
  std::atomic<Status> error_{Status::kOk};
};

}  // namespace livegraph

#endif  // LIVEGRAPH_STORAGE_WAL_H_
