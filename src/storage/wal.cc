#include "storage/wal.h"

#include <fcntl.h>
#include <limits.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/fault_injection.h"
#include "util/invariant.h"
#include "util/lock_rank.h"
#include "util/metrics.h"

namespace livegraph {

bool Wal::FsyncParentDir(const std::string& path) {
  std::string dir;
  size_t slash = path.find_last_of('/');
  dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return true;  // best effort: an unreachable parent fails the
                            // file operation itself long before this point
  int err = 0;
  if (faults::Action fault = LIVEGRAPH_FAULT("wal.dirsync")) {
    err = fault.err;
  } else if (fsync(fd) != 0 && errno != EINVAL && errno != EROFS) {
    err = errno;
  }
  close(fd);
  if (err != 0) {
    std::fprintf(stderr, "Wal: fsync(dir) failed: %s (errno %d, path %s)\n",
                 std::strerror(err), err, dir.c_str());
    return false;
  }
  return true;
}

bool Wal::CommitRename(const std::string& tmp,
                       const std::string& final_path) {
  int err = 0;
  if (faults::Action fault = LIVEGRAPH_FAULT("wal.rename")) {
    err = fault.err;
  } else if (std::rename(tmp.c_str(), final_path.c_str()) != 0) {
    err = errno;
  }
  if (err != 0) {
    std::fprintf(stderr, "Wal: rename failed: %s (errno %d, %s -> %s)\n",
                 std::strerror(err), err, tmp.c_str(), final_path.c_str());
    return false;
  }
  return FsyncParentDir(final_path);
}

int Wal::PublishRecord(const std::string& path, timestamp_t epoch,
                       const void* payload, size_t size) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return errno != 0 ? errno : EIO;
  const WalRecordHeader header = MakeWalRecordHeader(
      epoch, 1, std::string_view(static_cast<const char*>(payload), size));
  std::fwrite(&header, sizeof(header), 1, f);
  std::fwrite(payload, 1, size, f);
  int err = 0;
  if (std::ferror(f) != 0 || std::fflush(f) != 0) {
    err = errno != 0 ? errno : EIO;
  }
  if (err == 0 && ::fsync(::fileno(f)) != 0) err = errno;
  std::fclose(f);
  if (err == 0 && !CommitRename(tmp, path)) err = EIO;
  if (err != 0) std::remove(tmp.c_str());
  return err;
}

Status Wal::ReadRecord(const std::string& path, timestamp_t* epoch,
                       void* payload, size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::kNotFound;
  // One byte of room past the record: a longer file is damaged too.
  std::vector<uint8_t> bytes(sizeof(WalRecordHeader) + size + 1);
  const size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  WalRecordView view;
  if (got != bytes.size() - 1 ||
      !ParseWalRecord(bytes.data(), got, 0, &view) ||
      view.payload_len != size) {
    return Status::kIOError;
  }
  *epoch = view.epoch;
  std::memcpy(payload, view.payload, size);
  return Status::kOk;
}

Status Wal::Poison(const char* what, int err) {
  Status expected = Status::kOk;
  const Status fresh = IoStatusFromErrno(err);
  if (error_.compare_exchange_strong(expected, fresh,
                                     std::memory_order_acq_rel)) {
    static metrics::Counter& poisoned =
        metrics::Registry::Instance().GetCounter(
            "livegraph_wal_poisoned_total");
    poisoned.Add();
    std::fprintf(stderr,
                 "Wal: %s failed: %s (errno %d, path %s) — log poisoned, "
                 "store degrades to read-only\n",
                 what, std::strerror(err), err, options_.path.c_str());
    return fresh;
  }
  return expected;  // first error wins
}

Wal::Wal(Options options) : options_(std::move(options)) {
  int err = 0;
  if (faults::Action fault = LIVEGRAPH_FAULT("wal.open")) {
    err = fault.err;
  } else {
    fd_ = open(options_.path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) err = errno;
  }
  if (err != 0) {
    Poison("open", err);
    return;
  }
  // Persist the directory entry too: without this a crash right after
  // creation can lose the (empty but expected) log file even though the
  // fd was valid — every later record fsync would then sync an orphan.
  if (options_.fsync) FsyncParentDir(options_.path);
}

Wal::~Wal() {
  if (fd_ >= 0) close(fd_);
}

Status Wal::AppendBatch(const std::vector<Record>& records) {
  if (records.empty()) return error();
  // Poisoned log: never touch the fd again (see error() in the header).
  if (Status sticky = error(); sticky != Status::kOk) return sticky;
  // Single-writer section: the group-commit leader is the only appender.
  // It may hold its own transaction's vertex locks (and a multi-shard
  // coordinator's section) but nothing ranked above the WAL — see
  // util/lock_rank.h. Both facts are checked, not assumed.
  LIVEGRAPH_DCHECK(appending_.exchange(1, std::memory_order_acquire) == 0,
                   "concurrent Wal::AppendBatch — the WAL has exactly one "
                   "appender (the group-commit leader)");
  LIVEGRAPH_SCOPED_LOCK_RANK(LockRank::kWalAppend);
  // Headers into a reusable array first (the iovecs point into it, so it
  // must not reallocate while they are built), then gather headers and the
  // workers' payload buffers directly — no per-batch payload copy.
  headers_.clear();
  headers_.reserve(records.size());
  iov_.clear();
  iov_.reserve(records.size() * 2);
  size_t total = 0;
  for (const Record& record : records) {
    headers_.push_back(MakeWalRecordHeader(record.epoch, record.participants,
                                           record.payload));
    total += sizeof(RecordHeader) + record.payload.size();
  }
  for (size_t i = 0; i < records.size(); ++i) {
    iov_.push_back({&headers_[i], sizeof(RecordHeader)});
    if (!records[i].payload.empty()) {
      iov_.push_back({const_cast<char*>(records[i].payload.data()),
                      records[i].payload.size()});
    }
  }
  // Registered once; recording below is a relaxed add per batch
  // (docs/OBSERVABILITY.md).
  static metrics::Counter& appends = metrics::Registry::Instance().GetCounter(
      "livegraph_wal_appends_total");
  static metrics::Counter& appended_records =
      metrics::Registry::Instance().GetCounter("livegraph_wal_records_total");
  static metrics::Counter& appended_bytes =
      metrics::Registry::Instance().GetCounter("livegraph_wal_bytes_total");
  static metrics::Histogram& batch_bytes =
      metrics::Registry::Instance().GetHistogram("livegraph_wal_batch",
                                                 metrics::Unit::kBytes);
  static metrics::Histogram& fsync_latency =
      metrics::Registry::Instance().GetHistogram("livegraph_wal_fsync_latency",
                                                 metrics::Unit::kNanos);
  Status status = WritevAll(iov_.data(), iov_.size());
  if (status == Status::kOk) {
    bytes_written_ += total;
    appends.Add();
    appended_records.Add(records.size());
    appended_bytes.Add(total);
    batch_bytes.Record(total);
    if (options_.fsync) {
      const uint64_t fsync_start = metrics::MonotonicNanos();
      if (faults::Action fault = LIVEGRAPH_FAULT("wal.fdatasync")) {
        status = Poison("fdatasync", fault.err);
      } else if (fdatasync(fd_) != 0) {
        status = Poison("fdatasync", errno);
      }
      fsync_latency.Record(metrics::MonotonicNanos() - fsync_start);
    }
  }
  // Tee the now-durable batch to replication (post-fsync: a subscriber can
  // never observe a record the primary could still lose — which is exactly
  // why a failed batch is never teed). Still inside the single-appender
  // section, so the sink sees batches in exact log order.
  if (status == Status::kOk) {
    if (DurableSink* sink = sink_.load(std::memory_order_acquire)) {
      sink->OnDurableBatch(records);
    }
  }
  appending_.store(0, std::memory_order_release);
  return status;
}

Status Wal::AppendBatch(timestamp_t epoch,
                        const std::vector<std::string_view>& payloads) {
  std::vector<Record> records;
  records.reserve(payloads.size());
  for (std::string_view payload : payloads) {
    records.push_back(Record{epoch, 1, payload});
  }
  return AppendBatch(records);
}

Status Wal::WritevAll(struct iovec* iov, size_t count) {
  // Fault hook for the whole gather: an injected error fails the batch
  // before any byte lands; an injected short write puts REAL partial bytes
  // on disk first (a torn batch), so recovery's torn-tail truncation gets
  // exercised against genuine on-disk state.
  uint64_t byte_budget = UINT64_MAX;
  if (faults::Action fault = LIVEGRAPH_FAULT("wal.append")) {
    if (fault.kind == faults::Action::Kind::kError) {
      return Poison("writev", fault.err);
    }
    byte_budget = fault.arg;
  }
  size_t idx = 0;
  while (idx < count) {
    if (byte_budget == 0) return Poison("writev", EIO);  // torn mid-batch
    int batch = static_cast<int>(std::min(count - idx, size_t{IOV_MAX}));
    if (byte_budget != UINT64_MAX) {
      // Trim the gather to the injected budget: whole iovecs, then a
      // partial first-overflowing one.
      uint64_t left = byte_budget;
      int kept = 0;
      for (int i = 0; i < batch && left > 0; ++i) {
        if (iov[idx + static_cast<size_t>(i)].iov_len > left) {
          iov[idx + static_cast<size_t>(i)].iov_len = left;
        }
        left -= iov[idx + static_cast<size_t>(i)].iov_len;
        ++kept;
      }
      batch = kept > 0 ? kept : 1;
    }
    ssize_t written = writev(fd_, iov + idx, batch);
    if (written < 0) {
      if (errno == EINTR) continue;
      return Poison("writev", errno);
    }
    if (byte_budget != UINT64_MAX) {
      byte_budget -= static_cast<uint64_t>(written);
    }
    // Resume after a partial write: consume whole iovecs, then trim the
    // first partially written one in place.
    auto remaining = static_cast<size_t>(written);
    while (remaining > 0) {
      if (remaining >= iov[idx].iov_len) {
        remaining -= iov[idx].iov_len;
        ++idx;
      } else {
        iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + remaining;
        iov[idx].iov_len -= remaining;
        remaining = 0;
      }
    }
    while (idx < count && iov[idx].iov_len == 0) ++idx;
  }
  return Status::kOk;
}

Status Wal::Reset() {
  if (Status sticky = error(); sticky != Status::kOk) return sticky;
  if (faults::Action fault = LIVEGRAPH_FAULT("wal.reset")) {
    return Poison("ftruncate", fault.err);
  }
  if (ftruncate(fd_, 0) != 0) return Poison("ftruncate", errno);
  if (lseek(fd_, 0, SEEK_SET) < 0) return Poison("lseek", errno);
  if (options_.fsync && fdatasync(fd_) != 0) {
    return Poison("fdatasync", errno);
  }
  bytes_written_ = 0;
  return Status::kOk;
}

}  // namespace livegraph
