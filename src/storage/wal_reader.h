// WalReader: the one bounds-checked record-iteration loop over a WAL file,
// shared by everything that replays log bytes — single-engine recovery
// (Graph::Recover), sharded recovery (ShardedStore::Recover), and the
// replication hub's disk catch-up phase (docs/REPLICATION.md).
//
// Record framing (see storage/wal.h): a 24-byte header {u32 payload_len,
// u32 crc32c(epoch ++ participants ++ payload), i64 epoch,
// u32 participants, u32 reserved} followed by the payload bytes. A torn
// tail record (crash mid-append) fails its bounds or CRC check and
// terminates iteration; everything before it is the valid prefix.
//
// The constructor loads the whole file; Next() walks it. Recovery scans
// the log twice (epoch bounds, then replay) over the same buffer via
// Rewind(). Checkpoint shard files use the same framing and are read
// record by record through ParseWalRecord (core/checkpoint.cc).
#ifndef LIVEGRAPH_STORAGE_WAL_READER_H_
#define LIVEGRAPH_STORAGE_WAL_READER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace livegraph {

/// The on-disk record header, byte-for-byte: 4+4 bytes, an 8-aligned
/// epoch, then participants + padding, so one iovec covers the whole
/// header on the append side.
struct WalRecordHeader {
  uint32_t len;
  uint32_t crc;
  timestamp_t epoch;
  uint32_t participants;
  uint32_t reserved;
};
static_assert(sizeof(WalRecordHeader) == 24, "framing layout");

/// A parsed record, viewing the reader's buffer (valid until the buffer is
/// destroyed).
struct WalRecordView {
  timestamp_t epoch = 0;
  uint32_t participants = 0;
  const uint8_t* payload = nullptr;
  uint32_t payload_len = 0;
};

/// Parses (and CRC-checks) the record starting at `pos` in `data[0,size)`.
/// False at end of valid records: EOF, a torn tail (header or payload runs
/// past `size`), or a corrupt record (CRC mismatch, or nonzero reserved
/// bytes — they sit outside the CRC). Every access is bounds-checked
/// against `size` before it happens.
bool ParseWalRecord(const uint8_t* data, size_t size, size_t pos,
                    WalRecordView* out);

/// The header that frames `payload` as a record: length, epoch,
/// participants, zeroed reserved bytes, and the CRC32C ParseWalRecord
/// checks. Every record writer (the WAL's batch append, checkpoint shard
/// files, Wal::PublishRecord) frames through this.
WalRecordHeader MakeWalRecordHeader(timestamp_t epoch, uint32_t participants,
                                    std::string_view payload);

class WalReader {
 public:
  /// Loads the whole file at `path`; a missing file reads as empty.
  explicit WalReader(const std::string& path);

  WalReader(const WalReader&) = delete;
  WalReader& operator=(const WalReader&) = delete;

  /// Returns false at end of log (EOF or first torn/corrupt record).
  bool Next(timestamp_t* epoch, uint32_t* participants,
            std::string* payload);
  bool Next(timestamp_t* epoch, std::string* payload) {
    uint32_t participants = 0;
    return Next(epoch, &participants, payload);
  }
  /// Copy-free variant: `view` aliases the buffer until destruction.
  bool Next(WalRecordView* view);

  /// Byte length of the valid record prefix consumed so far. After a scan
  /// to the end, everything past this offset is a torn/corrupt tail —
  /// recovery truncates to it so post-recovery appends stay reachable by
  /// the next replay.
  size_t valid_bytes() const { return pos_; }
  size_t file_bytes() const { return buffer_.size(); }

  /// Restarts iteration over the already-loaded buffer.
  void Rewind() { pos_ = 0; }

  /// After a scan to the end: truncates the on-disk file at `path` to the
  /// valid record prefix, cutting off a torn/corrupt tail left by a crash
  /// mid-append. No-op when the whole file parsed.
  void TruncateTornTail(const std::string& path) const;

 private:
  std::vector<uint8_t> buffer_;
  size_t pos_ = 0;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_STORAGE_WAL_READER_H_
