#include "storage/wal_reader.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/crc32.h"

namespace livegraph {

bool ParseWalRecord(const uint8_t* data, size_t size, size_t pos,
                    WalRecordView* out) {
  constexpr size_t kHeader = sizeof(WalRecordHeader);
  if (pos > size || size - pos < kHeader) return false;
  uint32_t len, crc, reserved;
  std::memcpy(&len, data + pos, sizeof(len));
  std::memcpy(&crc, data + pos + 4, sizeof(crc));
  std::memcpy(&out->epoch, data + pos + 8, sizeof(out->epoch));
  std::memcpy(&out->participants, data + pos + 16,
              sizeof(out->participants));
  std::memcpy(&reserved, data + pos + 20, sizeof(reserved));
  if (size - pos - kHeader < len) return false;  // torn tail
  const uint8_t* body = data + pos + kHeader;
  uint32_t expect = Crc32c(&out->epoch, sizeof(out->epoch));
  expect = Crc32c(&out->participants, sizeof(out->participants), expect);
  expect = Crc32c(body, len, expect);
  // The reserved bytes sit outside the CRC and the writer always zeroes
  // them, so a nonzero value is damage the CRC cannot see.
  if (expect != crc || reserved != 0) return false;
  out->payload = body;
  out->payload_len = len;
  return true;
}

WalRecordHeader MakeWalRecordHeader(timestamp_t epoch, uint32_t participants,
                                    std::string_view payload) {
  WalRecordHeader header;
  header.len = static_cast<uint32_t>(payload.size());
  header.epoch = epoch;
  header.participants = participants;
  header.reserved = 0;
  header.crc = Crc32c(&header.epoch, sizeof(header.epoch));
  header.crc =
      Crc32c(&header.participants, sizeof(header.participants), header.crc);
  header.crc = Crc32c(payload.data(), payload.size(), header.crc);
  return header;
}

WalReader::WalReader(const std::string& path) {
  int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return;  // missing WAL == empty WAL
  off_t size = lseek(fd, 0, SEEK_END);
  if (size > 0) {
    buffer_.resize(static_cast<size_t>(size));
    ssize_t got = pread(fd, buffer_.data(), buffer_.size(), 0);
    if (got != size) buffer_.clear();
  }
  close(fd);
}

bool WalReader::Next(WalRecordView* view) {
  if (!ParseWalRecord(buffer_.data(), buffer_.size(), pos_, view)) {
    // Failing on the first record makes a non-empty log look empty to the
    // caller, and the usual cause is a file written with a different
    // record framing — say so instead of silently replaying nothing.
    if (pos_ == 0 && !buffer_.empty()) {
      std::fprintf(stderr,
                   "Wal: first record fails its CRC or header check (%zu "
                   "bytes on disk) — corrupt log or incompatible record "
                   "framing; replaying nothing\n",
                   buffer_.size());
    }
    return false;
  }
  pos_ += sizeof(WalRecordHeader) + view->payload_len;
  return true;
}

bool WalReader::Next(timestamp_t* epoch, uint32_t* participants,
                     std::string* payload) {
  WalRecordView view;
  if (!Next(&view)) return false;
  *epoch = view.epoch;
  *participants = view.participants;
  payload->assign(reinterpret_cast<const char*>(view.payload),
                  view.payload_len);
  return true;
}

void WalReader::TruncateTornTail(const std::string& path) const {
  if (pos_ >= buffer_.size()) return;  // whole file parsed: nothing torn
  if (truncate(path.c_str(), static_cast<off_t>(pos_)) != 0) {
    std::fprintf(stderr, "Wal: torn-tail truncation of %s failed: %s\n",
                 path.c_str(), std::strerror(errno));
  }
}

}  // namespace livegraph
