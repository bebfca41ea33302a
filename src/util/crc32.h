// CRC32C checksums guarding WAL records, wire frames and the replication
// batches those frames carry.
#ifndef LIVEGRAPH_UTIL_CRC32_H_
#define LIVEGRAPH_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace livegraph {

/// CRC32C (Castagnoli polynomial). Used for torn-write detection on WAL
/// records (§5 persist phase) and on every wire frame (server/protocol.h);
/// replication batches ride in frames too. Checkpoint files carry no CRC.
///
/// Dispatch is picked once per process: on x86-64 CPUs with SSE4.2 the
/// `crc32` instruction folds 8 bytes per step; everywhere else the
/// portable table loop below runs. Both compute the same values, so logs
/// and peers written by either path validate under the other.
uint32_t Crc32c(const void* data, size_t length, uint32_t seed = 0);

/// The portable byte-at-a-time table implementation (slice-by-1): what
/// Crc32c runs without SSE4.2, exported so tests can pin the hardware
/// path against it.
uint32_t Crc32cPortable(const void* data, size_t length, uint32_t seed = 0);

}  // namespace livegraph

#endif  // LIVEGRAPH_UTIL_CRC32_H_
