// Block store: one large mmap region carved into power-of-2 blocks.
//
// Paper §6 ("Memory management"): "Inspired by the buddy system, LiveGraph
// fits each TEL into a log block of the closest power-of-2 size", starting
// at 64 bytes, with "an array of lists L ... where L[i] contains the
// positions of blocks with size equal to 2^i × 64 bytes", per-thread private
// free lists for small orders up to a threshold m, and shared lists above.
// Retired blocks (superseded TEL/vertex versions) are reclaimed with an
// epoch-based scheme during compaction (§6 "Compaction").
#ifndef LIVEGRAPH_STORAGE_BLOCK_MANAGER_H_
#define LIVEGRAPH_STORAGE_BLOCK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/mmap_region.h"
#include "util/types.h"

namespace livegraph {

/// Packed block reference: top 8 bits hold the block order (block size =
/// 1 << order bytes), low 56 bits hold the byte offset in the region.
inline constexpr int kPtrOrderShift = 56;
inline constexpr block_ptr_t kPtrOffsetMask =
    (block_ptr_t{1} << kPtrOrderShift) - 1;

inline block_ptr_t PackBlockPtr(uint64_t offset, uint8_t order) {
  return (block_ptr_t{order} << kPtrOrderShift) | offset;
}
inline uint64_t BlockOffset(block_ptr_t p) { return p & kPtrOffsetMask; }
inline uint8_t BlockOrder(block_ptr_t p) {
  return static_cast<uint8_t>(p >> kPtrOrderShift);
}

class BlockManager {
 public:
  struct Options {
    /// Backing file; empty for anonymous (in-memory) storage.
    std::string path;
    /// Virtual address reservation; pages commit lazily.
    size_t reserve_bytes = size_t{1} << 36;  // 64 GiB of address space
  };

  struct Stats {
    uint64_t bump_allocated_bytes;  // high-water mark of the bump pointer
    uint64_t free_list_bytes;       // recycled but unused
    uint64_t retired_bytes;         // awaiting epoch reclamation
    uint64_t live_bytes() const {
      return bump_allocated_bytes - free_list_bytes - retired_bytes;
    }
  };

  static constexpr int kMinOrder = 6;   // 64-byte minimum block (§6)
  static constexpr int kMaxOrder = 48;
  /// Threshold m: orders <= m use striped (effectively thread-private)
  /// free lists; larger orders share one list (§6; the paper sets m to 14
  /// on its 48-hyperthread platform).
  static constexpr int kPrivateOrderThreshold = 14;

  explicit BlockManager(Options options);

  BlockManager(const BlockManager&) = delete;
  BlockManager& operator=(const BlockManager&) = delete;

  /// Allocates a block of 1<<order bytes. Thread-safe.
  block_ptr_t Allocate(uint8_t order);

  /// Returns a block to the free lists for immediate reuse. Only valid when
  /// no concurrent reader can still reach the block.
  void Free(block_ptr_t ptr);

  /// Defers reclamation of a block that may still be visible to readers
  /// with read epoch < retire_epoch.
  void Retire(block_ptr_t ptr, timestamp_t retire_epoch);

  /// Moves retired blocks with retire_epoch <= safe_epoch to the free
  /// lists. Returns the number of blocks reclaimed.
  size_t ReclaimRetired(timestamp_t safe_epoch);

  /// Translates a block reference to a raw pointer. Stable for the life of
  /// the BlockManager.
  uint8_t* Pointer(block_ptr_t ptr) const {
    return region_.data() + BlockOffset(ptr);
  }

  /// Smallest order whose block fits `bytes`.
  static uint8_t OrderFor(size_t bytes);

  Stats GetStats() const;

  /// msync the backing file (durability of the primary store is provided by
  /// the WAL + checkpoints; this is used by tests).
  void Sync() { region_.Sync(); }

 private:
  struct FreeList {
    std::mutex mu;
    std::vector<block_ptr_t> blocks;
  };

  static constexpr int kStripes = 64;

  FreeList& ListFor(uint8_t order);

  Options options_;
  MmapRegion region_;
  std::atomic<uint64_t> bump_{0};
  std::mutex grow_mu_;

  // free_lists_[order][stripe] for order <= threshold (stripe by thread),
  // free_lists_[order][0] shared otherwise.
  std::vector<std::vector<FreeList>> free_lists_;
  std::atomic<uint64_t> free_bytes_{0};

  std::mutex retired_mu_;
  struct Retired {
    timestamp_t epoch;
    block_ptr_t ptr;
  };
  std::vector<Retired> retired_;
  std::atomic<uint64_t> retired_bytes_{0};
};

}  // namespace livegraph

#endif  // LIVEGRAPH_STORAGE_BLOCK_MANAGER_H_
