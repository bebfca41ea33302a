#include "storage/block_manager.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace livegraph {

namespace {

// Cheap stable stripe id for the calling thread.
size_t ThreadStripe() {
  static std::atomic<size_t> next{0};
  // relaxed: the id only needs to be distinct per thread; nothing is
  // ordered through the counter.
  thread_local size_t stripe = next.fetch_add(1, std::memory_order_relaxed);
  return stripe;
}

}  // namespace

BlockManager::BlockManager(Options options) : options_(std::move(options)) {
  region_ = options_.path.empty()
                ? MmapRegion::CreateAnonymous(options_.reserve_bytes)
                : MmapRegion::CreateFileBacked(options_.path,
                                               options_.reserve_bytes);
  free_lists_.resize(kMaxOrder + 1);
  for (int order = 0; order <= kMaxOrder; ++order) {
    size_t stripes = order <= kPrivateOrderThreshold ? kStripes : 1;
    free_lists_[order] = std::vector<FreeList>(stripes);
  }
}

uint8_t BlockManager::OrderFor(size_t bytes) {
  size_t size = bytes < (size_t{1} << kMinOrder) ? (size_t{1} << kMinOrder)
                                                 : std::bit_ceil(bytes);
  return static_cast<uint8_t>(std::countr_zero(size));
}

BlockManager::FreeList& BlockManager::ListFor(uint8_t order) {
  auto& lists = free_lists_[order];
  return lists.size() == 1 ? lists[0] : lists[ThreadStripe() % lists.size()];
}

block_ptr_t BlockManager::Allocate(uint8_t order) {
  if (order < kMinOrder) order = kMinOrder;
  if (order > kMaxOrder) {
    std::fprintf(stderr, "BlockManager: order %d too large\n", order);
    std::abort();
  }
  const uint64_t size = uint64_t{1} << order;
  // Fast path: recycle from the (striped) free list.
  {
    FreeList& list = ListFor(order);
    std::lock_guard<std::mutex> guard(list.mu);
    if (!list.blocks.empty()) {
      block_ptr_t ptr = list.blocks.back();
      list.blocks.pop_back();
      // relaxed (here and on every *_bytes_ counter below): pure memory
      // statistics, read only by GetStats; the block hand-off itself is
      // ordered by the free-list mutex.
      free_bytes_.fetch_sub(size, std::memory_order_relaxed);
      return ptr;
    }
  }
  // Slow path: bump-allocate from the tail of the store ("allocating new
  // blocks from the tail of the block store only when that list is empty",
  // §6). Natural alignment to the block size keeps entries cache-aligned.
  uint64_t offset;
  // relaxed CAS loop: the bump pointer only parcels out disjoint offset
  // ranges — no data is transferred through it (fresh block bytes reach
  // other threads via the caller's release publication of the pointer),
  // and the committed() check below carries its own acquire.
  while (true) {
    uint64_t cur = bump_.load(std::memory_order_relaxed);
    uint64_t aligned = (cur + size - 1) & ~(size - 1);
    if (bump_.compare_exchange_weak(cur, aligned + size,
                                    std::memory_order_relaxed)) {
      offset = aligned;
      break;
    }
  }
  if (offset + size > region_.committed() && region_.file_backed()) {
    std::lock_guard<std::mutex> guard(grow_mu_);
    region_.EnsureCommitted(offset + size);
  } else if (offset + size > region_.reserved()) {
    std::fprintf(stderr, "BlockManager: reservation exhausted\n");
    std::abort();
  }
  return PackBlockPtr(offset, order);
}

void BlockManager::Free(block_ptr_t ptr) {
  if (ptr == kNullBlock) return;
  uint8_t order = BlockOrder(ptr);
  FreeList& list = ListFor(order);
  std::lock_guard<std::mutex> guard(list.mu);
  list.blocks.push_back(ptr);
  free_bytes_.fetch_add(uint64_t{1} << order, std::memory_order_relaxed);
}

void BlockManager::Retire(block_ptr_t ptr, timestamp_t retire_epoch) {
  if (ptr == kNullBlock) return;
  std::lock_guard<std::mutex> guard(retired_mu_);
  retired_.push_back(Retired{retire_epoch, ptr});
  retired_bytes_.fetch_add(uint64_t{1} << BlockOrder(ptr),
                           std::memory_order_relaxed);
}

size_t BlockManager::ReclaimRetired(timestamp_t safe_epoch) {
  std::vector<block_ptr_t> reclaimable;
  {
    std::lock_guard<std::mutex> guard(retired_mu_);
    size_t kept = 0;
    for (size_t i = 0; i < retired_.size(); ++i) {
      if (retired_[i].epoch <= safe_epoch) {
        reclaimable.push_back(retired_[i].ptr);
      } else {
        retired_[kept++] = retired_[i];
      }
    }
    retired_.resize(kept);
  }
  for (block_ptr_t ptr : reclaimable) {
    retired_bytes_.fetch_sub(uint64_t{1} << BlockOrder(ptr),
                             std::memory_order_relaxed);
    Free(ptr);
  }
  return reclaimable.size();
}

BlockManager::Stats BlockManager::GetStats() const {
  Stats stats;
  stats.bump_allocated_bytes = bump_.load(std::memory_order_relaxed);
  stats.free_list_bytes = free_bytes_.load(std::memory_order_relaxed);
  stats.retired_bytes = retired_bytes_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace livegraph
