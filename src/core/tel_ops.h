// Internal helpers shared by read/write transaction paths and compaction.
#ifndef LIVEGRAPH_CORE_TEL_OPS_H_
#define LIVEGRAPH_CORE_TEL_OPS_H_

#include <cstring>
#include <optional>
#include <string_view>

#include "core/blocks.h"
#include "core/graph.h"
#include "util/bloom_filter.h"
#include "util/types.h"

namespace livegraph::internal {

/// In-library access to Graph internals for free-function helpers.
struct GraphAccess {
  static VertexIndexEntry* IndexEntry(const Graph& graph, vertex_t v) {
    return graph.IndexEntry(v);
  }
  static BlockManager* Blocks(const Graph& graph) {
    return graph.block_manager_.get();
  }
  static TelBlock Tel(const Graph& graph, block_ptr_t ptr) {
    return graph.Tel(ptr);
  }
  static block_ptr_t FindTel(const Graph& graph, vertex_t v, label_t label) {
    return graph.FindTel(v, label);
  }
};

/// Walks a vertex version chain and returns the properties visible at
/// `tre`, or nullopt (missing / deleted / not yet visible).
std::optional<std::string_view> ReadVertexVersion(const Graph& graph,
                                                  vertex_t v, timestamp_t tre);

/// Tail-to-head scan for the visible entry of (src -> dst); returns the
/// entry index or -1. `total_entries` bounds the scan (committed entries,
/// plus transaction-private ones for the writing transaction).
int64_t FindVisibleEdge(const TelBlock& block, uint32_t total_entries,
                        vertex_t dst, timestamp_t tre, int64_t tid);

/// An entry invalidated at or before `safe` is invisible to every current
/// and future snapshot (§6 "based on version visibility"). Live entries
/// (kNullTimestamp) and pending -TID marks never qualify.
inline bool DeadAt(timestamp_t invalidated, timestamp_t safe) {
  return invalidated > 0 && invalidated <= safe;
}

/// Entry and property-byte counts of a TEL's surviving entries.
struct LiveEntries {
  uint32_t entries = 0;
  uint32_t prop_bytes = 0;
};

/// Counts entries [0, n) of `from` that are not DeadAt(safe).
inline LiveEntries CountLiveEntries(const TelBlock& from, uint32_t n,
                                    timestamp_t safe) {
  LiveEntries live;
  for (uint32_t i = 0; i < n; ++i) {
    const EdgeEntry* entry = from.Entry(i);
    if (DeadAt(entry->invalidation_ts.load(std::memory_order_acquire), safe)) {
      continue;
    }
    live.entries++;
    live.prop_bytes += entry->prop_size;
  }
  return live;
}

/// Copies entries [0, n) of `from` that are not DeadAt(safe) to the front
/// of `to`, in order and with their timestamps, repacking their properties
/// from offset 0, and inserts each copied destination into `to`'s Bloom
/// filter. Every snapshot therefore reads the same edges in the same order
/// from either block. `on_copy(index, invalidation)` runs per copied entry
/// with its index in `to`. The stores into `to` are relaxed: the caller
/// publishes the block afterwards with a release.
template <typename OnCopy>
LiveEntries CopyLiveEntries(const TelBlock& from, uint32_t n, timestamp_t safe,
                            const TelBlock& to, OnCopy&& on_copy) {
  LiveEntries out;
  for (uint32_t i = 0; i < n; ++i) {
    const EdgeEntry* entry = from.Entry(i);
    timestamp_t inv = entry->invalidation_ts.load(std::memory_order_acquire);
    if (DeadAt(inv, safe)) continue;
    EdgeEntry* copy = to.Entry(out.entries);
    copy->dst = entry->dst;
    copy->creation_ts.store(entry->creation_ts.load(std::memory_order_acquire),
                            std::memory_order_relaxed);
    copy->invalidation_ts.store(inv, std::memory_order_relaxed);
    copy->prop_size = entry->prop_size;
    copy->prop_offset = out.prop_bytes;
    if (entry->prop_size > 0) {
      std::memcpy(to.props() + out.prop_bytes,
                  from.props() + entry->prop_offset, entry->prop_size);
    }
    if (to.bloom_bytes() > 0) {
      BloomFilter::Insert(to.bloom_bits(), to.bloom_bytes(),
                          static_cast<uint64_t>(copy->dst));
    }
    on_copy(out.entries, inv);
    out.entries++;
    out.prop_bytes += entry->prop_size;
  }
  return out;
}

}  // namespace livegraph::internal

#endif  // LIVEGRAPH_CORE_TEL_OPS_H_
