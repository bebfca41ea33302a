// EdgeIterator, ReadTransaction, and shared TEL scan helpers.
#include <optional>

#include "core/tel_ops.h"
#include "core/transaction.h"
#include "util/bloom_filter.h"

namespace livegraph {

namespace internal {

std::optional<std::string_view> ReadVertexVersion(const Graph& graph,
                                                  vertex_t v,
                                                  timestamp_t tre) {
  if (v < 0 || v >= graph.VertexCount()) return std::nullopt;
  block_ptr_t ptr = GraphAccess::IndexEntry(graph, v)->vertex_block.load(
      std::memory_order_acquire);
  // "In the uncommon case where a read requires a previous version of the
  // vertex, it follows the per-vertex linked list of vertex block versions
  // in backward timestamp order" (§4).
  while (ptr != kNullBlock) {
    auto* header = reinterpret_cast<const VertexHeader*>(
        GraphAccess::Blocks(graph)->Pointer(ptr));
    timestamp_t ts = header->creation_ts.load(std::memory_order_acquire);
    if (ts > 0 && ts <= tre) {
      if (header->tombstone) return std::nullopt;
      return std::string_view(reinterpret_cast<const char*>(header + 1),
                              header->prop_size);
    }
    ptr = header->prev.load(std::memory_order_acquire);
  }
  return std::nullopt;
}

int64_t FindVisibleEdge(const TelBlock& block, uint32_t total_entries,
                        vertex_t dst, timestamp_t tre, int64_t tid) {
  // Tail-to-head: "edge updates and deletions have high time locality:
  // edges appended most recently are most likely to be accessed" (§4).
  for (int64_t i = static_cast<int64_t>(total_entries) - 1; i >= 0; --i) {
    const EdgeEntry* entry = block.Entry(static_cast<uint32_t>(i));
    if (entry->dst != dst) continue;
    if (entry->VisibleTo(tre, tid)) return i;
  }
  return -1;
}

}  // namespace internal

// --- EdgeIterator ---

EdgeIterator::EdgeIterator(TelBlock block, uint32_t total_entries,
                           timestamp_t tre, int64_t tid)
    : block_(block), tre_(tre), tid_(tid) {
  if (!block_.valid() || total_entries == 0) return;
  // Entry(total-1) is the newest ("tail" in Figure 3) and sits at the
  // lowest address; the scan walks addresses strictly upward to the oldest
  // entry at the block end — purely sequential.
  end_ = block_.Entry(0) + 1;
  entry_ = block_.Entry(total_entries - 1);
  props_base_ = block_.props();
  SkipInvisible();
}

std::string_view EdgeIterator::Properties() const {
  return std::string_view(
      reinterpret_cast<const char*>(props_base_ + entry_->prop_offset),
      entry_->prop_size);
}

// --- ReadTransaction ---

ReadTransaction::~ReadTransaction() {
  if (slot_ != nullptr) graph_->ReleaseSlot(slot_);
}

ReadTransaction::ReadTransaction(ReadTransaction&& other) noexcept
    : graph_(other.graph_), slot_(other.slot_), tre_(other.tre_) {
  other.slot_ = nullptr;
}

StatusOr<std::string_view> ReadTransaction::GetVertex(vertex_t v) const {
  auto committed = internal::ReadVertexVersion(*graph_, v, tre_);
  if (!committed.has_value()) return Status::kNotFound;
  return *committed;
}

EdgeIterator ReadTransaction::GetEdges(vertex_t v, label_t label) const {
  block_ptr_t tel = graph_->FindTel(v, label);
  if (tel == kNullBlock) return EdgeIterator();
  TelBlock block = graph_->Tel(tel);
  uint32_t committed =
      block.header()->committed_entries.load(std::memory_order_acquire);
  return EdgeIterator(block, committed, tre_, /*tid=*/0);
}

StatusOr<std::string_view> ReadTransaction::GetEdge(vertex_t v, label_t label,
                                                    vertex_t dst) const {
  block_ptr_t tel = graph_->FindTel(v, label);
  if (tel == kNullBlock) return Status::kNotFound;
  TelBlock block = graph_->Tel(tel);
  // "Reading a single edge involves checking if the edge is present using
  // the Bloom filter. If so, the edge is located with a scan" (§4).
  if (block.bloom_bytes() > 0 &&
      !BloomFilter::MayContain(block.bloom_bits(), block.bloom_bytes(),
                               static_cast<uint64_t>(dst))) {
    return Status::kNotFound;
  }
  uint32_t committed =
      block.header()->committed_entries.load(std::memory_order_acquire);
  int64_t index =
      internal::FindVisibleEdge(block, committed, dst, tre_, /*tid=*/0);
  if (index < 0) return Status::kNotFound;
  const EdgeEntry* entry = block.Entry(static_cast<uint32_t>(index));
  return std::string_view(
      reinterpret_cast<const char*>(block.props() + entry->prop_offset),
      entry->prop_size);
}

size_t ReadTransaction::CountEdges(vertex_t v, label_t label) const {
  size_t n = 0;
  for (EdgeIterator it = GetEdges(v, label); it.Valid(); it.Next()) ++n;
  return n;
}

}  // namespace livegraph
