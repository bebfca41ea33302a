// Concrete cursor over one (vertex, label) adjacency list — the v2 scan
// protocol (docs/API.md).
//
// The seed's std::function scan callback put a type-erased indirect
// call on the purely sequential scan path the paper exists to keep tight
// (§4: one branch-predictable loop over a contiguous edge log). EdgeCursor
// replaces it with a value type the caller advances: `Next()` / `dst()` /
// `properties()` are non-virtual and inline. For LiveGraph the cursor wraps
// the core EdgeIterator directly — scanning stays allocation-free and the
// per-edge work is the same pointer bump as the raw TEL walk, with a single
// always-taken mode branch. Baseline engines, which must drop their latches
// or merge multiple components before a caller may hold positions, return
// the same type in materialized mode: their adaptor snapshots the list into
// the cursor once, and iteration is an index bump. A third, chunked mode
// backs remote scans (docs/SERVER.md): the cursor pulls fixed-size edge
// batches from a BatchSource as the caller advances, so streamed adjacency
// lists are bounded by one batch of client memory. A fourth, merged mode
// fans several child cursors into one stream (docs/SHARDING.md): the
// sharded engine uses it to gather per-shard adjacency cursors — each child
// still a purely sequential scan inside its own shard — picking the child
// with the newest head entry first, so multi-source queries ("latest posts
// of my friends", whose friends hash to different shards) keep the
// newest-first consumption shape without materializing the union.
#ifndef LIVEGRAPH_API_EDGE_CURSOR_H_
#define LIVEGRAPH_API_EDGE_CURSOR_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/transaction.h"
#include "util/types.h"

namespace livegraph {

class EdgeCursor {
 public:
  /// One materialized edge. Properties live in the cursor's arena so a
  /// snapshot of N edges costs two allocations, not N.
  struct Edge {
    vertex_t dst;
    uint32_t prop_offset;
    uint32_t prop_size;
    timestamp_t created;
  };

  /// Empty cursor (no adjacency list).
  EdgeCursor() = default;

  /// Live TEL mode: wraps a core EdgeIterator, yielding at most `limit`
  /// edges. Valid while the owning transaction lives, like the iterator
  /// itself.
  explicit EdgeCursor(EdgeIterator it,
                      size_t limit = std::numeric_limits<size_t>::max())
      : mode_(Mode::kTel), it_(it), remaining_(limit) {}

  /// Materialized mode: adopts a snapshot taken by a baseline adaptor.
  EdgeCursor(std::vector<Edge> edges, std::string arena)
      : mode_(Mode::kMaterialized),
        edges_(std::move(edges)),
        arena_(std::move(arena)) {}

  /// Incremental supplier of edge batches for chunked cursors. Used by the
  /// network client (server/remote_store.h): the server streams a scan as
  /// a sequence of frames, and the cursor pulls them one batch at a time,
  /// so a remote adjacency list is never fully resident on either side.
  class BatchSource {
   public:
    virtual ~BatchSource() = default;
    /// Replaces `edges`/`arena` with the next non-empty batch. Returns
    /// false when the stream is exhausted (or torn down), after which it
    /// is not called again.
    virtual bool Fill(std::vector<Edge>* edges, std::string* arena) = 0;
  };

  /// Chunked mode: pulls batches from `source` on demand. The source is
  /// queried for the first batch immediately, so Valid() is meaningful
  /// without a priming Next().
  explicit EdgeCursor(std::unique_ptr<BatchSource> source)
      : mode_(Mode::kChunked), source_(std::move(source)) {
    Refill();
  }

  /// Merged (shard fan-in) mode: yields from `children`, at most `limit`
  /// edges total, always the child head with the greatest creation
  /// timestamp (ties break toward the lower child index), preserving exact
  /// newest-first order per child. Across children the interleave is
  /// exact when the children share one epoch domain — which the sharded
  /// engine's shards do since the unified EpochDomain (docs/SHARDING.md
  /// "Epoch domain") — and best-effort otherwise.
  static EdgeCursor Merge(std::vector<EdgeCursor> children,
                          size_t limit = std::numeric_limits<size_t>::max()) {
    EdgeCursor c;
    c.mode_ = Mode::kMerged;
    c.remaining_ = limit;
    c.merge_ = std::make_unique<MergeState>();
    auto& m = *c.merge_;
    m.children = std::move(children);
    // Seed the head heap: O(K) for K children; each subsequent yield
    // costs one sift instead of a rescan of every child.
    m.heap.reserve(m.children.size());
    for (size_t i = 0; i < m.children.size(); ++i) {
      if (m.children[i].Valid()) {
        m.heap.push_back(HeapEntry{m.children[i].creation_timestamp(), i});
      }
    }
    std::make_heap(m.heap.begin(), m.heap.end(), HeapLess{});
    c.SelectChild();
    return c;
  }

  EdgeCursor(EdgeCursor&&) = default;
  EdgeCursor& operator=(EdgeCursor&&) = default;
  EdgeCursor(const EdgeCursor&) = delete;
  EdgeCursor& operator=(const EdgeCursor&) = delete;

  bool Valid() const {
    if (mode_ == Mode::kTel) return remaining_ != 0 && it_.Valid();
    if (mode_ == Mode::kMerged) {
      return remaining_ != 0 && merge_->current != kNoChild;
    }
    return index_ < edges_.size();
  }

  /// Advances to the next visible edge (newer-to-older on engines with
  /// time-ordered lists; see StoreTraits::time_ordered_scans).
  void Next() {
    if (mode_ == Mode::kTel) {
      it_.Next();
      --remaining_;
    } else if (mode_ == Mode::kMerged) {
      MergeState& m = *merge_;
      EdgeCursor& child = m.children[m.current];
      child.Next();
      --remaining_;
      if (child.Valid()) {
        m.heap.push_back(HeapEntry{child.creation_timestamp(), m.current});
        std::push_heap(m.heap.begin(), m.heap.end(), HeapLess{});
      }
      SelectChild();
    } else {
      ++index_;
      if (mode_ == Mode::kChunked && index_ >= edges_.size()) Refill();
    }
  }

  vertex_t dst() const {
    if (mode_ == Mode::kTel) return it_.DstId();
    if (mode_ == Mode::kMerged) return merge_->children[merge_->current].dst();
    return edges_[index_].dst;
  }

  /// This edge's property bytes. A view into the TEL (live mode) or the
  /// cursor's arena (materialized mode); stable until Next().
  std::string_view properties() const {
    if (mode_ == Mode::kTel) return it_.Properties();
    if (mode_ == Mode::kMerged) {
      return merge_->children[merge_->current].properties();
    }
    const Edge& e = edges_[index_];
    return std::string_view(arena_.data() + e.prop_offset, e.prop_size);
  }

  /// Creation timestamp (commit epoch) of the current edge; engines without
  /// version timestamps report their insertion sequence number.
  timestamp_t creation_timestamp() const {
    if (mode_ == Mode::kTel) return it_.CreationTimestamp();
    if (mode_ == Mode::kMerged) {
      return merge_->children[merge_->current].creation_timestamp();
    }
    return edges_[index_].created;
  }

  /// The child cursor the current edge came from (merged mode: the shard /
  /// source index); 0 elsewhere. Lets fan-in consumers attribute an edge to
  /// the source vertex whose list it was merged from.
  size_t merge_source() const {
    return mode_ == Mode::kMerged ? merge_->current : 0;
  }

  /// Address range of the underlying edge-log strip, for out-of-core
  /// page-touch accounting. {nullptr, 0} for materialized cursors (their
  /// adaptor accounts touches while snapshotting).
  std::pair<const void*, size_t> ScanSpan() const {
    if (mode_ == Mode::kTel) return it_.ScanSpan();
    if (mode_ == Mode::kMerged && merge_->current != kNoChild) {
      return merge_->children[merge_->current].ScanSpan();
    }
    return {nullptr, 0};
  }

 private:
  enum class Mode : uint8_t { kTel, kMaterialized, kChunked, kMerged };

  static constexpr size_t kNoChild = std::numeric_limits<size_t>::max();

  /// Head-of-child entry in the merge heap: max timestamp wins, ties break
  /// toward the lower child index.
  struct HeapEntry {
    timestamp_t ts;
    size_t child;
  };
  struct HeapLess {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.ts != b.ts ? a.ts < b.ts : a.child > b.child;
    }
  };

  /// All merged-mode state, heap-allocated as one unit so the common
  /// single-list cursor pays exactly one null pointer for the mode's
  /// existence. `heap` holds the heads of every valid non-current child,
  /// so advancing is O(log K) in the child count.
  struct MergeState {
    std::vector<EdgeCursor> children;
    std::vector<HeapEntry> heap;
    size_t current = kNoChild;
  };

  void Refill() {
    index_ = 0;
    if (source_ == nullptr || !source_->Fill(&edges_, &arena_)) {
      edges_.clear();  // Valid() goes false
      source_.reset();
    }
  }

  /// Merged mode: pops the child with the newest head off the heap (the
  /// previous current child, if still valid, is pushed back first by
  /// Next()).
  void SelectChild() {
    MergeState& m = *merge_;
    if (m.heap.empty()) {
      m.current = kNoChild;
      return;
    }
    std::pop_heap(m.heap.begin(), m.heap.end(), HeapLess{});
    m.current = m.heap.back().child;
    m.heap.pop_back();
  }

  Mode mode_ = Mode::kMaterialized;  // default: empty materialized cursor
  EdgeIterator it_;
  size_t remaining_ = 0;  // TEL/merged mode: yields left before the bound
  size_t index_ = 0;
  std::vector<Edge> edges_;
  std::string arena_;
  std::unique_ptr<BatchSource> source_;  // chunked mode only
  std::unique_ptr<MergeState> merge_;  // merged mode only
};

/// Incremental builder for materialized cursors (baseline adaptors).
class EdgeCursorBuilder {
 public:
  void Reserve(size_t edges) { edges_.reserve(edges); }

  void Add(vertex_t dst, std::string_view properties, timestamp_t created) {
    edges_.push_back(EdgeCursor::Edge{
        dst, static_cast<uint32_t>(arena_.size()),
        static_cast<uint32_t>(properties.size()), created});
    arena_.append(properties.data(), properties.size());
  }

  size_t size() const { return edges_.size(); }

  EdgeCursor Build() && {
    return EdgeCursor(std::move(edges_), std::move(arena_));
  }

 private:
  std::vector<EdgeCursor::Edge> edges_;
  std::string arena_;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_API_EDGE_CURSOR_H_
