// Per-vertex linked-list adjacency storage — the paper's stand-in for
// Neo4j ("we ... implement an efficient in-memory linked list prototype in
// C++ rather than running Neo4j on a managed language", §2.1). Nodes for
// different vertices interleave in the allocation pool, so traversing one
// list chases pointers across scattered cache lines: the all-random row of
// Table 1. Sessions hold the shared/exclusive latch for their lifetime,
// like the B+ tree comparator.
#ifndef LIVEGRAPH_BASELINES_LINKED_LIST_STORE_H_
#define LIVEGRAPH_BASELINES_LINKED_LIST_STORE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "api/store.h"
#include "baselines/paged_store.h"

namespace livegraph {

class LinkedListStore : public Store {
 public:
  /// Exposed for the §2 microbenchmarks, which measure the raw pointer
  /// chase without session or cursor machinery.
  struct EdgeNode {
    vertex_t dst;
    label_t label;
    std::string props;
    EdgeNode* next;
  };

  explicit LinkedListStore(PageCacheSim* pagesim = nullptr);

  std::string Name() const override { return "LinkedList"; }
  StoreTraits Traits() const override {
    // Prepend-on-insert gives newest-first scans; no MVCC, no rollback.
    return StoreTraits{/*time_ordered_scans=*/true, /*snapshot_reads=*/false,
                       /*transactional_writes=*/false};
  }

  std::unique_ptr<StoreTxn> BeginTxn() override;
  std::unique_ptr<StoreReadTxn> BeginReadTxn() override;
  bool SupportsInterleavedSessions() const override { return false; }

  /// Head of `src`'s adjacency chain (newest first), for single-threaded
  /// microbenchmarks only: bypasses the latch.
  const EdgeNode* head(vertex_t src) const {
    if (src < 0 || static_cast<size_t>(src) >= vertices_.size()) {
      return nullptr;
    }
    return vertices_[static_cast<size_t>(src)].head;
  }

 private:
  template <typename Base, typename Lock>
  friend class LinkedListSession;
  friend class LinkedListWriteTxn;

  struct Vertex {
    std::string props;
    bool exists = false;
    EdgeNode* head = nullptr;  // newest first (prepend on insert)
  };

  EdgeNode* FindNode(vertex_t src, label_t label, vertex_t dst) const;
  EdgeCursor ScanLocked(vertex_t src, label_t label, size_t limit) const;
  size_t CountLocked(vertex_t src, label_t label) const;

  mutable std::shared_mutex mu_;
  std::vector<Vertex> vertices_;
  std::deque<EdgeNode> pool_;  // interleaved allocation across vertices
  std::atomic<timestamp_t> commit_seq_{0};
  PageCacheSim* pagesim_;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_BASELINES_LINKED_LIST_STORE_H_
