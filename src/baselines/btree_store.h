// Store over the B+ tree — LMDB's stand-in. Concurrency model mirrors
// LMDB: one writer at a time, concurrent readers. A write session holds
// the exclusive latch from BeginTxn() to Commit()/Abort(); read sessions
// hold the shared latch for their lifetime — the lock-based
// multi-operation read the paper contrasts with MVCC snapshots (§7.3:
// "Virtuoso spending over 60% of its CPU time on locks").
// §7.2: "LMDB suffers due to B+ tree's higher insert complexity and its
// single-threaded writes."
#ifndef LIVEGRAPH_BASELINES_BTREE_STORE_H_
#define LIVEGRAPH_BASELINES_BTREE_STORE_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>

#include "api/store.h"
#include "baselines/btree.h"

namespace livegraph {

class BTreeStore : public Store {
 public:
  explicit BTreeStore(PageCacheSim* pagesim = nullptr);

  std::string Name() const override { return "BTree(LMDB)"; }
  StoreTraits Traits() const override {
    // Range scans run in destination order: B+ trees cannot serve "most
    // recent first" without a secondary time index (§7.2).
    return StoreTraits{};
  }

  std::unique_ptr<StoreTxn> BeginTxn() override;
  std::unique_ptr<StoreReadTxn> BeginReadTxn() override;
  bool SupportsInterleavedSessions() const override { return false; }

  int tree_height() const { return edges_.height(); }

 private:
  template <typename Base, typename Lock>
  friend class BTreeSession;
  friend class BTreeWriteTxn;

  EdgeCursor ScanLocked(vertex_t src, label_t label, size_t limit);
  size_t CountLocked(vertex_t src, label_t label);

  mutable std::shared_mutex mu_;
  BPlusTree edges_;
  // Nodes in a second tree keyed (id, 0, 0): LMDB-style separate "object
  // table", same structure.
  BPlusTree nodes_;
  vertex_t next_node_ = 0;
  std::atomic<timestamp_t> commit_seq_{0};
  PageCacheSim* pagesim_;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_BASELINES_BTREE_STORE_H_
