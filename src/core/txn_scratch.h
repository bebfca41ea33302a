// Pooled write-phase staging state for read-write transactions.
//
// The write hot path used to allocate on every transaction: the WAL
// payload string, the TEL/vertex write sets, the lock list and the
// (vertex,label) -> write-set index all started empty and grew with
// malloc. A session committing many small transactions — the LinkBench
// write mix, every server connection — paid that over and over. The
// arenas now live in the transaction's Graph::WorkerSlot and are reset
// capacity-preserving between transactions, so steady-state commits touch
// no allocator at all.
#ifndef LIVEGRAPH_CORE_TXN_SCRATCH_H_
#define LIVEGRAPH_CORE_TXN_SCRATCH_H_

#include <atomic>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/commit_manager.h"
#include "util/types.h"

namespace livegraph {

/// Per-TEL staging state (paper §5 work phase).
struct TelWrite {
  vertex_t src;
  label_t label;
  std::atomic<block_ptr_t>* slot;  // label-index slot holding the TEL ptr
  block_ptr_t block;               // current (possibly upgraded) block
  block_ptr_t original_block;      // pre-upgrade block or kNullBlock
  uint32_t committed_entries;      // LS when first touched
  uint32_t committed_prop_bytes;
  uint32_t private_entries = 0;    // appended, creation == -TID
  uint32_t private_prop_bytes = 0;
  std::vector<uint32_t> invalidated;  // entry indices set to -TID
};

/// Per-vertex staging state.
struct VertexWrite {
  vertex_t v;
  block_ptr_t new_block;  // staged version, creation == -TID
  bool is_new_vertex;
};

/// The pooled arenas. One per WorkerSlot; a slot serves one transaction at
/// a time, so the active Transaction owns its slot's scratch exclusively.
struct TxnScratch {
  std::vector<TelWrite> tel_writes;
  // (vertex, label) -> index into tel_writes; keeps bulk-load transactions
  // (hundreds of thousands of distinct TELs) linear.
  std::unordered_map<uint64_t, size_t> tel_write_index;
  std::vector<VertexWrite> vertex_writes;
  std::vector<vertex_t> locked;
  std::unordered_set<vertex_t> locked_set;
  std::string wal_payload;
  /// The commit's WAL request: published here so it outlives any one call
  /// of a commit that parks between its stages.
  CommitManager::Request commit_request;

  /// Clears contents but keeps capacity, except after an outsized
  /// transaction (bulk load): then the memory goes back to the allocator
  /// instead of pinning a high-water mark on the slot forever.
  void Reset() {
    constexpr size_t kMaxPooled = 16384;
    if (tel_writes.capacity() > kMaxPooled) {
      std::vector<TelWrite>().swap(tel_writes);
      std::unordered_map<uint64_t, size_t>().swap(tel_write_index);
    } else {
      tel_writes.clear();
      tel_write_index.clear();
    }
    if (vertex_writes.capacity() > kMaxPooled) {
      std::vector<VertexWrite>().swap(vertex_writes);
    } else {
      vertex_writes.clear();
    }
    if (locked.capacity() > kMaxPooled) {
      std::vector<vertex_t>().swap(locked);
      std::unordered_set<vertex_t>().swap(locked_set);
    } else {
      locked.clear();
      locked_set.clear();
    }
    if (wal_payload.capacity() > (size_t{1} << 22)) {
      std::string().swap(wal_payload);
    } else {
      wal_payload.clear();
    }
  }
};

}  // namespace livegraph

#endif  // LIVEGRAPH_CORE_TXN_SCRATCH_H_
