// Background compaction and garbage collection (paper §6).
//
// "LiveGraph periodically (every 65536 transactions in our default setting)
// launches a compaction task. Each worker thread maintains a dirty vertex
// set ... When doing compaction, a thread scans through its local dirty set
// and compacts or garbage-collects blocks based on version visibility."
#include <algorithm>
#include <vector>

#include "core/graph.h"
#include "core/tel_ops.h"
#include "core/transaction.h"
#include "util/lock_rank.h"
#include "util/metrics.h"

namespace livegraph {

namespace {
// Lock acquisition budget for compaction: it must only "temporarily prevent
// concurrent writes to that specific block" (§6), so contended vertices are
// skipped and retried in a later pass.
constexpr int64_t kCompactionLockTimeoutNs = 1'000'000;  // 1 ms
}  // namespace

void Graph::MaybeScheduleCompaction() {
  if (!options_.enable_compaction) return;
  // Threshold compare-exchange rather than `committed % interval == 0`:
  // concurrent commits can jump the counter across a boundary so that no
  // single committer ever observes an exact multiple, which would skip the
  // trigger entirely. Exactly one committer wins the CAS per crossing.
  // relaxed loads: both are trigger heuristics — stale values delay a pass
  // by at most a few commits; the CAS arbitrates the actual crossing.
  uint64_t committed = committed_txns_.load(std::memory_order_relaxed);
  uint64_t next = next_compaction_at_.load(std::memory_order_relaxed);
  if (committed < next) return;
  if (!next_compaction_at_.compare_exchange_strong(
          next, committed + options_.compaction_interval,
          std::memory_order_acq_rel, std::memory_order_relaxed)) {
    return;  // another committer claimed this crossing
  }
  compaction_requested_.store(true, std::memory_order_release);
  compaction_cv_.notify_one();
}

void Graph::CompactionThreadMain() {
  std::unique_lock<std::mutex> lock(compaction_mu_);
  while (true) {
    compaction_cv_.wait(lock, [&] {
      return shutdown_.load(std::memory_order_acquire) ||
             compaction_requested_.load(std::memory_order_acquire);
    });
    if (shutdown_.load(std::memory_order_acquire)) return;
    compaction_requested_.store(false, std::memory_order_release);
    lock.unlock();
    RunCompactionPass();
    lock.lock();
  }
}

void Graph::RunCompactionPass() {
  // Outermost rank: the pass takes vertex locks and dirty sets below it.
  LIVEGRAPH_SCOPED_LOCK_RANK(LockRank::kCompactionPass);
  std::lock_guard<std::mutex> pass_guard(compaction_pass_mu_);
  static metrics::Counter& passes = metrics::Registry::Instance().GetCounter(
      "livegraph_compaction_passes_total");
  static metrics::Counter& dirty_total =
      metrics::Registry::Instance().GetCounter(
          "livegraph_compaction_dirty_vertices_total");
  static metrics::Counter& reclaimed_blocks =
      metrics::Registry::Instance().GetCounter(
          "livegraph_compaction_reclaimed_blocks_total");
  static metrics::Counter& reclaimed_bytes =
      metrics::Registry::Instance().GetCounter(
          "livegraph_compaction_reclaimed_bytes_total");
  static metrics::Histogram& pass_latency =
      metrics::Registry::Instance().GetHistogram(
          "livegraph_compaction_pass_latency", metrics::Unit::kNanos);
  const uint64_t pass_start = metrics::MonotonicNanos();
  const timestamp_t safe = SafeEpoch();

  // Collect and dedup all workers' dirty sets.
  std::vector<vertex_t> dirty;
  for (auto& slot : slots_) {
    LIVEGRAPH_SCOPED_LOCK_RANK(LockRank::kDirtySet);
    std::lock_guard<std::mutex> guard(slot->dirty_mu);
    dirty.insert(dirty.end(), slot->dirty_vertices.begin(),
                 slot->dirty_vertices.end());
    slot->dirty_vertices.clear();
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  for (vertex_t v : dirty) CompactVertex(v, safe);

  const uint64_t retired_before = block_manager_->GetStats().retired_bytes;
  size_t blocks = block_manager_->ReclaimRetired(SafeEpoch());
  const uint64_t retired_after = block_manager_->GetStats().retired_bytes;

  passes.Add();
  dirty_total.Add(dirty.size());
  reclaimed_blocks.Add(blocks);
  if (retired_before > retired_after)
    reclaimed_bytes.Add(retired_before - retired_after);
  pass_latency.Record(metrics::MonotonicNanos() - pass_start);
}

void Graph::RequeueDirty(vertex_t v) {
  LIVEGRAPH_SCOPED_LOCK_RANK(LockRank::kDirtySet);
  std::lock_guard<std::mutex> guard(slots_[0]->dirty_mu);
  slots_[0]->dirty_vertices.push_back(v);
}

void Graph::CompactVertex(vertex_t v, timestamp_t safe) {
  static metrics::Counter& requeued_lock_busy =
      metrics::Registry::Instance().GetCounter(
          "livegraph_compaction_requeued_total{reason=\"lock_busy\"}");
  static metrics::Counter& requeued_applying =
      metrics::Registry::Instance().GetCounter(
          "livegraph_compaction_requeued_total{reason=\"applying\"}");
  FutexLock* lock = LockFor(v);
  if (!lock->TryLockFor(kCompactionLockTimeoutNs)) {
    // Contended: requeue for the next pass.
    requeued_lock_busy.Add();
    RequeueDirty(v);
    return;
  }
  LIVEGRAPH_LOCK_RANK_ACQUIRE(LockRank::kVertexLock);
  const timestamp_t retire_epoch = domain_->visible() + 1;

  // --- Vertex version chain GC ("similar to existing MVCC
  // implementations ... related previous pointers are cleared
  // simultaneously", §6) ---
  block_ptr_t head =
      IndexEntry(v)->vertex_block.load(std::memory_order_acquire);
  block_ptr_t keep = head;
  while (keep != kNullBlock) {
    auto* header =
        reinterpret_cast<VertexHeader*>(block_manager_->Pointer(keep));
    timestamp_t ts = header->creation_ts.load(std::memory_order_acquire);
    if (ts > 0 && ts <= safe) {
      // `keep` is the newest version any current/future reader can need;
      // everything behind it is garbage.
      block_ptr_t stale = header->prev.exchange(kNullBlock,
                                                std::memory_order_acq_rel);
      while (stale != kNullBlock) {
        auto* stale_header =
            reinterpret_cast<VertexHeader*>(block_manager_->Pointer(stale));
        block_ptr_t next = stale_header->prev.load(std::memory_order_acquire);
        block_manager_->Retire(stale, retire_epoch);
        stale = next;
      }
      break;
    }
    keep = header->prev.load(std::memory_order_acquire);
  }

  // --- TEL compaction ---
  block_ptr_t store = IndexEntry(v)->edge_store.load(std::memory_order_acquire);
  if (store == kNullBlock) {
    lock->Unlock();
    LIVEGRAPH_LOCK_RANK_RELEASE(LockRank::kVertexLock);
    return;
  }
  uint8_t* base = block_manager_->Pointer(store);
  auto* label_header = reinterpret_cast<LabelIndexHeader*>(base);
  uint32_t labels = label_header->count.load(std::memory_order_acquire);
  LabelIndexEntry* entries = LabelEntries(base);

  for (uint32_t li = 0; li < labels; ++li) {
    block_ptr_t tel_ptr = entries[li].tel.load(std::memory_order_acquire);
    if (tel_ptr == kNullBlock) continue;
    TelBlock tel = Tel(tel_ptr);
    TelHeader* header = tel.header();

    // The rewrite must not copy a -TID stamp that a committer is still
    // converting: ApplyCommit converts after it releases its locks (§5),
    // so holding the vertex lock does not exclude it. Only the writer
    // whose epoch is CT can still be converting. Every earlier writer of
    // this TEL was followed by a later one that passed the CT check, so
    // its epoch is at or below that writer's read epoch, which was at or
    // below the visible frontier. And every epoch at or below visible()
    // has finished its apply phase (MarkApplied follows conversion).
    // So CT <= visible() means no conversion is pending here, even for a
    // TEL written after the oldest snapshot; a CT above it is a commit
    // caught between releasing its lock and MarkApplied — requeue. Which
    // entries are dead is still decided by `safe`.
    if (header->commit_ts.load(std::memory_order_acquire) >
        domain_->visible()) {
      // Taken with the vertex lock held — kDirtySet ranks above
      // kVertexLock, so this nesting is legal by the table.
      requeued_applying.Add();
      RequeueDirty(v);
      continue;
    }

    uint32_t committed =
        header->committed_entries.load(std::memory_order_acquire);
    // An entry survives unless it was invalidated at or before the safe
    // epoch (then no current or future snapshot sees it).
    const internal::LiveEntries live =
        internal::CountLiveEntries(tel, committed, safe);
    bool has_history = header->prev.load(std::memory_order_acquire) !=
                       kNullBlock;
    if (live.entries == committed && !has_history) continue;  // nothing to do

    if (live.entries == committed && has_history) {
      // No dead entries, but stale upgrade chain to prune.
      block_ptr_t stale =
          header->prev.exchange(kNullBlock, std::memory_order_acq_rel);
      while (stale != kNullBlock) {
        TelHeader* stale_header = Tel(stale).header();
        block_ptr_t next = stale_header->prev.load(std::memory_order_acquire);
        block_manager_->Retire(stale, retire_epoch);
        stale = next;
      }
      continue;
    }

    // Rewrite into a right-sized block ("sometimes the block could shrink
    // after many edges being deleted", §6).
    uint8_t order = BlockManager::kMinOrder;
    TelGeometry geometry;
    while (true) {
      geometry = TelGeometry::For(order, options_.enable_bloom_filters);
      if (geometry.prop_start + live.prop_bytes +
              live.entries * sizeof(EdgeEntry) <=
          geometry.block_size) {
        break;
      }
      ++order;
    }
    // relaxed stores into `fresh` below: the rewritten block is private to
    // this thread until the committed_entries release + tel release swap
    // publish it.
    block_ptr_t new_ptr = NewTel(v, order);
    TelBlock fresh = Tel(new_ptr);
    const internal::LiveEntries out = internal::CopyLiveEntries(
        tel, committed, safe, fresh, [](uint32_t, timestamp_t) {});
    TelHeader* fresh_header = fresh.header();
    fresh_header->commit_ts.store(
        header->commit_ts.load(std::memory_order_acquire),
        std::memory_order_relaxed);
    fresh_header->committed_prop_bytes.store(out.prop_bytes,
                                             std::memory_order_relaxed);
    fresh_header->committed_entries.store(out.entries,
                                          std::memory_order_release);
    entries[li].tel.store(new_ptr, std::memory_order_release);

    // Retire the replaced chain once every current reader drains.
    block_ptr_t stale = tel_ptr;
    while (stale != kNullBlock) {
      TelHeader* stale_header = Tel(stale).header();
      block_ptr_t next = stale_header->prev.load(std::memory_order_acquire);
      block_manager_->Retire(stale, retire_epoch);
      stale = next;
    }
  }
  lock->Unlock();
  LIVEGRAPH_LOCK_RANK_RELEASE(LockRank::kVertexLock);
}

}  // namespace livegraph
