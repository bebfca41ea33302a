#include "core/graph.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/commit_manager.h"
#include "core/transaction.h"
#include "util/metrics.h"

namespace livegraph {

Graph::Graph(GraphOptions options) : options_(std::move(options)) {
  // Attach to the supplied visibility domain (sharded configuration) or
  // own a private one. The window only needs to exceed this engine's
  // concurrent-transaction bound; a shared domain was sized by its owner.
  domain_ = options_.epoch_domain;
  if (domain_ == nullptr) {
    domain_ = std::make_shared<EpochDomain>(
        static_cast<size_t>(options_.max_workers) * 8);
  }

  BlockManager::Options bm;
  bm.path = options_.storage_path;
  bm.reserve_bytes = options_.region_reserve;
  block_manager_ = std::make_unique<BlockManager>(bm);

  index_region_ = MmapRegion::CreateAnonymous(options_.max_vertices *
                                              sizeof(VertexIndexEntry));
  lock_region_ =
      MmapRegion::CreateAnonymous(options_.max_vertices * sizeof(FutexLock));

  slots_.reserve(static_cast<size_t>(options_.max_workers));
  for (int i = 0; i < options_.max_workers; ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
  }

  // relaxed: constructor runs before any worker thread exists; the threads
  // spawned below synchronize with it through std::thread creation.
  next_compaction_at_.store(options_.compaction_interval,
                            std::memory_order_relaxed);

  if (!options_.wal_path.empty()) {
    Wal::Options wal_options;
    wal_options.path = options_.wal_path;
    wal_options.fsync = options_.fsync_wal;
    wal_ = std::make_unique<Wal>(wal_options);
  }
  commit_manager_ = std::make_unique<CommitManager>(
      this, wal_.get(), options_.group_commit_max_batch);

  if (options_.enable_compaction) {
    compaction_thread_ = std::thread([this] { CompactionThreadMain(); });
  }
}

Graph::~Graph() {
  {
    // Set under the mutex: a compaction thread between its predicate check
    // and its wait would otherwise miss the notify and never exit.
    std::lock_guard<std::mutex> lock(compaction_mu_);
    shutdown_.store(true, std::memory_order_release);
  }
  compaction_cv_.notify_all();
  if (compaction_thread_.joinable()) compaction_thread_.join();
  commit_manager_.reset();  // joins the flusher, if the WAL syncs
}

void Graph::SetCommitWake(std::function<void()> wake) {
  commit_manager_->SetWake(std::move(wake));
}

bool Graph::parks_commits() const { return commit_manager_->has_flusher(); }

Graph::WorkerSlot* Graph::AcquireSlot() {
  static thread_local size_t hint = 0;
  const size_t n = slots_.size();
  for (size_t attempt = 0; attempt < n * 4; ++attempt) {
    WorkerSlot* slot = slots_[(hint + attempt) % n].get();
    // relaxed pre-check: a pure contention hint — ownership (and the HB
    // edge to the previous tenant's release) comes from the acquire
    // exchange alone.
    if (!slot->in_use.load(std::memory_order_relaxed) &&
        !slot->in_use.exchange(true, std::memory_order_acquire)) {
      hint = (hint + attempt) % n;
      return slot;
    }
  }
  std::fprintf(stderr,
               "Graph: more concurrent transactions than max_workers=%d\n",
               options_.max_workers);
  std::abort();
}

void Graph::ReleaseSlot(WorkerSlot* slot) {
  slot->reading_epoch.store(kIdleEpoch, std::memory_order_seq_cst);
  slot->in_use.store(false, std::memory_order_release);
}

timestamp_t Graph::PublishReadEpoch(WorkerSlot* slot) {
  // Store-recheck protocol: after publishing we verify the visible
  // frontier did not move. If it did not, any compaction scan ordered
  // after our store sees our epoch; any scan ordered before used a
  // frontier <= ours, so its safe bound already covers us (see SafeEpoch).
  while (true) {
    timestamp_t epoch = domain_->visible();
    slot->reading_epoch.store(epoch, std::memory_order_seq_cst);
    if (domain_->visible() == epoch) {
      return epoch;
    }
  }
}

timestamp_t Graph::SafeEpoch() const {
  // Floor over the frontier, this engine's active transactions, and every
  // domain-level read pin (cross-shard snapshots pin the domain once
  // instead of a slot on each shard).
  timestamp_t safe = domain_->OldestPin(domain_->visible());
  for (const auto& slot : slots_) {
    timestamp_t e = slot->reading_epoch.load(std::memory_order_seq_cst);
    if (e < safe) safe = e;
  }
  return safe;
}

Transaction Graph::BeginTransaction() {
  WorkerSlot* slot = AcquireSlot();
  timestamp_t tre = PublishReadEpoch(slot);
  // relaxed: TIDs only need to be unique (they stamp -TID staging marks);
  // nothing is ordered by the counter itself.
  int64_t tid =
      static_cast<int64_t>(next_tid_.fetch_add(1, std::memory_order_relaxed));
  return Transaction(this, slot, tre, tid);
}

Transaction Graph::BeginTransactionAt(timestamp_t epoch) {
  WorkerSlot* slot = AcquireSlot();
  // Same protocol as BeginTimeTravelTransaction: publish the current
  // frontier first (store-recheck), then lower the slot to the pinned
  // epoch — publishing a value below GRE is always safe, SafeEpoch only
  // ever shrinks from it. The caller's domain-level read pin held `epoch`
  // alive up to this point; from here this slot protects it on this shard.
  timestamp_t now = PublishReadEpoch(slot);
  if (epoch < 0) epoch = 0;
  if (epoch > now) epoch = now;
  slot->reading_epoch.store(epoch, std::memory_order_seq_cst);
  int64_t tid =
      static_cast<int64_t>(next_tid_.fetch_add(1, std::memory_order_relaxed));
  return Transaction(this, slot, epoch, tid);
}

ReadTransaction Graph::BeginReadOnlyTransaction() {
  WorkerSlot* slot = AcquireSlot();
  timestamp_t tre = PublishReadEpoch(slot);
  return ReadTransaction(this, slot, tre);
}

ReadTransaction Graph::BeginTimeTravelTransaction(timestamp_t epoch) {
  WorkerSlot* slot = AcquireSlot();
  // Publish the historical epoch so compaction keeps (from now on) every
  // version this snapshot can still reach. Publishing a value below GRE is
  // always safe — SafeEpoch only ever shrinks from it.
  timestamp_t now = PublishReadEpoch(slot);
  if (epoch < 0) epoch = 0;
  if (epoch > now) epoch = now;
  slot->reading_epoch.store(epoch, std::memory_order_seq_cst);
  return ReadTransaction(this, slot, epoch);
}

block_ptr_t Graph::FindTel(vertex_t v, label_t label) const {
  if (v < 0 || v >= VertexCount()) return kNullBlock;
  block_ptr_t store =
      IndexEntry(v)->edge_store.load(std::memory_order_acquire);
  if (store == kNullBlock) return kNullBlock;
  uint8_t* base = block_manager_->Pointer(store);
  auto* header = reinterpret_cast<LabelIndexHeader*>(base);
  uint32_t count = header->count.load(std::memory_order_acquire);
  LabelIndexEntry* entries = LabelEntries(base);
  for (uint32_t i = 0; i < count; ++i) {
    if (entries[i].label == label) {
      return entries[i].tel.load(std::memory_order_acquire);
    }
  }
  return kNullBlock;
}

std::atomic<block_ptr_t>* Graph::FindOrCreateLabelSlot(vertex_t v,
                                                       label_t label) {
  VertexIndexEntry* index = IndexEntry(v);
  block_ptr_t store = index->edge_store.load(std::memory_order_acquire);
  if (store == kNullBlock) {
    // First adjacency list of this vertex: allocate the minimal label
    // index block (64 B: header + 3 slots).
    block_ptr_t fresh = block_manager_->Allocate(6);
    uint8_t* base = block_manager_->Pointer(fresh);
    auto* header = new (base) LabelIndexHeader();
    header->count.store(0, std::memory_order_relaxed);
    header->capacity = (64 - sizeof(LabelIndexHeader)) / sizeof(LabelIndexEntry);
    index->edge_store.store(fresh, std::memory_order_release);
    store = fresh;
  }
  uint8_t* base = block_manager_->Pointer(store);
  auto* header = reinterpret_cast<LabelIndexHeader*>(base);
  uint32_t count = header->count.load(std::memory_order_acquire);
  LabelIndexEntry* entries = LabelEntries(base);
  for (uint32_t i = 0; i < count; ++i) {
    if (entries[i].label == label) return &entries[i].tel;
  }
  if (count == header->capacity) {
    // Grow: copy into a block of twice the size; concurrent readers keep
    // scanning the (still intact) old block until the pointer swap.
    uint8_t new_order = static_cast<uint8_t>(BlockOrder(store) + 1);
    block_ptr_t bigger = block_manager_->Allocate(new_order);
    uint8_t* new_base = block_manager_->Pointer(bigger);
    auto* new_header = new (new_base) LabelIndexHeader();
    new_header->capacity = static_cast<uint32_t>(
        ((uint64_t{1} << new_order) - sizeof(LabelIndexHeader)) /
        sizeof(LabelIndexEntry));
    LabelIndexEntry* new_entries = LabelEntries(new_base);
    for (uint32_t i = 0; i < count; ++i) {
      new_entries[i].label = entries[i].label;
      // relaxed store: the new block is private until the two release
      // stores below publish it (count, then edge_store).
      new_entries[i].tel.store(entries[i].tel.load(std::memory_order_acquire),
                               std::memory_order_relaxed);
    }
    new_header->count.store(count, std::memory_order_release);
    index->edge_store.store(bigger, std::memory_order_release);
    block_manager_->Retire(store, domain_->visible() + 1);
    base = new_base;
    header = new_header;
    entries = new_entries;
  }
  entries[count].label = label;
  // relaxed: the entry is invisible until the count release-store below.
  entries[count].tel.store(kNullBlock, std::memory_order_relaxed);
  header->count.store(count + 1, std::memory_order_release);
  return &entries[count].tel;
}

block_ptr_t Graph::NewTel(vertex_t src, uint8_t order) {
  block_ptr_t ptr = block_manager_->Allocate(order);
  TelBlock block = Tel(ptr);
  auto* header = new (block.header()) TelHeader();
  // relaxed init stores throughout: the block is private to this thread
  // until the caller publishes its pointer with a release store.
  header->prev.store(kNullBlock, std::memory_order_relaxed);
  header->commit_ts.store(0, std::memory_order_relaxed);
  header->committed_entries.store(0, std::memory_order_relaxed);
  header->committed_prop_bytes.store(0, std::memory_order_relaxed);
  header->src = src;
  if (block.bloom_bytes() > 0) {
    std::memset(block.bloom_bits(), 0, block.bloom_bytes());
  }
  return ptr;
}

void Graph::ResetWal() {
  // A failed truncate poisons the log; the next commit group surfaces it
  // and degrades the engine. The stale log contents are harmless either
  // way — recovery filters records by epoch against the manifest.
  if (wal_ != nullptr) (void)wal_->Reset();
}

void Graph::EnterDegraded(Status status) {
  if (status == Status::kOk) return;
  Status expected = Status::kOk;
  if (degraded_.compare_exchange_strong(expected, status,
                                        std::memory_order_acq_rel)) {
    // Sticky flag + typed error counter (cold path: once per process
    // unless multiple engines degrade).
    metrics::Registry::Instance().GetGauge("livegraph_degraded").Set(1);
    std::string counter_name = "livegraph_errors_total{status=\"";
    counter_name += StatusName(status);
    counter_name += "\"}";
    metrics::Registry::Instance().GetCounter(counter_name).Add();
    std::fprintf(stderr,
                 "Graph: entering read-only degraded mode (%s) — reads keep "
                 "serving the last durable epoch, writes are rejected; "
                 "restart to recover\n",
                 StatusName(status));
  }
}

Graph::MemoryStats Graph::CollectMemoryStats() const {
  BlockManager::Stats bs = block_manager_->GetStats();
  MemoryStats stats;
  stats.block_store_allocated = bs.bump_allocated_bytes;
  stats.block_store_free = bs.free_list_bytes;
  stats.block_store_retired = bs.retired_bytes;
  stats.block_store_live = bs.live_bytes();
  stats.index_bytes = static_cast<uint64_t>(VertexCount()) *
                      (sizeof(VertexIndexEntry) + sizeof(FutexLock));
  stats.wal_bytes = wal_ ? wal_->bytes_written() : 0;
  return stats;
}

std::map<size_t, size_t> Graph::CollectTelSizeHistogram() const {
  std::map<size_t, size_t> histogram;
  vertex_t n = VertexCount();
  for (vertex_t v = 0; v < n; ++v) {
    block_ptr_t store =
        IndexEntry(v)->edge_store.load(std::memory_order_acquire);
    if (store == kNullBlock) continue;
    uint8_t* base = block_manager_->Pointer(store);
    auto* header = reinterpret_cast<LabelIndexHeader*>(base);
    uint32_t count = header->count.load(std::memory_order_acquire);
    LabelIndexEntry* entries = LabelEntries(base);
    for (uint32_t i = 0; i < count; ++i) {
      block_ptr_t tel = entries[i].tel.load(std::memory_order_acquire);
      if (tel == kNullBlock) continue;
      histogram[size_t{1} << BlockOrder(tel)]++;
    }
  }
  return histogram;
}

}  // namespace livegraph
