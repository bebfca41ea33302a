// Read-write transaction implementation: work, persist and apply phases
// (paper §4 "Single-Threaded Operations" and §5 "Transaction Processing").
#include "core/transaction.h"

#include <algorithm>
#include <cstring>

#include "core/commit_manager.h"
#include "core/tel_ops.h"
#include "util/bloom_filter.h"
#include "util/lock_rank.h"
#include "util/metrics.h"

namespace livegraph {

namespace {

// WAL logical-record opcodes.
constexpr uint8_t kOpAddVertex = 1;
constexpr uint8_t kOpPutVertex = 2;
constexpr uint8_t kOpDeleteVertex = 3;
constexpr uint8_t kOpAddEdge = 4;
constexpr uint8_t kOpDeleteEdge = 5;

template <typename T>
void PutRaw(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void PutBytes(std::string* out, std::string_view bytes) {
  auto len = static_cast<uint32_t>(bytes.size());
  PutRaw(out, len);
  out->append(bytes.data(), bytes.size());
}

}  // namespace

Transaction::Transaction(Graph* graph, Graph::WorkerSlot* slot,
                         timestamp_t tre, int64_t tid)
    : graph_(graph),
      slot_(slot),
      tre_(tre),
      tid_(tid),
      scratch_(&slot->scratch) {}

Transaction::Transaction(Transaction&& other) noexcept
    : graph_(other.graph_),
      slot_(other.slot_),
      tre_(other.tre_),
      tid_(other.tid_),
      state_(other.state_),
      write_epoch_(other.write_epoch_),
      scratch_(other.scratch_),  // the arenas travel with the slot
      replay_mode_(other.replay_mode_) {
  other.slot_ = nullptr;
  other.state_ = State::kCommitted;  // moved-from shell: nothing to do
}

Transaction::~Transaction() {
  if (slot_ == nullptr) return;
  if (state_ == State::kActive) Abort();
  if (slot_ != nullptr) {
    graph_->ReleaseSlot(slot_);
    slot_ = nullptr;
  }
}

// --- Locking ---

Status Transaction::LockVertex(vertex_t v) {
  if (scratch_->locked_set.count(v) > 0) return Status::kOk;
  if (!graph_->LockFor(v)->TryLockFor(graph_->options_.lock_timeout_ns)) {
    return Status::kTimeout;
  }
  NoteLocked(v);
  return Status::kOk;
}

StatusOr<bool> Transaction::TryLockVertex(vertex_t v, int64_t waited_ns) {
  if (state_ != State::kActive) return Status::kNotActive;
  if (v < 0 || v >= graph_->VertexCount()) return true;
  if (scratch_->locked_set.count(v) > 0) return true;
  if (graph_->LockFor(v)->TryLockFor(0)) {
    NoteLocked(v);
    return true;
  }
  if (waited_ns < graph_->options_.lock_timeout_ns) return false;
  Abort();
  return Status::kTimeout;
}

void Transaction::NoteLocked(vertex_t v) {
  // Same-rank reacquisition is legal for vertex locks (arbitrary-order
  // locking with timeout rollback, §5); the rank table only forbids taking
  // one after a higher-ranked section started.
  LIVEGRAPH_LOCK_RANK_ACQUIRE(LockRank::kVertexLock);
  scratch_->locked.push_back(v);
  scratch_->locked_set.insert(v);
}

void Transaction::DetachFromThread() {
#ifdef LIVEGRAPH_DCHECK_ENABLED
  if (state_ != State::kActive || slot_ == nullptr) return;
  LIVEGRAPH_LOCK_RANK_DETACH(
      LockRank::kVertexLock,
      static_cast<uint32_t>(scratch_->locked.size()));
#endif
}

void Transaction::AttachToThread() {
#ifdef LIVEGRAPH_DCHECK_ENABLED
  if (state_ != State::kActive || slot_ == nullptr) return;
  LIVEGRAPH_LOCK_RANK_ATTACH(
      LockRank::kVertexLock,
      static_cast<uint32_t>(scratch_->locked.size()));
#endif
}

void Transaction::ReleaseLocksAndSlot() {
  for (vertex_t v : scratch_->locked) {
    graph_->LockFor(v)->Unlock();
    LIVEGRAPH_LOCK_RANK_RELEASE(LockRank::kVertexLock);
  }
  scratch_->locked.clear();
  scratch_->locked_set.clear();
}

// --- Vertex operations ---

vertex_t Transaction::AddVertex(std::string_view properties) {
  if (state_ != State::kActive) return kNullVertex;
  // Bounded claim: a CAS loop instead of a blind fetch-and-add so the
  // counter never overshoots max_vertices (the index and lock regions are
  // sized by it — an ID past the end would address unmapped pages).
  // Capacity exhaustion is not a conflict: the transaction stays active
  // and the caller decides (the v2 Store surfaces it as kOutOfRange).
  vertex_t id = graph_->next_vertex_.load(std::memory_order_relaxed);
  do {
    if (static_cast<size_t>(id) >= graph_->options_.max_vertices) {
      return kNullVertex;
    }
  } while (!graph_->next_vertex_.compare_exchange_weak(
      id, id + 1, std::memory_order_acq_rel, std::memory_order_relaxed));
  // Fresh ID: the lock trivially succeeds; holding it keeps commit/abort
  // uniform with other vertex writes.
  if (LockVertex(id) != Status::kOk) {
    Abort();
    return kNullVertex;
  }
  block_ptr_t block = graph_->block_manager_->Allocate(
      BlockManager::OrderFor(sizeof(VertexHeader) + properties.size()));
  // relaxed init stores: the staged version block stays private to this
  // transaction until ApplyCommit publishes it with release stores.
  auto* header = new (graph_->block_manager_->Pointer(block)) VertexHeader();
  header->prev.store(kNullBlock, std::memory_order_relaxed);
  header->creation_ts.store(-tid_, std::memory_order_relaxed);
  header->prop_size = static_cast<uint32_t>(properties.size());
  header->tombstone = 0;
  if (!properties.empty()) {
    std::memcpy(static_cast<void*>(header + 1), properties.data(),
                properties.size());
  }
  scratch_->vertex_writes.push_back(VertexWrite{id, block, true});
  LogAddVertex(id, properties);
  return id;
}

Status Transaction::PutVertex(vertex_t v, std::string_view properties) {
  if (state_ != State::kActive) return Status::kNotActive;
  if (v < 0 || v >= graph_->VertexCount()) return Status::kNotFound;
  Status st = LockVertex(v);
  if (st != Status::kOk) {
    Abort();
    return st;
  }
  block_ptr_t current =
      graph_->IndexEntry(v)->vertex_block.load(std::memory_order_acquire);
  if (current != kNullBlock) {
    auto* head = reinterpret_cast<const VertexHeader*>(
        graph_->block_manager_->Pointer(current));
    // First-committer-wins: a version committed after our snapshot is a
    // write-write conflict (§5).
    if (head->creation_ts.load(std::memory_order_acquire) > tre_) {
      Abort();
      return Status::kConflict;
    }
  }
  block_ptr_t block = graph_->block_manager_->Allocate(
      BlockManager::OrderFor(sizeof(VertexHeader) + properties.size()));
  // relaxed init stores: private until ApplyCommit's release publication.
  auto* header = new (graph_->block_manager_->Pointer(block)) VertexHeader();
  header->prev.store(current, std::memory_order_relaxed);
  header->creation_ts.store(-tid_, std::memory_order_relaxed);
  header->prop_size = static_cast<uint32_t>(properties.size());
  header->tombstone = 0;
  if (!properties.empty()) {
    std::memcpy(static_cast<void*>(header + 1), properties.data(),
                properties.size());
  }
  // Re-staging the same vertex replaces the previous staged version.
  for (VertexWrite& w : scratch_->vertex_writes) {
    if (w.v == v) {
      graph_->block_manager_->Free(w.new_block);  // never published
      w.new_block = block;
      LogPutVertex(v, properties);
      return Status::kOk;
    }
  }
  scratch_->vertex_writes.push_back(VertexWrite{v, block, false});
  LogPutVertex(v, properties);
  return Status::kOk;
}

Status Transaction::DeleteVertex(vertex_t v) {
  if (state_ != State::kActive) return Status::kNotActive;
  if (v < 0 || v >= graph_->VertexCount()) return Status::kNotFound;
  Status st = LockVertex(v);
  if (st != Status::kOk) {
    Abort();
    return st;
  }
  block_ptr_t current =
      graph_->IndexEntry(v)->vertex_block.load(std::memory_order_acquire);
  if (current != kNullBlock) {
    auto* head = reinterpret_cast<const VertexHeader*>(
        graph_->block_manager_->Pointer(current));
    if (head->creation_ts.load(std::memory_order_acquire) > tre_) {
      Abort();
      return Status::kConflict;
    }
  }
  block_ptr_t block =
      graph_->block_manager_->Allocate(BlockManager::OrderFor(
          sizeof(VertexHeader)));
  // relaxed init stores: private until ApplyCommit's release publication.
  auto* header = new (graph_->block_manager_->Pointer(block)) VertexHeader();
  header->prev.store(current, std::memory_order_relaxed);
  header->creation_ts.store(-tid_, std::memory_order_relaxed);
  header->prop_size = 0;
  header->tombstone = 1;
  for (VertexWrite& w : scratch_->vertex_writes) {
    if (w.v == v) {
      graph_->block_manager_->Free(w.new_block);
      w.new_block = block;
      LogDeleteVertex(v);
      return Status::kOk;
    }
  }
  scratch_->vertex_writes.push_back(VertexWrite{v, block, false});
  LogDeleteVertex(v);
  return Status::kOk;
}

StatusOr<std::string_view> Transaction::GetVertex(vertex_t v) const {
  // Read-your-writes: staged version first.
  for (const VertexWrite& w : scratch_->vertex_writes) {
    if (w.v == v) {
      auto* header = reinterpret_cast<const VertexHeader*>(
          graph_->block_manager_->Pointer(w.new_block));
      if (header->tombstone) return Status::kNotFound;
      return std::string_view(reinterpret_cast<const char*>(header + 1),
                              header->prop_size);
    }
  }
  auto committed = internal::ReadVertexVersion(*graph_, v, tre_);
  if (!committed.has_value()) return Status::kNotFound;
  return *committed;
}

// --- Edge write path ---

namespace {
inline uint64_t TelWriteKey(vertex_t v, label_t label) {
  return (static_cast<uint64_t>(v) << 16) | label;
}
}  // namespace

TelWrite* Transaction::FindTelWrite(vertex_t v, label_t label) {
  auto it = scratch_->tel_write_index.find(TelWriteKey(v, label));
  return it == scratch_->tel_write_index.end() ? nullptr : &scratch_->tel_writes[it->second];
}

Status Transaction::PrepareTelWrite(vertex_t v, label_t label,
                                    TelWrite** out) {
  if (state_ != State::kActive) return Status::kNotActive;
  if (v < 0 || v >= graph_->VertexCount()) return Status::kNotFound;
  if (TelWrite* existing = FindTelWrite(v, label)) {
    *out = existing;
    return Status::kOk;
  }
  Status st = LockVertex(v);
  if (st != Status::kOk) return st;
  std::atomic<block_ptr_t>* slot = graph_->FindOrCreateLabelSlot(v, label);
  block_ptr_t block = slot->load(std::memory_order_acquire);
  TelWrite w;
  w.src = v;
  w.label = label;
  w.slot = slot;
  w.original_block = block;  // kNullBlock when we create the TEL below
  if (block == kNullBlock) {
    block = graph_->NewTel(v, BlockManager::kMinOrder);
    slot->store(block, std::memory_order_release);
  } else {
    TelHeader* header = graph_->Tel(block).header();
    // CT check: "write operations can simply compare their timestamp
    // against CT instead of paying the cost of scanning the TEL" (§5).
    if (header->commit_ts.load(std::memory_order_acquire) > tre_) {
      return Status::kConflict;
    }
  }
  w.block = block;
  TelHeader* header = graph_->Tel(block).header();
  w.committed_entries =
      header->committed_entries.load(std::memory_order_acquire);
  w.committed_prop_bytes =
      header->committed_prop_bytes.load(std::memory_order_acquire);
  scratch_->tel_writes.push_back(std::move(w));
  scratch_->tel_write_index[TelWriteKey(v, label)] = scratch_->tel_writes.size() - 1;
  *out = &scratch_->tel_writes.back();
  return Status::kOk;
}

void Transaction::UpgradeTel(TelWrite* w, uint32_t needed_bytes) {
  TelBlock old_block = graph_->Tel(w->block);
  const uint32_t total_entries = w->committed_entries + w->private_entries;
  const uint32_t total_props = w->committed_prop_bytes + w->private_prop_bytes;

  uint8_t order = BlockOrder(w->block);
  TelGeometry geometry;
  do {
    ++order;
    geometry =
        TelGeometry::For(order, graph_->options_.enable_bloom_filters);
  } while (geometry.prop_start + total_props + needed_bytes +
               (total_entries + 1) * sizeof(EdgeEntry) >
           geometry.block_size);

  block_ptr_t new_ptr = graph_->NewTel(w->src, order);
  TelBlock new_block = graph_->Tel(new_ptr);
  TelHeader* new_header = new_block.header();
  TelHeader* old_header = old_block.header();

  // Copy the whole log verbatim — committed history must stay identical
  // because concurrent readers that pick up the new pointer before our
  // commit still read at their older snapshots.
  if (total_entries > 0) {
    std::memcpy(static_cast<void*>(new_block.Entry(total_entries - 1)),
                static_cast<const void*>(old_block.Entry(total_entries - 1)),
                size_t{total_entries} * sizeof(EdgeEntry));
  }
  if (total_props > 0) {
    std::memcpy(new_block.props(), old_block.props(), total_props);
  }
  // relaxed stores into the upgrade copy: it is unreachable until the
  // slot-pointer release swap below; committed_entries keeps its release
  // store so readers that race the swap still pair LS with the entries.
  new_header->commit_ts.store(
      old_header->commit_ts.load(std::memory_order_acquire),
      std::memory_order_relaxed);
  new_header->committed_prop_bytes.store(w->committed_prop_bytes,
                                         std::memory_order_relaxed);
  new_header->committed_entries.store(w->committed_entries,
                                      std::memory_order_release);
  // Rebuild the Bloom filter over all destinations in the log.
  if (new_block.bloom_bytes() > 0) {
    for (uint32_t i = 0; i < total_entries; ++i) {
      BloomFilter::Insert(new_block.bloom_bits(), new_block.bloom_bytes(),
                          static_cast<uint64_t>(new_block.Entry(i)->dst));
    }
  }
  // Link versions ("different versions of a TEL are linked with previous
  // pointers", §3) and swap the index pointer. The old block stays intact
  // for readers holding it; compaction retires the chain later (§6).
  new_header->prev.store(w->block, std::memory_order_release);
  w->slot->store(new_ptr, std::memory_order_release);
  w->block = new_ptr;
}

Status Transaction::WriteEdge(vertex_t v, label_t label, vertex_t dst,
                              std::string_view properties, bool is_delete,
                              bool* invalidated) {
  TelWrite* w = nullptr;
  Status st = PrepareTelWrite(v, label, &w);
  if (st == Status::kConflict || st == Status::kTimeout) {
    Abort();
    return st;
  }
  if (st != Status::kOk) return st;

  TelBlock block = graph_->Tel(w->block);
  const uint32_t total_entries = w->committed_entries + w->private_entries;

  // Insert-vs-update discrimination: "LiveGraph includes a Bloom filter in
  // the TEL header to determine whether an edge operation is a simple
  // insert or a more expensive update" (§4).
  bool check_previous = true;
  if (block.bloom_bytes() > 0) {
    check_previous = BloomFilter::MayContain(
        block.bloom_bits(), block.bloom_bytes(), static_cast<uint64_t>(dst));
  }
  bool invalidated_previous = false;
  if (check_previous) {
    int64_t index =
        internal::FindVisibleEdge(block, total_entries, dst, tre_, tid_);
    if (index >= 0) {
      block.Entry(static_cast<uint32_t>(index))
          ->invalidation_ts.store(-tid_, std::memory_order_release);
      w->invalidated.push_back(static_cast<uint32_t>(index));
      invalidated_previous = true;
    }
  }
  if (invalidated != nullptr) *invalidated = invalidated_previous;
  if (is_delete) {
    if (invalidated_previous) LogDeleteEdge(v, label, dst);
    return invalidated_previous ? Status::kOk : Status::kNotFound;
  }

  // Append the new entry (amortized constant time, §4).
  if (!block.Fits(total_entries + 1, w->committed_prop_bytes +
                                         w->private_prop_bytes +
                                         properties.size())) {
    UpgradeTel(w, static_cast<uint32_t>(properties.size()));
    block = graph_->Tel(w->block);
  }
  uint32_t prop_offset = w->committed_prop_bytes + w->private_prop_bytes;
  if (!properties.empty()) {
    std::memcpy(block.props() + prop_offset, properties.data(),
                properties.size());
  }
  EdgeEntry* entry = block.Entry(total_entries);
  entry->dst = dst;
  entry->prop_size = static_cast<uint32_t>(properties.size());
  entry->prop_offset = prop_offset;
  // relaxed: the entry sits beyond every reader's LS snapshot until commit
  // publishes the new committed_entries; the creation_ts release below
  // orders the fields for the staged-read path (our own GetEdges).
  entry->invalidation_ts.store(kNullTimestamp, std::memory_order_relaxed);
  entry->creation_ts.store(-tid_, std::memory_order_release);
  w->private_entries++;
  w->private_prop_bytes += static_cast<uint32_t>(properties.size());
  if (block.bloom_bytes() > 0) {
    BloomFilter::Insert(block.bloom_bits(), block.bloom_bytes(),
                        static_cast<uint64_t>(dst));
  }
  LogAddEdge(v, label, dst, properties);
  return Status::kOk;
}

Status Transaction::AddEdge(vertex_t v, label_t label, vertex_t dst,
                            std::string_view properties, bool* overwrote) {
  if (state_ != State::kActive) return Status::kNotActive;
  return WriteEdge(v, label, dst, properties, /*is_delete=*/false,
                   overwrote);
}

Status Transaction::DeleteEdge(vertex_t v, label_t label, vertex_t dst) {
  if (state_ != State::kActive) return Status::kNotActive;
  return WriteEdge(v, label, dst, {}, /*is_delete=*/true);
}

// --- Edge read path (write transactions see their own staged entries) ---

EdgeIterator Transaction::GetEdges(vertex_t v, label_t label) const {
  auto* self = const_cast<Transaction*>(this);
  if (TelWrite* w = self->FindTelWrite(v, label)) {
    TelBlock block = graph_->Tel(w->block);
    return EdgeIterator(block, w->committed_entries + w->private_entries,
                        tre_, tid_);
  }
  block_ptr_t tel = graph_->FindTel(v, label);
  if (tel == kNullBlock) return EdgeIterator();
  TelBlock block = graph_->Tel(tel);
  uint32_t committed =
      block.header()->committed_entries.load(std::memory_order_acquire);
  return EdgeIterator(block, committed, tre_, tid_);
}

StatusOr<std::string_view> Transaction::GetEdge(vertex_t v, label_t label,
                                                vertex_t dst) const {
  auto* self = const_cast<Transaction*>(this);
  TelBlock block;
  uint32_t total = 0;
  if (TelWrite* w = self->FindTelWrite(v, label)) {
    block = graph_->Tel(w->block);
    total = w->committed_entries + w->private_entries;
  } else {
    block_ptr_t tel = graph_->FindTel(v, label);
    if (tel == kNullBlock) return Status::kNotFound;
    block = graph_->Tel(tel);
    total = block.header()->committed_entries.load(std::memory_order_acquire);
  }
  if (block.bloom_bytes() > 0 &&
      !BloomFilter::MayContain(block.bloom_bits(), block.bloom_bytes(),
                               static_cast<uint64_t>(dst))) {
    return Status::kNotFound;
  }
  int64_t index = internal::FindVisibleEdge(block, total, dst, tre_, tid_);
  if (index < 0) return Status::kNotFound;
  const EdgeEntry* entry = block.Entry(static_cast<uint32_t>(index));
  return std::string_view(
      reinterpret_cast<const char*>(block.props() + entry->prop_offset),
      entry->prop_size);
}

size_t Transaction::CountEdges(vertex_t v, label_t label) const {
  size_t n = 0;
  for (EdgeIterator it = GetEdges(v, label); it.Valid(); it.Next()) ++n;
  return n;
}

// --- Commit / abort ---

StatusOr<timestamp_t> Transaction::Commit() {
  if (state_ != State::kActive) return Status::kNotActive;
  if (scratch_->tel_writes.empty() && scratch_->vertex_writes.empty()) {
    // Nothing written: no persist phase needed; the snapshot epoch is the
    // commit epoch.
    state_ = State::kCommitted;
    ReleaseLocksAndSlot();
    scratch_->Reset();
    return tre_;
  }
  // Degraded engine: the WAL is poisoned, so this commit could never be
  // durable. Reject before the persist phase; the staged writes (still
  // private -TID entries) are undone like an abort.
  if (Status degraded = graph_->degraded_status(); degraded != Status::kOk) {
    Abort();
    return degraded;
  }
  // Persist phase: group commit through the transaction manager (§5).
  // Stage timings feed the commit-pipeline histograms and, past the
  // configured threshold, the slow-op ring (docs/OBSERVABILITY.md).
  static metrics::Histogram& persist_latency =
      metrics::Registry::Instance().GetHistogram(
          "livegraph_commit_persist_latency", metrics::Unit::kNanos);
  static metrics::Histogram& apply_latency =
      metrics::Registry::Instance().GetHistogram(
          "livegraph_commit_apply_latency", metrics::Unit::kNanos);
  static metrics::Histogram& visible_latency =
      metrics::Registry::Instance().GetHistogram(
          "livegraph_commit_visible_wait", metrics::Unit::kNanos);
  static metrics::Counter& commits =
      metrics::Registry::Instance().GetCounter("livegraph_commit_txns_total");
  const bool timed = metrics::SampleStageTiming();
  const uint64_t commit_start = timed ? metrics::MonotonicNanos() : 0;
  std::string_view payload = replay_mode_ ? std::string_view{} : scratch_->wal_payload;
  Status persist_error = Status::kOk;
  write_epoch_ = graph_->commit_manager_->Persist(payload, 0, 1,
                                                  &persist_error);
  if (persist_error != Status::kOk) {
    // The group's WAL batch never reached stable storage. Undo the staged
    // writes (still private: ApplyCommit has not published anything), then
    // report the epoch applied anyway — every acquired epoch needs exactly
    // one MarkApplied per participant or the visibility frontier wedges.
    // The epoch becomes an empty visible epoch.
    UndoWrites();
    ReleaseLocksAndSlot();
    scratch_->Reset();
    state_ = State::kAborted;
    graph_->commit_manager_->FinishApply(write_epoch_);
    return persist_error;
  }
  uint64_t persist_done = 0;
  if (timed) {
    persist_done = metrics::MonotonicNanos();
    persist_latency.Record(persist_done - commit_start);
  }
  // Apply phase.
  ApplyCommit(write_epoch_);
  uint64_t apply_done = 0;
  if (timed) {
    apply_done = metrics::MonotonicNanos();
    apply_latency.Record(apply_done - persist_done);
  }
  graph_->commit_manager_->FinishApply(write_epoch_);
  commits.Add();
  if (timed) {
    const uint64_t visible_done = metrics::MonotonicNanos();
    visible_latency.Record(visible_done - apply_done);
    if (metrics::SlowOpRing::Instance().ShouldRecord(visible_done -
                                                     commit_start)) {
      metrics::SlowOp op;
      op.name = "COMMIT";
      op.epoch = write_epoch_;
      op.total_nanos = visible_done - commit_start;
      op.stage_nanos[0] = persist_done - commit_start;  // persist
      op.stage_nanos[1] = apply_done - persist_done;    // apply
      op.stage_nanos[2] = visible_done - apply_done;    // visible wait
      metrics::SlowOpRing::Instance().Record(std::move(op));
    }
  }
  MarkDirty();
  state_ = State::kCommitted;
  scratch_->Reset();
  // relaxed: a statistics/trigger counter — MaybeScheduleCompaction's
  // threshold CAS tolerates any interleaving of these increments.
  graph_->committed_txns_.fetch_add(1, std::memory_order_relaxed);
  graph_->MaybeScheduleCompaction();
  return write_epoch_;
}

StatusOr<timestamp_t> Transaction::CommitAt(timestamp_t epoch,
                                            uint32_t participants) {
  // Whatever happens below, the coordinator declared this shard a
  // participant of `epoch` when it acquired the epoch — exactly one
  // MarkApplied must reach the domain on every path or the visibility
  // frontier (and with it every later commit) stalls forever.
  if (state_ != State::kActive) {
    graph_->epoch_domain()->MarkApplied(epoch);
    return Status::kNotActive;
  }
  if (scratch_->tel_writes.empty() && scratch_->vertex_writes.empty()) {
    // Coordinators only stamp shards that landed a mutation, so this is
    // defensive: an empty piece publishes nothing and needs no WAL record
    // (a record here would make recovery's piece count miss forever).
    graph_->epoch_domain()->MarkApplied(epoch);
    state_ = State::kCommitted;
    ReleaseLocksAndSlot();
    scratch_->Reset();
    return epoch;
  }
  // Degraded engine: reject the piece, but this shard is still a declared
  // participant of `epoch` — report it applied so the frontier stays dense.
  if (Status degraded = graph_->degraded_status(); degraded != Status::kOk) {
    Abort();
    graph_->epoch_domain()->MarkApplied(epoch);
    return degraded;
  }
  // Same stage histograms as Commit(): the registry dedupes by name, so
  // sharded pieces land in the same commit-pipeline series.
  static metrics::Histogram& persist_latency =
      metrics::Registry::Instance().GetHistogram(
          "livegraph_commit_persist_latency", metrics::Unit::kNanos);
  static metrics::Histogram& apply_latency =
      metrics::Registry::Instance().GetHistogram(
          "livegraph_commit_apply_latency", metrics::Unit::kNanos);
  static metrics::Counter& commits =
      metrics::Registry::Instance().GetCounter("livegraph_commit_txns_total");
  const bool timed = metrics::SampleStageTiming();
  const uint64_t commit_start = timed ? metrics::MonotonicNanos() : 0;
  std::string_view payload =
      replay_mode_ ? std::string_view{} : scratch_->wal_payload;
  Status persist_error = Status::kOk;
  write_epoch_ = graph_->commit_manager_->Persist(payload, epoch,
                                                  participants,
                                                  &persist_error);
  if (persist_error != Status::kOk) {
    // Same discipline as Commit(): undo the (still private) staged writes
    // and settle this participant's MarkApplied so the epoch can pass.
    UndoWrites();
    ReleaseLocksAndSlot();
    scratch_->Reset();
    state_ = State::kAborted;
    graph_->commit_manager_->FinishApply(write_epoch_,
                                         /*wait_visible=*/false);
    return persist_error;
  }
  uint64_t persist_done = 0;
  if (timed) {
    persist_done = metrics::MonotonicNanos();
    persist_latency.Record(persist_done - commit_start);
  }
  ApplyCommit(write_epoch_);
  if (timed) apply_latency.Record(metrics::MonotonicNanos() - persist_done);
  commits.Add();
  graph_->commit_manager_->FinishApply(write_epoch_, /*wait_visible=*/false);
  MarkDirty();
  state_ = State::kCommitted;
  scratch_->Reset();
  graph_->committed_txns_.fetch_add(1, std::memory_order_relaxed);
  graph_->MaybeScheduleCompaction();
  return write_epoch_;
}

void Transaction::ApplyCommit(timestamp_t twe) {
  // 1. Publish per-TEL commit metadata: CT, property size, then LS with
  //    release ordering so readers that see the new LS see the entries.
  for (TelWrite& w : scratch_->tel_writes) {
    TelHeader* header = graph_->Tel(w.block).header();
    // relaxed CT/prop stores: both ride the committed_entries release
    // below — a reader that acquires the new LS sees them; a reader on the
    // old LS never dereferences past its snapshot.
    header->commit_ts.store(twe, std::memory_order_relaxed);
    header->committed_prop_bytes.store(
        w.committed_prop_bytes + w.private_prop_bytes,
        std::memory_order_relaxed);
    header->committed_entries.store(w.committed_entries + w.private_entries,
                                    std::memory_order_release);
  }
  // 2. Publish vertex versions through the index.
  for (VertexWrite& w : scratch_->vertex_writes) {
    auto* header = reinterpret_cast<VertexHeader*>(
        graph_->block_manager_->Pointer(w.new_block));
    header->creation_ts.store(twe, std::memory_order_release);
    graph_->IndexEntry(w.v)->vertex_block.store(w.new_block,
                                                std::memory_order_release);
  }
  // 3. "It releases all its locks before starting the potentially lengthy
  //    process of making its updates visible by converting their
  //    timestamps from -TID to TWE" (§5). Safe because any new writer on
  //    these TELs fails the CT check until GRE catches up with TWE.
  ReleaseLocksAndSlot();
  // 4. Convert -TID timestamps to TWE.
  for (TelWrite& w : scratch_->tel_writes) {
    TelBlock block = graph_->Tel(w.block);
    for (uint32_t i = 0; i < w.private_entries; ++i) {
      block.Entry(w.committed_entries + i)
          ->creation_ts.store(twe, std::memory_order_release);
    }
    for (uint32_t index : w.invalidated) {
      block.Entry(index)->invalidation_ts.store(twe,
                                                std::memory_order_release);
    }
  }
}

void Transaction::Abort() {
  if (state_ != State::kActive) return;
  UndoWrites();
  ReleaseLocksAndSlot();
  scratch_->Reset();
  state_ = State::kAborted;
}

void Transaction::UndoWrites() {
  timestamp_t retire_epoch = graph_->domain_->visible() + 1;
  for (TelWrite& w : scratch_->tel_writes) {
    if (w.original_block == kNullBlock) {
      // We created this TEL (and possibly upgraded it): unpublish, then
      // retire every version we allocated. Readers may hold the pointers,
      // so reclamation is epoch-deferred.
      w.slot->store(kNullBlock, std::memory_order_release);
      block_ptr_t ptr = w.block;
      while (ptr != kNullBlock) {
        block_ptr_t prev =
            graph_->Tel(ptr).header()->prev.load(std::memory_order_acquire);
        graph_->block_manager_->Retire(ptr, retire_epoch);
        ptr = prev;
      }
      continue;
    }
    if (w.block != w.original_block) {
      // Undo upgrades: restore the original block and retire the chain of
      // upgraded copies (which stop at original_block).
      w.slot->store(w.original_block, std::memory_order_release);
      block_ptr_t ptr = w.block;
      while (ptr != kNullBlock && ptr != w.original_block) {
        block_ptr_t prev =
            graph_->Tel(ptr).header()->prev.load(std::memory_order_acquire);
        graph_->block_manager_->Retire(ptr, retire_epoch);
        ptr = prev;
      }
    }
    // "Whenever a transaction aborts, it reverts the updated invalidation
    // timestamps from -TID to NULL" (§5). Marks on our own appended
    // entries live beyond the committed region of the original block and
    // are skipped — the region is dead anyway.
    TelBlock original = graph_->Tel(w.original_block);
    uint32_t original_committed =
        original.header()->committed_entries.load(std::memory_order_acquire);
    for (uint32_t index : w.invalidated) {
      if (index < original_committed) {
        original.Entry(index)->invalidation_ts.store(
            kNullTimestamp, std::memory_order_release);
      }
    }
    // "An aborted transaction never modifies the log size variable LS so
    // its new entries will be ignored by future reads and overwritten by
    // future writes" (§5).
  }
  for (VertexWrite& w : scratch_->vertex_writes) {
    // Staged vertex versions were never published: plain free.
    graph_->block_manager_->Free(w.new_block);
  }
  scratch_->tel_writes.clear();
  scratch_->tel_write_index.clear();
  scratch_->vertex_writes.clear();
}

void Transaction::MarkDirty() {
  if (scratch_->tel_writes.empty() && scratch_->vertex_writes.empty()) return;
  LIVEGRAPH_SCOPED_LOCK_RANK(LockRank::kDirtySet);
  std::lock_guard<std::mutex> guard(slot_->dirty_mu);
  for (const TelWrite& w : scratch_->tel_writes) {
    slot_->dirty_vertices.push_back(w.src);
  }
  for (const VertexWrite& w : scratch_->vertex_writes) {
    slot_->dirty_vertices.push_back(w.v);
  }
}

// --- WAL logical records ---

void Transaction::LogAddVertex(vertex_t v, std::string_view props) {
  if (replay_mode_ || graph_->wal_ == nullptr) return;
  PutRaw(&scratch_->wal_payload, kOpAddVertex);
  PutRaw(&scratch_->wal_payload, v);
  PutBytes(&scratch_->wal_payload, props);
}

void Transaction::LogPutVertex(vertex_t v, std::string_view props) {
  if (replay_mode_ || graph_->wal_ == nullptr) return;
  PutRaw(&scratch_->wal_payload, kOpPutVertex);
  PutRaw(&scratch_->wal_payload, v);
  PutBytes(&scratch_->wal_payload, props);
}

void Transaction::LogDeleteVertex(vertex_t v) {
  if (replay_mode_ || graph_->wal_ == nullptr) return;
  PutRaw(&scratch_->wal_payload, kOpDeleteVertex);
  PutRaw(&scratch_->wal_payload, v);
}

void Transaction::LogAddEdge(vertex_t v, label_t label, vertex_t dst,
                             std::string_view props) {
  if (replay_mode_ || graph_->wal_ == nullptr) return;
  PutRaw(&scratch_->wal_payload, kOpAddEdge);
  PutRaw(&scratch_->wal_payload, v);
  PutRaw(&scratch_->wal_payload, label);
  PutRaw(&scratch_->wal_payload, dst);
  PutBytes(&scratch_->wal_payload, props);
}

void Transaction::LogDeleteEdge(vertex_t v, label_t label, vertex_t dst) {
  if (replay_mode_ || graph_->wal_ == nullptr) return;
  PutRaw(&scratch_->wal_payload, kOpDeleteEdge);
  PutRaw(&scratch_->wal_payload, v);
  PutRaw(&scratch_->wal_payload, label);
  PutRaw(&scratch_->wal_payload, dst);
}

}  // namespace livegraph
