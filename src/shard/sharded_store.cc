#include "shard/sharded_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <unordered_map>
#include <utility>

#include "storage/wal.h"
#include "util/lock_rank.h"

namespace livegraph {

/// Befriended by ShardedStore: the coordinator internals the write session
/// needs, kept off the public surface.
struct ShardedStoreAccess {
  static int PickShard(ShardedStore& store) { return store.PickShard(); }
  static EpochDomain* Domain(ShardedStore& store) {
    return store.domain_.get();
  }
};

namespace {

/// Shard s's engine options: an equal slice of the global vertex budget,
/// the shared epoch domain, and this shard's slot of the durable
/// directory layout.
GraphOptions ShardGraphOptions(const ShardOptions& options,
                               std::shared_ptr<EpochDomain> domain,
                               const std::string& wal_path, int shards,
                               int s) {
  GraphOptions g = options.graph;
  g.epoch_domain = std::move(domain);
  g.max_vertices =
      (options.graph.max_vertices + static_cast<size_t>(shards) - 1) /
      static_cast<size_t>(shards);
  g.wal_path = wal_path;
  if (!g.storage_path.empty()) {
    g.storage_path += ".shard" + std::to_string(s);
  }
  return g;
}

/// A read-write session over the shards. The session pins ONE global
/// read epoch up front (an O(1) domain pin); native per-shard transactions
/// still open lazily on first touch — at that pinned epoch — so a
/// transaction that only ever addresses one shard is exactly a native
/// LiveGraph transaction plus one array index and one pin. The up-front
/// pin means every shard reads the SAME cross-shard-consistent snapshot no
/// matter when it is first touched (lazy first-touch pinning could see a
/// commit on shard B but miss its sibling piece on later-touched shard A).
/// Cross-shard atomicity mirrors the native eager-abort discipline: the
/// moment any shard reports kConflict/kTimeout (its native transaction has
/// already rolled back), every other open shard is rolled back too and the
/// session dies.
class ShardedWriteTxn : public StoreTxn {
 public:
  explicit ShardedWriteTxn(ShardedStore* store)
      : store_(store),
        txns_(static_cast<size_t>(store->num_shards())),
        wrote_(static_cast<size_t>(store->num_shards()), false),
        pin_(store->epoch_domain()->PinRead()) {}

  ~ShardedWriteTxn() override {
    if (active_) AbortAll();
    // A published multi-shard commit cannot be aborted: its records replay
    // at recovery. Finish every piece, but skip the visibility wait, which
    // may depend on a commit parked on this thread. (A single-shard commit
    // is finished by its Transaction's own destructor.)
    if (stage_ == Stage::kPublished) FinishPieces(/*wait=*/true);
    ReleasePin();
  }

  // --- Reads (read-your-writes via the owning shard's native txn) ---

  StatusOr<std::string> GetNode(vertex_t id) override {
    if (!active_) return Status::kNotActive;
    if (id < 0) return Status::kNotFound;
    StatusOr<std::string_view> props =
        Shard(store_->ShardOf(id)).GetVertex(store_->LocalId(id));
    if (!props.ok()) return props.status();
    return std::string(*props);
  }

  StatusOr<std::string> GetLink(vertex_t src, label_t label,
                                vertex_t dst) override {
    if (!active_) return Status::kNotActive;
    if (src < 0) return Status::kNotFound;
    StatusOr<std::string_view> props =
        Shard(store_->ShardOf(src))
            .GetEdge(store_->LocalId(src), label, dst);
    if (!props.ok()) return props.status();
    return std::string(*props);
  }

  EdgeCursor ScanLinks(vertex_t src, label_t label, size_t limit) override {
    if (!active_ || src < 0) return EdgeCursor();
    return EdgeCursor(
        Shard(store_->ShardOf(src)).GetEdges(store_->LocalId(src), label),
        limit);
  }

  size_t CountLinks(vertex_t src, label_t label) override {
    if (!active_ || src < 0) return 0;
    return Shard(store_->ShardOf(src))
        .CountEdges(store_->LocalId(src), label);
  }

  vertex_t VertexCount() override { return store_->VertexCount(); }

  // --- Writes ---

  StatusOr<vertex_t> AddNode(std::string_view data) override {
    if (!active_) return Status::kNotActive;
    // Round-robin placement with a capacity-fallback probe (the first step
    // of ROADMAP "Shard rebalancing"): when the home shard is full the ID
    // moves to the next shard with room instead of failing the store while
    // capacity remains elsewhere. Capacity is not a conflict — probed-full
    // shards keep their native transaction active (and committable empty).
    const int n = store_->num_shards();
    const int home = ShardedStoreAccess::PickShard(*store_);
    for (int probe = 0; probe < n; ++probe) {
      const int s = (home + probe) % n;
      Transaction& txn = Shard(s);
      vertex_t local = txn.AddVertex(data);
      if (local == kNullVertex) {
        // A lock timeout killed the native transaction — take the rest of
        // the session down too. Plain exhaustion: probe the next shard.
        if (!txn.active()) {
          AbortAll();
          return Status::kTimeout;
        }
        continue;
      }
      wrote_[static_cast<size_t>(s)] = true;
      return store_->GlobalId(s, local);
    }
    return Status::kOutOfRange;  // every shard is at capacity
  }

  Status UpdateNode(vertex_t id, std::string_view data) override {
    if (!active_) return Status::kNotActive;
    if (id < 0) return Status::kNotFound;
    int s = store_->ShardOf(id);
    Transaction& txn = Shard(s);
    vertex_t local = store_->LocalId(id);
    // LinkBench UPDATE_NODE: tombstoned / never-written IDs must not
    // resurrect.
    if (!txn.GetVertex(local).ok()) return Status::kNotFound;
    return Wrote(s, Filter(txn.PutVertex(local, data)));
  }

  Status DeleteNode(vertex_t id) override {
    if (!active_) return Status::kNotActive;
    if (id < 0) return Status::kNotFound;
    int s = store_->ShardOf(id);
    Transaction& txn = Shard(s);
    vertex_t local = store_->LocalId(id);
    if (!txn.GetVertex(local).ok()) return Status::kNotFound;
    return Wrote(s, Filter(txn.DeleteVertex(local)));
  }

  StatusOr<bool> AddLink(vertex_t src, label_t label, vertex_t dst,
                         std::string_view data) override {
    if (!active_) return Status::kNotActive;
    if (src < 0) return Status::kNotFound;
    int s = store_->ShardOf(src);
    Transaction& txn = Shard(s);
    vertex_t local = store_->LocalId(src);
    // Upsert: report whether this was a true insertion, from AddEdge's
    // own existence probe (Bloom-fast, §4).
    bool existed = false;
    Status st =
        Wrote(s, Filter(txn.AddEdge(local, label, dst, data, &existed)));
    if (st != Status::kOk) return st;
    return !existed;
  }

  Status UpdateLink(vertex_t src, label_t label, vertex_t dst,
                    std::string_view data) override {
    if (!active_) return Status::kNotActive;
    if (src < 0) return Status::kNotFound;
    int s = store_->ShardOf(src);
    Transaction& txn = Shard(s);
    vertex_t local = store_->LocalId(src);
    if (!txn.GetEdge(local, label, dst).ok()) return Status::kNotFound;
    return Wrote(s, Filter(txn.AddEdge(local, label, dst, data)));
  }

  Status DeleteLink(vertex_t src, label_t label, vertex_t dst) override {
    if (!active_) return Status::kNotActive;
    if (src < 0) return Status::kNotFound;
    int s = store_->ShardOf(src);
    Transaction& txn = Shard(s);
    return Wrote(s, Filter(txn.DeleteEdge(store_->LocalId(src), label, dst)));
  }

  /// Routed to the owning shard's transaction; a timeout there takes the
  /// whole session down, as a blocking acquisition's would (Filter).
  StatusOr<bool> TryLockVertex(vertex_t v, int64_t waited_ns) override {
    if (!active_) return Status::kNotActive;
    if (v < 0) return true;
    StatusOr<bool> locked = Shard(store_->ShardOf(v))
                                .TryLockVertex(store_->LocalId(v), waited_ns);
    if (!locked.ok()) Filter(locked.status());
    return locked;
  }

  // --- Lifecycle ---

  StatusOr<timestamp_t> Commit() override {
    timestamp_t epoch = 0;
    StatusOr<bool> done = Step(/*wait=*/true, &epoch);
    if (!done.ok()) return done.status();
    return epoch;
  }

  /// Waits on nothing when the shards' WALs sync (Graph::parks_commits);
  /// otherwise no commit parks and this runs Commit().
  StatusOr<bool> TryCommit(timestamp_t* epoch) override {
    return Step(/*wait=*/!store_->shard(0).parks_commits(), epoch);
  }

  void Abort() override {
    if (active_) AbortAll();
  }

 private:
  /// The shard's native transaction, opened on first touch AT the
  /// session's up-front pinned epoch — one consistent read view across
  /// every shard regardless of touch order.
  Transaction& Shard(int s) {
    auto& slot = txns_[static_cast<size_t>(s)];
    if (!slot.has_value()) {
      slot.emplace(store_->shard(s).BeginTransactionAt(pin_.epoch));
    }
    return *slot;
  }

  /// Native write ops abort their own transaction on conflict/timeout;
  /// propagate that to every other open shard so the session stays
  /// all-or-nothing.
  Status Filter(Status st) {
    if (st == Status::kConflict || st == Status::kTimeout) AbortAll();
    return st;
  }

  /// Marks shard `s` as a writer only when the mutation actually landed.
  /// A miss (kNotFound — e.g. a routine LinkBench DELETE_LINK of a
  /// non-existent edge) stages no visible change, so leaving wrote_ unset
  /// keeps an otherwise single-shard commit off the coordinated path.
  Status Wrote(int s, Status st) {
    if (st == Status::kOk) wrote_[static_cast<size_t>(s)] = true;
    return st;
  }

  void AbortAll() {
    active_ = false;
    for (auto& txn : txns_) {
      if (!txn.has_value()) continue;
      if (txn->active()) txn->Abort();
      txn.reset();
    }
    ReleasePin();
  }

  /// Releases the session's global read pin exactly once (Commit entry,
  /// AbortAll, or the destructor as backstop).
  void ReleasePin() {
    if (!pinned_) return;
    pinned_ = false;
    store_->epoch_domain()->Unpin(pin_);
  }

  /// Runs the commit from wherever the last call left it. `wait` blocks
  /// at every stage; otherwise false means "call again".
  StatusOr<bool> Step(bool wait, timestamp_t* epoch) {
    EpochDomain* domain = ShardedStoreAccess::Domain(*store_);
    if (stage_ == Stage::kOpen) {
      if (!active_) return Status::kNotActive;
      // Store-wide read-only degradation: the shards share one disk, so a
      // WAL failure latched by ANY shard rejects every commit — not just
      // those routed to the poisoned shard. Sessions that staged writes
      // before the latch abort cleanly (locks released, nothing visible).
      if (Status degraded = store_->degraded_status();
          degraded != Status::kOk) {
        AbortAll();
        return degraded;
      }
      active_ = false;
      // The domain pin only has to outlive lazy first-touches: every open
      // shard's worker slot published the pinned epoch itself, and Commit
      // touches no new shards, so the pin's job is done.
      ReleasePin();
      // Shards without a landed mutation publish no visible data (at most
      // an empty staged TEL write from a missed delete): their native
      // commits cannot tear anything. Run them outside any coordination.
      uint32_t writers = 0;
      for (size_t s = 0; s < txns_.size(); ++s) {
        if (!txns_[s].has_value()) continue;
        if (wrote_[s]) {
          ++writers;
          single_ = s;
        } else {
          txns_[s]->Commit();
          txns_[s].reset();
        }
      }
      if (writers == 0) {
        stage_ = Stage::kDone;
        *epoch = domain->visible();
        return true;
      }
      if (writers == 1) {
        // Single-shard fast path: straight through that shard's commit
        // pipeline. Its fresh epoch comes from the shared domain, so it IS
        // a global epoch — no extra coordination to make it comparable.
        stage_ = Stage::kSingle;
      } else {
        PublishPieces(writers, /*park=*/!wait);
      }
    }
    if (stage_ == Stage::kSingle) {
      std::optional<Transaction>& txn = txns_[single_];
      if (wait) {
        StatusOr<timestamp_t> committed = txn->Commit();
        txn.reset();
        stage_ = Stage::kDone;
        if (!committed.ok()) return committed.status();
        *epoch = *committed;
        return true;
      }
      StatusOr<bool> done = txn->TryCommit(epoch);
      if (done.ok() && !*done) return false;
      txn.reset();
      stage_ = Stage::kDone;
      return done;
    }
    if (stage_ == Stage::kPublished && !FinishPieces(wait)) return false;
    if (stage_ != Stage::kApplied) return Status::kNotActive;
    // Read-your-commit across the whole store: report the commit only
    // once the epoch is visible everywhere (the pieces skipped this wait).
    if (domain->visible() < epoch_) {
      if (!wait) return false;
      domain->WaitVisible(epoch_);
    }
    for (auto& txn : txns_) {
      if (txn.has_value()) txn->CommitVisible(/*wait=*/true);  // visible
      txn.reset();
    }
    stage_ = Stage::kDone;
    if (failure_ != Status::kOk) return failure_;
    *epoch = epoch_;
    return true;
  }

  /// Multi-shard commit: ONE domain epoch for the whole transaction, each
  /// shard's piece published at it through its own pipeline. The epoch
  /// becomes visible only when the last piece applies — and no reader can
  /// pin an epoch at or above it before then — so the commit is
  /// all-or-nothing without any coordinator lock.
  void PublishPieces(uint32_t writers, bool park) {
    // Coordinator section (rank kCommitCoordinator): entered while this
    // session's vertex locks are still held by the pieces; it must never
    // acquire NEW vertex locks — a write after the epoch is stamped would
    // escape its WAL record. The rank table turns that rule into an abort
    // at the violation site. It spans the publish only: a reactor loop
    // that parked inside it would take other sessions' vertex locks under
    // it.
    LIVEGRAPH_SCOPED_LOCK_RANK(LockRank::kCommitCoordinator);
    epoch_ = ShardedStoreAccess::Domain(*store_)->Acquire(writers);
    for (auto& txn : txns_) {
      if (!txn.has_value()) continue;
      // A piece rejected here (a shard degraded meanwhile) has already
      // reported its MarkApplied; the rest roll back in FinishPieces.
      Status published = txn->PublishCommit(epoch_, writers, park);
      if (failure_ == Status::kOk) failure_ = published;
    }
    stage_ = Stage::kPublished;
  }

  /// Once every piece is durable, applies them all — or, if any piece's
  /// WAL write failed, rolls every piece back, as recovery drops a
  /// half-durable epoch. Every piece reports its MarkApplied either way,
  /// so the frontier cannot wedge. False while a piece is not yet durable
  /// (`wait` false only).
  bool FinishPieces(bool wait) {
    for (auto& txn : txns_) {
      if (txn.has_value() && !txn->CommitDurable(wait)) return false;
    }
    for (auto& txn : txns_) {
      if (txn.has_value() && failure_ == Status::kOk) {
        failure_ = txn->persist_status();
      }
    }
    for (auto& txn : txns_) {
      if (txn.has_value()) txn->FinishCommit(/*undo=*/failure_ != Status::kOk);
    }
    stage_ = Stage::kApplied;
    return true;
  }

  ShardedStore* store_;
  std::vector<std::optional<Transaction>> txns_;  // index = shard
  std::vector<bool> wrote_;  // mutation reached this shard's native txn
  /// The session's one global read epoch, pinned at construction.
  EpochDomain::ReadPin pin_;
  bool pinned_ = true;
  bool active_ = true;
  /// Commit progress: kSingle commits the one writing shard's piece;
  /// kPublished/kApplied drive the multi-shard pieces at epoch_.
  enum class Stage : uint8_t { kOpen, kSingle, kPublished, kApplied, kDone };
  Stage stage_ = Stage::kOpen;
  size_t single_ = 0;  // the writing shard (kSingle)
  timestamp_t epoch_ = 0;
  Status failure_ = Status::kOk;  // first failed piece (multi-shard)
};

}  // namespace

// --- ShardedReadTxn ---

ShardedReadTxn::ShardedReadTxn(ShardedStore* store, EpochDomain::ReadPin pin,
                               vertex_t vertex_bound)
    : store_(store),
      pin_(pin),
      snapshots_(static_cast<size_t>(store->num_shards())),
      vertex_bound_(vertex_bound) {}

ShardedReadTxn::~ShardedReadTxn() {
  // Drop the per-shard snapshots (worker slots) before releasing the
  // domain pin that guards their epoch.
  snapshots_.clear();
  store_->epoch_domain()->Unpin(pin_);
}

/// The snapshot owning global vertex `v`, opened at the session's pinned
/// epoch on first touch (single-shard read fast path).
const ReadTransaction& ShardedReadTxn::Owner(vertex_t v) {
  int s = store_->ShardOf(v);
  auto& slot = snapshots_[static_cast<size_t>(s)];
  if (!slot.has_value()) {
    slot.emplace(store_->shard(s).BeginTimeTravelTransaction(pin_.epoch));
  }
  return *slot;
}

vertex_t ShardedReadTxn::Local(vertex_t v) const {
  return store_->LocalId(v);
}

StatusOr<std::string> ShardedReadTxn::GetNode(vertex_t id) {
  if (id < 0) return Status::kNotFound;
  StatusOr<std::string_view> props = Owner(id).GetVertex(Local(id));
  if (!props.ok()) return props.status();
  return std::string(*props);
}

StatusOr<std::string> ShardedReadTxn::GetLink(vertex_t src, label_t label,
                                              vertex_t dst) {
  if (src < 0) return Status::kNotFound;
  StatusOr<std::string_view> props =
      Owner(src).GetEdge(Local(src), label, dst);
  if (!props.ok()) return props.status();
  return std::string(*props);
}

EdgeCursor ShardedReadTxn::ScanLinks(vertex_t src, label_t label,
                                     size_t limit) {
  if (src < 0) return EdgeCursor();
  // Co-location: the whole (src, label) list lives in src's shard — the
  // scan is one sequential TEL walk there, no merging.
  return EdgeCursor(Owner(src).GetEdges(Local(src), label), limit);
}

size_t ShardedReadTxn::CountLinks(vertex_t src, label_t label) {
  if (src < 0) return 0;
  return Owner(src).CountEdges(Local(src), label);
}

EdgeCursor ShardedReadTxn::FanInScan(const std::vector<vertex_t>& srcs,
                                     label_t label, size_t limit) {
  std::vector<EdgeCursor> children;
  children.reserve(srcs.size());
  for (vertex_t src : srcs) {
    if (src < 0) {
      children.emplace_back();  // keeps merge_source() aligned with srcs
      continue;
    }
    children.emplace_back(Owner(src).GetEdges(Local(src), label));
  }
  return EdgeCursor::Merge(std::move(children), limit);
}

// --- ShardedStore ---

ShardedStore::ShardedStore(ShardOptions options)
    : options_(std::move(options)) {
  const int n = std::max(1, options_.shards);
  options_.shards = n;

  // One visibility domain for all shards, its in-flight window sized past
  // the worst case of every shard's worker table committing at once.
  domain_ = std::make_shared<EpochDomain>(
      static_cast<size_t>(n) *
      static_cast<size_t>(options_.graph.max_workers) * 4);

  if (!options_.dir.empty()) {
    namespace fs = std::filesystem;
    std::error_code ec;
    for (int s = 0; s < n; ++s) {
      fs::create_directories(ShardDirPath(s), ec);
      fs::create_directories(ShardDirPath(s) + "/checkpoint", ec);
      // Make the fresh directory ENTRIES durable too (a file fsync does
      // not persist its parent's entry): shard<i> in <dir>, and
      // checkpoint/ in shard<i>.
      Wal::FsyncParentDir(ShardDirPath(s));
      Wal::FsyncParentDir(ShardDirPath(s) + "/checkpoint");
    }
    Wal::FsyncParentDir(options_.dir);
  }

  shards_.reserve(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Graph>(ShardGraphOptions(
        options_, domain_,
        options_.dir.empty() ? std::string() : ShardWalPath(s), n, s)));
  }
}

ShardedStore::~ShardedStore() = default;

std::string ShardedStore::ShardDirPath(int s) const {
  return options_.dir + "/shard" + std::to_string(s);
}

std::string ShardedStore::ShardWalPath(int s) const {
  return ShardDirPath(s) + "/wal";
}

std::string ShardedStore::ShardCheckpointPath(int s,
                                              timestamp_t epoch) const {
  return ShardDirPath(s) + "/checkpoint/" + std::to_string(epoch);
}

std::string ShardedStore::ManifestPath() const {
  return options_.dir + "/MANIFEST";
}

Status ShardedStore::ReadManifest(const std::string& dir, int* shards,
                                  timestamp_t* epoch) {
  // One record: the checkpoint epoch, and the shard count as payload.
  timestamp_t manifest_epoch = 0;
  uint32_t count = 0;
  Status status = Wal::ReadRecord(dir + "/MANIFEST", &manifest_epoch,
                                  &count, sizeof(count));
  if (status != Status::kOk) return status;
  if (count == 0 || manifest_epoch < 0) return Status::kIOError;
  *shards = static_cast<int>(count);
  *epoch = manifest_epoch;
  return Status::kOk;
}

vertex_t ShardedStore::VertexCount() const {
  const int n = static_cast<int>(shards_.size());
  vertex_t bound = 0;
  for (int s = 0; s < n; ++s) {
    bound = std::max(
        bound, shard_id::GlobalBoundOf(
                   s, shards_[static_cast<size_t>(s)]->VertexCount(), n));
  }
  return bound;
}

bool ShardedStore::ApplyReplicated(int s, std::string_view payload) {
  if (s < 0 || s >= num_shards()) return false;
  return shards_[static_cast<size_t>(s)]->ApplyWalRecord(payload);
}

std::vector<ReadTransaction> ShardedStore::PinShardSnapshots() {
  // Pin ONE global epoch, open every shard's snapshot at exactly it, then
  // release the domain pin — each snapshot's own reading-epoch slot keeps
  // protecting the epoch on its shard. No commit path is blocked: the
  // domain's visibility order makes the cut consistent, not a lock.
  EpochDomain::ReadPin pin = domain_->PinRead();
  std::vector<ReadTransaction> snapshots;
  snapshots.reserve(shards_.size());
  for (auto& shard : shards_) {
    snapshots.push_back(shard->BeginTimeTravelTransaction(pin.epoch));
  }
  domain_->Unpin(pin);
  return snapshots;
}

std::unique_ptr<ShardedReadTxn> ShardedStore::BeginShardedReadTxn() {
  EpochDomain::ReadPin pin = domain_->PinRead();
  return std::unique_ptr<ShardedReadTxn>(
      new ShardedReadTxn(this, pin, VertexCount()));
}

std::unique_ptr<ShardedReadTxn> ShardedStore::BeginTimeTravelReadTxn(
    timestamp_t epoch) {
  EpochDomain::ReadPin pin = domain_->PinReadAt(epoch);
  return std::unique_ptr<ShardedReadTxn>(
      new ShardedReadTxn(this, pin, VertexCount()));
}

std::unique_ptr<StoreReadTxn> ShardedStore::BeginReadTxn() {
  return BeginShardedReadTxn();
}

std::unique_ptr<StoreTxn> ShardedStore::BeginTxn() {
  return std::make_unique<ShardedWriteTxn>(this);
}

timestamp_t ShardedStore::Checkpoint(int threads) {
  if (options_.dir.empty()) return 0;
  namespace fs = std::filesystem;

  // One pinned global epoch; every shard checkpointed at exactly it. The
  // snapshots are taken together under one pin, then written without
  // blocking any commit path.
  std::vector<ReadTransaction> snapshots = PinShardSnapshots();
  const timestamp_t epoch = snapshots.empty() ? 0 : snapshots[0].read_epoch();

  // A checkpoint's content is a pure function of its epoch, so if the
  // durable manifest already records this exact epoch the on-disk state
  // IS this checkpoint — return without touching it. (Rewriting would
  // remove_all the very directories the live manifest points at, opening
  // a crash window that loses the store.) The same holds at the frontier
  // Recover left: nothing has committed since, and the manifest on disk
  // holds that state (loading a checkpoint advances the epoch, not the
  // data), so a drain after an idle restart writes nothing.
  {
    int manifest_shards = 0;
    timestamp_t manifest_epoch = -1;
    if (ReadManifest(options_.dir, &manifest_shards, &manifest_epoch) ==
            Status::kOk &&
        manifest_shards == num_shards() &&
        (manifest_epoch == epoch ||
         (recovered_epoch_ > 0 && epoch == recovered_epoch_))) {
      return epoch;
    }
  }

  std::error_code ec;
  for (int s = 0; s < num_shards(); ++s) {
    const std::string dir = ShardCheckpointPath(s, epoch);
    fs::remove_all(dir, ec);  // re-checkpoint of the same epoch: start clean
    fs::create_directories(dir, ec);
    if (shards_[static_cast<size_t>(s)]->CheckpointSnapshot(
            snapshots[static_cast<size_t>(s)], dir, threads) < 0) {
      // Shard checkpoint failed: the global manifest is never rewritten,
      // so the previous checkpoint stays authoritative; the partial epoch
      // directory is swept by the next successful checkpoint's GC.
      return -1;
    }
    // The epoch directory's own entry must be durable before the global
    // manifest names it: fsync its parent (shard<i>/checkpoint/). The
    // files inside were fsynced by CheckpointSnapshot, and that also
    // synced the epoch directory itself on its manifest rename.
    Wal::FsyncParentDir(dir);
  }

  // Manifest last, atomically renamed: its epoch is the single global cut
  // recovery restores. Until the rename lands, the previous checkpoint
  // (if any) stays authoritative — per-shard files are written into
  // per-epoch directories precisely so an interrupted checkpoint can
  // never clobber the one the manifest still points at.
  const auto count = static_cast<uint32_t>(num_shards());
  if (Wal::PublishRecord(ManifestPath(), epoch, &count, sizeof(count)) != 0) {
    return -1;
  }

  // GC superseded per-epoch checkpoint directories.
  for (int s = 0; s < num_shards(); ++s) {
    const fs::path root = ShardDirPath(s) + "/checkpoint";
    for (const auto& entry : fs::directory_iterator(root, ec)) {
      if (entry.path().filename() != std::to_string(epoch)) {
        fs::remove_all(entry.path(), ec);
      }
    }
  }
  return epoch;
}

std::unique_ptr<ShardedStore> ShardedStore::Recover(ShardOptions options) {
  timestamp_t checkpoint_epoch = 0;
  if (!options.dir.empty()) {
    // A file where the directory belongs (say, a WAL file from before
    // every durable engine kept a directory) holds data this routine
    // cannot read: refuse rather than serve an empty store in its place.
    std::error_code ec;
    if (std::filesystem::exists(options.dir, ec) &&
        !std::filesystem::is_directory(options.dir, ec)) {
      std::fprintf(stderr, "ShardedStore::Recover: %s is not a directory "
                   "— refusing to recover\n", options.dir.c_str());
      return nullptr;
    }
    int manifest_shards = 0;
    Status manifest =
        ReadManifest(options.dir, &manifest_shards, &checkpoint_epoch);
    if (manifest == Status::kIOError) {
      std::fprintf(stderr, "ShardedStore::Recover: %s/MANIFEST is damaged "
                   "— refusing to recover\n", options.dir.c_str());
      return nullptr;
    }
    if (manifest == Status::kOk && manifest_shards != options.shards) {
      std::fprintf(stderr,
                   "ShardedStore::Recover: manifest has %d shards, "
                   "options asked for %d — using the manifest (the data "
                   "layout is keyed on it)\n",
                   manifest_shards, options.shards);
      options.shards = manifest_shards;
    }
  }

  auto store = std::make_unique<ShardedStore>(std::move(options));
  if (store->options_.dir.empty()) return store;
  const int n = store->num_shards();

  // Pass 1 over every shard's WAL: find the highest durable epoch, and for
  // each multi-shard epoch past the checkpoint count the pieces actually
  // on disk. A piece is one WAL record; a transaction whose coordinator
  // crashed between two shards' fsyncs is exactly an epoch with fewer
  // pieces found than its records' participant count — such an epoch was
  // never visible to anyone (the visibility frontier requires every piece
  // applied, and applying follows durability), so dropping ALL its pieces
  // recovers the strongest state that contains no torn transaction.
  struct PieceCount {
    uint32_t expected = 0;
    uint32_t found = 0;
  };
  std::unordered_map<timestamp_t, PieceCount> pieces;
  timestamp_t max_epoch = checkpoint_epoch;
  // Whether any record past the checkpoint was on disk, replayed or
  // dropped as a torn piece: only then does the manifest not describe the
  // recovered state.
  bool past_checkpoint = false;
  for (int s = 0; s < n; ++s) {
    Wal::Reader scan(store->ShardWalPath(s));
    timestamp_t epoch = 0;
    uint32_t participants = 0;
    std::string payload;
    while (scan.Next(&epoch, &participants, &payload)) {
      if (epoch > max_epoch) max_epoch = epoch;
      if (epoch > checkpoint_epoch) past_checkpoint = true;
      if (participants > 1 && epoch > checkpoint_epoch) {
        PieceCount& count = pieces[epoch];
        count.expected = participants;
        ++count.found;
      }
    }
    // Cut off this shard's torn/corrupt tail (crash mid-append) right
    // away: even if the sealing checkpoint below fails and the WALs are
    // kept, post-recovery appends must not land behind unreadable bytes.
    // (Pass 2 re-reads each file rather than holding all N readers — one
    // WAL-sized buffer at a time bounds recovery memory at any shard
    // count.)
    scan.TruncateTornTail(store->ShardWalPath(s));
  }

  // Resume the durable epoch sequence past everything stamped on disk so
  // replayed state commits at fresh epochs and the post-recovery manifest
  // supersedes every surviving record.
  store->domain_->FastForward(max_epoch);

  // Load the manifest checkpoint (every shard at the same pinned epoch).
  if (checkpoint_epoch > 0) {
    for (int s = 0; s < n; ++s) {
      if (!store->shards_[static_cast<size_t>(s)]->LoadCheckpoint(
              store->ShardCheckpointPath(s, checkpoint_epoch))) {
        return nullptr;
      }
    }
  }

  // Pass 2: replay each shard's WAL tail in log order, skipping records
  // the checkpoint already contains and every incomplete multi-shard
  // epoch.
  for (int s = 0; s < n; ++s) {
    Graph& graph = *store->shards_[static_cast<size_t>(s)];
    Wal::Reader reader(store->ShardWalPath(s));
    timestamp_t epoch = 0;
    uint32_t participants = 0;
    std::string payload;
    while (reader.Next(&epoch, &participants, &payload)) {
      if (epoch <= checkpoint_epoch) continue;
      if (participants > 1) {
        auto it = pieces.find(epoch);
        if (it == pieces.end() || it->second.found < it->second.expected) {
          continue;  // half-durable cross-shard transaction: drop atomically
        }
      }
      if (!graph.ApplyWalRecord(payload)) {
        std::fprintf(stderr, "ShardedStore::Recover: %s has a record the "
                     "decoder rejects — refusing to recover\n",
                     store->ShardWalPath(s).c_str());
        return nullptr;
      }
    }
  }

  // Resume round-robin placement roughly where the recovered occupancy
  // left off. relaxed: recovery is single-threaded; the store is published
  // to other threads by the unique_ptr hand-off to the caller.
  store->next_shard_.store(static_cast<uint64_t>(store->VertexCount()),
                           std::memory_order_relaxed);

  // Seal the recovered state, then truncate every WAL. After this, no
  // surviving byte of the old logs — including any dropped torn suffix —
  // can influence a later recovery. When every record on disk was already
  // in the checkpoint (a restart after a drain, or of an idle store), the
  // manifest still describes the recovered state and is kept as it is.
  // Otherwise a checkpoint under a fresh manifest seals it, and the WALs
  // are destroyed ONLY if that checkpoint published at the recovered
  // frontier — on failure (e.g. ENOSPC) the old manifest + intact logs
  // still recover the same state next time.
  const timestamp_t recovered = store->domain_->visible();
  if (!past_checkpoint || store->Checkpoint() == recovered) {
    for (int s = 0; s < n; ++s) {
      store->shards_[static_cast<size_t>(s)]->ResetWal();
    }
    // Replication: no log byte below the recovered frontier survives, so
    // subscribers older than it need the snapshot bootstrap.
    store->recovered_epoch_ = recovered;
  } else {
    std::fprintf(stderr,
                 "ShardedStore::Recover: sealing checkpoint failed; "
                 "keeping WALs for the next recovery\n");
  }
  return store;
}

}  // namespace livegraph
