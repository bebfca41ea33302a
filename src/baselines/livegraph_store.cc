#include "baselines/livegraph_store.h"

#include <utility>

namespace livegraph {

namespace {

/// Shared by both session kinds: wrap the core iterator; charge the page
/// cache for the strip this scan will walk (one contiguous range — the
/// point of the TEL layout).
template <typename Txn>
EdgeCursor ScanWith(const Txn& txn, PageCacheSim* pagesim, vertex_t src,
                    label_t label, size_t limit) {
  EdgeIterator it = txn.GetEdges(src, label);
  if (pagesim != nullptr && it.Valid()) {
    auto [addr, bytes] = it.ScanSpan();
    pagesim->Touch(addr, bytes, false);
  }
  return EdgeCursor(it, limit);
}

/// MVCC snapshot session: readers never block writers and vice versa (§5).
class LiveGraphReadTxn : public StoreReadTxn {
 public:
  LiveGraphReadTxn(Graph* graph, PageCacheSim* pagesim)
      : txn_(graph->BeginReadOnlyTransaction()), pagesim_(pagesim) {}

  StatusOr<std::string> GetNode(vertex_t id) override {
    StatusOr<std::string_view> props = txn_.GetVertex(id);
    if (!props.ok()) return props.status();
    if (pagesim_ != nullptr) {
      pagesim_->Touch(props->data(), props->size() + sizeof(VertexHeader),
                      false);
    }
    return std::string(*props);
  }

  StatusOr<std::string> GetLink(vertex_t src, label_t label,
                                vertex_t dst) override {
    StatusOr<std::string_view> props = txn_.GetEdge(src, label, dst);
    if (!props.ok()) return props.status();
    if (pagesim_ != nullptr) {
      pagesim_->Touch(props->data(), props->size() + sizeof(EdgeEntry), false);
    }
    return std::string(*props);
  }

  EdgeCursor ScanLinks(vertex_t src, label_t label, size_t limit) override {
    // Live TEL cursor: lazy; the bound is a counter on the cursor itself.
    return ScanWith(txn_, pagesim_, src, label, limit);
  }

  size_t CountLinks(vertex_t src, label_t label) override {
    return txn_.CountEdges(src, label);
  }

  vertex_t VertexCount() override { return txn_.VertexCount(); }

 private:
  ReadTransaction txn_;
  PageCacheSim* pagesim_;
};

/// Read-write session under snapshot isolation; maps 1:1 onto the core
/// Transaction (work / persist / apply phases, §5).
class LiveGraphWriteTxn : public StoreTxn {
 public:
  LiveGraphWriteTxn(Graph* graph, PageCacheSim* pagesim)
      : graph_(graph), txn_(graph->BeginTransaction()), pagesim_(pagesim) {}

  ~LiveGraphWriteTxn() override {
    if (txn_.active()) txn_.Abort();
  }

  // --- Reads (read-your-writes) ---

  StatusOr<std::string> GetNode(vertex_t id) override {
    StatusOr<std::string_view> props = txn_.GetVertex(id);
    if (!props.ok()) return props.status();
    return std::string(*props);
  }

  StatusOr<std::string> GetLink(vertex_t src, label_t label,
                                vertex_t dst) override {
    StatusOr<std::string_view> props = txn_.GetEdge(src, label, dst);
    if (!props.ok()) return props.status();
    return std::string(*props);
  }

  EdgeCursor ScanLinks(vertex_t src, label_t label, size_t limit) override {
    // Live TEL cursor: lazy; the bound is a counter on the cursor itself.
    return ScanWith(txn_, pagesim_, src, label, limit);
  }

  size_t CountLinks(vertex_t src, label_t label) override {
    return txn_.CountEdges(src, label);
  }

  vertex_t VertexCount() override { return graph_->VertexCount(); }

  // --- Writes ---

  StatusOr<vertex_t> AddNode(std::string_view data) override {
    if (!txn_.active()) return Status::kNotActive;
    vertex_t id = txn_.AddVertex(data);
    if (id == kNullVertex) {
      // Capacity exhaustion leaves the transaction active and usable;
      // a lock timeout (fresh IDs cannot conflict, so effectively never)
      // already aborted it.
      return txn_.active() ? Status::kOutOfRange : Status::kTimeout;
    }
    return id;
  }

  Status UpdateNode(vertex_t id, std::string_view data) override {
    // LinkBench UPDATE_NODE only touches live nodes: tombstoned or
    // never-written IDs must fail rather than resurrect.
    if (!txn_.GetVertex(id).ok()) return Status::kNotFound;
    Status st = txn_.PutVertex(id, data);
    if (st == Status::kOk && pagesim_ != nullptr) {
      pagesim_->Touch(data.data(), data.size() + sizeof(VertexHeader), true);
    }
    return st;
  }

  Status DeleteNode(vertex_t id) override {
    if (!txn_.GetVertex(id).ok()) return Status::kNotFound;
    return txn_.DeleteVertex(id);
  }

  StatusOr<bool> AddLink(vertex_t src, label_t label, vertex_t dst,
                         std::string_view data) override {
    // Upsert: report whether this was a true insertion. AddEdge's own
    // existence probe answers it (Bloom-filter-fast for true inserts, §4).
    bool existed = false;
    Status st = txn_.AddEdge(src, label, dst, data, &existed);
    if (st != Status::kOk) return st;
    if (pagesim_ != nullptr) {
      pagesim_->Touch(data.data(), data.size() + sizeof(EdgeEntry), true);
    }
    return !existed;
  }

  Status UpdateLink(vertex_t src, label_t label, vertex_t dst,
                    std::string_view data) override {
    if (!txn_.GetEdge(src, label, dst).ok()) return Status::kNotFound;
    return txn_.AddEdge(src, label, dst, data);
  }

  Status DeleteLink(vertex_t src, label_t label, vertex_t dst) override {
    return txn_.DeleteEdge(src, label, dst);
  }

  StatusOr<bool> TryLockVertex(vertex_t v, int64_t waited_ns) override {
    return txn_.TryLockVertex(v, waited_ns);
  }

  // --- Lifecycle ---

  StatusOr<timestamp_t> Commit() override { return txn_.Commit(); }

  StatusOr<bool> TryCommit(timestamp_t* epoch) override {
    return txn_.TryCommit(epoch);
  }

  void Abort() override {
    if (txn_.active()) txn_.Abort();
  }

 private:
  Graph* graph_;
  Transaction txn_;
  PageCacheSim* pagesim_;
};

}  // namespace

LiveGraphStore::LiveGraphStore(GraphOptions options, PageCacheSim* pagesim)
    : owned_graph_(std::make_unique<Graph>(std::move(options))),
      graph_(owned_graph_.get()),
      pagesim_(pagesim) {}

LiveGraphStore::LiveGraphStore(GraphOptions options,
                               PageCacheSim::Options pagesim_options)
    : owned_graph_(std::make_unique<Graph>(std::move(options))),
      graph_(owned_graph_.get()),
      owned_pagesim_(std::make_unique<PageCacheSim>(pagesim_options)),
      pagesim_(owned_pagesim_.get()) {}

LiveGraphStore::LiveGraphStore(
    Graph& graph, std::optional<PageCacheSim::Options> pagesim_options)
    : graph_(&graph),
      owned_pagesim_(pagesim_options.has_value()
                         ? std::make_unique<PageCacheSim>(*pagesim_options)
                         : nullptr),
      pagesim_(owned_pagesim_.get()) {}

std::unique_ptr<StoreTxn> LiveGraphStore::BeginTxn() {
  return std::make_unique<LiveGraphWriteTxn>(graph_, pagesim_);
}

std::unique_ptr<StoreReadTxn> LiveGraphStore::BeginReadTxn() {
  return std::make_unique<LiveGraphReadTxn>(graph_, pagesim_);
}

}  // namespace livegraph
