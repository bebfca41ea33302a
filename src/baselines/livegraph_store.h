// Store adaptor over the LiveGraph engine: sessions map 1:1 onto the
// native Transaction/ReadTransaction MVCC objects — the way the paper's
// harness drives the embedded stores (§7.1). Scans hand back the core
// EdgeIterator inside an EdgeCursor, so the purely sequential TEL walk
// (§4) reaches drivers with no callback, no virtual call and no
// allocation per edge.
#ifndef LIVEGRAPH_BASELINES_LIVEGRAPH_STORE_H_
#define LIVEGRAPH_BASELINES_LIVEGRAPH_STORE_H_

#include <memory>
#include <string>
#include <utility>

#include "api/store.h"
#include "baselines/paged_store.h"
#include "core/graph.h"
#include "core/transaction.h"

namespace livegraph {

class LiveGraphStore : public Store {
 public:
  explicit LiveGraphStore(GraphOptions options = {},
                          PageCacheSim* pagesim = nullptr);

  /// Out-of-core configuration ("Paged" engine): owns its page-cache
  /// simulator, charging device latencies for every byte range scans and
  /// lookups actually walk (paper Tables 5/6/8).
  LiveGraphStore(GraphOptions options, PageCacheSim::Options pagesim_options);

  /// Adopts an already-built engine — the restart path: wrap the graph
  /// returned by Graph::Recover (§6) behind the Store surface.
  explicit LiveGraphStore(std::unique_ptr<Graph> graph);

  /// Restart path for the out-of-core configuration: a recovered engine
  /// plus an owned page-cache simulator.
  LiveGraphStore(std::unique_ptr<Graph> graph,
                 PageCacheSim::Options pagesim_options);

  std::string Name() const override {
    return owned_pagesim_ != nullptr ? "PagedLiveGraph" : "LiveGraph";
  }
  StoreTraits Traits() const override {
    return StoreTraits{/*time_ordered_scans=*/true, /*snapshot_reads=*/true,
                       /*transactional_writes=*/true};
  }

  std::unique_ptr<StoreTxn> BeginTxn() override;
  std::unique_ptr<StoreReadTxn> BeginReadTxn() override;

  void SetCommitWake(std::function<void()> wake) override {
    graph_->SetCommitWake(std::move(wake));
  }

  Graph& graph() { return *graph_; }

 private:
  std::unique_ptr<Graph> graph_;
  std::unique_ptr<PageCacheSim> owned_pagesim_;
  PageCacheSim* pagesim_;
};

}  // namespace livegraph

#endif  // LIVEGRAPH_BASELINES_LIVEGRAPH_STORE_H_
