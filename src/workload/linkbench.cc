#include "workload/linkbench.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>
#include <vector>

#include "util/random.h"
#include "util/zipf.h"
#include "workload/kronecker.h"

namespace livegraph {

namespace {

constexpr label_t kLinkType = 0;

// LinkBench paper's default operation mix (percent).
constexpr double kDflt[kNumLinkBenchOps] = {
    /*AddNode*/ 2.6,    /*UpdateNode*/ 7.4, /*DeleteNode*/ 1.0,
    /*GetNode*/ 12.9,   /*AddLink*/ 9.0,    /*DeleteLink*/ 3.0,
    /*UpdateLink*/ 8.0, /*CountLink*/ 4.9,  /*MultigetLink*/ 0.5,
    /*GetLinkList*/ 50.7};

// TAO: 99.8% reads split per the TAO paper; 0.2% writes split by TAO's
// write breakdown (assoc_add dominating).
constexpr double kTao[kNumLinkBenchOps] = {
    /*AddNode*/ 0.033,   /*UpdateNode*/ 0.041, /*DeleteNode*/ 0.004,
    /*GetNode*/ 28.842,  /*AddLink*/ 0.105,    /*DeleteLink*/ 0.017,
    /*UpdateLink*/ 0.0,  /*CountLink*/ 11.677, /*MultigetLink*/ 15.669,
    /*GetLinkList*/ 43.612};

constexpr bool kIsWrite[kNumLinkBenchOps] = {true,  true,  true, false, true,
                                             true,  true,  false, false, false};

LinkBenchMix Normalize(const double (&raw)[kNumLinkBenchOps]) {
  LinkBenchMix mix{};
  double sum = 0;
  for (double v : raw) sum += v;
  for (int i = 0; i < kNumLinkBenchOps; ++i) mix[size_t(i)] = raw[i] / sum;
  return mix;
}

/// Stable counting sort of `edges` by source in O(E + V). Generation order
/// scatters each 4096-edge load batch over ~4000 random vertices; grouped
/// by source, a batch covers one contiguous run of sources and writes each
/// of their TELs back to back. Stability keeps every source's edges in
/// generation order, so each TEL receives the same upserts in the same
/// order and scans back identically.
std::vector<std::pair<vertex_t, vertex_t>> SortedBySource(
    const std::vector<std::pair<vertex_t, vertex_t>>& edges, vertex_t n) {
  std::vector<size_t> next(static_cast<size_t>(n) + 1, 0);
  for (const auto& edge : edges) ++next[static_cast<size_t>(edge.first) + 1];
  for (size_t v = 1; v < next.size(); ++v) next[v] += next[v - 1];
  std::vector<std::pair<vertex_t, vertex_t>> sorted(edges.size());
  for (const auto& edge : edges) {
    sorted[next[static_cast<size_t>(edge.first)]++] = edge;
  }
  return sorted;
}

}  // namespace

LinkBenchMix DfltMix() { return Normalize(kDflt); }
LinkBenchMix TaoMix() { return Normalize(kTao); }

LinkBenchMix MixWithWriteRatio(double write_fraction) {
  LinkBenchMix base = DfltMix();
  double write_sum = 0, read_sum = 0;
  for (int i = 0; i < kNumLinkBenchOps; ++i) {
    (kIsWrite[i] ? write_sum : read_sum) += base[size_t(i)];
  }
  LinkBenchMix mix{};
  for (int i = 0; i < kNumLinkBenchOps; ++i) {
    mix[size_t(i)] = kIsWrite[i]
                         ? base[size_t(i)] / write_sum * write_fraction
                         : base[size_t(i)] / read_sum * (1.0 - write_fraction);
  }
  return mix;
}

const char* LinkBenchOpName(LinkBenchOp op) {
  static const char* kNames[] = {"ADD_NODE",    "UPDATE_NODE", "DELETE_NODE",
                                 "GET_NODE",    "ADD_LINK",    "DELETE_LINK",
                                 "UPDATE_LINK", "COUNT_LINK",  "MULTIGET_LINK",
                                 "GET_LINKS_LIST"};
  return kNames[static_cast<int>(op)];
}

vertex_t LoadLinkBenchGraph(Store* store, const LinkBenchConfig& config) {
  // Bulk load through batched sessions: one commit per kLoadBatch staged
  // operations amortizes the persist phase (and, on latch-based engines,
  // the latch round trip) across the batch. Each batch goes through
  // RunWrite so a conflicting/timed-out commit replays the whole batch
  // instead of silently dropping it; a terminally failed batch is loud.
  constexpr size_t kLoadBatch = 4096;
  auto load_batch = [store](auto&& stage_fn) {
    Status st = RunWrite(*store, stage_fn);
    if (st != Status::kOk) {
      std::fprintf(stderr, "LoadLinkBenchGraph: batch failed: %s\n",
                   StatusName(st));
    }
  };

  const auto n = vertex_t{1} << config.scale;
  std::string payload(config.payload_bytes, 'v');
  for (vertex_t base = 0; base < n; base += kLoadBatch) {
    vertex_t count = std::min<vertex_t>(kLoadBatch, n - base);
    load_batch([&](StoreTxn& txn) -> Status {
      for (vertex_t i = 0; i < count; ++i) {
        StatusOr<vertex_t> added = txn.AddNode(payload);
        if (!added.ok()) return added.status();
      }
      return Status::kOk;
    });
  }

  KroneckerOptions kron;
  kron.scale = config.scale;
  kron.average_degree = 4;
  kron.seed = config.seed;
  std::string link_payload(config.payload_bytes, 'e');
  const auto edges = SortedBySource(GenerateKronecker(kron), n);
  for (size_t base = 0; base < edges.size(); base += kLoadBatch) {
    size_t end = std::min(base + kLoadBatch, edges.size());
    load_batch([&](StoreTxn& txn) -> Status {
      for (size_t i = base; i < end; ++i) {
        const auto& [src, dst] = edges[i];
        Status st = txn.AddLink(src, kLinkType, dst, link_payload).status();
        if (st != Status::kOk) return st;
      }
      return Status::kOk;
    });
  }
  return n;
}

DriverResult RunLinkBench(Store* store, const LinkBenchConfig& config,
                          vertex_t vertex_count) {
  // Cumulative distribution over ops.
  std::array<double, kNumLinkBenchOps> cdf{};
  double acc = 0;
  for (int i = 0; i < kNumLinkBenchOps; ++i) {
    acc += config.mix[size_t(i)];
    cdf[size_t(i)] = acc;
  }
  ScrambledZipf zipf(static_cast<uint64_t>(vertex_count), config.zipf_theta,
                     config.seed);
  std::string payload(config.payload_bytes, 'w');
  // New nodes appended during the run extend the ID space.
  std::atomic<vertex_t> max_vertex{vertex_count};

  DriverOptions driver;
  driver.clients = config.clients;
  driver.ops_per_client = config.ops_per_client;
  driver.think_time_ns = config.think_time_ns;

  auto client_op = [&, store](int client, uint64_t /*op_index*/) -> OpResult {
    thread_local Xorshift rng(config.seed * 7919 +
                              static_cast<uint64_t>(client) + 1);
    double r = rng.NextDouble();
    int op_index = 0;
    while (op_index < kNumLinkBenchOps - 1 && r > cdf[size_t(op_index)]) {
      op_index++;
    }
    auto op = static_cast<LinkBenchOp>(op_index);
    const char* name = LinkBenchOpName(op);
    // kNotFound is a logical outcome on zipf-sampled ids (updating a
    // deleted node, reading a missing link); everything else non-OK —
    // exhausted conflict retries, lock timeouts, an unreachable remote
    // store — is a failed request and must not count as served load.
    auto outcome = [name](Status st) {
      return st == Status::kOk || st == Status::kNotFound ? OpResult(name)
                                                          : FailedOp(name, st);
    };
    vertex_t id1 = static_cast<vertex_t>(zipf.Sample(rng));
    vertex_t id2 = static_cast<vertex_t>(zipf.Sample(rng));
    switch (op) {
      case LinkBenchOp::kAddNode: {
        vertex_t v = kNullVertex;
        Status st = RunWrite(*store, [&](StoreTxn& txn) -> Status {
          StatusOr<vertex_t> added = txn.AddNode(payload);
          if (!added.ok()) return added.status();
          v = *added;
          return Status::kOk;
        });
        if (st != Status::kOk) return FailedOp(name, st);
        // relaxed monotone-max CAS: max_vertex only seeds the ID picker —
        // a stale bound just re-targets recent vertices; no data rides on
        // it.
        vertex_t expected = max_vertex.load(std::memory_order_relaxed);
        while (v >= expected && !max_vertex.compare_exchange_weak(
                                    expected, v + 1,
                                    std::memory_order_relaxed)) {
        }
        return name;
      }
      case LinkBenchOp::kUpdateNode:
        return outcome(RunWrite(
            *store, [&](StoreTxn& txn) { return txn.UpdateNode(id1, payload); }));
      case LinkBenchOp::kDeleteNode:
        return outcome(RunWrite(
            *store, [&](StoreTxn& txn) { return txn.DeleteNode(id1); }));
      case LinkBenchOp::kGetNode:
        return outcome(store->BeginReadTxn()->GetNode(id1).status());
      case LinkBenchOp::kAddLink:
        return outcome(RunWrite(*store, [&](StoreTxn& txn) {
          return txn.AddLink(id1, kLinkType, id2, payload).status();
        }));
      case LinkBenchOp::kDeleteLink:
        return outcome(RunWrite(*store, [&](StoreTxn& txn) {
          return txn.DeleteLink(id1, kLinkType, id2);
        }));
      case LinkBenchOp::kUpdateLink:
        return outcome(RunWrite(*store, [&](StoreTxn& txn) {  // upsert
          return txn.AddLink(id1, kLinkType, id2, payload).status();
        }));
      case LinkBenchOp::kCountLink: {
        // CountLinks has no status channel; the session's health says
        // whether the count was real or a dead connection's zero.
        auto read = store->BeginReadTxn();
        read->CountLinks(id1, kLinkType);
        return outcome(read->SessionStatus());
      }
      case LinkBenchOp::kMultigetLink:
        return outcome(
            store->BeginReadTxn()->GetLink(id1, kLinkType, id2).status());
      case LinkBenchOp::kGetLinkList:
      default: {
        // GET_LINKS_LIST: bounded newest-first range scan. Passing the
        // limit keeps materializing engines O(limit); LiveGraph's lazy
        // cursor is additionally bounded by consumption.
        std::unique_ptr<StoreReadTxn> read = store->BeginReadTxn();
        size_t remaining = config.range_limit;
        for (EdgeCursor cursor =
                 read->ScanLinks(id1, kLinkType, config.range_limit);
             cursor.Valid() && remaining > 0; cursor.Next()) {
          --remaining;
        }
        return outcome(read->SessionStatus());
      }
    }
  };
  return RunClients(driver, client_op);
}

}  // namespace livegraph
