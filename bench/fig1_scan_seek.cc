// Figure 1 (+ Table 1): adjacency-list seek and per-edge scan latency of
// TEL vs LSMT vs B+ tree vs linked list vs CSR on Kronecker graphs across
// scales, start vertices drawn from a power-law (§2.1).
//
// Paper setup: scales 2^20..2^26, 10^8 scans. Defaults here are trimmed
// (LG_MIN_SCALE/LG_MAX_SCALE/LG_SAMPLES env to go bigger). The expected
// shape: seeks — CSR ~ TEL (O(1)) << B+ tree < LSMT (logarithmic + runs);
// scans — CSR < TEL << B+ tree < LSMT < linked list.
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "baselines/csr.h"
#include "bench/bench_common.h"
#include "core/transaction.h"
#include "util/zipf.h"
#include "workload/kronecker.h"

namespace livegraph::bench {
namespace {

struct Measurement {
  double seek_us_per_vertex;
  double scan_ns_per_edge;
};

volatile int64_t g_sink;  // defeat dead-code elimination

template <typename Seek, typename Scan>
Measurement Measure(uint64_t n, uint64_t samples, uint64_t seed,
                    const Seek& seek, const Scan& scan) {
  ScrambledZipf zipf(n, 0.99, seed);
  Xorshift rng(seed);
  std::vector<vertex_t> starts(samples);
  for (auto& v : starts) v = static_cast<vertex_t>(zipf.Sample(rng));

  Measurement m;
  {
    Timer timer;
    int64_t acc = 0;
    for (vertex_t v : starts) acc += seek(v);
    g_sink = acc;
    m.seek_us_per_vertex = timer.Seconds() * 1e6 / double(samples);
  }
  {
    Timer timer;
    int64_t edges = 0;
    for (vertex_t v : starts) edges += scan(v);
    g_sink = edges;
    m.scan_ns_per_edge =
        edges > 0 ? timer.Seconds() * 1e9 / double(edges) : 0.0;
  }
  return m;
}

void Row(const char* name, int scale, const Measurement& m) {
  std::printf("%-12s 2^%-3d %14.4f %14.2f\n", name, scale,
              m.seek_us_per_vertex, m.scan_ns_per_edge);
}

}  // namespace

void Run() {
  const int min_scale = static_cast<int>(EnvInt("LG_MIN_SCALE", 14));
  const int max_scale = static_cast<int>(EnvInt("LG_MAX_SCALE", 18));
  const auto samples = static_cast<uint64_t>(EnvInt("LG_SAMPLES", 200'000));

  std::printf("Figure 1: adjacency list scan micro-benchmark\n");
  std::printf("(paper: |V| 2^20..2^26; here 2^%d..2^%d, set by "
              "LG_MIN_SCALE/LG_MAX_SCALE)\n",
              min_scale, max_scale);
  std::printf("%-12s %-5s %14s %14s\n", "structure", "|V|", "seek(us/vtx)",
              "scan(ns/edge)");

  for (int scale = min_scale; scale <= max_scale; scale += 2) {
    const uint64_t n = uint64_t{1} << scale;
    KroneckerOptions kron;
    kron.scale = scale;
    kron.average_degree = 4;
    auto edges = GenerateKronecker(kron);

    // --- TEL (LiveGraph) ---
    {
      Graph graph(BenchGraphOptions());
      auto txn = graph.BeginTransaction();
      for (uint64_t v = 0; v < n; ++v) txn.AddVertex();
      for (auto& [src, dst] : edges) txn.AddEdge(src, 0, dst);
      if (txn.Commit() != Status::kOk) return;
      auto read = graph.BeginReadOnlyTransaction();
      Row("TEL", scale,
          Measure(
              n, samples, 1,
              [&](vertex_t v) {
                auto it = read.GetEdges(v, 0);
                return it.Valid() ? it.DstId() : 0;
              },
              [&](vertex_t v) {
                int64_t count = 0;
                for (auto it = read.GetEdges(v, 0); it.Valid(); it.Next()) {
                  g_sink = it.DstId();
                  count++;
                }
                return count;
              }));
    }

    // --- LSMT ---
    {
      Lsmt lsmt;
      for (auto& [src, dst] : edges) lsmt.Put(EdgeKey{src, 0, dst}, {});
      auto scan_all = [&](vertex_t v) {
        int64_t count = 0;
        lsmt.Scan(EdgeKey{v, 0, INT64_MIN}, EdgeKey{v, 1, INT64_MIN},
                  [&count](const EdgeKey& key, std::string_view) {
                    g_sink = key.dst;
                    count++;
                    return true;
                  });
        return count;
      };
      Row("LSMT", scale,
          Measure(
              n, samples, 2,
              [&](vertex_t v) {
                int64_t first = 0;
                lsmt.Scan(EdgeKey{v, 0, INT64_MIN}, EdgeKey{v, 1, INT64_MIN},
                          [&first](const EdgeKey& key, std::string_view) {
                            first = key.dst;
                            return false;  // seek = position only
                          });
                return first;
              },
              scan_all));
    }

    // --- B+ tree ---
    {
      BPlusTree tree;
      for (auto& [src, dst] : edges) tree.Insert(EdgeKey{src, 0, dst}, {});
      Row("B+Tree", scale,
          Measure(
              n, samples, 3,
              [&](vertex_t v) {
                auto it = tree.LowerBound(EdgeKey{v, 0, INT64_MIN});
                return it.Valid() ? it.key().dst : 0;
              },
              [&](vertex_t v) {
                int64_t count = 0;
                for (auto it = tree.LowerBound(EdgeKey{v, 0, INT64_MIN});
                     it.Valid() && it.key().src == v; it.Next()) {
                  g_sink = it.key().dst;
                  count++;
                }
                return count;
              }));
    }

    // --- Linked list ---
    {
      LinkedListStore list;
      for (uint64_t v = 0; v < n; ++v) list.AddNode({});
      for (auto& [src, dst] : edges) list.AddLink(src, 0, dst, {});
      // Walk the raw chain (single-threaded): the measurement is the
      // pointer chase itself, not session or cursor machinery.
      Row("LinkedList", scale,
          Measure(
              n, samples, 4,
              [&](vertex_t v) {
                const auto* node = list.head(v);
                return node != nullptr ? node->dst : 0;
              },
              [&](vertex_t v) {
                int64_t count = 0;
                for (const auto* node = list.head(v); node != nullptr;
                     node = node->next) {
                  g_sink = node->dst;
                  count++;
                }
                return count;
              }));
    }

    // --- CSR (read-only reference) ---
    {
      Csr csr = Csr::FromEdges(static_cast<vertex_t>(n), edges);
      Row("CSR", scale,
          Measure(
              n, samples, 5,
              [&](vertex_t v) {
                auto span = csr.Neighbors(v);
                return span.empty() ? 0 : span.front();
              },
              [&](vertex_t v) {
                int64_t count = 0;
                for (vertex_t dst : csr.Neighbors(v)) {
                  g_sink = dst;
                  count++;
                }
                return count;
              }));
    }
    std::printf("\n");
  }
}

}  // namespace livegraph::bench

int main() {
  livegraph::bench::Run();
  return 0;
}
