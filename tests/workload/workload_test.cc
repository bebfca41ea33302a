#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "baselines/csr.h"
#include "baselines/livegraph_store.h"
#include "workload/kronecker.h"
#include "workload/linkbench.h"

namespace livegraph {
namespace {

TEST(Kronecker, EdgeCountAndRange) {
  KroneckerOptions options;
  options.scale = 12;
  options.average_degree = 4;
  auto edges = GenerateKronecker(options);
  EXPECT_EQ(edges.size(), size_t{1} << 14);
  for (const auto& [src, dst] : edges) {
    ASSERT_GE(src, 0);
    ASSERT_LT(src, vertex_t{1} << 12);
    ASSERT_GE(dst, 0);
    ASSERT_LT(dst, vertex_t{1} << 12);
  }
}

TEST(Kronecker, Deterministic) {
  KroneckerOptions options;
  options.scale = 10;
  auto a = GenerateKronecker(options);
  auto b = GenerateKronecker(options);
  EXPECT_EQ(a, b);
  options.seed++;
  auto c = GenerateKronecker(options);
  EXPECT_NE(a, c);
}

// Pins the generator's exact output: a change to the quadrant choice or
// the RNG stream would silently change every loaded graph.
TEST(Kronecker, GoldenDigest) {
  KroneckerOptions options;
  options.scale = 12;
  options.seed = 2026;
  auto edges = GenerateKronecker(options);
  uint64_t digest = 1469598103934665603ull;  // FNV-1a over (src, dst) LE
  auto mix = [&digest](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (value >> (8 * i)) & 0xFF;
      digest *= 1099511628211ull;
    }
  };
  for (const auto& [src, dst] : edges) {
    mix(static_cast<uint64_t>(src));
    mix(static_cast<uint64_t>(dst));
  }
  EXPECT_EQ(edges.size(), size_t{1} << 14);
  EXPECT_EQ(digest, 0xa12cb86bb04d1a8bull);
}

TEST(Kronecker, PowerLawSkew) {
  KroneckerOptions options;
  options.scale = 14;
  auto edges = GenerateKronecker(options);
  std::map<vertex_t, int64_t> degree;
  for (const auto& [src, dst] : edges) degree[src]++;
  // Top 1% of vertices should hold a disproportionate share of edges.
  std::vector<int64_t> degrees;
  for (auto& [v, d] : degree) degrees.push_back(d);
  std::sort(degrees.rbegin(), degrees.rend());
  size_t top = degrees.size() / 100 + 1;
  int64_t top_sum = std::accumulate(degrees.begin(), degrees.begin() + top, int64_t{0});
  int64_t total = std::accumulate(degrees.begin(), degrees.end(), int64_t{0});
  EXPECT_GT(top_sum * 5, total)
      << "top 1% should account for >20% of edges under R-MAT skew";
}

TEST(Csr, FromEdgesRoundTrip) {
  std::vector<std::pair<vertex_t, vertex_t>> edges = {
      {0, 1}, {0, 2}, {2, 0}, {2, 1}, {2, 3}, {3, 3}};
  Csr csr = Csr::FromEdges(4, edges);
  EXPECT_EQ(csr.vertex_count(), 4);
  EXPECT_EQ(csr.edge_count(), 6);
  EXPECT_EQ(csr.Degree(0), 2);
  EXPECT_EQ(csr.Degree(1), 0);
  EXPECT_EQ(csr.Degree(2), 3);
  EXPECT_EQ(csr.Degree(3), 1);
  auto n2 = csr.Neighbors(2);
  EXPECT_EQ(std::vector<vertex_t>(n2.begin(), n2.end()),
            (std::vector<vertex_t>{0, 1, 3}));
}

TEST(LinkBenchMixes, SumToOneAndMatchPaperReadRatios) {
  auto sum = [](const LinkBenchMix& mix) {
    double s = 0;
    for (double v : mix) s += v;
    return s;
  };
  EXPECT_NEAR(sum(DfltMix()), 1.0, 1e-9);
  EXPECT_NEAR(sum(TaoMix()), 1.0, 1e-9);
  // DFLT: 69% reads (GET_NODE + COUNT + MULTIGET + GET_LINKS_LIST).
  auto dflt = DfltMix();
  double dflt_reads = dflt[3] + dflt[7] + dflt[8] + dflt[9];
  EXPECT_NEAR(dflt_reads, 0.69, 0.005);
  // TAO: 99.8% reads.
  auto tao = TaoMix();
  double tao_reads = tao[3] + tao[7] + tao[8] + tao[9];
  EXPECT_NEAR(tao_reads, 0.998, 0.001);
}

TEST(LinkBenchMixes, WriteRatioInterpolation) {
  for (double w : {0.25, 0.5, 0.75, 1.0}) {
    auto mix = MixWithWriteRatio(w);
    double writes = mix[0] + mix[1] + mix[2] + mix[4] + mix[5] + mix[6];
    EXPECT_NEAR(writes, w, 1e-9) << "target " << w;
  }
}

TEST(Driver, CountsFailuresSeparatelyFromThroughput) {
  DriverOptions options;
  options.clients = 4;
  options.ops_per_client = 100;
  DriverResult result =
      RunClients(options, [](int /*client*/, uint64_t i) -> OpResult {
        if (i % 4 != 0) return OpResult("flaky");
        return FailedOp("flaky",
                        i % 8 == 0 ? Status::kTimeout : Status::kConflict);
      });
  EXPECT_EQ(result.failures, 100u);
  // Each failure is counted under the status it reported.
  EXPECT_EQ(result.failures_by_status,
            (std::map<Status, uint64_t>{{Status::kTimeout, 52},
                                        {Status::kConflict, 48}}));
  EXPECT_EQ(result.operations, 300u);
  EXPECT_NEAR(result.failure_rate(), 0.25, 1e-9);
  // Latency is recorded for failed attempts too — the client paid it.
  EXPECT_EQ(result.overall.count(), 400u);
}

TEST(LinkBench, EndToEndSmokeOnLiveGraph) {
  GraphOptions graph_options;
  graph_options.region_reserve = size_t{1} << 31;
  graph_options.max_vertices = 1 << 20;
  LiveGraphStore store(graph_options);
  LinkBenchConfig config;
  config.scale = 10;  // 1K vertices, ~4K edges
  config.clients = 4;
  config.ops_per_client = 2000;
  vertex_t n = LoadLinkBenchGraph(&store, config);
  EXPECT_EQ(n, vertex_t{1} << 10);
  DriverResult result = RunLinkBench(&store, config, n);
  EXPECT_EQ(result.operations + result.failures, 8000u);
  EXPECT_LE(result.failure_rate(), 0.01)
      << "an embedded store at this scale should serve nearly every request";
  EXPECT_GT(result.throughput(), 0.0);
  EXPECT_GT(result.overall.count(), 0u);
  // All ten op classes should appear at this op count.
  EXPECT_GE(result.per_class.size(), 8u);
  // Latency sanity: p999 >= p99 >= mean ordering of the histogram.
  EXPECT_GE(result.overall.PercentileNanos(0.999),
            result.overall.PercentileNanos(0.99));
}

// The loader may reorder edges across sources, never within one: every
// TEL must hold exactly what applying the generated edges in generation
// order gives — one entry per distinct destination (repeats are upserts),
// newest first by last occurrence.
TEST(LinkBench, LoadMatchesGenerationOrderModel) {
  GraphOptions graph_options;
  graph_options.region_reserve = size_t{1} << 31;
  graph_options.max_vertices = 1 << 20;
  LiveGraphStore store(graph_options);
  LinkBenchConfig config;
  config.scale = 11;
  const vertex_t n = LoadLinkBenchGraph(&store, config);
  ASSERT_EQ(n, vertex_t{1} << 11);

  KroneckerOptions kron;
  kron.scale = config.scale;
  kron.average_degree = 4;
  kron.seed = config.seed;
  std::vector<std::vector<vertex_t>> generated(static_cast<size_t>(n));
  for (const auto& [src, dst] : GenerateKronecker(kron)) {
    generated[static_cast<size_t>(src)].push_back(dst);
  }

  auto read = store.BeginReadTxn();
  size_t edges = 0;
  for (vertex_t v = 0; v < n; ++v) {
    const auto& applied = generated[static_cast<size_t>(v)];
    std::vector<vertex_t> expected;
    std::set<vertex_t> seen;
    for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
      if (seen.insert(*it).second) expected.push_back(*it);
    }
    std::vector<vertex_t> scanned;
    for (EdgeCursor c = read->ScanLinks(v, /*label=*/0); c.Valid(); c.Next()) {
      scanned.push_back(c.dst());
    }
    ASSERT_EQ(scanned, expected) << "adjacency of vertex " << v;
    edges += scanned.size();
  }
  EXPECT_GT(edges, size_t{1} << 12);
}

}  // namespace
}  // namespace livegraph
