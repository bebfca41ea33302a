// Figure 7a: LiveGraph multi-core scalability on TAO and DFLT (paper:
// near-ideal for TAO until physical cores exhausted; DFLT limited by WAL).
// Figure 7b: TEL block-size distribution after the run — the power-law
// degree distribution mapped onto power-of-2 blocks ("validating TEL's
// buddy-system design").
//
// `--json` switches stdout to a single machine-readable JSON document
// (used by the CI perf smoke and the BENCH_shard.json recordings); the
// human tables are suppressed.
//
// `--shards=N` runs the same sweep over the hash-partitioned
// ShardedLiveGraph engine (docs/SHARDING.md) — N commit pipelines, N lock
// arrays — which is how BENCH_shard.json's 1-vs-4-shard rows are recorded.
#include <cstring>
#include <map>
#include <vector>

#include "bench/linkbench_tables.h"

namespace {

struct Row {
  std::string mix;
  int clients;
  double throughput;
  uint64_t failures;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace livegraph;
  using namespace livegraph::bench;

  bool json = false;
  bool dump_metrics = false;
  int shards = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--dump-metrics") == 0) dump_metrics = true;
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::atoi(argv[i] + 9);
    }
  }

  std::vector<Row> rows;
  uint64_t ops_per_client = static_cast<uint64_t>(EnvInt("LG_OPS", 20'000));

  if (!json) {
    std::printf("=== Figure 7a: %s scalability ===\n",
                shards > 1 ? "ShardedLiveGraph" : "LiveGraph");
    std::printf("%-8s %8s %14s %14s %10s\n", "mix", "clients", "reqs/s",
                "ideal", "eff");
  }
  LiveGraphStore* dflt_store_keepalive = nullptr;
  std::unique_ptr<Store> dflt_store;
  for (const auto& [name, mix] :
       std::map<std::string, livegraph::LinkBenchMix>{
           {"TAO", livegraph::TaoMix()}, {"DFLT", livegraph::DfltMix()}}) {
    LinkBenchConfig config = DefaultLinkBenchConfig();
    config.mix = mix;
    config.ops_per_client = ops_per_client;
    auto store = MakeStore("LiveGraph", nullptr, /*wal=*/true, shards);
    vertex_t n = LoadLinkBenchGraph(store.get(), config);
    double base_throughput = 0;
    for (int clients : {1, 2, 4, 8, 16}) {
      if (clients > EnvInt("LG_MAX_CLIENTS", 16)) break;
      config.clients = clients;
      DriverResult result = RunLinkBench(store.get(), config, n);
      if (clients == 1) base_throughput = result.throughput();
      double ideal = base_throughput * clients;
      rows.push_back(Row{name, clients, result.throughput(), result.failures});
      if (!json) {
        std::printf("%-8s %8d %14.0f %14.0f %9.0f%%\n", name.c_str(), clients,
                    result.throughput(), ideal,
                    ideal > 0 ? 100.0 * result.throughput() / ideal : 0.0);
      }
    }
    if (name == "DFLT" && shards == 1) {
      dflt_store = std::move(store);
      dflt_store_keepalive =
          static_cast<LiveGraphStore*>(dflt_store.get());
    }
  }

  if (json) {
    std::printf("{\n  \"bench\": \"fig7_scalability\",\n");
    std::printf("  \"shards\": %d,\n", shards);
    std::printf("  \"ops_per_client\": %llu,\n",
                static_cast<unsigned long long>(ops_per_client));
    std::printf("  \"rows\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      std::printf("    {\"mix\": \"%s\", \"clients\": %d, "
                  "\"throughput\": %.0f, \"failures\": %llu}%s\n",
                  rows[i].mix.c_str(), rows[i].clients, rows[i].throughput,
                  static_cast<unsigned long long>(rows[i].failures),
                  i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ]%s\n", dump_metrics ? "," : "");
    if (dump_metrics) {
      std::printf("  \"metrics\": %s\n", MetricsJson().c_str());
    }
    std::printf("}\n");
    return 0;
  }

  if (dflt_store_keepalive != nullptr) {
    std::printf("\n=== Figure 7b: TEL block size distribution ===\n");
    std::printf("%-12s %12s\n", "bytes", "blocks");
    for (const auto& [size, count] :
         dflt_store_keepalive->graph().CollectTelSizeHistogram()) {
      std::printf("%-12zu %12zu\n", size, count);
    }
  }
  return 0;
}
