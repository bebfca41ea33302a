// §7.2 "Long-running transactions and checkpoints": dump a consistent
// snapshot while LinkBench runs concurrently. Paper: checkpointing slows
// 22.5% under load; LinkBench throughput drops only 6.5% (single-thread
// checkpointer), 13.6% with 24 checkpoint threads.
//
// Also times recovery (§6: "first loads the latest checkpoint") from the
// idle N-thread checkpoint, with no WAL, and checks the recovered graph
// against the live one: vertex and per-label edge counts must match, or
// the bench exits 1.
//
// The engine is a one-shard durable directory (ShardedStore::Recover, the
// layout every durable server uses), served through shard 0's native
// sessions.
#include <filesystem>
#include <vector>

#include "bench/linkbench_tables.h"

namespace livegraph::bench {
namespace {

namespace fs = std::filesystem;

double CheckpointSeconds(ShardedStore* durable, int threads) {
  // Each timed checkpoint writes into an empty directory, as a first one
  // does: the previous checkpoint is moved aside (a checkpoint of the
  // epoch the manifest already records would be a no-op, and deleting
  // the previous one inside the timer would time the file system).
  static int moved = 0;
  const std::string root = durable->dir() + "/shard0/checkpoint";
  for (const auto& entry : fs::directory_iterator(root)) {
    fs::rename(entry.path(), durable->dir() + "/previous_" +
                                 std::to_string(moved++));
  }
  fs::remove(durable->dir() + "/MANIFEST");
  Timer timer;
  durable->Checkpoint(threads);
  return timer.Seconds();
}

/// {vertex ID bound, live vertices, edges of label 0..3} at the latest
/// snapshot. LinkBench writes label 0 only; the others must stay empty on
/// both sides.
std::vector<uint64_t> Census(Graph& graph) {
  constexpr label_t kLabels = 4;
  std::vector<uint64_t> counts(2 + kLabels, 0);
  counts[0] = static_cast<uint64_t>(graph.VertexCount());
  ReadTransaction read = graph.BeginReadOnlyTransaction();
  for (vertex_t v = 0; v < graph.VertexCount(); ++v) {
    if (read.GetVertex(v).has_value()) ++counts[1];
    for (label_t label = 0; label < kLabels; ++label) {
      counts[2 + label] += read.CountEdges(v, label);
    }
  }
  return counts;
}

}  // namespace
}  // namespace livegraph::bench

int main() {
  using namespace livegraph;
  using namespace livegraph::bench;
  std::string dir = "/tmp/livegraph_ckpt_bench_" + std::to_string(::getpid());

  LinkBenchConfig config = DefaultLinkBenchConfig();
  config.ops_per_client = static_cast<uint64_t>(EnvInt("LG_OPS", 30'000));
  ShardOptions options;
  options.shards = 1;
  options.dir = dir + "/live";
  options.graph = BenchGraphOptions(/*wal=*/true);
  std::unique_ptr<ShardedStore> durable = ShardedStore::Recover(options);
  LiveGraphStore store(durable->shard(0));
  vertex_t n = LoadLinkBenchGraph(&store, config);

  std::printf("=== §7.2 checkpointing under load ===\n");
  // Baselines: idle checkpoint and idle workload.
  double idle_ckpt_1t = CheckpointSeconds(durable.get(), 1);
  double idle_ckpt_nt = CheckpointSeconds(
      durable.get(), static_cast<int>(EnvInt("LG_CKPT_THREADS", 8)));

  // Recovery from the idle checkpoint alone (the directory without its
  // WAL, its files hard-linked), checked against the live graph it was
  // taken from (nothing has committed since).
  ShardOptions recover_options = options;
  recover_options.dir = dir + "/recovered";
  fs::create_directories(recover_options.dir + "/shard0");
  fs::copy(options.dir + "/MANIFEST", recover_options.dir + "/MANIFEST");
  fs::copy(options.dir + "/shard0/checkpoint",
           recover_options.dir + "/shard0/checkpoint",
           fs::copy_options::recursive | fs::copy_options::create_hard_links);
  Timer recover_timer;
  std::unique_ptr<ShardedStore> recovered =
      ShardedStore::Recover(recover_options);
  const double recover_s = recover_timer.Seconds();
  const bool recovered_ok =
      recovered != nullptr &&
      Census(recovered->shard(0)) == Census(store.graph());
  recovered.reset();

  DriverResult solo = RunLinkBench(&store, config, n);

  // Concurrent: checkpoint in a thread while LinkBench runs.
  double loaded_ckpt = 0;
  std::thread checkpointer(
      [&] { loaded_ckpt = CheckpointSeconds(durable.get(), 1); });
  DriverResult loaded = RunLinkBench(&store, config, n);
  checkpointer.join();

  std::printf("%-34s %10.3fs\n", "checkpoint (1 thread, idle)", idle_ckpt_1t);
  std::printf("%-34s %10.3fs\n", "checkpoint (N threads, idle)", idle_ckpt_nt);
  std::printf("%-34s %10.3fs  (%s)\n", "recovery (checkpoint, no WAL)",
              recover_s,
              recovered_ok ? "matches the live graph" : "MISMATCH");
  std::printf("%-34s %10.3fs  (%+.1f%% vs idle)\n",
              "checkpoint (1 thread, under load)", loaded_ckpt,
              100.0 * (loaded_ckpt / idle_ckpt_1t - 1.0));
  std::printf("%-34s %10.0f reqs/s\n", "LinkBench solo", solo.throughput());
  std::printf("%-34s %10.0f reqs/s  (%+.1f%%)\n",
              "LinkBench with concurrent ckpt", loaded.throughput(),
              100.0 * (loaded.throughput() / solo.throughput() - 1.0));
  std::printf("\npaper: ckpt +22.5%% under load; workload -6.5%%\n");
  std::filesystem::remove_all(dir);
  if (!recovered_ok) {
    std::fprintf(stderr,
                 "checkpoint_bench: the recovered graph does not match the "
                 "live graph\n");
    return 1;
  }
  return 0;
}
