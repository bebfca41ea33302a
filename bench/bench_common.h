// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every bench prints the corresponding paper table/figure as aligned text.
// Scales default small enough that the full suite completes in minutes;
// env overrides (LG_SCALE, LG_OPS, LG_CLIENTS, LG_FSYNC_WAL, ...) reproduce
// paper-sized runs when hardware/time permits.
#ifndef LIVEGRAPH_BENCH_BENCH_COMMON_H_
#define LIVEGRAPH_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>

#include "baselines/btree_store.h"
#include "baselines/linked_list_store.h"
#include "baselines/livegraph_store.h"
#include "baselines/lsmt_store.h"
#include "shard/sharded_store.h"
#include "util/metrics.h"
#include "workload/linkbench.h"

namespace livegraph::bench {

inline int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoll(value) : fallback;
}

inline double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double Millis() const { return Seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// This process's bench WAL: a file, or a directory of per-shard logs for
/// a sharded store.
inline std::string BenchWalPath() {
  return "/tmp/livegraph_bench_wal_" + std::to_string(::getpid()) + ".log";
}

inline GraphOptions BenchGraphOptions(bool wal = false) {
  GraphOptions options;
  options.region_reserve = size_t{1} << 34;
  options.max_vertices = size_t{1} << 24;
  if (wal) {
    // Deleted at exit, so repeated runs do not pile logs up in /tmp.
    static const bool cleanup_registered = std::atexit([] {
      std::error_code ignored;
      std::filesystem::remove_all(BenchWalPath(), ignored);
    }) == 0;
    (void)cleanup_registered;
    options.wal_path = BenchWalPath();
    // LG_FSYNC_WAL=1 makes every group durable with fdatasync (a real one
    // when /tmp is a disk filesystem); the default keeps the group commit
    // path and its writev but skips the sync.
    options.fsync_wal = EnvInt("LG_FSYNC_WAL", 0) != 0;
  }
  return options;
}

/// The three transactional contenders of Tables 3-6 (§7.1: "we compare
/// LiveGraph with three embedded implementations ... as representatives for
/// using B+ tree, LSMT, and linked list respectively"). `shards > 1` swaps
/// the LiveGraph engine for the hash-partitioned ShardedLiveGraph
/// (docs/SHARDING.md); page-cache instrumentation stays single-engine.
inline std::unique_ptr<Store> MakeStore(const std::string& name,
                                        PageCacheSim* pagesim = nullptr,
                                        bool wal = false, int shards = 1) {
  if (name == "LiveGraph") {
    if (shards > 1) {
      ShardOptions options;
      options.shards = shards;
      options.graph = BenchGraphOptions(wal);
      options.dir = options.graph.wal_path;  // the per-shard WAL directory
      return std::make_unique<ShardedStore>(options);
    }
    return std::make_unique<LiveGraphStore>(BenchGraphOptions(wal), pagesim);
  }
  if (name == "LSMT") {
    Lsmt::Options options;
    options.pagesim = pagesim;
    return std::make_unique<LsmtStore>(options);
  }
  if (name == "BTree") {
    return std::make_unique<BTreeStore>(pagesim);
  }
  return std::make_unique<LinkedListStore>(pagesim);
}

inline void PrintLatencyRow(const char* system, const DriverResult& result) {
  std::printf("%-12s %10.4f %10.4f %10.4f %14.0f", system,
              result.overall.MeanMillis(),
              result.overall.PercentileMillis(0.99),
              result.overall.PercentileMillis(0.999), result.throughput());
  if (result.failures > 0) {
    std::printf("  (%llu failed, %.2f%%)",
                static_cast<unsigned long long>(result.failures),
                100.0 * result.failure_rate());
  }
  std::printf("\n");
}

inline void PrintLatencyHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
  std::printf("%-12s %10s %10s %10s %14s\n", "system", "mean(ms)", "P99(ms)",
              "P999(ms)", "reqs/s");
}

/// --dump-metrics support (docs/OBSERVABILITY.md): the process metrics
/// registry rendered as one JSON object — counters and gauges keyed by
/// their registered names (label text included), histograms as
/// {count, sum, p50_ns, p99_ns}. Embed as a `"metrics"` member of a
/// bench's --json document so a perf run carries the engine's own view of
/// what it did (commits, WAL bytes, group sizes) next to the harness
/// numbers.
inline std::string MetricsJson() {
  metrics::Snapshot snapshot = metrics::Registry::Instance().Collect();
  std::string out = "{";
  auto append_key = [&out](const std::string& name) {
    out += '"';
    for (char c : name) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\": ";
  };
  char buffer[160];
  bool first = true;
  auto separator = [&] {
    if (!first) out += ", ";
    first = false;
  };
  for (const auto& [name, value] : snapshot.counters) {
    separator();
    append_key(name);
    std::snprintf(buffer, sizeof(buffer), "%llu",
                  static_cast<unsigned long long>(value));
    out += buffer;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    separator();
    append_key(name);
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
    out += buffer;
  }
  for (const metrics::HistogramSample& h : snapshot.histograms) {
    separator();
    append_key(h.name);
    std::snprintf(buffer, sizeof(buffer),
                  "{\"count\": %llu, \"sum\": %.10g, \"p50_ns\": %llu, "
                  "\"p99_ns\": %llu}",
                  static_cast<unsigned long long>(h.count), h.sum,
                  static_cast<unsigned long long>(h.p50),
                  static_cast<unsigned long long>(h.p99));
    out += buffer;
  }
  out += "}";
  return out;
}

}  // namespace livegraph::bench

#endif  // LIVEGRAPH_BENCH_BENCH_COMMON_H_
