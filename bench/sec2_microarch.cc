// §2.1 micro-architectural analysis: cache misses and branch behaviour of
// adjacency scans per data structure. The paper reports LLC-miss ratios on
// a 2^26-scale graph (B+ tree 7.09x, LSMT 11.18x, linked list 63.54x more
// LLC misses than TEL; CSR 1/2.42x of TEL).
//
// Hardware counters are read via perf_event_open when the container allows
// it; otherwise the bench falls back to a software proxy (time per edge)
// and says so — see DESIGN.md substitution 4.
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <vector>

#include "baselines/csr.h"
#include "bench/bench_common.h"
#include "core/transaction.h"
#include "util/zipf.h"
#include "workload/kronecker.h"

namespace livegraph::bench {
namespace {

volatile int64_t g_sink;

class PerfCounter {
 public:
  PerfCounter(uint32_t type, uint64_t config) {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.type = type;
    attr.size = sizeof(attr);
    attr.config = config;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    fd_ = static_cast<int>(
        syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
  }
  ~PerfCounter() {
    if (fd_ >= 0) close(fd_);
  }
  bool available() const { return fd_ >= 0; }
  void Start() {
    if (fd_ < 0) return;
    ioctl(fd_, PERF_EVENT_IOC_RESET, 0);
    ioctl(fd_, PERF_EVENT_IOC_ENABLE, 0);
  }
  int64_t Stop() {
    if (fd_ < 0) return -1;
    ioctl(fd_, PERF_EVENT_IOC_DISABLE, 0);
    int64_t value = -1;
    if (read(fd_, &value, sizeof(value)) != sizeof(value)) value = -1;
    return value;
  }

 private:
  int fd_ = -1;
};

struct ScanStats {
  double ns_per_edge;
  int64_t edges;
  int64_t llc_misses;       // -1 if counters unavailable
  int64_t branch_misses;    // -1 if unavailable
};

template <typename Scan>
ScanStats MeasureScans(uint64_t n, uint64_t samples, const Scan& scan) {
  ScrambledZipf zipf(n, 0.99, 11);
  Xorshift rng(11);
  std::vector<vertex_t> starts(samples);
  for (auto& v : starts) v = static_cast<vertex_t>(zipf.Sample(rng));

  PerfCounter llc(PERF_TYPE_HW_CACHE,
                  PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
                      (PERF_COUNT_HW_CACHE_RESULT_MISS << 16));
  PerfCounter branches(PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES);
  llc.Start();
  branches.Start();
  Timer timer;
  int64_t edges = 0;
  for (vertex_t v : starts) edges += scan(v);
  double seconds = timer.Seconds();
  ScanStats stats;
  stats.llc_misses = llc.Stop();
  stats.branch_misses = branches.Stop();
  stats.edges = edges;
  stats.ns_per_edge = edges > 0 ? seconds * 1e9 / double(edges) : 0;
  return stats;
}

void Row(const char* name, const ScanStats& s, const ScanStats& tel) {
  auto ratio = [](int64_t a, int64_t b) {
    return (a > 0 && b > 0) ? double(a) / double(b) : 0.0;
  };
  std::printf("%-12s %12.2f", name, s.ns_per_edge);
  if (s.llc_misses >= 0) {
    std::printf(" %14" PRId64 " %10.2fx %14" PRId64 "\n", s.llc_misses,
                ratio(s.llc_misses, tel.llc_misses), s.branch_misses);
  } else {
    std::printf(" %14s %10s %14s\n", "n/a", "n/a", "n/a");
  }
}

}  // namespace

void Run() {
  const int scale = static_cast<int>(EnvInt("LG_SCALE", 18));
  const auto samples = static_cast<uint64_t>(EnvInt("LG_SAMPLES", 100'000));
  const uint64_t n = uint64_t{1} << scale;

  KroneckerOptions kron;
  kron.scale = scale;
  auto edges = GenerateKronecker(kron);

  std::printf("Section 2.1 micro-architectural analysis (scale 2^%d)\n",
              scale);
  PerfCounter probe(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS);
  if (!probe.available()) {
    std::printf("note: perf counters unavailable in this environment; "
                "reporting time-based proxies only\n");
  }
  std::printf("%-12s %12s %14s %10s %14s\n", "structure", "ns/edge",
              "LLC-misses", "vs TEL", "branch-miss");

  // TEL first (the ratio baseline).
  Graph graph(BenchGraphOptions());
  {
    auto txn = graph.BeginTransaction();
    for (uint64_t v = 0; v < n; ++v) txn.AddVertex();
    for (auto& [src, dst] : edges) txn.AddEdge(src, 0, dst);
    if (txn.Commit() != Status::kOk) return;
  }
  auto read = graph.BeginReadOnlyTransaction();
  ScanStats tel = MeasureScans(n, samples, [&](vertex_t v) {
    int64_t count = 0;
    for (auto it = read.GetEdges(v, 0); it.Valid(); it.Next()) {
      g_sink = it.DstId();
      count++;
    }
    return count;
  });
  Row("TEL", tel, tel);

  {
    Csr csr = Csr::FromEdges(static_cast<vertex_t>(n), edges);
    Row("CSR", MeasureScans(n, samples, [&](vertex_t v) {
          int64_t count = 0;
          for (vertex_t dst : csr.Neighbors(v)) {
            g_sink = dst;
            count++;
          }
          return count;
        }),
        tel);
  }
  {
    BPlusTree tree;
    for (auto& [src, dst] : edges) tree.Insert(EdgeKey{src, 0, dst}, {});
    Row("B+Tree", MeasureScans(n, samples, [&](vertex_t v) {
          int64_t count = 0;
          for (auto it = tree.LowerBound(EdgeKey{v, 0, INT64_MIN});
               it.Valid() && it.key().src == v; it.Next()) {
            g_sink = it.key().dst;
            count++;
          }
          return count;
        }),
        tel);
  }
  {
    Lsmt lsmt;
    for (auto& [src, dst] : edges) lsmt.Put(EdgeKey{src, 0, dst}, {});
    Row("LSMT", MeasureScans(n, samples, [&](vertex_t v) {
          int64_t count = 0;
          lsmt.Scan(EdgeKey{v, 0, INT64_MIN}, EdgeKey{v, 1, INT64_MIN},
                    [&count](const EdgeKey& key, std::string_view) {
                      g_sink = key.dst;
                      count++;
                      return true;
                    });
          return count;
        }),
        tel);
  }
  {
    LinkedListStore list;
    for (uint64_t v = 0; v < n; ++v) list.AddNode({});
    for (auto& [src, dst] : edges) list.AddLink(src, 0, dst, {});
    // Raw chain walk: measures the pointer chase, not cursor machinery.
    Row("LinkedList", MeasureScans(n, samples, [&](vertex_t v) {
          int64_t count = 0;
          for (const auto* node = list.head(v); node != nullptr;
               node = node->next) {
            g_sink = node->dst;
            count++;
          }
          return count;
        }),
        tel);
  }
}

}  // namespace livegraph::bench

int main() {
  livegraph::bench::Run();
  return 0;
}
