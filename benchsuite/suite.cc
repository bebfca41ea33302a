// bench_suite: runs one workload of the repository benchmark in this
// process and prints one JSON document as the last line of stdout
// (README.md has the workloads, the metric catalog and the schema).
//
//   bench_suite --workload=NAME --seed=N --seconds=S --trace=0|1
//               --work-dir=DIR
//
// Every workload is a closed loop, as in the paper's harness (§7.1): a
// client sends its next request only after the reply to the previous one.
// A run is kTrials trials; each loads a fresh graph, warms up and runs a
// phase sized so all trials together last about --seconds. The graph of
// the last trial is then checked. --trace=0 reports the end-to-end
// metrics, each the median over trials; --trace=1 runs an untraced and a
// traced half per trial, in alternating order, and reports the per-layer
// metrics.
//
// Exit codes: 0 all checks passed, 1 a check failed (document still
// printed), 2 bad arguments or a failed set-up (no document).
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <span>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "analytics/conncomp.h"
#include "analytics/etl.h"
#include "analytics/pagerank.h"
#include "baselines/livegraph_store.h"
#include "core/blocks.h"
#include "registry_delta.h"
#include "server/graph_server.h"
#include "server/remote_store.h"
#include "trace.h"
#include "util/build_info.h"
#include "util/metrics.h"
#include "util/random.h"
#include "workload/linkbench.h"

namespace livegraph::suite {
namespace {

/// The link type LoadLinkBenchGraph and RunLinkBench write.
constexpr label_t kLinkType = 0;
/// Trials per run. Each loads a fresh graph from its own seed, warms up
/// and measures 1/kTrials of --seconds; end-to-end metrics are medians
/// over trials, so one slow trial (a noisy neighbour, an unlucky memory
/// placement, a hot set landing on a hub) does not move them.
constexpr int kTrials = 5;
/// PageRank/ConnComp workers (htap runs them beside one client thread).
constexpr int kAnalyticsThreads = 3;
/// Vertices whose adjacency lists the post-run check compares.
constexpr size_t kCheckVertices = 1000;
/// Length of the warm-up phase at the nominal rate.
constexpr double kWarmupSeconds = 0.25;
/// LinkBench's payload size; every stored property has this length.
constexpr size_t kPayloadBytes = 120;

struct Workload {
  const char* name;
  bool remote;  // clients reach the graph through RemoteStore
  bool htap;    // analytics rounds run beside the client stream
  int scale;    // log2 of the loaded vertex count
  LinkBenchMix (*mix)();
  int clients;
  /// Nominal request rate: a phase of S seconds issues S times this many
  /// requests, so a run's inputs depend only on --seed and --seconds and
  /// a faster build finishes the same work sooner. Tuned so phases last
  /// about S seconds on the 4-core reference box at its slower times, and
  /// less when it is quiet (README.md).
  double ops_per_second;
};

// Why each workload exists is in README.md. Client counts stay at or
// below the 4 cores the sizes were tuned on.
const Workload kWorkloads[] = {
    {"tao-remote", true, false, 16, TaoMix, 4, 72'000},
    {"dflt-remote", true, false, 16, DfltMix, 4, 24'000},
    {"dflt-embedded", false, false, 16, DfltMix, 4, 250'000},
    {"htap-analytics", false, true, 17, DfltMix, 1, 150'000},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 0;  // required; run.py passes run_seconds by default
  bool trace = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    std::string key = arg.substr(2, eq - 2);
    std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args->workload = &w;
      }
      if (args->workload == nullptr) return false;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 600) {
        return false;
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return args->workload != nullptr && args->seconds > 0;
}

/// Independent seed for input stream `stream` of a run (0 is the load).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  Xorshift rng(seed * 0x9E3779B97F4A7C15ull + stream);
  return rng.Next();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return double(to_ns - from_ns) / 1e9;
}

bool IsWrite(LinkBenchOp op) {
  switch (op) {
    case LinkBenchOp::kAddNode:
    case LinkBenchOp::kUpdateNode:
    case LinkBenchOp::kDeleteNode:
    case LinkBenchOp::kAddLink:
    case LinkBenchOp::kDeleteLink:
    case LinkBenchOp::kUpdateLink:
      return true;
    default:
      return false;
  }
}

/// Latencies of the read (or write) request classes of a run.
LatencyHistogram ClassLatencies(const DriverResult& result, bool writes) {
  LatencyHistogram merged;
  for (int i = 0; i < kNumLinkBenchOps; ++i) {
    auto op = static_cast<LinkBenchOp>(i);
    auto it = result.per_class.find(LinkBenchOpName(op));
    if (IsWrite(op) == writes && it != result.per_class.end()) {
      merged.Merge(it->second);
    }
  }
  return merged;
}

void MergeDriver(DriverResult* into, const DriverResult& from) {
  into->seconds += from.seconds;
  into->operations += from.operations;
  into->failures += from.failures;
  into->overall.Merge(from.overall);
  for (const auto& [name, histogram] : from.per_class) {
    into->per_class[name].Merge(histogram);
  }
}

/// One loaded graph, plus the server and client of remote workloads.
struct Fixture {
  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() {
    remote.reset();
    if (server != nullptr) server->Stop();
    server.reset();
    store.reset();
    std::error_code ignored;
    std::filesystem::remove(wal_path, ignored);
  }

  Store& Client() {
    return remote != nullptr ? static_cast<Store&>(*remote) : *store;
  }

  std::string wal_path;
  std::unique_ptr<LiveGraphStore> store;
  std::unique_ptr<GraphServer> server;
  std::unique_ptr<RemoteStore> remote;
  vertex_t vertices = 0;
};

LinkBenchConfig BaseConfig(const Workload& workload, uint64_t seed) {
  LinkBenchConfig config;
  config.scale = workload.scale;
  config.seed = seed;
  config.payload_bytes = kPayloadBytes;
  config.zipf_theta = 0.99;
  config.mix = workload.mix();
  config.clients = workload.clients;
  return config;
}

/// Loads a fresh graph (and, for remote workloads, starts the reactor
/// server and dials one pooled connection per client). Null on failure.
std::unique_ptr<Fixture> SetUp(const Workload& workload, uint64_t load_seed,
                               const std::string& wal_path) {
  auto fixture = std::make_unique<Fixture>();
  fixture->wal_path = wal_path;
  std::error_code ignored;
  std::filesystem::remove(wal_path, ignored);
  GraphOptions options;
  options.region_reserve = size_t{1} << 34;
  options.max_vertices = size_t{1} << 24;
  options.wal_path = wal_path;
  // The same flush policy on every workload and both sides of any
  // comparison: the group-commit path runs, fsync does not.
  options.fsync_wal = false;
  fixture->store = std::make_unique<LiveGraphStore>(options);
  fixture->vertices =
      LoadLinkBenchGraph(fixture->store.get(), BaseConfig(workload, load_seed));
  if (fixture->store->graph().VertexCount() != fixture->vertices) {
    std::fprintf(stderr, "load created %lld of %lld vertices\n",
                 static_cast<long long>(fixture->store->graph().VertexCount()),
                 static_cast<long long>(fixture->vertices));
    return nullptr;
  }
  if (!workload.remote) return fixture;
  fixture->server =
      std::make_unique<GraphServer>(*fixture->store, GraphServer::Options{});
  if (!fixture->server->Start()) {
    std::fprintf(stderr, "graph server failed to start\n");
    return nullptr;
  }
  fixture->remote = RemoteStore::Connect("127.0.0.1", fixture->server->port());
  if (fixture->remote == nullptr) {
    std::fprintf(stderr, "RemoteStore failed to connect\n");
    return nullptr;
  }
  std::vector<std::unique_ptr<StoreReadTxn>> warm;
  for (int i = 0; i < workload.clients; ++i) {
    warm.push_back(fixture->remote->BeginReadTxn());
    if (warm.back()->SessionStatus() != Status::kOk) return nullptr;
  }
  return fixture;
}

struct Round {
  double pagerank_ms = 0;
  double conncomp_ms = 0;
};

/// Median over `rounds` of one of their times.
double MedianRound(const std::vector<Round>& rounds,
                   double (*time)(const Round&)) {
  std::vector<double> values;
  for (const Round& round : rounds) values.push_back(time(round));
  return Median(values);
}

/// PageRank (20 iterations) then ConnComp, in situ on one fresh snapshot.
Round AnalyticsRound(Graph& graph, bool traced) {
  PageRankOptions pagerank;
  pagerank.threads = kAnalyticsThreads;
  Round round;
  const uint64_t t0 = NowNanos();
  ReadTransaction snapshot = graph.BeginReadOnlyTransaction();
  const uint64_t t1 = NowNanos();
  PageRankOnSnapshot(snapshot, kLinkType, pagerank);
  const uint64_t t2 = NowNanos();
  ConnCompOnSnapshot(snapshot, kLinkType, kAnalyticsThreads);
  const uint64_t t3 = NowNanos();
  round.pagerank_ms = Seconds(t1, t2) * 1e3;
  round.conncomp_ms = Seconds(t2, t3) * 1e3;
  if (traced) {
    Tracer& tracer = Tracer::Instance();
    tracer.Record(SpanName::kSnapshot, tracer.NewId(), 0, 0, t0, t1, true);
    tracer.Record(SpanName::kPageRank, tracer.NewId(), 0, 0, t1, t2, true);
    tracer.Record(SpanName::kConnComp, tracer.NewId(), 0, 0, t2, t3, true);
  }
  return round;
}

/// Lower bound of the MiB one PageRank iteration reads from `graph`, in
/// whole cache lines: the vertex index, the label-index line and the TEL
/// header line of every TEL, the live edge entries of `csr` (older
/// versions not counted), and PageRank's rank, next and degree arrays.
double IterationReadMiB(const Graph& graph, const Csr& csr) {
  constexpr double kCacheLine = 64;
  size_t tels = 0;
  for (const auto& [size, count] : graph.CollectTelSizeHistogram()) {
    tels += count;
  }
  const double bytes =
      double(csr.vertex_count()) *
          double(sizeof(VertexIndexEntry) + 3 * sizeof(double)) +
      double(tels) * 2 * kCacheLine +
      double(csr.edge_count()) * double(sizeof(EdgeEntry));
  return bytes / double(1 << 20);
}

struct PhaseResult {
  DriverResult driver;
  /// Analytics rounds that finished while the client stream still ran.
  std::vector<Round> rounds;
  double cpu_user_s = 0;
  double cpu_sys_s = 0;
};

double CpuSeconds(const timeval& tv) {
  return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restricts the calling thread, and every thread it starts from now on
/// (ParallelFor's workers included), to `cpus`.
void PinCurrentThread(std::span<const int> cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// One closed-loop LinkBench stream of `ops_per_client` requests per
/// client against `target`, with analytics rounds beside it on htap.
/// Registry deltas of the phase are added to `delta` when given.
PhaseResult RunPhase(Fixture& fixture, const Workload& workload, uint64_t seed,
                     uint64_t ops_per_client, Store& target, bool traced,
                     RegistryDelta* delta) {
  LinkBenchConfig config = BaseConfig(workload, seed);
  config.ops_per_client = ops_per_client;
  PhaseResult result;
  metrics::Snapshot before;
  if (delta != nullptr) before = metrics::Registry::Instance().Collect();
  rusage usage_before{};
  getrusage(RUSAGE_SELF, &usage_before);
  // htap splits the cores: the analytics workers run on the first
  // kAnalyticsThreads at SCHED_IDLE, the client stream on the rest. The
  // engine's own threads (commit manager, compaction) then preempt a
  // worker instead of time-slicing the client in 4 ms ticks, which would
  // make the client's tail a count of scheduler collisions.
  const std::vector<int> cpus = AllowedCpus();
  const bool pin =
      workload.htap && cpus.size() > size_t{kAnalyticsThreads};
  const std::span<const int> all_cpus(cpus);
  std::jthread analytics;
  if (workload.htap) {
    analytics = std::jthread([&](std::stop_token stop) {
      if (pin) {
        PinCurrentThread(all_cpus.first(kAnalyticsThreads));
        sched_param idle{};
        sched_setscheduler(0, SCHED_IDLE, &idle);
      }
      while (!stop.stop_requested()) {
        Round round = AnalyticsRound(fixture.store->graph(), traced);
        if (stop.stop_requested()) break;  // not all beside live requests
        result.rounds.push_back(round);
      }
    });
  }
  if (pin) PinCurrentThread(all_cpus.subspan(kAnalyticsThreads));
  result.driver = RunLinkBench(&target, config, fixture.vertices);
  if (pin) PinCurrentThread(all_cpus);
  if (analytics.joinable()) {
    analytics.request_stop();
    analytics.join();
  }
  rusage usage_after{};
  getrusage(RUSAGE_SELF, &usage_after);
  result.cpu_user_s =
      CpuSeconds(usage_after.ru_utime) - CpuSeconds(usage_before.ru_utime);
  result.cpu_sys_s =
      CpuSeconds(usage_after.ru_stime) - CpuSeconds(usage_before.ru_stime);
  if (delta != nullptr) {
    delta->Add(before, metrics::Registry::Instance().Collect());
  }
  return result;
}

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

/// Final-graph analytics check: PageRank keeps mass 1 and in-situ
/// ConnComp agrees with ConnComp on a CSR export of the same snapshot.
/// The round's times go to `timed`.
Check CheckAnalytics(Graph& graph, Csr* csr_out, Round* timed) {
  PageRankOptions pagerank;
  pagerank.threads = kAnalyticsThreads;
  ReadTransaction snapshot = graph.BeginReadOnlyTransaction();
  const uint64_t t0 = NowNanos();
  std::vector<double> ranks = PageRankOnSnapshot(snapshot, kLinkType, pagerank);
  const uint64_t t1 = NowNanos();
  std::vector<vertex_t> components =
      ConnCompOnSnapshot(snapshot, kLinkType, kAnalyticsThreads);
  const uint64_t t2 = NowNanos();
  timed->pagerank_ms = Seconds(t0, t1) * 1e3;
  timed->conncomp_ms = Seconds(t1, t2) * 1e3;
  *csr_out = ExportToCsr(snapshot, kLinkType, kAnalyticsThreads);
  std::vector<vertex_t> reference =
      ConnCompOnCsr(*csr_out, kAnalyticsThreads);
  double mass = 0;
  for (double r : ranks) mass += r;
  auto count_components = [](const std::vector<vertex_t>& labels) {
    size_t roots = 0;
    for (size_t v = 0; v < labels.size(); ++v) {
      roots += labels[v] == static_cast<vertex_t>(v) ? 1 : 0;
    }
    return roots;
  };
  char detail[200];
  std::snprintf(detail, sizeof(detail),
                "pagerank mass %.9f; %zu components in situ, %zu on CSR; "
                "%lld edges",
                mass, count_components(components),
                count_components(reference),
                static_cast<long long>(csr_out->edge_count()));
  bool ok = std::fabs(mass - 1.0) <= 1e-6 && components == reference &&
            csr_out->edge_count() > 0;
  return {"analytics", ok, detail};
}

struct ScannedEdge {
  vertex_t dst;
  std::string properties;
  timestamp_t created;
  bool operator==(const ScannedEdge&) const = default;
};

std::vector<ScannedEdge> Scan(StoreReadTxn& txn, vertex_t v) {
  std::vector<ScannedEdge> edges;
  for (EdgeCursor c = txn.ScanLinks(v, kLinkType); c.Valid(); c.Next()) {
    edges.push_back(
        {c.dst(), std::string(c.properties()), c.creation_timestamp()});
  }
  return edges;
}

/// Compares adjacency lists of the 500 longest lists plus 500 uniformly
/// sampled vertices: in-process ScanLinks against the final CSR export,
/// against CountLinks, against LinkBench's invariants (upserts leave one
/// edge per destination, newest first, 120-byte payloads) and, for remote
/// workloads, against the same scan through RemoteStore.
Check CheckAdjacency(Fixture& fixture, const Csr& csr, uint64_t seed) {
  const vertex_t n = csr.vertex_count();
  std::vector<vertex_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), vertex_t{0});
  const size_t top = std::min(kCheckVertices / 2, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(top),
                    order.end(), [&](vertex_t a, vertex_t b) {
                      return csr.Degree(a) > csr.Degree(b);
                    });
  std::vector<vertex_t> sample(order.begin(),
                               order.begin() + static_cast<long>(top));
  Xorshift rng(seed);
  while (sample.size() < kCheckVertices && n > 0) {
    sample.push_back(static_cast<vertex_t>(rng.NextBounded(uint64_t(n))));
  }

  std::unique_ptr<StoreReadTxn> local = fixture.store->BeginReadTxn();
  std::unique_ptr<StoreReadTxn> remote;
  if (fixture.remote != nullptr) remote = fixture.remote->BeginReadTxn();
  size_t mismatches = 0;
  size_t edges = 0;
  std::string first;
  auto fail = [&](vertex_t v, const char* what) {
    if (mismatches++ == 0) {
      first = "vertex " + std::to_string(v) + ": " + what;
    }
  };
  for (vertex_t v : sample) {
    std::vector<ScannedEdge> list = Scan(*local, v);
    edges += list.size();
    if (local->CountLinks(v, kLinkType) != list.size()) {
      fail(v, "CountLinks differs from the scan");
    }
    std::vector<vertex_t> dsts;
    for (const ScannedEdge& e : list) dsts.push_back(e.dst);
    std::sort(dsts.begin(), dsts.end());
    std::span<const vertex_t> row = csr.Neighbors(v);
    std::vector<vertex_t> csr_dsts(row.begin(), row.end());
    std::sort(csr_dsts.begin(), csr_dsts.end());
    if (dsts != csr_dsts) fail(v, "scan differs from the CSR export");
    if (std::adjacent_find(dsts.begin(), dsts.end()) != dsts.end()) {
      fail(v, "duplicate destination");
    }
    for (size_t i = 0; i < list.size(); ++i) {
      const std::string& p = list[i].properties;
      bool uniform = p.size() == kPayloadBytes &&
                     (p.front() == 'e' || p.front() == 'w') &&
                     p.find_first_not_of(p.front()) == std::string::npos;
      if (!uniform) fail(v, "payload is not a LinkBench payload");
      if (i > 0 && list[i].created > list[i - 1].created) {
        fail(v, "scan is not newest-first");
      }
    }
    if (remote != nullptr) {
      if (Scan(*remote, v) != list) fail(v, "remote scan differs");
      if (remote->CountLinks(v, kLinkType) != list.size()) {
        fail(v, "remote CountLinks differs");
      }
    }
  }
  if (remote != nullptr && remote->SessionStatus() != Status::kOk) {
    fail(0, "remote session failed");
  }
  std::string detail = std::to_string(sample.size()) + " lists, " +
                       std::to_string(edges) + " edges" +
                       (remote != nullptr ? ", remote compared" : "");
  if (mismatches > 0) {
    detail += "; " + std::to_string(mismatches) + " mismatches, first " +
              first;
  }
  return {"adjacency", mismatches == 0, detail};
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

/// Server opcodes reported per layer: metric suffix, registry label, and
/// the client-side span of the same request.
struct ServerOp {
  const char* metric;
  const char* label;
  SpanName span;
};
constexpr ServerOp kServerOps[] = {
    {"get_node", "GET_NODE", SpanName::kGetNode},
    {"scan_links", "SCAN_LINKS", SpanName::kScanLinks},
    {"commit", "COMMIT", SpanName::kCommit},
    {"add_link", "ADD_LINK", SpanName::kAddLink},
    {"begin_read_txn", "BEGIN_READ_TXN", SpanName::kBeginRead},
};

double MeanMicros(const LatencyHistogram& spans) {
  return spans.MeanNanos() / 1e3;
}

double TotalNanos(const LatencyHistogram& spans) {
  return spans.MeanNanos() * double(spans.count());
}

LatencyHistogram MergeSpans(const Tracer::Totals& totals,
                            std::initializer_list<SpanName> names) {
  LatencyHistogram merged;
  for (SpanName name : names) merged.Merge(totals[name]);
  return merged;
}

void AddSpanMetrics(std::vector<Metric>* out, const std::string& name,
                    const LatencyHistogram& spans) {
  out->push_back({name + "_us_mean", MeanMicros(spans), "us"});
  out->push_back(
      {name + "_us_p99", double(spans.PercentileNanos(0.99)) / 1e3, "us"});
}

/// The untraced phases of a run; in a traced run, the side the traced
/// halves are compared with.
struct UntracedSide {
  DriverResult driver{};  // {} zeroes DriverResult::seconds
  double cpu_user_s = 0;
  double cpu_sys_s = 0;
  std::vector<double> p999_ms;       // per trial
  std::vector<double> write_p99_ms;  // per trial
};

/// Per-layer metrics of the traced phases (README.md "Per-layer metrics").
std::vector<Metric> PerLayerMetrics(const Workload& workload,
                                    const DriverResult& traced,
                                    const UntracedSide& untraced,
                                    const RegistryDelta& delta,
                                    const Tracer::Totals& spans,
                                    const std::vector<Round>& rounds,
                                    const Csr& final_csr,
                                    double iteration_read_mb) {
  std::vector<Metric> m;
  const double requests = double(traced.operations + traced.failures);
  const double request_ns = traced.overall.MeanNanos() *
                            double(traced.overall.count());
  const LatencyHistogram& sessions = spans[SpanName::kSession];
  int64_t max_degree = 0;
  for (vertex_t v = 0; v < final_csr.vertex_count(); ++v) {
    max_degree = std::max(max_degree, final_csr.Degree(v));
  }
  m.push_back({"workload.self_us_mean",
               Ratio(request_ns - TotalNanos(sessions), requests) / 1e3, "us"});
  m.push_back({"workload.max_out_degree_end", double(max_degree), "count"});
  // Tails too unsteady on a shared VM for a regression bound, so they are
  // reported here, from the untraced halves, instead of end to end.
  m.push_back({"workload.latency_p999_ms", Median(untraced.p999_ms), "ms"});
  m.push_back({"workload.write_p99_ms", Median(untraced.write_p99_ms), "ms"});

  double children_ns = 0;
  for (size_t i = 0; i < kSpanNames; ++i) {
    auto name = static_cast<SpanName>(i);
    if (name != SpanName::kSession && name != SpanName::kSnapshot &&
        name != SpanName::kPageRank && name != SpanName::kConnComp) {
      children_ns += TotalNanos(spans[name]);
    }
  }
  AddSpanMetrics(&m, "api.begin_read", spans[SpanName::kBeginRead]);
  AddSpanMetrics(&m, "api.begin_txn", spans[SpanName::kBeginTxn]);
  AddSpanMetrics(&m, "api.point_read",
                 MergeSpans(spans, {SpanName::kGetNode, SpanName::kGetLink,
                                    SpanName::kCountLinks}));
  AddSpanMetrics(&m, "api.scan", spans[SpanName::kScanLinks]);
  AddSpanMetrics(&m, "api.mutate",
                 MergeSpans(spans, {SpanName::kAddNode, SpanName::kUpdateNode,
                                    SpanName::kDeleteNode, SpanName::kAddLink,
                                    SpanName::kUpdateLink,
                                    SpanName::kDeleteLink}));
  AddSpanMetrics(&m, "api.commit", spans[SpanName::kCommit]);
  m.push_back({"api.end_us_mean", MeanMicros(spans[SpanName::kEnd]), "us"});
  m.push_back({"api.session_self_us_mean",
               Ratio(TotalNanos(sessions) - children_ns, double(sessions.count())) /
                   1e3,
               "us"});
  const double write_requests =
      double(ClassLatencies(traced, /*writes=*/true).count());
  m.push_back({"api.attempts_per_write",
               Ratio(double(spans[SpanName::kBeginTxn].count()), write_requests),
               "ratio"});
  m.push_back({"api.conflicts", double(spans.conflicts), "count"});
  m.push_back({"api.timeouts", double(spans.timeouts), "count"});

  // Server layer: zero on the embedded workloads, which bypass it.
  const double server_requests =
      double(delta.CounterFamily("livegraph_server_requests_total"));
  for (const ServerOp& op : kServerOps) {
    const std::string hist =
        std::string("livegraph_server_op_latency{op=\"") + op.label + "\"}";
    const double mean_us = delta.HistMean(hist) / 1e3;
    m.push_back({std::string("server.op_us.") + op.metric, mean_us, "us"});
    m.push_back({std::string("server.op_p99_us_cumulative.") + op.metric,
                 double(delta.HistP99Cumulative(hist)) / 1e3, "us"});
    m.push_back({std::string("server.transport_us.") + op.metric,
                 workload.remote ? MeanMicros(spans[op.span]) - mean_us : 0.0,
                 "us"});
  }
  m.push_back({"server.frames_per_wakeup",
               delta.HistMean("livegraph_server_frames_per_wakeup"), "ratio"});
  m.push_back(
      {"server.wakeups_per_request",
       Ratio(double(delta.Counter("livegraph_server_reactor_wakeups_total")),
             server_requests),
       "ratio"});
  m.push_back({"server.rx_bytes_per_request",
               Ratio(double(delta.Counter("livegraph_server_rx_bytes_total")),
                     server_requests),
               "B"});
  m.push_back({"server.tx_bytes_per_request",
               Ratio(double(delta.Counter("livegraph_server_tx_bytes_total")),
                     server_requests),
               "B"});
  m.push_back({"server.errors",
               double(delta.CounterFamily("livegraph_server_errors_total")),
               "count"});

  const double txns = double(delta.Counter("livegraph_commit_txns_total"));
  m.push_back({"commit.txns", txns, "count"});
  m.push_back({"commit.group_size_mean",
               delta.HistMean("livegraph_commit_group_size"), "ratio"});
  m.push_back({"commit.formation_us",
               delta.HistMean("livegraph_commit_formation_latency") / 1e3,
               "us"});
  m.push_back({"commit.persist_us",
               delta.HistMean("livegraph_commit_persist_latency") / 1e3, "us"});
  m.push_back({"commit.apply_us",
               delta.HistMean("livegraph_commit_apply_latency") / 1e3, "us"});
  m.push_back({"commit.visible_wait_us",
               delta.HistMean("livegraph_commit_visible_wait") / 1e3, "us"});

  m.push_back({"wal.bytes_per_txn",
               Ratio(double(delta.Counter("livegraph_wal_bytes_total")), txns),
               "B"});
  m.push_back(
      {"wal.appends_per_txn",
       Ratio(double(delta.Counter("livegraph_wal_appends_total")), txns),
       "ratio"});
  m.push_back({"wal.batch_bytes_mean", delta.HistMean("livegraph_wal_batch"),
               "B"});

  m.push_back({"compaction.passes",
               double(delta.Counter("livegraph_compaction_passes_total")),
               "count"});
  m.push_back({"compaction.pass_ms_mean",
               delta.HistMean("livegraph_compaction_pass_latency") / 1e6,
               "ms"});
  m.push_back(
      {"compaction.reclaimed_mb",
       double(delta.Counter("livegraph_compaction_reclaimed_bytes_total")) /
           double(1 << 20),
       "MiB"});

  const double pagerank =
      MedianRound(rounds, [](const Round& r) { return r.pagerank_ms; });
  const double edges = double(final_csr.edge_count());
  m.push_back({"analytics.round_ms",
               MedianRound(rounds,
                           [](const Round& r) {
                             return r.pagerank_ms + r.conncomp_ms;
                           }),
               "ms"});
  m.push_back({"analytics.pagerank_ms", pagerank, "ms"});
  m.push_back({"analytics.conncomp_ms",
               MedianRound(rounds, [](const Round& r) { return r.conncomp_ms; }),
               "ms"});
  m.push_back({"analytics.edges_per_s",
               Ratio(PageRankOptions{}.iterations * edges, pagerank / 1e3),
               "edges/s"});
  m.push_back({"analytics.snapshot_edges", edges, "count"});
  m.push_back({"analytics.iteration_read_mb", iteration_read_mb, "MiB"});

  m.push_back({"process.cpu_user_s", untraced.cpu_user_s, "s"});
  m.push_back({"process.cpu_sys_s", untraced.cpu_sys_s, "s"});
  m.push_back(
      {"trace.overhead_pct",
       100.0 * (1.0 - Ratio(traced.throughput(), untraced.driver.throughput())),
       "%"});
  return m;
}

/// End-to-end values of one trial, in BENCHMARK.json order without
/// peak_rss_mb, which is a whole-process peak.
std::vector<Metric> TrialEndToEnd(const DriverResult& driver, double cpu_s,
                                  double setup_s) {
  const LatencyHistogram reads = ClassLatencies(driver, false);
  const LatencyHistogram writes = ClassLatencies(driver, true);
  return {
      {"throughput_ops_s", driver.throughput(), "ops/s"},
      {"latency_p50_ms", driver.overall.PercentileMillis(0.50), "ms"},
      {"latency_p99_ms", driver.overall.PercentileMillis(0.99), "ms"},
      {"read_p99_ms", reads.PercentileMillis(0.99), "ms"},
      {"write_p50_ms", writes.PercentileMillis(0.50), "ms"},
      {"cpu_ms_per_kop", Ratio(cpu_s * 1e3, double(driver.operations) / 1e3),
       "ms/kop"},
      {"setup_s", setup_s, "s"},
  };
}

int Run(const Args& args) {
  const Workload& workload = *args.workload;
  std::error_code error;
  std::filesystem::create_directories(args.work_dir, error);
  const std::string wal_path = args.work_dir + "/wal-" +
                               std::to_string(::getpid()) + ".log";
  auto ops_per_client = [&](double seconds) {
    return std::max<uint64_t>(
        1, uint64_t(workload.ops_per_second * seconds / workload.clients));
  };

  DriverResult all{};  // every request of the run, warm-ups included
  DriverResult traced{};
  UntracedSide untraced;
  RegistryDelta delta;  // traced phases only
  std::vector<double> setup_s;
  std::vector<Round> rounds;  // of the measured phases, for per-layer medians
  std::vector<std::vector<Metric>> trials;
  uint64_t phase_ops = 0;
  size_t phases_per_trial = 0;
  std::unique_ptr<Fixture> fixture;
  for (int trial = 0; trial < kTrials; ++trial) {
    fixture.reset();  // one graph resident at a time
    const uint64_t start = NowNanos();
    // Trial t draws its inputs from streams 4t (the load), 4t + 1 (the
    // warm-up) and 4t + 2 + i (measured phase i). Each phase has its own
    // request stream and zipf hot set, so no phase replays the requests
    // (or re-applies the writes) of the one before it.
    fixture = SetUp(workload, DeriveSeed(args.seed, 4 * trial), wal_path);
    if (fixture == nullptr) return 2;
    setup_s.push_back(Seconds(start, NowNanos()));

    Store& client = fixture->Client();
    TracedStore traced_client(client);
    PhaseResult warm = RunPhase(*fixture, workload,
                                DeriveSeed(args.seed, 4 * trial + 1),
                                ops_per_client(kWarmupSeconds), client, false,
                                nullptr);
    MergeDriver(&all, warm.driver);

    // One untraced phase, or an untraced and a traced half whose order
    // alternates over trials, so drift cancels out of trace.overhead_pct.
    std::vector<bool> plan{false};
    if (args.trace) plan = {trial % 2 == 1, trial % 2 == 0};
    phases_per_trial = plan.size();
    phase_ops = ops_per_client(args.seconds / kTrials / double(plan.size()));
    DriverResult measured{};
    double measured_cpu_s = 0;
    for (size_t i = 0; i < plan.size(); ++i) {
      const bool phase_traced = plan[i];
      PhaseResult phase = RunPhase(
          *fixture, workload, DeriveSeed(args.seed, 4 * trial + 2 + i),
          phase_ops, phase_traced ? static_cast<Store&>(traced_client) : client,
          phase_traced, phase_traced ? &delta : nullptr);
      MergeDriver(&all, phase.driver);
      MergeDriver(phase_traced ? &traced : &untraced.driver, phase.driver);
      if (phase_traced == args.trace) {
        MergeDriver(&measured, phase.driver);
        rounds.insert(rounds.end(), phase.rounds.begin(), phase.rounds.end());
      }
      if (!phase_traced) {
        untraced.cpu_user_s += phase.cpu_user_s;
        untraced.cpu_sys_s += phase.cpu_sys_s;
        untraced.p999_ms.push_back(
            phase.driver.overall.PercentileMillis(0.999));
        untraced.write_p99_ms.push_back(
            ClassLatencies(phase.driver, true).PercentileMillis(0.99));
        measured_cpu_s += phase.cpu_user_s + phase.cpu_sys_s;
      }
    }
    trials.push_back(TrialEndToEnd(measured, measured_cpu_s, setup_s.back()));
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = double(usage.ru_maxrss) / 1024.0;

  // Checks on the graph the last trial left behind.
  std::vector<Check> checks;
  checks.push_back({"no_failed_requests", all.failures == 0,
                    std::to_string(all.failures) + " of " +
                        std::to_string(all.operations + all.failures) +
                        " requests failed"});
  Csr final_csr;
  Round check_round;
  checks.push_back(
      CheckAnalytics(fixture->store->graph(), &final_csr, &check_round));
  checks.push_back(
      CheckAdjacency(*fixture, final_csr, DeriveSeed(args.seed, 4 * kTrials)));
  if (workload.htap) {
    checks.push_back({"analytics_rounds", !rounds.empty(),
                      std::to_string(rounds.size()) + " rounds timed in " +
                          std::to_string(kTrials) + " trials"});
  }

  const DriverResult& measured = args.trace ? traced : untraced.driver;
  const LatencyHistogram reads = ClassLatencies(measured, false);
  const LatencyHistogram writes = ClassLatencies(measured, true);
  std::vector<Metric> end_to_end, per_layer;
  std::string trace_json;
  if (args.trace) {
    Tracer::Totals spans = Tracer::Instance().Merge();
    // Analytics traffic runs only on htap; the other workloads' analytics
    // metrics time the analytics check on their final graph.
    per_layer = PerLayerMetrics(workload, traced, untraced, delta, spans,
                                workload.htap ? rounds
                                              : std::vector<Round>{check_round},
                                final_csr,
                                IterationReadMiB(fixture->store->graph(),
                                                 final_csr));
    // Sessions nest inside driver requests, so their spans can never add
    // up to more than the driver's own request total.
    const double request_ns =
        traced.overall.MeanNanos() * double(traced.overall.count());
    const double session_ns = TotalNanos(spans[SpanName::kSession]);
    checks.push_back({"spans_within_requests",
                      session_ns > 0 && session_ns <= request_ns * 1.01,
                      "session spans " + JsonNumber(session_ns / 1e9) +
                          " s of " + JsonNumber(request_ns / 1e9) +
                          " s of requests"});
    const std::string path =
        args.work_dir + "/trace-" + workload.name + ".jsonl";
    const long lines = Tracer::Instance().WriteJsonl(path);
    checks.push_back({"trace_written", lines > 0,
                      std::to_string(lines) + " spans in " + path});
    trace_json = ", \"trace\": {\"path\": " + JsonString(path) +
                 ", \"spans\": " + std::to_string(lines) + "}";
  } else {
    // Each end-to-end metric is its median over the trials.
    end_to_end = trials.front();
    for (size_t i = 0; i < end_to_end.size(); ++i) {
      std::vector<double> values;
      for (const std::vector<Metric>& trial : trials) {
        values.push_back(trial[i].value);
      }
      end_to_end[i].value = Median(values);
    }
    end_to_end.insert(end_to_end.end() - 1,
                      {"peak_rss_mb", peak_rss_mb, "MiB"});
    bool positive = true;
    for (const Metric& metric : end_to_end) {
      positive = positive && std::isfinite(metric.value) && metric.value > 0;
    }
    checks.push_back({"end_to_end_positive", positive,
                      "every end-to-end metric is finite and above 0"});
  }

  bool correct = true;
  std::string checks_json = "[";
  for (size_t i = 0; i < checks.size(); ++i) {
    correct = correct && checks[i].ok;
    if (i > 0) checks_json += ", ";
    checks_json += "{\"name\": " + JsonString(checks[i].name) +
                   ", \"ok\": " + (checks[i].ok ? "true" : "false") +
                   ", \"detail\": " + JsonString(checks[i].detail) + "}";
  }
  checks_json += "]";

  std::printf(
      "{\"suite\": \"livegraph-bench\", \"machine\": {\"nproc\": %u, "
      "\"git_sha\": %s, \"build_type\": %s, \"build_flags\": %s}, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %s, "
      "\"sizes\": {\"scale\": %d, \"vertices_loaded\": %lld, "
      "\"vertices_end\": %lld, \"edges_end\": %lld, \"clients\": %d, "
      "\"connections\": %d, \"analytics_threads\": %d, "
      "\"ops_per_client_per_phase\": %llu, \"phases_per_trial\": %zu, "
      "\"trials\": %d}, "
      "\"samples\": {\"requests\": %llu, \"reads\": %llu, \"writes\": %llu, "
      "\"analytics_rounds\": %zu}, "
      "\"checks\": %s, \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"end_to_end\": %s, \"per_layer\": %s%s}\n",
      std::thread::hardware_concurrency(), JsonString(kBuildGitSha).c_str(),
      JsonString(kBuildType).c_str(), JsonString(kBuildFlags).c_str(),
      JsonString(workload.name).c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace ? "true" : "false",
      workload.scale, static_cast<long long>(fixture->vertices),
      static_cast<long long>(fixture->store->graph().VertexCount()),
      static_cast<long long>(final_csr.edge_count()), workload.clients,
      workload.remote ? workload.clients : 0,
      workload.htap ? kAnalyticsThreads : 0,
      static_cast<unsigned long long>(phase_ops), phases_per_trial, kTrials,
      static_cast<unsigned long long>(measured.operations + measured.failures),
      static_cast<unsigned long long>(reads.count()),
      static_cast<unsigned long long>(writes.count()), rounds.size(),
      checks_json.c_str(), correct ? "true" : "false",
      static_cast<unsigned long long>(all.operations + all.failures),
      static_cast<unsigned long long>(all.failures),
      MetricsJson(end_to_end).c_str(), MetricsJson(per_layer).c_str(),
      trace_json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace livegraph::suite

int main(int argc, char** argv) {
  livegraph::suite::Args args;
  if (!livegraph::suite::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_suite --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --work-dir=DIR\n");
    return 2;
  }
  return livegraph::suite::Run(args);
}
