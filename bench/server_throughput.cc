// Remote LinkBench: N client threads drive the LinkBench request mix
// against a graph server over localhost TCP, through the same
// workload/driver.h harness the embedded benches use — the only change is
// that the Store handed to RunLinkBench is a RemoteStore. Reports
// throughput, p50/p99 (plus mean/p999) and the failed requests counted by
// status, for the server stack against the embedded baseline it wraps.
//
// Env knobs:
//   LG_ENGINE   LiveGraph | LSMT                       (default LiveGraph;
//               the latch baselines cannot be served, GraphServer::Start)
//   LG_SHARDS   shard count; > 1 serves ShardedLiveGraph (LiveGraph only)
//   LG_CLIENTS  client threads                          (default 8)
//   LG_OPS      requests per client                     (default 20000)
//   LG_SCALE    log2 vertices of the base graph         (default 15)
//   LG_MIX      dflt | tao | ro                         (default dflt)
//   LG_FSYNC_WAL  1 serves LiveGraph with a WAL that fdatasyncs every
//               commit group, so server commits park on their event loop
//               while the engine's flusher syncs (docs/SERVER.md "Event
//               loop"); default 0: no WAL. Both phases report their mean
//               commit group size.
//   LG_CONNECT  host:port of an already-running livegraph_server; when
//               unset the bench starts an in-process loopback server.
//
// --replica runs the read-scaling experiment instead
// (docs/REPLICATION.md): a durable sharded primary with WAL shipping
// attached and one follower, then the TAO-style read-only mix against
// ONE read target (primary) vs TWO read targets (primary + follower,
// driven concurrently).
//
// --idle-conns=K runs the connection-scale check instead (docs/SERVER.md
// "Event loop"): the same LinkBench mix against the reactor server while K
// extra idle connections sit parked on the listener (each costs an epoll
// registration, not a thread). Also measures pipelined vs sequential
// write round trips through RemoteStore::Pipeline. Exits nonzero unless
// all K connections were accepted and the mix saw zero failures; --json
// prints the result as one object with a "reactor" key.
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/linkbench_tables.h"
#include "replication/epoch_frontier.h"
#include "replication/replica.h"
#include "replication/replication_hub.h"
#include "server/graph_server.h"
#include "server/net.h"
#include "server/remote_store.h"
#include "server/wire.h"
#include "shard/sharded_store.h"
#include "util/metrics.h"

namespace livegraph::bench {
namespace {

const char* EnvString(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

/// LG_FSYNC_WAL=1: the served engine logs to a WAL with fsync on
/// (BenchGraphOptions), the one configuration whose commits sync.
bool FsyncWal() { return EnvInt("LG_FSYNC_WAL", 0) != 0; }

/// The failed requests by status: `{"Timeout": 2}` as JSON, or
/// `Timeout=2` as text.
std::string FailuresByStatus(const DriverResult& result, bool json) {
  std::string out;
  for (const auto& [status, count] : result.failures_by_status) {
    if (!out.empty()) out += json ? ", " : " ";
    const std::string name = StatusName(status);
    out += (json ? "\"" + name + "\": " : name + "=") + std::to_string(count);
  }
  return json ? "{" + out + "}" : out;
}

/// Mean livegraph_commit_group_size over the groups led since `before`
/// was collected: one phase's mean commit group size (0: none led).
double GroupSizeMeanSince(const metrics::Snapshot& before) {
  constexpr std::string_view kName = "livegraph_commit_group_size";
  const metrics::Snapshot now = metrics::Registry::Instance().Collect();
  const metrics::HistogramSample* start = before.histogram(kName);
  const metrics::HistogramSample* end = now.histogram(kName);
  if (end == nullptr) return 0.0;
  const uint64_t groups = end->count - (start != nullptr ? start->count : 0);
  const double members = end->sum - (start != nullptr ? start->sum : 0.0);
  return groups == 0 ? 0.0 : members / static_cast<double>(groups);
}

void PrintJsonResult(const char* key, const DriverResult& result,
                     const char* trailer) {
  std::printf("  \"%s\": {\"throughput\": %.0f, \"mean_ms\": %.4f, "
              "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"p999_ms\": %.4f, "
              "\"failures\": %llu, \"failures_by_status\": %s}%s\n",
              key, result.throughput(), result.overall.MeanMillis(),
              result.overall.PercentileMillis(0.50),
              result.overall.PercentileMillis(0.99),
              result.overall.PercentileMillis(0.999),
              static_cast<unsigned long long>(result.failures),
              FailuresByStatus(result, /*json=*/true).c_str(), trailer);
}

void PrintRemoteRow(const char* label, const DriverResult& result) {
  std::printf("%-22s %12.0f %10.4f %10.4f %10.4f %10.4f", label,
              result.throughput(), result.overall.MeanMillis(),
              result.overall.PercentileMillis(0.50),
              result.overall.PercentileMillis(0.99),
              result.overall.PercentileMillis(0.999));
  if (result.failures > 0) {
    std::printf("  (%llu failed: %s)",
                static_cast<unsigned long long>(result.failures),
                FailuresByStatus(result, /*json=*/false).c_str());
  }
  std::printf("\n");
}

int Run(bool json, bool dump_metrics) {
  LinkBenchConfig config = DefaultLinkBenchConfig();
  const std::string engine = EnvString("LG_ENGINE", "LiveGraph");
  const int shards = static_cast<int>(EnvInt("LG_SHARDS", 1));
  const std::string mix = EnvString("LG_MIX", "dflt");
  if (mix == "tao") {
    config.mix = TaoMix();
  } else if (mix == "ro") {
    // Read-only: the mix a follower can serve (CI points this at one).
    config.mix = MixWithWriteRatio(0.0);
  }

  if (!json) {
    std::printf("=== Remote LinkBench over the graph server ===\n");
    std::printf("engine=%s clients=%d ops/client=%llu scale=%d\n",
                engine.c_str(), config.clients,
                static_cast<unsigned long long>(config.ops_per_client),
                config.scale);
    std::printf("%-22s %12s %10s %10s %10s %10s\n", "store", "reqs/s",
                "mean(ms)", "P50(ms)", "P99(ms)", "P999(ms)");
  }

  // The serving engine. With LG_CONNECT the server lives in another
  // process and this engine is unused for serving (still used to report
  // the embedded baseline).
  std::unique_ptr<Store> store = MakeStore(engine, nullptr,
                                           /*wal=*/FsyncWal(), shards);
  vertex_t n = LoadLinkBenchGraph(store.get(), config);

  // Embedded baseline: same harness, in-process store. The gap to the
  // remote rows is the cost of the network layer.
  metrics::Snapshot phase_start = metrics::Registry::Instance().Collect();
  DriverResult embedded = RunLinkBench(store.get(), config, n);
  const double embedded_group = GroupSizeMeanSince(phase_start);
  if (!json) PrintRemoteRow(("embedded/" + engine).c_str(), embedded);

  std::unique_ptr<GraphServer> server;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  const char* connect = std::getenv("LG_CONNECT");
  if (connect != nullptr) {
    const char* colon = std::strrchr(connect, ':');
    if (colon == nullptr) {
      std::fprintf(stderr, "LG_CONNECT must be host:port\n");
      return 1;
    }
    host.assign(connect, static_cast<size_t>(colon - connect));
    port = static_cast<uint16_t>(std::atoi(colon + 1));
    std::printf("(connecting to external server %s:%u — base graph must "
                "already be loaded there)\n",
                host.c_str(), unsigned{port});
  } else {
    server = std::make_unique<GraphServer>(*store, GraphServer::Options{});
    if (!server->Start()) {
      std::fprintf(stderr,
                   "failed to start loopback server (LG_ENGINE "
                   "must be LiveGraph or LSMT)\n");
      return 1;
    }
    port = server->port();
  }

  std::unique_ptr<RemoteStore> remote = RemoteStore::Connect(host, port);
  if (remote == nullptr) {
    std::fprintf(stderr, "failed to connect to %s:%u\n", host.c_str(),
                 unsigned{port});
    return 1;
  }
  // Warm the connection pool so dials don't land inside the timed run:
  // the driver runs `clients` concurrent sessions.
  {
    std::vector<std::unique_ptr<StoreReadTxn>> warm;
    warm.reserve(static_cast<size_t>(config.clients));
    for (int i = 0; i < config.clients; ++i) {
      warm.push_back(remote->BeginReadTxn());
    }
  }

  // With LG_CONNECT the groups form in the other process: this reads 0.
  phase_start = metrics::Registry::Instance().Collect();
  DriverResult result = RunLinkBench(remote.get(), config, n);
  const double remote_group = GroupSizeMeanSince(phase_start);
  double retained = embedded.throughput() > 0
                        ? 100.0 * result.throughput() / embedded.throughput()
                        : 0.0;
  if (json) {
    std::printf("{\n  \"bench\": \"server_throughput\",\n");
    std::printf("  \"engine\": \"%s\",\n  \"clients\": %d,\n"
                "  \"ops_per_client\": %llu,\n",
                engine.c_str(), config.clients,
                static_cast<unsigned long long>(config.ops_per_client));
    std::printf("  \"group_size_mean\": {\"embedded\": %.2f, "
                "\"remote\": %.2f},\n",
                embedded_group, remote_group);
    PrintJsonResult("embedded", embedded, ",");
    PrintJsonResult("remote", result, ",");
    std::printf("  \"retained_pct\": %.1f%s\n", retained,
                dump_metrics ? "," : "");
    // With LG_CONNECT the serving engine lives in another process; this
    // dump still carries the local (embedded + client) side's registry.
    if (dump_metrics) {
      std::printf("  \"metrics\": %s\n", MetricsJson().c_str());
    }
    std::printf("}\n");
  } else {
    PrintRemoteRow(remote->Name().c_str(), result);
    std::printf("network overhead: %.1f%% of embedded throughput retained\n",
                retained);
    std::printf("mean commit group size: embedded %.2f, remote %.2f\n",
                embedded_group, remote_group);
  }

  remote.reset();
  if (server != nullptr) server->Stop();
  return 0;
}

// One parked client: a real protocol connection (TCP dial + Hello
// handshake) that then sits silent, the shape of a connection-pool
// member between requests; on the reactor each costs an epoll
// registration.
size_t OpenIdleConns(const std::string& host, uint16_t port, size_t count,
                     std::vector<Socket>* conns) {
  conns->reserve(count);
  std::string scratch;
  size_t ok = 0;
  for (size_t i = 0; i < count; ++i) {
    Socket socket = ConnectTcp(host, port);
    if (!socket.valid()) continue;
    std::string body;
    WireWriter writer(&body);
    writer.PutU32(kProtocolVersion);
    Frame reply;
    if (!socket.WriteFrame(MsgType::kHello, kFlagNone, body, &scratch) ||
        !socket.ReadFrame(&reply)) {
      continue;
    }
    conns->push_back(std::move(socket));
    ++ok;
  }
  return ok;
}

struct ModeResult {
  size_t idle_requested = 0;
  size_t idle_ok = 0;
  DriverResult mix;
  // Pipelined vs sequential write round trips (RemoteStore::Pipeline).
  double sequential_ops_s = 0.0;
  double pipelined_ops_s = 0.0;
  bool pipeline_ok = false;
};

// The pipelining microbenchmark: the same K link writes issued as K
// request/reply round trips vs queued client-side and shipped as one
// batched send with in-order replies (the server dispatches every
// buffered frame per wakeup — in-connection pipelining).
bool MeasurePipelining(RemoteStore* remote, vertex_t n, ModeResult* out) {
  constexpr size_t kOps = 512;
  const std::string_view payload = "pipelined-write";
  auto pick = [n](size_t i, vertex_t* src, vertex_t* dst) {
    *src = static_cast<vertex_t>(i % static_cast<size_t>(n));
    *dst = static_cast<vertex_t>((i * 7 + 1) % static_cast<size_t>(n));
  };

  auto begin = std::chrono::steady_clock::now();
  std::unique_ptr<StoreTxn> txn = remote->BeginTxn();
  if (txn == nullptr) return false;
  for (size_t i = 0; i < kOps; ++i) {
    vertex_t src, dst;
    pick(i, &src, &dst);
    if (!txn->AddLink(src, label_t{1}, dst, payload).ok()) {
      txn->Abort();
      return false;
    }
  }
  txn->Abort();  // measurement traffic; keep the graph unchanged
  double sequential_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();

  begin = std::chrono::steady_clock::now();
  std::unique_ptr<RemoteStore::Pipeline> pipeline = remote->NewPipeline();
  if (!pipeline->ok()) return false;
  for (size_t i = 0; i < kOps; ++i) {
    vertex_t src, dst;
    pick(i, &src, &dst);
    pipeline->AddLink(src, label_t{1}, dst, payload);
  }
  std::vector<Status> statuses;
  if (!pipeline->Flush(&statuses) || statuses.size() != kOps) return false;
  for (Status status : statuses) {
    if (status != Status::kOk) return false;
  }
  pipeline->Abort();
  double pipelined_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();

  out->sequential_ops_s = sequential_s > 0 ? kOps / sequential_s : 0.0;
  out->pipelined_ops_s = pipelined_s > 0 ? kOps / pipelined_s : 0.0;
  out->pipeline_ok = true;
  return true;
}

bool RunOneMode(Store* store, const LinkBenchConfig& config, vertex_t n,
                size_t idle_conns, ModeResult* out) {
  GraphServer server(*store, GraphServer::Options{});
  if (!server.Start()) {
    std::fprintf(stderr,
                 "failed to start loopback server (LG_ENGINE "
                 "must be LiveGraph or LSMT)\n");
    return false;
  }

  std::vector<Socket> idle;
  out->idle_requested = idle_conns;
  out->idle_ok = OpenIdleConns("127.0.0.1", server.port(), idle_conns, &idle);

  std::unique_ptr<RemoteStore> remote =
      RemoteStore::Connect("127.0.0.1", server.port());
  if (remote == nullptr) {
    std::fprintf(stderr, "client connect failed\n");
    return false;
  }
  {
    std::vector<std::unique_ptr<StoreReadTxn>> warm;
    warm.reserve(static_cast<size_t>(config.clients));
    for (int i = 0; i < config.clients; ++i) {
      warm.push_back(remote->BeginReadTxn());
    }
  }

  out->mix = RunLinkBench(remote.get(), config, n);
  if (!MeasurePipelining(remote.get(), n, out)) {
    std::fprintf(stderr, "pipelining measurement failed\n");
  }

  remote.reset();
  idle.clear();
  server.Stop();
  return true;
}

void PrintModeJson(const char* key, const ModeResult& mode, const char* trailer) {
  std::printf("  \"%s\": {\"idle_requested\": %zu, \"idle_ok\": %zu, "
              "\"throughput\": %.0f, \"mean_ms\": %.4f, \"p50_ms\": %.4f, "
              "\"p99_ms\": %.4f, \"p999_ms\": %.4f, \"failures\": %llu, "
              "\"failures_by_status\": %s, \"sequential_write_ops_s\": %.0f, "
              "\"pipelined_write_ops_s\": %.0f, \"pipeline_speedup\": %.2f}%s\n",
              key, mode.idle_requested, mode.idle_ok, mode.mix.throughput(),
              mode.mix.overall.MeanMillis(),
              mode.mix.overall.PercentileMillis(0.50),
              mode.mix.overall.PercentileMillis(0.99),
              mode.mix.overall.PercentileMillis(0.999),
              static_cast<unsigned long long>(mode.mix.failures),
              FailuresByStatus(mode.mix, /*json=*/true).c_str(),
              mode.sequential_ops_s, mode.pipelined_ops_s,
              mode.sequential_ops_s > 0
                  ? mode.pipelined_ops_s / mode.sequential_ops_s
                  : 0.0,
              trailer);
}

// Connection scale: the reactor server under `idle_conns` parked
// connections plus the live LinkBench mix.
int RunModes(bool json, bool dump_metrics, size_t idle_conns) {
  LinkBenchConfig config = DefaultLinkBenchConfig();
  const std::string engine = EnvString("LG_ENGINE", "LiveGraph");
  const int shards = static_cast<int>(EnvInt("LG_SHARDS", 1));
  const std::string mix = EnvString("LG_MIX", "dflt");
  if (mix == "tao") {
    config.mix = TaoMix();
  } else if (mix == "ro") {
    config.mix = MixWithWriteRatio(0.0);
  }

  std::unique_ptr<Store> store = MakeStore(engine, nullptr,
                                           /*wal=*/FsyncWal(), shards);
  vertex_t n = LoadLinkBenchGraph(store.get(), config);

  if (!json) {
    std::printf("=== Server connection scale (%zu idle conns) ===\n",
                idle_conns);
    std::printf("engine=%s clients=%d ops/client=%llu scale=%d\n",
                engine.c_str(), config.clients,
                static_cast<unsigned long long>(config.ops_per_client),
                config.scale);
    std::printf("%-22s %12s %10s %10s %10s %10s\n", "transport", "reqs/s",
                "mean(ms)", "P50(ms)", "P99(ms)", "P999(ms)");
  }

  ModeResult reactor;
  if (!RunOneMode(store.get(), config, n, idle_conns, &reactor)) return 1;

  if (json) {
    std::printf("{\n  \"bench\": \"server_modes\",\n");
    std::printf("  \"engine\": \"%s\",\n  \"clients\": %d,\n"
                "  \"ops_per_client\": %llu,\n  \"idle_conns\": %zu,\n",
                engine.c_str(), config.clients,
                static_cast<unsigned long long>(config.ops_per_client),
                idle_conns);
    PrintModeJson("reactor", reactor, dump_metrics ? "," : "");
    if (dump_metrics) {
      std::printf("  \"metrics\": %s\n", MetricsJson().c_str());
    }
    std::printf("}\n");
  } else {
    PrintRemoteRow("reactor", reactor.mix);
    std::printf("idle conns accepted: %zu/%zu\n", reactor.idle_ok,
                reactor.idle_requested);
    std::printf("pipelined writes: %.0f -> %.0f ops/s (%.1fx)\n",
                reactor.sequential_ops_s, reactor.pipelined_ops_s,
                reactor.sequential_ops_s > 0
                    ? reactor.pipelined_ops_s / reactor.sequential_ops_s
                    : 0.0);
  }

  // The acceptance gate for the high-connection mode: every parked
  // connection accepted and zero failed requests in the live mix.
  if (reactor.idle_ok != idle_conns || reactor.mix.failures != 0) {
    std::fprintf(stderr, "server_modes: FAILED gate (idle %zu/%zu, "
                 "failures %llu: %s)\n",
                 reactor.idle_ok, idle_conns,
                 static_cast<unsigned long long>(reactor.mix.failures),
                 FailuresByStatus(reactor.mix, /*json=*/false).c_str());
    return 1;
  }
  return 0;
}

// Read scale-out: identical read-only rounds against one read target
// (the primary) and against two (primary + follower driven concurrently,
// each by its own client fleet). The follower applies the replication
// stream; reads through it carry the read-your-epoch bound, so this is
// the served contract, not a dirty-read shortcut.
int RunReplica(bool json, bool dump_metrics) {
  LinkBenchConfig config = DefaultLinkBenchConfig();
  config.mix = MixWithWriteRatio(0.0);  // followers serve reads only
  const int shards = static_cast<int>(EnvInt("LG_SHARDS", 2));

  const std::string root =
      "/tmp/lg_bench_replica_" + std::to_string(::getpid());
  std::filesystem::remove_all(root);
  ShardOptions shard_options;
  shard_options.shards = shards;
  shard_options.dir = root + "/primary";
  shard_options.graph.region_reserve = size_t{1} << 34;
  shard_options.graph.max_vertices = size_t{1} << 24;
  shard_options.graph.fsync_wal = false;
  std::unique_ptr<ShardedStore> primary = ShardedStore::Recover(shard_options);
  if (primary == nullptr) {
    std::fprintf(stderr, "failed to open primary at %s\n",
                 shard_options.dir.c_str());
    return 1;
  }
  vertex_t n = LoadLinkBenchGraph(primary.get(), config);

  ReplicationHub hub;
  if (!hub.Attach(*primary)) {
    std::fprintf(stderr, "replication hub failed to attach\n");
    return 1;
  }
  DomainFrontier primary_frontier(hub.domain());
  GraphServer::Options primary_options;
  primary_options.replication = &hub;
  primary_options.frontier = &primary_frontier;
  GraphServer primary_server(*primary, primary_options);
  if (!primary_server.Start()) {
    std::fprintf(stderr, "failed to start primary server\n");
    return 1;
  }

  Replica::Options replica_options;
  replica_options.primary_port = primary_server.port();
  replica_options.graph = shard_options.graph;
  Replica replica(replica_options);
  replica.Start();
  if (!replica.WaitReady(60'000)) {
    std::fprintf(stderr, "follower never bootstrapped\n");
    return 1;
  }
  GraphServer::Options follower_options;
  follower_options.frontier = &replica.frontier();
  GraphServer follower_server(replica.store(), follower_options);
  if (!follower_server.Start()) {
    std::fprintf(stderr, "failed to start follower server\n");
    return 1;
  }

  auto connect = [&](bool to_follower) {
    RemoteStore::Options options;
    options.port = primary_server.port();
    if (to_follower) {
      options.replica_port = follower_server.port();
      options.read_your_epoch_timeout_ms = 10'000;
    }
    return RemoteStore::Connect(options);
  };
  std::unique_ptr<RemoteStore> primary_client = connect(false);
  std::unique_ptr<RemoteStore> follower_client = connect(true);
  if (primary_client == nullptr || follower_client == nullptr) {
    std::fprintf(stderr, "client connect failed\n");
    return 1;
  }

  if (!json) {
    std::printf("=== Replicated read scaling (read-only mix) ===\n");
    std::printf("shards=%d clients/target=%d ops/client=%llu scale=%d\n",
                shards, config.clients,
                static_cast<unsigned long long>(config.ops_per_client),
                config.scale);
    std::printf("%-22s %12s %10s %10s %10s %10s\n", "targets", "reqs/s",
                "mean(ms)", "P50(ms)", "P99(ms)", "P999(ms)");
  }

  // Round 1: one read target, all clients on the primary.
  DriverResult one = RunLinkBench(primary_client.get(), config, n);
  if (!json) PrintRemoteRow("1 (primary)", one);

  // Round 2: two read targets, a full client fleet per target running
  // concurrently. Aggregate throughput is the read-scaling headline.
  DriverResult two_primary, two_follower;
  std::thread follower_fleet([&] {
    two_follower = RunLinkBench(follower_client.get(), config, n);
  });
  two_primary = RunLinkBench(primary_client.get(), config, n);
  follower_fleet.join();
  double combined = two_primary.throughput() + two_follower.throughput();
  double scaling = one.throughput() > 0 ? combined / one.throughput() : 0.0;
  if (json) {
    std::printf("{\n  \"bench\": \"replication_read_scaling\",\n");
    std::printf("  \"shards\": %d,\n  \"clients_per_target\": %d,\n"
                "  \"ops_per_client\": %llu,\n",
                shards, config.clients,
                static_cast<unsigned long long>(config.ops_per_client));
    PrintJsonResult("one_target", one, ",");
    PrintJsonResult("two_targets_primary", two_primary, ",");
    PrintJsonResult("two_targets_follower", two_follower, ",");
    std::printf("  \"combined_throughput\": %.0f,\n  \"scaling_x\": %.2f%s\n",
                combined, scaling, dump_metrics ? "," : "");
    if (dump_metrics) {
      std::printf("  \"metrics\": %s\n", MetricsJson().c_str());
    }
    std::printf("}\n");
  } else {
    PrintRemoteRow("2 (primary share)", two_primary);
    PrintRemoteRow("2 (follower share)", two_follower);
    std::printf("combined %.0f reqs/s — %.2fx one target\n", combined,
                scaling);
  }

  primary_client.reset();
  follower_client.reset();
  follower_server.Stop();
  replica.Stop();
  primary_server.Stop();
  hub.Detach();
  primary.reset();
  std::filesystem::remove_all(root);
  return 0;
}

}  // namespace
}  // namespace livegraph::bench

int main(int argc, char** argv) {
  bool json = false;
  bool replica = false;
  bool dump_metrics = false;
  long idle_conns = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--replica") == 0) replica = true;
    if (std::strcmp(argv[i], "--dump-metrics") == 0) dump_metrics = true;
    if (std::strncmp(argv[i], "--idle-conns=", 13) == 0) {
      idle_conns = std::atol(argv[i] + 13);
      if (idle_conns < 0) {
        std::fprintf(stderr, "--idle-conns must be >= 0\n");
        return 1;
      }
    }
  }
  if (idle_conns >= 0) {
    return livegraph::bench::RunModes(json, dump_metrics,
                                      static_cast<size_t>(idle_conns));
  }
  return replica ? livegraph::bench::RunReplica(json, dump_metrics)
                 : livegraph::bench::Run(json, dump_metrics);
}
