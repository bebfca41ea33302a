// livegraph_server: stand-alone graph server binary (docs/SERVER.md).
//
//   livegraph_server [--engine=LiveGraph|PagedLiveGraph|LSMT]
//                    [--shards=N] [--host=127.0.0.1] [--port=9271]
//                    [--durability=none|wal|wal-fsync] [--wal-path=PATH]
//                    [--checkpoint-dir=DIR] [--storage-path=FILE]
//                    [--max-vertices=N] [--page-cache-pages=N]
//                    [--scan-batch-edges=N]
//                    [--replica-of=HOST:PORT] [--replica-dir=DIR]
//                    [--replica-checkpoint-epochs=N]
//                    [--metrics-port=N] [--slow-op-ms=N]
//
// Serves the chosen engine over the binary wire protocol until SIGINT or
// SIGTERM. The latch baselines (BTree, LinkedList) are not servable: their
// sessions hold a thread-owned latch, and the event loops multiplex many
// sessions per thread (Store::SupportsInterleavedSessions). --shards=N (LiveGraph engine only) serves a hash-partitioned
// ShardedLiveGraph instead — N independent commit pipelines, lock arrays
// and compaction threads behind the same wire protocol, one shared
// visibility-epoch domain, remote read sessions pinning a single global
// epoch transparently (docs/SHARDING.md).
//
// --replica-of=HOST:PORT runs a read-only FOLLOWER instead of a primary
// (docs/REPLICATION.md): the server subscribes to that primary's WAL
// stream, applies it continuously, rejects writes with kUnavailable, and
// serves reads/scans/analytics — epoch-gated read sessions wait until the
// follower's applied frontier covers the client's epoch. A durable primary
// (LiveGraph engines with --durability != none) automatically accepts
// follower subscriptions on its own port.
//
// Durability flags apply to the LiveGraph engines only (the baselines are
// volatile comparators, as in the paper's §7.1 setup). With durability
// enabled the server RECOVERS on start: a single-engine server replays
// --checkpoint-dir (if given) plus the --wal-path tail (§6); a sharded
// server treats --wal-path as its durable DIRECTORY (<dir>/MANIFEST,
// <dir>/shard<i>/wal, <dir>/shard<i>/checkpoint/) and runs
// ShardedStore::Recover — so restarting against a populated directory
// resumes exactly the committed state, never half of a cross-shard
// transaction.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>

#include "baselines/livegraph_store.h"
#include "baselines/lsmt_store.h"
#include "replication/epoch_frontier.h"
#include "replication/replica.h"
#include "replication/replication_hub.h"
#include "server/graph_server.h"
#include "server/metrics_http.h"
#include "shard/sharded_store.h"
#include "util/build_info.h"
#include "util/fault_injection.h"
#include "util/log.h"
#include "util/metrics.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;  // SIGINT: stop now
volatile std::sig_atomic_t g_term = 0;  // SIGTERM: graceful drain
volatile std::sig_atomic_t g_dump_slow = 0;  // SIGUSR1: dump slow-op ring

void HandleInt(int) { g_stop = 1; }
void HandleTerm(int) { g_term = 1; }
void HandleUsr1(int) { g_dump_slow = 1; }

struct Flags {
  std::string engine = "LiveGraph";
  int shards = 1;
  std::string host = "127.0.0.1";
  uint16_t port = 9271;
  std::string durability = "none";  // none | wal | wal-fsync
  std::string wal_path = "/tmp/livegraph_server_wal.log";
  std::string checkpoint_dir;  // single-engine recovery source (optional)
  std::string storage_path;
  size_t max_vertices = size_t{1} << 24;
  size_t page_cache_pages = size_t{1} << 16;  // PagedLiveGraph: 256 MiB
  size_t scan_batch_edges = 512;
  int reactors = 0;  // event-loop threads; 0 = hw concurrency
  int64_t idle_timeout_ms = 0;  // close silent connections; 0 = never
  std::string replica_of;   // "host:port" of the primary (follower mode)
  std::string replica_dir;  // follower durable dir (empty = in-memory)
  int64_t replica_checkpoint_epochs = 65536;
  int64_t drain_deadline_ms = 5000;  // SIGTERM graceful-drain bound
  int metrics_port = -1;  // /metrics HTTP port; -1 = disabled, 0 = ephemeral
  int64_t slow_op_ms = 100;  // slow-op trace threshold; 0 disables
};

/// Splits "host:port"; false on a missing/invalid port.
bool ParseHostPort(const std::string& spec, std::string* host,
                   uint16_t* port) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    return false;
  }
  int parsed = std::atoi(spec.c_str() + colon + 1);
  if (parsed <= 0 || parsed > 65535) return false;
  *host = spec.substr(0, colon);
  *port = static_cast<uint16_t>(parsed);
  return true;
}

bool TakeValue(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--engine=LiveGraph|PagedLiveGraph|LSMT]\n"
      "          [--shards=N] [--host=ADDR] [--port=N]\n"
      "          [--durability=none|wal|wal-fsync] [--wal-path=PATH]\n"
      "          [--checkpoint-dir=DIR] [--storage-path=FILE]\n"
      "          [--max-vertices=N] [--page-cache-pages=N]\n"
      "          [--scan-batch-edges=N]\n"
      "          [--reactors=N] [--idle-timeout-ms=N]\n"
      "          [--replica-of=HOST:PORT] [--replica-dir=DIR]\n"
      "          [--replica-checkpoint-epochs=N]\n"
      "          [--drain-deadline-ms=N] [--faults=SPEC]\n"
      "          [--metrics-port=N] [--slow-op-ms=N]\n"
      "  --reactors picks the epoll event-loop thread count (docs/SERVER.md\n"
      "  \"Event loop\"; 0, the default, = hardware concurrency). Commits\n"
      "  run on the event loops; with --durability=wal-fsync one flusher\n"
      "  thread per WAL performs the fdatasync while the committing\n"
      "  connection parks. --idle-timeout-ms closes connections silent\n"
      "  that long (0 = never).\n"
      "  --shards=N (N > 1) serves a hash-partitioned ShardedLiveGraph;\n"
      "  LiveGraph engine only. With durability the server recovers its\n"
      "  durable state on start; a sharded server uses --wal-path as its\n"
      "  per-shard WAL/checkpoint directory.\n"
      "  --replica-of runs a read-only follower of that primary\n"
      "  (docs/REPLICATION.md); --replica-dir makes its state durable.\n"
      "  SIGTERM drains gracefully: stop accepting, finish in-flight\n"
      "  requests (up to --drain-deadline-ms), final checkpoint, exit 0.\n"
      "  --faults installs fault-injection failpoints (docs/FAULTS.md);\n"
      "  requires a build with -DLIVEGRAPH_FAULTS=ON.\n"
      "  --metrics-port serves Prometheus text exposition on GET /metrics\n"
      "  (docs/OBSERVABILITY.md); 0 picks an ephemeral port. --slow-op-ms\n"
      "  traces requests/commits slower than N ms into a ring dumped by\n"
      "  SIGUSR1 and the STATS opcode (default 100, 0 disables).\n",
      argv0);
  return 2;
}

/// A restart whose recovery refused the durable state (the engine logged
/// the file) exits 1 rather than serve an empty store in its place.
template <typename T>
std::unique_ptr<T> RecoveredOrExit(std::unique_ptr<T> recovered) {
  if (recovered != nullptr) return recovered;
  livegraph::logging::LogLine("server.recover_failed");
  std::exit(1);
}

std::unique_ptr<livegraph::Store> MakeEngine(const Flags& flags) {
  using namespace livegraph;
  if (flags.engine == "LiveGraph" || flags.engine == "PagedLiveGraph") {
    GraphOptions options;
    options.max_vertices = flags.max_vertices;
    options.storage_path = flags.storage_path;
    const bool durable = flags.durability != "none";
    if (durable) {
      options.wal_path = flags.wal_path;
      options.fsync_wal = flags.durability == "wal-fsync";
    }
    if (flags.engine == "PagedLiveGraph") {
      // Out-of-core configuration: the engine owns a page-cache simulator
      // charging device latencies for the byte ranges scans really walk.
      // Durable restarts recover exactly like the plain engine.
      if (durable) {
        return std::make_unique<LiveGraphStore>(
            RecoveredOrExit(Graph::Recover(options, flags.checkpoint_dir)),
            PageCacheSim::Optane(flags.page_cache_pages));
      }
      return std::make_unique<LiveGraphStore>(
          options, PageCacheSim::Optane(flags.page_cache_pages));
    }
    if (flags.shards > 1) {
      ShardOptions sharded;
      sharded.shards = flags.shards;
      sharded.graph = options;
      sharded.graph.wal_path.clear();
      if (durable) {
        // --wal-path is the sharded durable DIRECTORY; restart == recover
        // (a fresh directory recovers to an empty store).
        sharded.dir = flags.wal_path;
        return RecoveredOrExit(ShardedStore::Recover(std::move(sharded)));
      }
      return std::make_unique<ShardedStore>(sharded);
    }
    if (durable) {
      // Restart path (§6): checkpoint (if any) + WAL tail replay.
      return std::make_unique<LiveGraphStore>(
          RecoveredOrExit(Graph::Recover(options, flags.checkpoint_dir)));
    }
    return std::make_unique<LiveGraphStore>(options);
  }
  if (flags.engine == "LSMT") return std::make_unique<LsmtStore>();
  return nullptr;
}

/// Binds the /metrics endpoint when --metrics-port is given. False only on
/// a bind failure — an operator who asked for scrapes must not silently
/// run without them.
bool StartMetricsEndpoint(const Flags& flags,
                          livegraph::MetricsHttpServer* http) {
  if (flags.metrics_port < 0) return true;
  if (!http->Start(flags.host,
                   static_cast<uint16_t>(flags.metrics_port))) {
    livegraph::logging::LogLine("server.metrics_bind_failed")
        .Str("host", flags.host)
        .I64("port", flags.metrics_port);
    return false;
  }
  return true;
}

/// Shared serve loop: sleep in 200 ms ticks (signals interrupt promptly
/// enough for a CLI) until SIGINT/SIGTERM, dumping the slow-op trace ring
/// to stderr whenever SIGUSR1 arrived.
void RunUntilSignal() {
  std::signal(SIGINT, HandleInt);
  std::signal(SIGTERM, HandleTerm);
  std::signal(SIGUSR1, HandleUsr1);
  while (g_stop == 0 && g_term == 0) {
    if (g_dump_slow != 0) {
      g_dump_slow = 0;
      livegraph::metrics::SlowOpRing::Instance().DumpToStderr();
    }
    struct timespec tick = {0, 200'000'000};
    nanosleep(&tick, nullptr);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Env-var spec (LIVEGRAPH_FAULTS) first, so an explicit --faults= below
  // overrides it.
  livegraph::faults::ConfigureFromEnv();
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (TakeValue(argv[i], "--engine", &flags.engine) ||
        TakeValue(argv[i], "--host", &flags.host) ||
        TakeValue(argv[i], "--durability", &flags.durability) ||
        TakeValue(argv[i], "--wal-path", &flags.wal_path) ||
        TakeValue(argv[i], "--checkpoint-dir", &flags.checkpoint_dir) ||
        TakeValue(argv[i], "--storage-path", &flags.storage_path) ||
        TakeValue(argv[i], "--replica-of", &flags.replica_of) ||
        TakeValue(argv[i], "--replica-dir", &flags.replica_dir)) {
      continue;
    }
    if (TakeValue(argv[i], "--port", &value)) {
      long long port = std::atoll(value.c_str());
      if (port < 0 || port > 65535) return Usage(argv[0]);
      flags.port = static_cast<uint16_t>(port);
    } else if (TakeValue(argv[i], "--shards", &value)) {
      flags.shards = std::atoi(value.c_str());
    } else if (TakeValue(argv[i], "--max-vertices", &value)) {
      flags.max_vertices = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (TakeValue(argv[i], "--page-cache-pages", &value)) {
      flags.page_cache_pages = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (TakeValue(argv[i], "--scan-batch-edges", &value)) {
      flags.scan_batch_edges =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (TakeValue(argv[i], "--reactors", &value)) {
      flags.reactors = std::atoi(value.c_str());
      if (flags.reactors < 0) return Usage(argv[0]);
    } else if (TakeValue(argv[i], "--idle-timeout-ms", &value)) {
      flags.idle_timeout_ms = std::atoll(value.c_str());
      if (flags.idle_timeout_ms < 0) return Usage(argv[0]);
    } else if (TakeValue(argv[i], "--replica-checkpoint-epochs", &value)) {
      flags.replica_checkpoint_epochs = std::atoll(value.c_str());
    } else if (TakeValue(argv[i], "--drain-deadline-ms", &value)) {
      flags.drain_deadline_ms = std::atoll(value.c_str());
    } else if (TakeValue(argv[i], "--metrics-port", &value)) {
      flags.metrics_port = std::atoi(value.c_str());
      if (flags.metrics_port < 0 || flags.metrics_port > 65535) {
        return Usage(argv[0]);
      }
    } else if (TakeValue(argv[i], "--slow-op-ms", &value)) {
      flags.slow_op_ms = std::atoll(value.c_str());
      if (flags.slow_op_ms < 0) return Usage(argv[0]);
    } else if (TakeValue(argv[i], "--faults", &value)) {
      std::string error;
      if (!livegraph::faults::Configure(value, &error)) {
        std::fprintf(stderr, "--faults: %s\n", error.c_str());
        return 2;
      }
      if (!livegraph::faults::Enabled()) {
        std::fprintf(stderr,
                     "--faults ignored: build with -DLIVEGRAPH_FAULTS=ON\n");
      }
    } else {
      return Usage(argv[0]);
    }
  }
  if (flags.durability != "none" && flags.durability != "wal" &&
      flags.durability != "wal-fsync") {
    return Usage(argv[0]);
  }
  if (flags.shards < 1 ||
      (flags.shards > 1 && flags.engine != "LiveGraph")) {
    std::fprintf(stderr, "--shards=N requires N >= 1 and --engine=LiveGraph\n");
    return Usage(argv[0]);
  }
  livegraph::metrics::SlowOpRing::Instance().set_threshold_nanos(
      static_cast<uint64_t>(flags.slow_op_ms) * 1'000'000u);

  // --- Follower mode: subscribe to a primary, serve reads only ---
  if (!flags.replica_of.empty()) {
    livegraph::Replica::Options replica_options;
    if (!ParseHostPort(flags.replica_of, &replica_options.primary_host,
                       &replica_options.primary_port)) {
      std::fprintf(stderr, "--replica-of wants HOST:PORT\n");
      return Usage(argv[0]);
    }
    replica_options.dir = flags.replica_dir;
    replica_options.graph.max_vertices = flags.max_vertices;
    replica_options.checkpoint_every_epochs =
        flags.replica_checkpoint_epochs;
    livegraph::Replica replica(replica_options);
    replica.Start();

    livegraph::GraphServer::Options options;
    options.host = flags.host;
    options.port = flags.port;
    options.scan_batch_edges = flags.scan_batch_edges;
    options.reactors = flags.reactors;
    options.idle_timeout_ms = flags.idle_timeout_ms;
    options.frontier = &replica.frontier();
    livegraph::GraphServer server(replica.store(), options);
    if (!server.Start()) {
      livegraph::logging::LogLine("server.bind_failed")
          .Str("host", flags.host)
          .I64("port", flags.port);
      return 1;
    }
    livegraph::MetricsHttpServer metrics_http;
    if (!StartMetricsEndpoint(flags, &metrics_http)) return 1;
    {
      livegraph::logging::LogLine line("server.start");
      line.Str("role", "follower")
          .Str("primary", flags.replica_of)
          .Str("host", flags.host)
          .U64("port", server.port())
          .I64("reactors", server.resolved_reactors())
          .Str("sha", livegraph::kBuildGitSha)
          .Str("build", livegraph::kBuildType)
          .Str("build_flags", livegraph::kBuildFlags)
          .I64("slow_op_ms", flags.slow_op_ms);
      if (flags.metrics_port >= 0) line.U64("metrics_port", metrics_http.port());
    }

    RunUntilSignal();
    livegraph::logging::LogLine("server.stop")
        .Str("role", "follower")
        .Bool("drain", g_term != 0)
        .I64("frontier", replica.frontier().Frontier());
    if (g_term != 0) {
      // Graceful: finish serving in-flight reads before detaching from
      // the primary (Replica::Stop persists nothing extra — its cadence
      // checkpoints already bound the re-stream on restart).
      server.Drain(flags.drain_deadline_ms);
    } else {
      server.Stop();
    }
    replica.Stop();
    return 0;
  }

  std::unique_ptr<livegraph::Store> engine = MakeEngine(flags);
  if (engine == nullptr) {
    std::fprintf(stderr, "unknown engine '%s'\n", flags.engine.c_str());
    return Usage(argv[0]);
  }

  livegraph::GraphServer::Options options;
  options.host = flags.host;
  options.port = flags.port;
  options.scan_batch_edges = flags.scan_batch_edges;
  options.reactors = flags.reactors;
  options.idle_timeout_ms = flags.idle_timeout_ms;
  // A durable LiveGraph primary accepts follower subscriptions; the hub
  // stays inert (and kSubscribe answers kUnavailable) for volatile or
  // baseline engines.
  livegraph::ReplicationHub hub;
  std::unique_ptr<livegraph::DomainFrontier> frontier;
  if (hub.Attach(*engine)) {
    options.replication = &hub;
    frontier = std::make_unique<livegraph::DomainFrontier>(hub.domain());
    options.frontier = frontier.get();
  }
  livegraph::GraphServer server(*engine, options);
  if (!server.Start()) {
    livegraph::logging::LogLine("server.bind_failed")
        .Str("host", flags.host)
        .I64("port", flags.port);
    return 1;
  }
  livegraph::MetricsHttpServer metrics_http;
  if (!StartMetricsEndpoint(flags, &metrics_http)) return 1;
  {
    livegraph::logging::LogLine line("server.start");
    line.Str("role", "primary")
        .Str("engine", engine->Name())
        .I64("shards", flags.shards)
        .Str("durability", flags.durability)
        .Bool("replication", hub.attached())
        .Str("host", flags.host)
        .U64("port", server.port())
        .I64("reactors", server.resolved_reactors())
        .Str("sha", livegraph::kBuildGitSha)
        .Str("build", livegraph::kBuildType)
        .Str("build_flags", livegraph::kBuildFlags)
        .I64("slow_op_ms", flags.slow_op_ms);
    if (flags.metrics_port >= 0) line.U64("metrics_port", metrics_http.port());
  }

  RunUntilSignal();
  if (g_term != 0) {
    // Graceful SIGTERM drain: stop accepting, let in-flight requests
    // finish (bounded), then take a final checkpoint so a clean restart
    // replays (almost) no WAL tail. A degraded engine skips the
    // checkpoint — its last good one must stay authoritative.
    livegraph::logging::LogLine("server.drain")
        .U64("connections", server.active_connections())
        .I64("deadline_ms", flags.drain_deadline_ms);
    server.Drain(flags.drain_deadline_ms);
    if (auto* sharded =
            dynamic_cast<livegraph::ShardedStore*>(engine.get())) {
      if (sharded->degraded_status() == livegraph::Status::kOk) {
        sharded->Checkpoint();
      }
    } else if (auto* live =
                   dynamic_cast<livegraph::LiveGraphStore*>(engine.get());
               live != nullptr && !flags.checkpoint_dir.empty()) {
      if (live->graph().degraded_status() == livegraph::Status::kOk) {
        live->graph().Checkpoint(flags.checkpoint_dir);
      }
    }
    livegraph::logging::LogLine("server.stop")
        .Str("role", "primary")
        .Bool("drain", true);
    return 0;
  }
  livegraph::logging::LogLine("server.stop")
      .Str("role", "primary")
      .Bool("drain", false)
      .U64("connections", server.active_connections());
  server.Stop();
  return 0;
}
