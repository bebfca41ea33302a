// livegraph_server: stand-alone graph server binary (docs/SERVER.md).
//
//   livegraph_server [--engine=LiveGraph|PagedLiveGraph|LSMT]
//                    [--shards=N] [--host=127.0.0.1] [--port=9271]
//                    [--durability=none|wal|wal-fsync] [--wal-path=DIR]
//                    [--storage-path=FILE]
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
// enabled --wal-path names the durable DIRECTORY (<dir>/MANIFEST,
// <dir>/shard<i>/wal, <dir>/shard<i>/checkpoint/) at every shard count,
// and the server RECOVERS on start through ShardedStore::Recover (§6) —
// so restarting against a populated directory resumes exactly the
// committed state, never half of a cross-shard transaction. A one-shard
// server serves shard 0 through the engine's native sessions.
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

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
  /// Host, port, scan batch, reactors and idle timeout; the primary and
  /// follower paths add their frontier (and the primary its hub).
  livegraph::GraphServer::Options server{.port = 9271};
  std::string durability = "none";  // none | wal | wal-fsync
  std::string wal_path = "/tmp/livegraph_server_wal";  // durable directory
  std::string storage_path;
  size_t max_vertices = size_t{1} << 24;
  size_t page_cache_pages = size_t{1} << 16;  // PagedLiveGraph: 256 MiB
  std::string replica_of;   // "host:port" of the primary (follower mode)
  std::string replica_dir;  // follower durable dir (empty = in-memory)
  int64_t replica_checkpoint_epochs = 65536;
  int64_t drain_deadline_ms = 5000;  // SIGTERM graceful-drain bound
  int metrics_port = -1;  // /metrics HTTP port; -1 = disabled, 0 = ephemeral
  int64_t slow_op_ms = 100;  // slow-op trace threshold; 0 disables
};

/// Parses all of `text` as a decimal integer in [min, max] into `out`;
/// false on anything else (empty, a '+' sign, trailing junk, overflow,
/// out of range), leaving `out` untouched.
template <typename T>
bool ParseNumber(std::string_view text, int64_t min, int64_t max, T* out) {
  int64_t parsed = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc() || ptr != end || parsed < min || parsed > max) {
    return false;
  }
  *out = static_cast<T>(parsed);
  return true;
}

/// Upper bound of millisecond flags: converted to nanoseconds, they fit.
constexpr int64_t kMaxMs = INT64_MAX / 1'000'000;

/// Splits "host:port"; false on a missing/invalid port.
bool ParseHostPort(const std::string& spec, std::string* host,
                   uint16_t* port) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      !ParseNumber(std::string_view(spec).substr(colon + 1), 1, 65535,
                   port)) {
    return false;
  }
  *host = spec.substr(0, colon);
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
      "          [--durability=none|wal|wal-fsync] [--wal-path=DIR]\n"
      "          [--storage-path=FILE]\n"
      "          [--max-vertices=N] [--page-cache-pages=N]\n"
      "          [--scan-batch-edges=N]\n"
      "          [--reactors=N] [--idle-timeout-ms=N]\n"
      "          [--replica-of=HOST:PORT] [--replica-dir=DIR]\n"
      "          [--replica-checkpoint-epochs=N]\n"
      "          [--drain-deadline-ms=N] [--faults=SPEC]\n"
      "          [--metrics-port=N] [--slow-op-ms=N]\n"
      "  Every N is a whole decimal number in the flag's range.\n"
      "  --reactors picks the epoll event-loop thread count (docs/SERVER.md\n"
      "  \"Event loop\"; 0, the default, = hardware concurrency). Commits\n"
      "  run on the event loops; with --durability=wal-fsync one flusher\n"
      "  thread per WAL performs the fdatasync while the committing\n"
      "  connection parks. --idle-timeout-ms closes connections silent\n"
      "  that long (0 = never).\n"
      "  --shards=N (N > 1) serves a hash-partitioned ShardedLiveGraph;\n"
      "  LiveGraph engine only. With durability --wal-path is the\n"
      "  per-shard WAL/checkpoint directory, at any shard count, and the\n"
      "  server recovers it on start.\n"
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

/// The served engine, and the durable directory it recovered from.
struct Engine {
  /// Owns every durable LiveGraph engine, one shard included.
  std::unique_ptr<livegraph::ShardedStore> durable;
  /// Served in place of `durable`: a volatile engine, or a one-shard
  /// server's native store borrowing durable->shard(0) (declared after
  /// `durable`, so it goes first).
  std::unique_ptr<livegraph::Store> owned;

  livegraph::Store* served() const {
    if (owned != nullptr) return owned.get();
    return durable.get();
  }
};

Engine MakeEngine(const Flags& flags) {
  using namespace livegraph;
  Engine engine;
  if (flags.engine == "LiveGraph" || flags.engine == "PagedLiveGraph") {
    ShardOptions sharded;
    sharded.shards = flags.shards;
    sharded.graph.max_vertices = flags.max_vertices;
    sharded.graph.storage_path = flags.storage_path;
    // Out-of-core configuration: the engine owns a page-cache simulator
    // charging device latencies for the byte ranges scans really walk.
    std::optional<PageCacheSim::Options> pagesim;
    if (flags.engine == "PagedLiveGraph") {
      pagesim = PageCacheSim::Optane(flags.page_cache_pages);
    }
    if (flags.durability != "none") {
      // Restart == recover (§6); a fresh directory recovers to an empty
      // store.
      sharded.dir = flags.wal_path;
      sharded.graph.fsync_wal = flags.durability == "wal-fsync";
      engine.durable = RecoveredOrExit(ShardedStore::Recover(sharded));
      if (engine.durable->num_shards() == 1) {
        engine.owned = std::make_unique<LiveGraphStore>(
            engine.durable->shard(0), pagesim);
      }
    } else if (flags.shards > 1) {
      engine.owned = std::make_unique<ShardedStore>(sharded);
    } else if (pagesim.has_value()) {
      engine.owned = std::make_unique<LiveGraphStore>(sharded.graph, *pagesim);
    } else {
      engine.owned = std::make_unique<LiveGraphStore>(sharded.graph);
    }
  } else if (flags.engine == "LSMT") {
    engine.owned = std::make_unique<LsmtStore>();
  }
  return engine;
}

/// Binds the /metrics endpoint when --metrics-port is given. False only on
/// a bind failure — an operator who asked for scrapes must not silently
/// run without them.
bool StartMetricsEndpoint(const Flags& flags,
                          livegraph::MetricsHttpServer* http) {
  if (flags.metrics_port < 0) return true;
  if (!http->Start(flags.server.host,
                   static_cast<uint16_t>(flags.metrics_port))) {
    livegraph::logging::LogLine("server.metrics_bind_failed")
        .Str("host", flags.server.host)
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
        TakeValue(argv[i], "--host", &flags.server.host) ||
        TakeValue(argv[i], "--durability", &flags.durability) ||
        TakeValue(argv[i], "--wal-path", &flags.wal_path) ||
        TakeValue(argv[i], "--storage-path", &flags.storage_path) ||
        TakeValue(argv[i], "--replica-of", &flags.replica_of) ||
        TakeValue(argv[i], "--replica-dir", &flags.replica_dir)) {
      continue;
    }
    // Numeric flags: the whole value, in range, or a usage error.
    bool number_ok = true;
    if (TakeValue(argv[i], "--port", &value)) {
      number_ok = ParseNumber(value, 0, 65535, &flags.server.port);
    } else if (TakeValue(argv[i], "--shards", &value)) {
      number_ok = ParseNumber(value, 1, 1024, &flags.shards);
    } else if (TakeValue(argv[i], "--max-vertices", &value)) {
      number_ok = ParseNumber(value, 1, int64_t{1} << 40, &flags.max_vertices);
    } else if (TakeValue(argv[i], "--page-cache-pages", &value)) {
      number_ok =
          ParseNumber(value, 1, int64_t{1} << 32, &flags.page_cache_pages);
    } else if (TakeValue(argv[i], "--scan-batch-edges", &value)) {
      number_ok = ParseNumber(value, 1, UINT32_MAX,
                              &flags.server.scan_batch_edges);
    } else if (TakeValue(argv[i], "--reactors", &value)) {
      number_ok = ParseNumber(value, 0, 1024, &flags.server.reactors);
    } else if (TakeValue(argv[i], "--idle-timeout-ms", &value)) {
      number_ok =
          ParseNumber(value, 0, kMaxMs, &flags.server.idle_timeout_ms);
    } else if (TakeValue(argv[i], "--replica-checkpoint-epochs", &value)) {
      number_ok = ParseNumber(value, 0, INT64_MAX,
                              &flags.replica_checkpoint_epochs);
    } else if (TakeValue(argv[i], "--drain-deadline-ms", &value)) {
      number_ok = ParseNumber(value, 0, kMaxMs, &flags.drain_deadline_ms);
    } else if (TakeValue(argv[i], "--metrics-port", &value)) {
      number_ok = ParseNumber(value, 0, 65535, &flags.metrics_port);
    } else if (TakeValue(argv[i], "--slow-op-ms", &value)) {
      number_ok = ParseNumber(value, 0, kMaxMs, &flags.slow_op_ms);
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
    if (!number_ok) return Usage(argv[0]);
  }
  if (flags.durability != "none" && flags.durability != "wal" &&
      flags.durability != "wal-fsync") {
    return Usage(argv[0]);
  }
  if (flags.shards > 1 && flags.engine != "LiveGraph") {
    std::fprintf(stderr, "--shards=N (N > 1) requires --engine=LiveGraph\n");
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

    flags.server.frontier = &replica.frontier();
    livegraph::GraphServer server(replica.store(), flags.server);
    if (!server.Start()) {
      livegraph::logging::LogLine("server.bind_failed")
          .Str("host", flags.server.host)
          .I64("port", flags.server.port);
      return 1;
    }
    livegraph::MetricsHttpServer metrics_http;
    if (!StartMetricsEndpoint(flags, &metrics_http)) return 1;
    {
      livegraph::logging::LogLine line("server.start");
      line.Str("role", "follower")
          .Str("primary", flags.replica_of)
          .Str("host", flags.server.host)
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

  Engine engine = MakeEngine(flags);
  if (engine.served() == nullptr) {
    std::fprintf(stderr, "unknown engine '%s'\n", flags.engine.c_str());
    return Usage(argv[0]);
  }

  // A durable LiveGraph primary accepts follower subscriptions; the hub
  // stays inert (and kSubscribe answers kUnavailable) for volatile or
  // baseline engines.
  livegraph::ReplicationHub hub;
  std::unique_ptr<livegraph::DomainFrontier> frontier;
  if (engine.durable != nullptr && hub.Attach(*engine.durable)) {
    flags.server.replication = &hub;
    frontier = std::make_unique<livegraph::DomainFrontier>(hub.domain());
    flags.server.frontier = frontier.get();
  }
  livegraph::GraphServer server(*engine.served(), flags.server);
  if (!server.Start()) {
    livegraph::logging::LogLine("server.bind_failed")
        .Str("host", flags.server.host)
        .I64("port", flags.server.port);
    return 1;
  }
  livegraph::MetricsHttpServer metrics_http;
  if (!StartMetricsEndpoint(flags, &metrics_http)) return 1;
  {
    livegraph::logging::LogLine line("server.start");
    line.Str("role", "primary")
        .Str("engine", engine.served()->Name())
        .I64("shards", flags.shards)
        .Str("durability", flags.durability)
        .Bool("replication", hub.attached())
        .Str("host", flags.server.host)
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
    if (engine.durable != nullptr &&
        engine.durable->degraded_status() == livegraph::Status::kOk) {
      engine.durable->Checkpoint();
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
