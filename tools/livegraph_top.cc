// livegraph_top: live terminal dashboard for a running graph server
// (docs/OBSERVABILITY.md).
//
//   livegraph_top [--connect=HOST:PORT] [--interval-ms=N] [--once]
//
// Polls the server's STATS opcode (RemoteStore::Stats) and renders a
// refreshing view: per-opcode throughput and p50/p99 latency, commit and
// WAL activity, epoch/replication lag, open connections and transactions,
// a degraded banner, and the most recent slow-op traces. Rates are deltas
// between consecutive snapshots over the server's own monotonic clock, so
// a paused poller never inflates them. --once prints a single snapshot
// without ANSI clearing (scriptable).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "server/remote_store.h"
#include "util/metrics.h"

namespace {

using livegraph::RemoteStore;
using livegraph::metrics::HistogramSample;
using livegraph::metrics::Snapshot;

struct Flags {
  std::string host = "127.0.0.1";
  uint16_t port = 9271;
  int64_t interval_ms = 2000;
  bool once = false;
};

bool TakeValue(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--connect=HOST:PORT] [--interval-ms=N] [--once]\n",
               argv0);
  return 2;
}

/// Extracts the value of the single embedded label from a registered
/// metric name, e.g. `livegraph_server_requests_total{op="GET_NODE"}` ->
/// "GET_NODE". Empty when the name carries no label.
std::string_view LabelValue(std::string_view name) {
  size_t open = name.find("=\"");
  if (open == std::string_view::npos) return {};
  size_t close = name.find('"', open + 2);
  if (close == std::string_view::npos) return {};
  return name.substr(open + 2, close - open - 2);
}

double Ms(uint64_t nanos) { return static_cast<double>(nanos) / 1e6; }

/// Rate of a counter between two snapshots, per second of server
/// monotonic time. 0 on the first sample or a server restart (counter or
/// clock went backwards).
double Rate(const Snapshot& now, const Snapshot& prev,
            std::string_view name) {
  if (prev.mono_nanos == 0 || now.mono_nanos <= prev.mono_nanos) return 0;
  uint64_t current = now.counter(name);
  uint64_t before = prev.counter(name);
  if (current < before) return 0;
  double seconds =
      static_cast<double>(now.mono_nanos - prev.mono_nanos) / 1e9;
  return static_cast<double>(current - before) / seconds;
}

void RenderDashboard(const Snapshot& now, const Snapshot& prev,
                     const Flags& flags) {
  if (!flags.once) std::fputs("\x1b[H\x1b[2J", stdout);  // home + clear

  char when[32] = "-";
  time_t wall = static_cast<time_t>(now.wall_unix_micros / 1'000'000);
  struct tm parts;
  if (gmtime_r(&wall, &parts) != nullptr) {
    std::strftime(when, sizeof(when), "%Y-%m-%dT%H:%M:%SZ", &parts);
  }
  std::printf("livegraph_top — %s:%u — %s — build %s\n", flags.host.c_str(),
              unsigned{flags.port}, when, now.build_info.c_str());

  if (now.gauge("livegraph_degraded") != 0) {
    std::printf(
        "\x1b[1;41m DEGRADED: engine is read-only (durability failure) "
        "\x1b[0m\n");
  }

  std::printf(
      "conns %lld  open_txns %lld  commits/s %.0f  wal_appends/s %.0f  "
      "wal MB/s %.2f\n",
      static_cast<long long>(now.gauge("livegraph_server_connections")),
      static_cast<long long>(now.gauge("livegraph_server_open_txns")),
      Rate(now, prev, "livegraph_commit_txns_total"),
      Rate(now, prev, "livegraph_wal_appends_total"),
      Rate(now, prev, "livegraph_wal_bytes_total") / 1e6);

  std::printf(
      "epoch issued %lld visible %lld lag %lld  read_pins %lld  "
      "oldest_pin_age %lld\n",
      static_cast<long long>(now.gauge("livegraph_epoch_issued")),
      static_cast<long long>(now.gauge("livegraph_epoch_visible")),
      static_cast<long long>(now.gauge("livegraph_epoch_lag")),
      static_cast<long long>(now.gauge("livegraph_epoch_read_pins")),
      static_cast<long long>(now.gauge("livegraph_epoch_oldest_pin_age")));

  long long subscribers = now.gauge("livegraph_replication_subscribers");
  if (subscribers > 0) {
    std::printf(
        "replication: subscribers %lld  lag_epochs %lld  buffered MB %.2f\n",
        subscribers,
        static_cast<long long>(now.gauge("livegraph_replication_lag_epochs")),
        static_cast<double>(
            now.gauge("livegraph_replication_buffered_bytes")) /
            1e6);
  }

  // Event-loop frontend (docs/SERVER.md "Event loop"); absent when the
  // process serves no GraphServer. Loop count and connection total come
  // from the per-reactor connection gauges.
  int reactor_loops = 0;
  long long reactor_conns = 0;
  constexpr std::string_view kReactorConnsPrefix =
      "livegraph_server_reactor_connections{";
  for (const auto& [name, value] : now.gauges) {
    if (std::string_view(name).substr(0, kReactorConnsPrefix.size()) ==
        kReactorConnsPrefix) {
      ++reactor_loops;
      reactor_conns += value;
    }
  }
  if (reactor_loops > 0) {
    const HistogramSample* frames =
        now.histogram("livegraph_server_frames_per_wakeup");
    const HistogramSample* pending =
        now.histogram("livegraph_server_pending_write_bytes");
    std::printf(
        "reactors %d  conns %lld  wakeups/s %.0f  frames/wakeup p50 %llu  "
        "pending_write p99 %.1f KB  idle_closed %llu\n",
        reactor_loops, reactor_conns,
        Rate(now, prev, "livegraph_server_reactor_wakeups_total"),
        static_cast<unsigned long long>(frames != nullptr ? frames->p50 : 0),
        static_cast<double>(pending != nullptr ? pending->p99 : 0) / 1e3,
        static_cast<unsigned long long>(
            now.counter("livegraph_server_idle_closed_total")));
  }

  // Per-opcode table, skipping opcodes that have never been seen.
  std::printf("\n%-18s %10s %10s %10s %10s\n", "op", "req/s", "total",
              "p50 ms", "p99 ms");
  constexpr std::string_view kRequestsPrefix =
      "livegraph_server_requests_total{";
  for (const auto& [name, total] : now.counters) {
    if (total == 0 ||
        std::string_view(name).substr(0, kRequestsPrefix.size()) !=
            kRequestsPrefix) {
      continue;
    }
    std::string op(LabelValue(name));
    std::string latency_name =
        "livegraph_server_op_latency{op=\"" + op + "\"}";
    const HistogramSample* latency = now.histogram(latency_name);
    std::printf("%-18s %10.0f %10llu %10.3f %10.3f\n", op.c_str(),
                Rate(now, prev, name),
                static_cast<unsigned long long>(total),
                latency != nullptr ? Ms(latency->p50) : 0.0,
                latency != nullptr ? Ms(latency->p99) : 0.0);
  }

  if (!now.slow_ops.empty()) {
    std::printf("\nslow ops (%llu total):\n",
                static_cast<unsigned long long>(now.slow_ops_total));
    size_t shown = 0;
    for (size_t i = now.slow_ops.size(); i > 0 && shown < 5; --i, ++shown) {
      const livegraph::metrics::SlowOp& op = now.slow_ops[i - 1];
      std::printf("  %-12s %8.1f ms", op.name.c_str(), Ms(op.total_nanos));
      if (op.shard >= 0) std::printf("  shard %d", op.shard);
      if (op.epoch > 0) {
        std::printf("  epoch %lld", static_cast<long long>(op.epoch));
      }
      std::printf("\n");
    }
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (TakeValue(argv[i], "--connect", &value)) {
      size_t colon = value.rfind(':');
      int port = colon == std::string::npos
                     ? 0
                     : std::atoi(value.c_str() + colon + 1);
      if (colon == std::string::npos || colon == 0 || port <= 0 ||
          port > 65535) {
        std::fprintf(stderr, "--connect wants HOST:PORT\n");
        return Usage(argv[0]);
      }
      flags.host = value.substr(0, colon);
      flags.port = static_cast<uint16_t>(port);
    } else if (TakeValue(argv[i], "--interval-ms", &value)) {
      flags.interval_ms = std::atoll(value.c_str());
      if (flags.interval_ms < 100) flags.interval_ms = 100;
    } else if (std::strcmp(argv[i], "--once") == 0) {
      flags.once = true;
    } else {
      return Usage(argv[0]);
    }
  }

  std::unique_ptr<RemoteStore> store =
      RemoteStore::Connect(flags.host, flags.port);
  if (store == nullptr) {
    std::fprintf(stderr, "livegraph_top: cannot connect to %s:%u\n",
                 flags.host.c_str(), unsigned{flags.port});
    return 1;
  }

  Snapshot prev;
  while (true) {
    Snapshot now;
    if (!store->Stats(&now)) {
      // One reconnect attempt per poll: a server restart should resume
      // the dashboard, not kill it.
      store = RemoteStore::Connect(flags.host, flags.port);
      if (store == nullptr || !store->Stats(&now)) {
        std::fprintf(stderr, "livegraph_top: lost %s:%u\n",
                     flags.host.c_str(), unsigned{flags.port});
        return 1;
      }
    }
    RenderDashboard(now, prev, flags);
    if (flags.once) return 0;
    prev = std::move(now);
    struct timespec tick = {
        static_cast<time_t>(flags.interval_ms / 1000),
        static_cast<long>((flags.interval_ms % 1000) * 1'000'000)};
    nanosleep(&tick, nullptr);
  }
}
