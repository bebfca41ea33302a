// Multi-client benchmark driver: N client threads each execute a stream of
// operations, recording per-class latency histograms; aggregates
// throughput. Mirrors the paper's harness ("each client sends 500K query
// requests", optional recorded think times, §7.1/§7.2).
#ifndef LIVEGRAPH_WORKLOAD_DRIVER_H_
#define LIVEGRAPH_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/histogram.h"
#include "util/types.h"

namespace livegraph {

struct DriverResult {
  double seconds;
  /// Operations that completed successfully. Only these count toward
  /// throughput(): a saturated run where half the requests die (conflict
  /// budgets exhausted, remote store unreachable) must not report the
  /// failure rate as serving capacity.
  uint64_t operations = 0;
  /// Operations whose OpResult reported failure. Their latencies are still
  /// recorded in the histograms (the client paid them), but they are
  /// excluded from throughput.
  uint64_t failures = 0;
  /// `failures` split by the Status each failed operation reported.
  std::map<Status, uint64_t> failures_by_status;
  double throughput() const {
    return seconds > 0 ? double(operations) / seconds : 0.0;
  }
  double failure_rate() const {
    uint64_t attempts = operations + failures;
    return attempts > 0 ? double(failures) / double(attempts) : 0.0;
  }
  LatencyHistogram overall;
  std::map<std::string, LatencyHistogram> per_class;
};

/// Outcome of one client operation: its class name (histogram bucket) and
/// kOk, or the Status it failed with. Implicitly constructible from a bare
/// class name so read-only ops that cannot fail stay one
/// `return "GET_NODE";`.
struct OpResult {
  // NOLINTNEXTLINE(google-explicit-constructor)
  OpResult(const char* op_class) : op_class(op_class) {}

  bool ok() const { return status == Status::kOk; }

  const char* op_class;
  Status status = Status::kOk;
};

/// Marks an operation failed with `status` while keeping its class label.
inline OpResult FailedOp(const char* op_class, Status status) {
  OpResult result(op_class);
  result.status = status;
  return result;
}

/// One client's operation: executes op #i and reports its outcome.
using ClientOp = std::function<OpResult(int client, uint64_t i)>;

struct DriverOptions {
  int clients = 8;
  uint64_t ops_per_client = 100'000;
  /// Fixed think time between requests in nanoseconds (0 = closed loop at
  /// full speed, as in the paper's saturation runs).
  uint64_t think_time_ns = 0;
};

DriverResult RunClients(const DriverOptions& options, const ClientOp& op);

}  // namespace livegraph

#endif  // LIVEGRAPH_WORKLOAD_DRIVER_H_
