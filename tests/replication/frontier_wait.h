// Test helper: waits for a node's replication frontier by polling it. No
// server path blocks on a frontier (epoch-gated reads park and re-check),
// so the frontiers offer no blocking wait of their own.
#ifndef LIVEGRAPH_TESTS_REPLICATION_FRONTIER_WAIT_H_
#define LIVEGRAPH_TESTS_REPLICATION_FRONTIER_WAIT_H_

#include <chrono>
#include <cstdint>
#include <thread>

#include "replication/epoch_frontier.h"

namespace livegraph {

/// True once `frontier` covers `epoch`; false after `timeout_ms` without.
inline bool WaitCovered(const EpochFrontier& frontier, timestamp_t epoch,
                        int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (frontier.Frontier() < epoch) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace livegraph

#endif  // LIVEGRAPH_TESTS_REPLICATION_FRONTIER_WAIT_H_
