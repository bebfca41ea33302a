#include "workload/driver.h"

#include <chrono>
#include <mutex>
#include <thread>

namespace livegraph {

DriverResult RunClients(const DriverOptions& options, const ClientOp& op) {
  struct ClientState {
    LatencyHistogram overall;
    std::map<std::string, LatencyHistogram> per_class;
    std::map<Status, uint64_t> failures;
  };
  std::vector<ClientState> states(static_cast<size_t>(options.clients));
  std::vector<std::thread> threads;
  auto wall_start = std::chrono::steady_clock::now();
  for (int c = 0; c < options.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientState& state = states[static_cast<size_t>(c)];
      for (uint64_t i = 0; i < options.ops_per_client; ++i) {
        auto start = std::chrono::steady_clock::now();
        OpResult outcome = op(c, i);
        auto end = std::chrono::steady_clock::now();
        auto nanos = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count());
        state.overall.Record(nanos);
        state.per_class[outcome.op_class].Record(nanos);
        if (!outcome.ok()) state.failures[outcome.status]++;
        if (options.think_time_ns > 0) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(options.think_time_ns));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  auto wall_end = std::chrono::steady_clock::now();

  DriverResult result;
  result.seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  for (ClientState& state : states) {
    result.overall.Merge(state.overall);
    for (const auto& [status, count] : state.failures) {
      result.failures += count;
      result.failures_by_status[status] += count;
    }
    for (auto& [name, histogram] : state.per_class) {
      result.per_class[name].Merge(histogram);
    }
  }
  result.operations = static_cast<uint64_t>(options.clients) *
                          options.ops_per_client -
                      result.failures;
  return result;
}

}  // namespace livegraph
