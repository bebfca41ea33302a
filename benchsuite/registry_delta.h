// Timed-phase deltas over the process-global metrics registry. The
// registry also counts the graph load's commits and WAL bytes, so every
// per-layer counter and histogram mean is taken as after-minus-before
// around the measured phases. Histogram quantiles cannot be subtracted;
// p99s read from here are cumulative over the whole process.
#ifndef LIVEGRAPH_BENCHSUITE_REGISTRY_DELTA_H_
#define LIVEGRAPH_BENCHSUITE_REGISTRY_DELTA_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "util/metrics.h"

namespace livegraph::suite {

class RegistryDelta {
 public:
  /// Adds the change between two snapshots of one phase.
  void Add(const metrics::Snapshot& before, const metrics::Snapshot& after) {
    for (const auto& [name, value] : after.counters) {
      counters_[name] += value - before.counter(name);
    }
    for (const metrics::HistogramSample& sample : after.histograms) {
      Hist& hist = histograms_[sample.name];
      const metrics::HistogramSample* old = before.histogram(sample.name);
      hist.count += sample.count - (old != nullptr ? old->count : 0);
      hist.sum += sample.sum - (old != nullptr ? old->sum : 0.0);
      hist.p99_cumulative = sample.p99;
    }
  }

  uint64_t Counter(std::string_view name) const {
    auto it = counters_.find(name);
    return it != counters_.end() ? it->second : 0;
  }

  /// Sum over every counter whose name starts with `prefix` (all label
  /// values of one family).
  uint64_t CounterFamily(std::string_view prefix) const {
    uint64_t total = 0;
    for (const auto& [name, value] : counters_) {
      if (std::string_view(name).substr(0, prefix.size()) == prefix) {
        total += value;
      }
    }
    return total;
  }

  /// Mean observation over the phases, in the histogram's raw unit.
  double HistMean(std::string_view name) const {
    auto it = histograms_.find(name);
    if (it == histograms_.end() || it->second.count == 0) return 0.0;
    return it->second.sum / double(it->second.count);
  }

  uint64_t HistP99Cumulative(std::string_view name) const {
    auto it = histograms_.find(name);
    return it != histograms_.end() ? it->second.p99_cumulative : 0;
  }

 private:
  struct Hist {
    uint64_t count = 0;
    double sum = 0;
    uint64_t p99_cumulative = 0;
  };
  std::map<std::string, uint64_t, std::less<>> counters_;
  std::map<std::string, Hist, std::less<>> histograms_;
};

}  // namespace livegraph::suite

#endif  // LIVEGRAPH_BENCHSUITE_REGISTRY_DELTA_H_
