#include "workload/kronecker.h"

#include "util/random.h"

namespace livegraph {

std::vector<std::pair<vertex_t, vertex_t>> GenerateKronecker(
    const KroneckerOptions& options) {
  const uint64_t n = uint64_t{1} << options.scale;
  const uint64_t m = n * static_cast<uint64_t>(options.average_degree);
  std::vector<std::pair<vertex_t, vertex_t>> edges;
  edges.reserve(m);
  Xorshift rng(options.seed);
  const double ab = options.a + options.b;
  const double abc = ab + options.c;
  for (uint64_t e = 0; e < m; ++e) {
    uint64_t src = 0, dst = 0;
    for (int bit = 0; bit < options.scale; ++bit) {
      // Quadrant choice without branches (the draws are unpredictable):
      // [0,a) neither bit, [a,ab) dst bit, [ab,abc) src bit, [abc,1) both.
      const double r = rng.NextDouble();
      const bool in_dst = (r >= options.a) & ((r < ab) | (r >= abc));
      src |= uint64_t{r >= ab} << bit;
      dst |= uint64_t{in_dst} << bit;
    }
    edges.emplace_back(static_cast<vertex_t>(src), static_cast<vertex_t>(dst));
  }
  return edges;
}

}  // namespace livegraph
