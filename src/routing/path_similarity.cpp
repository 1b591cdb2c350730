#include "routing/path_similarity.h"

#include <algorithm>
#include <vector>

namespace pathrank::routing {

std::vector<graph::EdgeId> SortedEdgeSet(
    std::span<const graph::EdgeId> edges) {
  std::vector<graph::EdgeId> v(edges.begin(), edges.end());
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

double WeightedJaccard(const graph::RoadNetwork& network,
                       std::span<const graph::EdgeId> a,
                       std::span<const graph::EdgeId> b) {
  return WeightedJaccardSorted(network, SortedEdgeSet(a), SortedEdgeSet(b));
}

double WeightedJaccardSorted(const graph::RoadNetwork& network,
                             std::span<const graph::EdgeId> sa,
                             std::span<const graph::EdgeId> sb) {
  if (sa.empty() && sb.empty()) return 1.0;
  double inter = 0.0;
  double uni = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < sa.size() && j < sb.size()) {
    if (sa[i] == sb[j]) {
      const double len = network.edge(sa[i]).length_m;
      inter += len;
      uni += len;
      ++i;
      ++j;
    } else if (sa[i] < sb[j]) {
      uni += network.edge(sa[i]).length_m;
      ++i;
    } else {
      uni += network.edge(sb[j]).length_m;
      ++j;
    }
  }
  for (; i < sa.size(); ++i) uni += network.edge(sa[i]).length_m;
  for (; j < sb.size(); ++j) uni += network.edge(sb[j]).length_m;
  return uni > 0.0 ? inter / uni : 1.0;
}

}  // namespace pathrank::routing
