#include "routing/diversified.h"

#include <algorithm>

#include "common/logging.h"
#include "routing/path_similarity.h"
#include "routing/yen.h"

namespace pathrank::routing {

std::vector<Path> DiversifiedTopK(const RoadNetwork& network, VertexId source,
                                  VertexId target, const EdgeCostFn& cost,
                                  const DiversifiedOptions& options,
                                  const CancelToken* cancel,
                                  ShortestPathEngine* engine) {
  PR_CHECK(options.k >= 1);
  PR_CHECK(options.similarity_threshold >= 0.0 &&
           options.similarity_threshold <= 1.0);

  // The enumerator polls the token inside every spur search; an expired
  // token makes Next() return nullopt, which ends the loop below and
  // falls through to the normal pad-and-sort — so a cancelled run returns
  // a well-formed (just shorter) candidate set.
  YenEnumerator yen(network, source, target, cost, cancel, engine);
  std::vector<Path> accepted;
  // accepted[i]'s edge set, sorted once for every later comparison.
  std::vector<std::vector<EdgeId>> accepted_sets;
  std::vector<Path> rejected;
  int enumerated = 0;
  while (static_cast<int>(accepted.size()) < options.k &&
         enumerated < options.max_enumerated) {
    auto next = yen.Next();
    if (!next.has_value()) break;
    ++enumerated;
    std::vector<EdgeId> set = SortedEdgeSet(next->edges);
    bool diverse = true;
    for (const std::vector<EdgeId>& a : accepted_sets) {
      if (WeightedJaccardSorted(network, set, a) >
          options.similarity_threshold) {
        diverse = false;
        break;
      }
    }
    if (diverse) {
      accepted.push_back(std::move(*next));
      accepted_sets.push_back(std::move(set));
    } else if (options.pad_with_rejected) {
      rejected.push_back(std::move(*next));
    }
  }

  if (options.pad_with_rejected) {
    // Rejected paths arrive in cost order; take the cheapest ones.
    for (Path& p : rejected) {
      if (static_cast<int>(accepted.size()) >= options.k) break;
      accepted.push_back(std::move(p));
    }
    std::sort(accepted.begin(), accepted.end(),
              [](const Path& a, const Path& b) { return a.cost < b.cost; });
  }
  return accepted;
}

}  // namespace pathrank::routing
