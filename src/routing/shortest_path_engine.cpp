#include "routing/shortest_path_engine.h"

#include <utility>

#include "common/logging.h"
#include "routing/preprocessed_graph.h"

namespace pathrank::routing {
namespace {

/// Classifies a router's std::nullopt: the token is sticky, so a search
/// that was cut short always reads Expired() == true afterwards. (The
/// converse misclassification — a genuinely unreachable pair whose token
/// expired just after the search finished — is conservative: the caller
/// stops instead of concluding unreachability, which is always safe.)
SearchResult Classify(std::optional<Path> path, const CancelToken* cancel) {
  if (path.has_value()) return SearchResult::Found(std::move(*path));
  if (cancel != nullptr && cancel->Expired()) return SearchResult::Cancelled();
  return SearchResult::Unreachable();
}

}  // namespace

SearchResult DijkstraEngine::FindPath(VertexId source, VertexId target,
                                      const EdgeCostFn& cost,
                                      const BanSet* bans,
                                      const CancelToken* cancel) {
  return Classify(dijkstra_.ShortestPath(source, target, cost, bans, cancel),
                  cancel);
}

AltEngine::AltEngine(const RoadNetwork& network, const EdgeCostFn& cost,
                     std::shared_ptr<const PreprocessedGraph> tables)
    : tables_(std::move(tables)), alt_(network, cost, tables_) {}

SearchResult AltEngine::FindPath(VertexId source, VertexId target,
                                 const EdgeCostFn& cost, const BanSet* bans,
                                 const CancelToken* cancel) {
  // The router's target tree (and its tables) are built under the
  // preprocessing metric; a mismatched query metric would silently return
  // wrong paths.
  PR_CHECK(tables_->CompatibleWith(cost))
      << "AltEngine query metric does not match the preprocessing metric";
  return Classify(alt_.ShortestPath(source, target, bans, cancel), cancel);
}

}  // namespace pathrank::routing
