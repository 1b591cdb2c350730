#include "routing/yen.h"

#include <algorithm>

#include "common/logging.h"

namespace pathrank::routing {

YenEnumerator::YenEnumerator(const RoadNetwork& network, VertexId source,
                             VertexId target, const EdgeCostFn& cost,
                             const CancelToken* cancel,
                             ShortestPathEngine* engine)
    : network_(&network),
      source_(source),
      target_(target),
      cost_(cost),
      cancel_(cancel),
      owned_engine_(engine == nullptr
                        ? std::make_unique<DijkstraEngine>(network)
                        : nullptr),
      engine_(engine != nullptr ? engine : owned_engine_.get()),
      bans_(network.num_vertices(), network.num_edges()) {}

uint64_t YenEnumerator::HashVertexSeq(
    const std::vector<VertexId>& seq) const {
  // FNV-1a over the raw vertex ids; collisions are vanishingly unlikely at
  // the path counts Yen enumerates (hundreds), and a collision merely
  // suppresses one candidate.
  uint64_t h = 1469598103934665603ULL;
  for (VertexId v : seq) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  return h;
}

std::optional<Path> YenEnumerator::Next() {
  // Both latches make every later call O(1): exhaustion means the path
  // space is provably empty, and cancellation is sticky — the engine's
  // explicit Cancelled outcome is what lets us latch instead of re-running
  // the whole exhausted-state check (spur pass + pool inspection) on every
  // call against an expired token.
  if (exhausted_ || cancelled_) return std::nullopt;
  if (cancel_ != nullptr && cancel_->Expired()) {
    cancelled_ = true;
    return std::nullopt;
  }

  if (!first_done_) {
    first_done_ = true;
    SearchResult r = engine_->FindPath(source_, target_, cost_,
                                       /*bans=*/nullptr, cancel_);
    if (r.outcome == SearchOutcome::kCancelled) {
      cancelled_ = true;
      return std::nullopt;
    }
    if (r.outcome == SearchOutcome::kUnreachable || r.path.edges.empty()) {
      exhausted_ = true;
      return std::nullopt;
    }
    accepted_.push_back(std::move(r.path));
    deviation_.push_back(0);
    seen_hash_.insert(HashVertexSeq(accepted_.back().vertices));
    return accepted_.back();
  }

  // Generate deviations of the most recently accepted path, then pop the
  // cheapest candidate overall.
  if (!GenerateSpurs(accepted_.back(), deviation_.back())) {
    // The spur pass was cut short, so the candidate pool may be missing
    // cheaper deviations: popping from it could yield out-of-order paths.
    // Stop here; accepted() still holds a correct (partial) prefix.
    cancelled_ = true;
    return std::nullopt;
  }
  if (candidates_.empty()) {
    exhausted_ = true;
    return std::nullopt;
  }
  auto node = candidates_.extract(candidates_.begin());
  deviation_.push_back(node.value().spur_index);
  accepted_.push_back(std::move(node.value().path));
  return accepted_.back();
}

bool YenEnumerator::GenerateSpurs(const Path& base, size_t deviation) {
  // For each spur position i on the base path: root = base[0..i],
  // ban (a) the i-th edge of every accepted path sharing that root and
  // (b) all root vertices except the spur node, then search spur->target.
  // Positions below `deviation` are skipped (Lawler's rule, see yen.h).
  double root_cost = 0.0;
  bans_.Clear();
  for (size_t j = 0; j < deviation; ++j) {
    root_cost += cost_(base.edges[j]);
    bans_.BanVertex(base.vertices[j]);
  }
  sharing_.clear();
  for (const Path& p : accepted_) {
    if (p.vertices.size() > deviation &&
        std::equal(p.vertices.begin(), p.vertices.begin() + deviation + 1,
                   base.vertices.begin())) {
      sharing_.push_back(&p);
    }
  }

  for (size_t i = deviation; i + 1 < base.vertices.size(); ++i) {
    const VertexId spur = base.vertices[i];
    if (i > deviation) {
      root_cost += cost_(base.edges[i - 1]);
      bans_.BanVertex(base.vertices[i - 1]);
      std::erase_if(sharing_, [i, spur](const Path* p) {
        return p->vertices.size() <= i || p->vertices[i] != spur;
      });
    }

    bans_.ClearEdges();
    for (const Path* p : sharing_) {
      if (i < p->edges.size()) bans_.BanEdge(p->edges[i]);
    }

    SearchResult r =
        engine_->FindPath(spur, target_, cost_, &bans_, cancel_);
    if (r.outcome == SearchOutcome::kCancelled) return false;
    if (r.outcome == SearchOutcome::kUnreachable) continue;
    Path& spur_path = r.path;

    Candidate cand;
    cand.spur_index = i;
    cand.path.edges.assign(base.edges.begin(), base.edges.begin() + i);
    cand.path.edges.insert(cand.path.edges.end(), spur_path.edges.begin(),
                           spur_path.edges.end());
    cand.path.vertices.assign(base.vertices.begin(),
                              base.vertices.begin() + i);
    cand.path.vertices.insert(cand.path.vertices.end(),
                              spur_path.vertices.begin(),
                              spur_path.vertices.end());
    const uint64_t h = HashVertexSeq(cand.path.vertices);
    if (!seen_hash_.insert(h).second) continue;  // already generated

    cand.path.cost = root_cost + spur_path.cost;
    cand.cost = cand.path.cost;
    RecomputeTotals(*network_, &cand.path);
    candidates_.insert(std::move(cand));
  }
  return true;
}

std::vector<Path> TopKShortestPaths(const RoadNetwork& network,
                                    VertexId source, VertexId target,
                                    const EdgeCostFn& cost, int k,
                                    const CancelToken* cancel,
                                    ShortestPathEngine* engine) {
  PR_CHECK(k >= 1) << "k must be positive";
  YenEnumerator yen(network, source, target, cost, cancel, engine);
  std::vector<Path> out;
  out.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    auto p = yen.Next();
    if (!p.has_value()) break;
    out.push_back(std::move(*p));
  }
  return out;
}

}  // namespace pathrank::routing
