#include "routing/yen.h"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "common/logging.h"

namespace pathrank::routing {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Deflation of a postponed entry's bound: the bound and the candidate's
/// cost sum the same edge costs in different orders, and the relative
/// rounding gap of such sums is orders of magnitude below this.
constexpr double kBoundDeflation = 1.0 - 1e-9;

/// True when some hop of `path` has a parallel edge, i.e. another
/// vertex-equal path can cost differently.
bool UsesParallelEdge(const RoadNetwork& network, const Path& path) {
  for (EdgeId e : path.edges) {
    const auto& rec = network.edge(e);
    int same_head = 0;
    for (EdgeId o : network.OutEdges(rec.from)) {
      same_head += network.edge(o).to == rec.to ? 1 : 0;
    }
    if (same_head > 1) return true;
  }
  return false;
}

}  // namespace

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

size_t YenEnumerator::SequenceHash::operator()(
    const std::vector<VertexId>& seq) const {
  // FNV-1a over the raw vertex ids; the map compares whole sequences, so
  // a collision costs a comparison, never a path.
  uint64_t h = 1469598103934665603ULL;
  for (VertexId v : seq) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  return static_cast<size_t>(h);
}

bool YenEnumerator::RunsLater(const Postponed& a, const Postponed& b) {
  if (a.bound != b.bound) return a.bound > b.bound;
  return a.generation > b.generation;
}

std::optional<Path> YenEnumerator::Next() {
  // Both latches make every later call O(1): exhaustion means the path
  // space is provably empty, and cancellation is sticky — the engine's
  // explicit Cancelled outcome is what lets us latch instead of re-running
  // the whole exhausted-state check on every call against an expired
  // token.
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
    generated_.emplace(accepted_.back().vertices,
                       Generated{0, candidates_.end()});
    return accepted_.back();
  }

  // Postpone the spurs of the most recently accepted path, then run
  // postponed searches until none can beat the cheapest candidate. A
  // cancelled search may have left a cheaper deviation unfound, so
  // popping from the pool could yield out-of-order paths: stop instead;
  // accepted() still holds a correct (partial) prefix.
  if (!Postpone(accepted_.size() - 1)) {
    cancelled_ = true;
    return std::nullopt;
  }
  while (true) {
    if (!postponed_.empty() &&
        (candidates_.empty() ||
         postponed_.front().bound <= candidates_.begin()->cost)) {
      std::pop_heap(postponed_.begin(), postponed_.end(), RunsLater);
      const Postponed entry = postponed_.back();
      postponed_.pop_back();
      if (!Run(entry)) {
        cancelled_ = true;
        return std::nullopt;
      }
      continue;
    }
    if (candidates_.empty()) {
      exhausted_ = true;
      return std::nullopt;
    }
    if (MakeEarlierRootsDue(*candidates_.begin())) continue;
    auto node = candidates_.extract(candidates_.begin());
    generated_.find(node.value().path.vertices)->second.pooled =
        candidates_.end();
    deviation_.push_back(node.value().spur_index);
    accepted_.push_back(std::move(node.value().path));
    return accepted_.back();
  }
}

bool YenEnumerator::Postpone(size_t base_index) {
  if (potential_ == nullptr) {
    // One reverse search per enumeration: the engine's own tree when it
    // keeps one for its spur searches, else a fresh one.
    potential_ = engine_->DistancesTo(target_, cancel_);
    if (potential_ == nullptr) {
      own_potential_ = ReverseTree(*network_, target_, cost_, cancel_).dist;
      potential_ = &own_potential_;
    }
  }
  if (potential_->empty()) return false;
  // For each spur position i on the base path: root = base[0..i], banned
  // (a) the i-th edge of every accepted path sharing that root and (b) all
  // root vertices except the spur node. Positions below the deviation
  // index are skipped (Lawler's rule, see yen.h).
  const Path& base = accepted_[base_index];
  const size_t deviation = deviation_[base_index];
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

    Postponed entry;
    entry.generation = next_generation_++;
    entry.base = base_index;
    entry.spur_index = i;
    entry.root_cost = root_cost;
    entry.bans_begin = banned_edges_.size();
    bans_.ClearEdges();
    for (const Path* p : sharing_) {
      if (i < p->edges.size() && !bans_.IsEdgeBanned(p->edges[i])) {
        bans_.BanEdge(p->edges[i]);
        banned_edges_.push_back(p->edges[i]);
      }
    }
    entry.bans_end = banned_edges_.size();

    // The spur path leaves by an allowed edge and then costs at least its
    // head's unbanned distance to the target.
    double best = kInf;
    for (EdgeId e : network_->OutEdges(spur)) {
      const VertexId head = network_->edge(e).to;
      if (bans_.IsEdgeBanned(e) || bans_.IsVertexBanned(head)) continue;
      best = std::min(best, cost_(e) + (*potential_)[head]);
    }
    if (best == kInf) {
      // No allowed edge reaches the target: the search would find nothing.
      banned_edges_.resize(entry.bans_begin);
      continue;
    }
    entry.bound = (root_cost + best) * kBoundDeflation;
    postponed_.push_back(entry);
    std::push_heap(postponed_.begin(), postponed_.end(), RunsLater);
  }
  return true;
}

bool YenEnumerator::Run(const Postponed& entry) {
  const Path& base = accepted_[entry.base];
  const size_t i = entry.spur_index;
  bans_.Clear();
  for (size_t j = 0; j < i; ++j) bans_.BanVertex(base.vertices[j]);
  for (size_t b = entry.bans_begin; b < entry.bans_end; ++b) {
    bans_.BanEdge(banned_edges_[b]);
  }

  SearchResult r =
      engine_->FindPath(base.vertices[i], target_, cost_, &bans_, cancel_);
  if (r.outcome == SearchOutcome::kCancelled) return false;
  if (r.outcome == SearchOutcome::kUnreachable) return true;
  const Path& spur_path = r.path;

  Candidate cand;
  cand.spur_index = i;
  cand.generation = entry.generation;
  cand.path.edges.reserve(i + spur_path.edges.size());
  cand.path.vertices.reserve(i + spur_path.vertices.size());
  cand.path.edges.assign(base.edges.begin(), base.edges.begin() + i);
  cand.path.edges.insert(cand.path.edges.end(), spur_path.edges.begin(),
                         spur_path.edges.end());
  cand.path.vertices.assign(base.vertices.begin(), base.vertices.begin() + i);
  cand.path.vertices.insert(cand.path.vertices.end(),
                            spur_path.vertices.begin(),
                            spur_path.vertices.end());
  cand.path.cost = entry.root_cost + spur_path.cost;
  cand.cost = cand.path.cost;
  PR_DCHECK(entry.bound <= cand.cost)
      << "bound " << entry.bound << " above cost " << cand.cost;

  // Dedup in eager Yen's order: the earliest-generated search keeps a
  // vertex sequence, so an earlier search replaces a later one's pooled
  // candidate. An accepted path's generator is always the earliest
  // (Next() runs every entry that could tie or precede it first).
  auto [it, fresh] = generated_.try_emplace(cand.path.vertices);
  if (!fresh) {
    if (it->second.generation < entry.generation) return true;
    PR_CHECK(it->second.pooled != candidates_.end())
        << "an earlier search found an accepted path";
    candidates_.erase(it->second.pooled);
  }
  RecomputeTotals(*network_, &cand.path);
  it->second = Generated{entry.generation,
                         candidates_.insert(std::move(cand)).first};
  return true;
}

bool YenEnumerator::MakeEarlierRootsDue(const Candidate& cand) {
  if (!network_->has_parallel_edges() ||
      !UsesParallelEdge(*network_, cand.path)) {
    return false;
  }
  const std::vector<VertexId>& seq = cand.path.vertices;
  bool any = false;
  for (Postponed& entry : postponed_) {
    const std::vector<VertexId>& root = accepted_[entry.base].vertices;
    if (entry.generation < cand.generation && entry.spur_index < seq.size() &&
        std::equal(root.begin(),
                   root.begin() +
                       static_cast<std::ptrdiff_t>(entry.spur_index) + 1,
                   seq.begin())) {
      entry.bound = -kInf;
      any = true;
    }
  }
  if (any) std::make_heap(postponed_.begin(), postponed_.end(), RunsLater);
  return any;
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
