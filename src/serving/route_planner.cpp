#include "serving/route_planner.h"

#include "common/logging.h"
#include "routing/cost_model.h"
#include "routing/preprocessed_graph.h"
#include "routing/shortest_path_engine.h"

namespace pathrank::serving {

const char* SpurEngineName(SpurEngine engine) {
  switch (engine) {
    case SpurEngine::kDijkstra: return "dijkstra";
    case SpurEngine::kAlt: return "alt";
  }
  return "?";
}

bool ParseSpurEngine(const std::string& text, SpurEngine* out) {
  if (text == "dijkstra") {
    *out = SpurEngine::kDijkstra;
  } else if (text == "alt") {
    *out = SpurEngine::kAlt;
  } else {
    return false;
  }
  return true;
}

const char* RouteStatusSlug(RouteStatus status) {
  switch (status) {
    case RouteStatus::kOk: return "ok";
    case RouteStatus::kUnknownVertex: return "unknown_vertex";
    case RouteStatus::kSameVertex: return "same_vertex";
    case RouteStatus::kUnreachable: return "unreachable";
    case RouteStatus::kBadRequest: return "bad_request";
    case RouteStatus::kDeadlineExceeded: return "deadline_exceeded";
  }
  return "?";
}

size_t RoutePlanner::CacheKeyHash::operator()(const CacheKey& key) const {
  // splitmix64 finalizer over the packed fields: cheap, and good enough
  // that grid-network id patterns do not cluster buckets.
  uint64_t h = (static_cast<uint64_t>(key.source) << 32) | key.destination;
  h ^= ((static_cast<uint64_t>(static_cast<uint32_t>(key.k)) << 32) |
        static_cast<uint32_t>(key.strategy)) *
       0x9e3779b97f4a7c15ULL;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<size_t>(h);
}

RoutePlanner::RoutePlanner(const RoutePlannerConfig& config, ScoreFn score)
    : score_(std::move(score)), config_(config) {
  PR_CHECK(score_ != nullptr) << "RoutePlanner needs a scoring backend";
  PR_CHECK((config_.network != nullptr) != (config_.store != nullptr))
      << "RoutePlannerConfig needs exactly one of network / store";
  if (config_.spur_engine == SpurEngine::kAlt && config_.network != nullptr) {
    // Pinned graphs never change, so one synchronous build at construction
    // serves every query this planner will ever answer. Store-backed ALT
    // planners instead read the store's per-epoch artifact per query.
    PR_CHECK(config_.num_landmarks >= 1);
    pinned_tables_ = std::make_shared<const routing::PreprocessedGraph>(
        *config_.network, routing::EdgeCostFn::TravelTime(*config_.network),
        config_.num_landmarks);
  }
}

RoutePlanner::CacheValue RoutePlanner::CacheLookup(
    const CacheKey& key, uint64_t epoch, uint64_t generation) const {
  common::MutexLock lock(cache_mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  const CacheEntry& entry = it->second->second;
  if (entry.epoch != epoch || entry.generation != generation) {
    // Enumerated against a superseded graph, or scored on a superseded
    // model: lazy invalidation. Erasing here (rather than at swap time)
    // keeps /v1/traffic and SwapSnapshot O(1) in the cache size and
    // means stale entries cost at most one miss each.
    lru_.erase(it->second);
    index_.erase(it);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // Touch: move the node to the front without invalidating iterators.
  lru_.splice(lru_.begin(), lru_, it->second);
  return entry.answer;
}

void RoutePlanner::CacheInsert(const CacheKey& key, uint64_t epoch,
                               uint64_t generation, CacheValue value) const {
  if (config_.cache_capacity == 0) return;
  common::MutexLock lock(cache_mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // A concurrent miss for the same key beat us here; both computed the
    // same deterministic answer (or ours is from a newer epoch or
    // generation, in which case overwriting is the invalidation), so last
    // insert wins.
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->second = CacheEntry{epoch, generation, std::move(value)};
    return;
  }
  lru_.emplace_front(key, CacheEntry{epoch, generation, std::move(value)});
  index_[key] = lru_.begin();
  while (lru_.size() > config_.cache_capacity) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

size_t RoutePlanner::cache_size() const {
  common::MutexLock lock(cache_mu_);
  return lru_.size();
}

RoutePlannerStats RoutePlanner::stats() const {
  RoutePlannerStats s;
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.enumerations = enumerations_.load(std::memory_order_relaxed);
  s.alt_fallbacks = alt_fallbacks_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  return s;
}

std::vector<routing::Path> RoutePlanner::Enumerate(
    const graph::RoadNetwork& network, const RouteRequest& request,
    const data::CandidateGenConfig& gen, const CancelToken* cancel,
    const std::shared_ptr<const routing::PreprocessedGraph>& tables,
    std::string* algo) const {
  enumerations_.fetch_add(1, std::memory_order_relaxed);

  // One engine per enumeration: engines are single-threaded scratch.
  // nullptr = Yen's own Dijkstra, bitwise the pre-seam behaviour.
  std::unique_ptr<routing::ShortestPathEngine> engine;
  SpurEngine ran = SpurEngine::kDijkstra;
  switch (config_.spur_engine) {
    case SpurEngine::kDijkstra:
      break;
    case SpurEngine::kAlt:
      if (tables != nullptr) {
        // Candidate generation enumerates under free-flow travel time —
        // the metric the tables were preprocessed with (checked again by
        // AltEngine per call).
        engine = std::make_unique<routing::AltEngine>(
            network, routing::EdgeCostFn::TravelTime(network), tables);
        ran = SpurEngine::kAlt;
      } else {
        // No current-epoch artifact (rebuild in flight, or preprocessing
        // never enabled): exact Dijkstra fallback, never stale bounds.
        alt_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
  }

  *algo = SpurEngineName(ran);
  // Single source of truth with training-data generation: served
  // candidates always match the training distribution.
  return data::GenerateCandidatePaths(network, request.source,
                                      request.destination, gen, cancel,
                                      engine.get());
}

RoutePlanner::CacheValue RoutePlanner::Rank(std::vector<routing::Path> paths,
                                            std::string algo) const {
  auto answer = std::make_shared<Answer>();
  answer->algo = std::move(algo);
  // The scorer takes ownership: the ranking it returns is the answer's
  // only copy of the paths.
  if (!paths.empty()) answer->ranked = score_(std::move(paths));
  return answer;
}

RouteResult RoutePlanner::Plan(const RouteRequest& request) const {
  // Capture the graph exactly once: everything below — validation,
  // enumeration, attribution — sees this one snapshot even if a swap
  // lands mid-query. The shared_ptr keeps the old graph alive until the
  // last in-flight query returns. For an ALT planner the preprocessing
  // artifact is captured in the SAME lock hold as the snapshot, and its
  // tables are used only when the epochs match — a query can never pair a
  // new graph with old landmark bounds (or vice versa).
  std::shared_ptr<const graph::GraphSnapshot> snapshot;
  std::shared_ptr<const routing::PreprocessedGraph> tables;
  const graph::RoadNetwork* network = config_.network;
  uint64_t epoch = 0;
  if (config_.store != nullptr) {
    GraphQueryView view = config_.store->CaptureForQuery();
    snapshot = std::move(view.snapshot);
    network = &snapshot->network();
    epoch = snapshot->epoch();
    if (config_.spur_engine == SpurEngine::kAlt &&
        view.artifact != nullptr && view.artifact->epoch == epoch) {
      tables = view.artifact->tables;
    }
  } else if (config_.spur_engine == SpurEngine::kAlt) {
    tables = pinned_tables_;
  }

  RouteResult result;
  result.graph_epoch = epoch;
  const size_t num_vertices = network->num_vertices();
  if (request.source >= num_vertices ||
      request.destination >= num_vertices) {
    const graph::VertexId offender =
        request.source >= num_vertices ? request.source
                                       : request.destination;
    result.status = RouteStatus::kUnknownVertex;
    result.message = "unknown vertex " + std::to_string(offender) +
                     " (network has " + std::to_string(num_vertices) +
                     " vertices)";
    return result;
  }
  if (request.source == request.destination) {
    result.status = RouteStatus::kSameVertex;
    result.message = "source and destination are both vertex " +
                     std::to_string(request.source) + "; nothing to rank";
    return result;
  }
  const int k = request.k > 0 ? request.k : config_.candidates.k;
  if (k <= 0) {
    result.status = RouteStatus::kBadRequest;
    result.message = "k must be positive (got " + std::to_string(k) + ")";
    return result;
  }
  // The cap applies to the CLIENT's k only: the operator's configured
  // default (candidates.k) is trusted however large, so starting the
  // server with --k 100 must not make every default-k query a 400.
  if (config_.max_k > 0 && request.k > config_.max_k) {
    result.status = RouteStatus::kBadRequest;
    result.message = "k = " + std::to_string(request.k) +
                     " exceeds this server's limit of " +
                     std::to_string(config_.max_k);
    return result;
  }

  data::CandidateGenConfig gen = config_.candidates;
  gen.k = k;
  const CacheKey key{request.source, request.destination,
                     static_cast<int>(gen.strategy), k};
  // Read once, before any scoring: an answer scored below is tagged with
  // a generation no newer than the snapshot the scorer captures, so a
  // swap that lands mid-query makes the next lookup miss rather than
  // serve this ranking as current.
  const uint64_t generation = ModelGeneration();
  CacheValue answer = CacheLookup(key, epoch, generation);
  if (answer != nullptr) {
    result.cache_hit = true;
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    // One token per query, chaining the request deadline to any external
    // cancel source. Expiry is sticky (the token latches), so checking it
    // after enumeration reliably distinguishes "ran out of budget" from
    // "ran out of paths". A query with neither a deadline nor a cancel
    // source enumerates with no token at all.
    const CancelToken token(request.deadline, request.cancel);
    const bool cancellable =
        request.deadline.bounded() || request.cancel != nullptr;
    std::string algo;
    std::vector<routing::Path> paths = Enumerate(
        *network, request, gen, cancellable ? &token : nullptr, tables, &algo);
    if (token.Expired()) {
      if (paths.empty()) {
        // Out of budget before the first candidate: nothing useful to
        // return. NOT cached — a verdict cut short by a deadline says
        // nothing about the graph, and caching it would poison later
        // unhurried queries with a false "unreachable".
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        result.status = RouteStatus::kDeadlineExceeded;
        result.message =
            "deadline expired before any candidate was found (route " +
            std::to_string(request.source) + " -> " +
            std::to_string(request.destination) + ")";
        return result;
      }
      // Graceful degradation: score and return what enumeration managed.
      // Same cache-poisoning rule — a partial set must never be served to
      // a later query as if it were the full top-k.
      degraded_.fetch_add(1, std::memory_order_relaxed);
      result.degraded = true;
      result.algo = std::move(algo);
      result.ranked = score_(std::move(paths));
      return result;
    }
    // A scorer exception propagates from here, before the insert: nothing
    // is cached.
    answer = Rank(std::move(paths), std::move(algo));
    CacheInsert(key, epoch, generation, answer);
  }

  // Attribute the engine that actually enumerated this answer — for a
  // hit, the one that seeded the cache entry (so hit and miss bodies
  // match).
  result.algo = answer->algo;
  if (answer->ranked.empty()) {
    result.status = RouteStatus::kUnreachable;
    result.message = "no route from " + std::to_string(request.source) +
                     " to " + std::to_string(request.destination) +
                     " (strategy " +
                     data::CandidateStrategyName(gen.strategy) + ")";
    return result;
  }
  // The cached answer must survive for the next hit: hand out a copy.
  result.ranked = answer->ranked;
  return result;
}

}  // namespace pathrank::serving
