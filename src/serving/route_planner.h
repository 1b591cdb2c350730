// Online route-ranking pipeline: the first request path that spans every
// layer of the repo. For one (origin, destination) query a RoutePlanner
//
//   1. validates the query against the road network (explicit error
//      taxonomy: unknown vertex, source == destination, unreachable pair,
//      malformed k),
//   2. enumerates candidate paths with the configured strategy (Yen
//      TkDI or D-TkDI — the same data::CandidateGenConfig training used,
//      so served candidates match the training distribution),
//   3. scores the candidates through the injected scoring seam (normally
//      ServingEngine::ScoreBatch — the same seam HttpBackend::score
//      uses), and
//   4. returns them ordered by descending predicted score.
//
// A path's score depends only on the path and the model weights, so the
// planner keeps an LRU cache of ANSWERS — the ranked ScoredPath list and
// the engine that enumerated it — keyed by (source, destination,
// strategy, k). Each entry is tagged with the graph epoch and the model
// generation (serving::ModelGeneration(), bumped by every
// ServingEngine::SwapSnapshot) it was computed at. A lookup is a hit only
// when both tags match the current ones; a hit returns the stored ranking
// and runs neither Yen nor the scorer. Because enumeration and scoring
// are both deterministic, a hit is bitwise identical to the miss that
// seeded it (route_planner_test asserts the HTTP bodies are
// byte-identical). A model swap costs each cached key one re-enumeration
// and re-scoring, the same as a /v1/traffic write.
//
// Live graph: a planner constructed over a GraphStore captures the
// current GraphSnapshot ONCE per query, so every response is computed
// against — and attributed to, via RouteResult::graph_epoch — exactly one
// graph version. The generation is read once per query too, before the
// scorer runs, so an entry never carries a newer generation than the
// snapshot that scored it and a stale ranking is never served as
// current. A lookup whose epoch or generation differs from the entry's
// treats it as a miss and erases it (lazy invalidation — neither
// /v1/traffic nor a swap walks the cache). Identical deadline-free
// queries that miss concurrently are collapsed by a per-key single-flight
// gate: one leader enumerates and scores, the followers wait on its
// condition variable and share the leader's (bitwise identical) answer,
// so an invalidation storm costs one enumeration and one scoring call per
// distinct key, not one per request.
//
// Spur engine: enumeration runs through the routing::ShortestPathEngine
// seam, selected by RoutePlannerConfig::spur_engine. An ALT planner over
// a GraphStore captures the snapshot AND the preprocessing artifact
// pairwise (one lock hold) per query, and uses the landmark tables only
// when the artifact's epoch matches the snapshot's — mid-rebuild queries
// fall back to plain Dijkstra (exact, just slower; counted in
// alt_fallbacks). Every engine returns exact shortest paths, so the
// response body is independent of the engine modulo the "algo" field.
//
// Counters: the planner counts cache hits and misses, invalidations,
// single-flight waits, enumerations, ALT fallbacks, deadline expiries
// and degraded answers, and stats() is their one read path.
//
// Thread-safety: Plan may be called concurrently from any number of
// threads (the HTTP worker pool does). The cache is guarded by one
// mutex; enumeration and scoring run outside it. Deadline-bounded or
// cancellable queries bypass the single-flight gate (each has its own
// budget, and a partial set must never be shared), so for those the old
// rule stands: concurrent misses for the same key may both enumerate and
// score, last insert wins.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/thread_annotations.h"
#include "data/candidate_generation.h"
#include "graph/road_network.h"
#include "routing/path.h"
#include "serving/graph_store.h"
#include "serving/serving_engine.h"

namespace pathrank::routing {
class PreprocessedGraph;
}  // namespace pathrank::routing

namespace pathrank::serving {

/// Which engine runs the Yen spur searches of candidate enumeration.
/// Every choice returns exact shortest paths, so the RANKED OUTPUT is
/// identical across engines (bitwise, when shortest paths are unique) —
/// only the work per query changes.
enum class SpurEngine {
  kDijkstra,  ///< plain Dijkstra (the default, and the exactness reference)
  kAlt,       ///< ALT landmarks; needs a per-epoch PreprocessedGraph
};

/// Stable lower_snake_case engine name ("dijkstra", "alt") — the
/// /v1/route "algo" vocabulary.
const char* SpurEngineName(SpurEngine engine);

/// Parses "dijkstra" / "alt" (the --spur-engine vocabulary). Returns
/// false on anything else, leaving *out untouched.
bool ParseSpurEngine(const std::string& text, SpurEngine* out);

/// Outcome taxonomy for one route query. Everything except kOk and
/// kDeadlineExceeded is a client-input condition and maps to a 4xx over
/// HTTP (kUnreachable to 404, the rest to 400) — never a 500.
/// kDeadlineExceeded maps to 504 Gateway Timeout: the budget ran out
/// before even one candidate was found. (When the budget runs out with
/// candidates in hand the planner degrades instead — kOk with
/// RouteResult::degraded set.)
enum class RouteStatus {
  kOk,
  kUnknownVertex,  ///< source or destination is not a vertex of the network
  kSameVertex,     ///< source == destination: nothing to rank
  kUnreachable,    ///< the strategy found no path between the endpoints
  kBadRequest,     ///< malformed parameters (k out of range)
  kDeadlineExceeded,  ///< budget expired with zero candidates found
};

/// Stable lower_snake_case slug ("unknown_vertex", ...) used in HTTP
/// error bodies and logs.
const char* RouteStatusSlug(RouteStatus status);

/// One (origin, destination) route query. k <= 0 means "use the
/// planner's configured candidate count"; an explicit non-positive k on
/// the wire is rejected by the HTTP layer before it gets here.
struct RouteRequest {
  RouteRequest() = default;
  /// Endpoint-and-k form: the common construction everywhere (tests, the
  /// HTTP layer, the bench driver). A real constructor rather than
  /// aggregate init so `{source, destination, k}` call sites neither
  /// repeat the deadline/cancel defaults nor trip
  /// -Wmissing-field-initializers under the -Wextra gate.
  RouteRequest(graph::VertexId source_in, graph::VertexId destination_in,
               int k_in = 0)
      : source(source_in), destination(destination_in), k(k_in) {}

  graph::VertexId source = graph::kInvalidVertex;
  graph::VertexId destination = graph::kInvalidVertex;
  int k = 0;
  /// Wall-clock budget for this query. Default unbounded. The HTTP layer
  /// anchors it at request receipt (X-Deadline-Ms header / budget_ms
  /// field, capped by HttpServerOptions), so parse time counts against
  /// the budget.
  Deadline deadline;
  /// Optional external cancellation (borrowed; must outlive Plan). The
  /// planner's internal token chains to it, so either source — deadline
  /// or caller — stops the enumeration.
  const CancelToken* cancel = nullptr;
};

/// One answered route query.
struct RouteResult {
  RouteStatus status = RouteStatus::kOk;
  /// Human-readable detail when status != kOk.
  std::string message;
  /// True when the answer came from the LRU cache: the stored ranking,
  /// computed at this query's graph epoch and model generation, served
  /// without running Yen or the scorer (set for cached unreachable
  /// verdicts too — negative results are cached so repeated dead-end
  /// queries also skip Yen).
  bool cache_hit = false;
  /// True when the deadline expired mid-enumeration but at least one
  /// candidate was already found: status is kOk and `ranked` holds the
  /// scored PARTIAL set (never cached — the next query re-enumerates).
  bool degraded = false;
  /// Epoch of the graph snapshot this query was answered against. Always
  /// 0 for a planner pinned to a bare RoadNetwork; for a planner over a
  /// GraphStore it names the one snapshot captured at query entry, so
  /// every response — including errors — is attributable to exactly one
  /// graph version.
  uint64_t graph_epoch = 0;
  /// Engine that enumerated this candidate set ("dijkstra" or "alt").
  /// On a cache hit: the engine that seeded the entry, so hit and miss
  /// bodies stay byte-identical. Empty on error results that never
  /// reached enumeration. An ALT planner mid-rebuild reports "dijkstra" —
  /// the fallback that actually ran.
  std::string algo;
  /// Candidates sorted by descending predicted score; empty unless kOk.
  std::vector<ScoredPath> ranked;
};

/// Planner construction: graph source and knobs in one struct with named
/// fields, replacing the old two-constructor (network vs store) split.
/// Exactly one of `network` / `store` must be set (both borrowed; the
/// caller keeps them alive for the planner's lifetime).
struct RoutePlannerConfig {
  /// Pinned-network form: every query runs against this network, epoch 0
  /// forever. The offline pipeline and single-graph tests use this.
  const graph::RoadNetwork* network = nullptr;
  /// Live-graph form: every query captures store->CaptureForQuery() once
  /// at entry, so /v1/traffic swaps take effect between queries, never
  /// within one.
  const GraphStore* store = nullptr;
  /// Candidate strategy and parameters; `candidates.k` is the default
  /// per-query k.
  data::CandidateGenConfig candidates;
  /// LRU capacity in answers. 0 disables caching (every query
  /// re-enumerates and re-scores).
  size_t cache_capacity = 1024;
  /// Largest CLIENT-supplied per-request k accepted (kBadRequest above
  /// it): enumeration cost grows with k, and an open endpoint must not
  /// let one request buy an unbounded Yen run. The configured default
  /// (candidates.k) is exempt — the operator set it deliberately, and a
  /// `--k` above this cap must not turn every default-k query into a
  /// 400. <= 0 disables the cap.
  int max_k = 64;
  /// Engine for the Yen spur searches. kAlt over a GraphStore uses the
  /// store's per-epoch artifact (EnablePreprocessing) and falls back to
  /// Dijkstra — exact, just slower — whenever the artifact trails the
  /// served epoch; kAlt over a pinned network builds private tables at
  /// planner construction.
  SpurEngine spur_engine = SpurEngine::kDijkstra;
  /// Landmark count for the pinned-network kAlt tables (store-backed
  /// planners take the landmark count from the store's PreprocessOptions).
  int num_landmarks = 8;
  /// Test seam: runs on the enumeration path, after the planner has
  /// committed to enumerating (and, for single-flight leaders, before
  /// followers are released). graph_swap_test uses it to hold a leader
  /// mid-flight until every follower is provably waiting. Leave unset in
  /// production.
  std::function<void()> enumeration_hook;
};

/// Point-in-time snapshot of the planner's counters, as one coherent
/// struct so /statsz renders them together. The planner is the only
/// counter of these events: the HTTP layer and the CLI's shutdown report
/// read them here. Individual fields may be a tick apart under
/// concurrent load (each is an independent relaxed atomic); each is
/// individually exact.
struct RoutePlannerStats {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Cache entries discarded because a lookup arrived from a different
  /// graph epoch or model generation than the entry was computed at.
  uint64_t invalidations = 0;
  /// Queries that joined an in-progress identical enumeration instead of
  /// running their own (single-flight followers).
  uint64_t single_flight_waits = 0;
  /// Candidate enumerations actually executed (cache misses minus
  /// single-flight coalescing).
  uint64_t enumerations = 0;
  /// Enumerations an ALT planner ran on the Dijkstra fallback because no
  /// current-epoch artifact was available (preprocessing disabled, or a
  /// rebuild still in flight). Always 0 for non-ALT planners.
  uint64_t alt_fallbacks = 0;
  /// Queries that ran out of budget with zero candidates (-> 504).
  uint64_t deadline_exceeded = 0;
  /// Queries answered with a partial candidate set (degraded == true).
  uint64_t degraded = 0;
};

/// The query -> candidates -> ranked-paths pipeline behind POST
/// /v1/route. Borrows the network or graph store (caller keeps it alive)
/// and owns a copy of the scoring seam.
class RoutePlanner {
 public:
  /// Scores candidate paths, returning them sorted by descending score —
  /// the contract of ServingEngine::ScoreBatch (same signature as
  /// HttpBackend::score, so the CLI reuses one lambda for both seams).
  /// Contract: for the same paths, a ScoreFn's output may change only
  /// through ServingEngine::SwapSnapshot. The planner serves a cached
  /// ranking for as long as ModelGeneration() is unchanged, so a scorer
  /// whose model moves any other way would be served stale.
  using ScoreFn =
      std::function<std::vector<ScoredPath>(std::vector<routing::Path>)>;

  /// The one constructor: graph source and knobs arrive together in the
  /// config (see RoutePlannerConfig field docs). Checks that exactly one
  /// of config.network / config.store is set.
  RoutePlanner(const RoutePlannerConfig& config, ScoreFn score);

  /// Answers one query. Thread-safe; never throws on bad input (that is
  /// what RouteResult::status is for). Exceptions out of the scoring
  /// backend propagate (the HTTP layer answers 500).
  RouteResult Plan(const RouteRequest& request) const
      EXCLUDES(cache_mu_, flight_mu_);

  /// Answers currently cached (<= config().cache_capacity).
  size_t cache_size() const EXCLUDES(cache_mu_);

  /// The counters' one read path (see RoutePlannerStats).
  RoutePlannerStats stats() const;

  const RoutePlannerConfig& config() const { return config_; }

 private:
  struct CacheKey {
    graph::VertexId source;
    graph::VertexId destination;
    int strategy;
    int k;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& key) const;
  };
  /// One complete answer: the scored candidates plus the engine that
  /// enumerated them. It holds the only copy of the paths (a ScoredPath
  /// is a Path plus its score). The algo travels WITH the ranking so a
  /// cache hit reports the engine that actually enumerated — keeping hit
  /// and miss response bodies byte-identical even when the planner's live
  /// engine choice would differ (e.g. an ALT planner that seeded the
  /// entry mid-rebuild).
  struct Answer {
    /// Sorted by descending score; empty = the unreachable verdict.
    std::vector<ScoredPath> ranked;
    /// SpurEngineName(...) of the engine that ran the enumeration.
    std::string algo;
  };
  /// Cached answers are shared_ptr so a hit can copy out an answer that a
  /// concurrent insert is about to evict.
  using CacheValue = std::shared_ptr<const Answer>;
  /// Each cached answer remembers the graph epoch it was enumerated at and
  /// the model generation read before it was scored; the key stays
  /// (source, destination, strategy, k) so a traffic write or a model swap
  /// costs nothing up front and stale entries never crowd out live ones —
  /// they are erased the first time a lookup with other tags touches them.
  /// The answer holds paths and scores only, never a snapshot handle, so
  /// a swapped-out model is freed however many answers it scored.
  struct CacheEntry {
    uint64_t epoch;
    uint64_t generation;
    CacheValue answer;
  };
  using LruNode = std::pair<CacheKey, CacheEntry>;

  /// One in-progress enumeration and scoring that identical queries can
  /// join. The leader publishes answer-or-error under `mu` and notifies;
  /// followers wait in a predicate loop. `epoch` and `generation` are
  /// immutable so a follower can tell a joinable flight from a stale one
  /// without taking `mu`.
  struct Flight {
    Flight(uint64_t epoch_in, uint64_t generation_in)
        : epoch(epoch_in), generation(generation_in) {}
    const uint64_t epoch;
    const uint64_t generation;
    /// All flights share kRouteFlight: a thread holds at most one
    /// flight's lock at a time (leaders publish, followers wait —
    /// never two flights in one scope), and never under flight_mu_.
    common::Mutex mu{common::LockRank::kRouteFlight, "planner.flight"};
    common::CondVar cv;
    bool done GUARDED_BY(mu) = false;
    CacheValue result GUARDED_BY(mu);
    std::exception_ptr error GUARDED_BY(mu);
  };

  CacheValue CacheLookup(const CacheKey& key, uint64_t epoch,
                         uint64_t generation) const EXCLUDES(cache_mu_);
  void CacheInsert(const CacheKey& key, uint64_t epoch, uint64_t generation,
                   CacheValue value) const EXCLUDES(cache_mu_);
  /// Runs one candidate enumeration (counter + test hook + Yen) with the
  /// configured spur engine and sets `*algo` to the engine that ran.
  /// `tables` is the current-epoch ALT artifact (null = none available: a
  /// kAlt planner falls back to Dijkstra and counts alt_fallbacks_; other
  /// engines ignore it).
  std::vector<routing::Path> Enumerate(
      const graph::RoadNetwork& network, const RouteRequest& request,
      const data::CandidateGenConfig& gen, const CancelToken* cancel,
      const std::shared_ptr<const routing::PreprocessedGraph>& tables,
      std::string* algo) const;
  /// Scores a complete candidate set into an answer. An empty set is the
  /// unreachable verdict and never reaches the scorer.
  CacheValue Rank(std::vector<routing::Path> paths, std::string algo) const;
  /// Single-flight enumeration and scoring for deadline-free queries:
  /// exactly one caller per (key, epoch, generation) runs Yen and the
  /// scorer; the rest wait and share its answer. Rethrows the leader's
  /// exception in every joined caller.
  CacheValue RankSingleFlight(
      const CacheKey& key, uint64_t epoch, uint64_t generation,
      const graph::RoadNetwork& network, const RouteRequest& request,
      const data::CandidateGenConfig& gen,
      const std::shared_ptr<const routing::PreprocessedGraph>& tables) const
      EXCLUDES(flight_mu_, cache_mu_);

  ScoreFn score_;
  RoutePlannerConfig config_;
  /// Pinned-network kAlt only: tables built once at construction (the
  /// pinned graph never changes, so they never go stale). Store-backed
  /// planners take tables from the store's per-epoch artifact instead.
  std::shared_ptr<const routing::PreprocessedGraph> pinned_tables_;

  /// The planner's three locks never nest (lookup, flight wait and
  /// insert are sequential scopes of Plan), but they still get distinct
  /// ranks — table before flight before cache, matching the order the
  /// scopes RUN in — so a future refactor that nests them is forced into
  /// the deadlock-free order.
  mutable common::Mutex cache_mu_{common::LockRank::kRouteCache,
                                  "planner.cache"};
  /// Front = most recently used. The map indexes list nodes for O(1)
  /// lookup + splice-to-front.
  mutable std::list<LruNode> lru_ GUARDED_BY(cache_mu_);
  mutable std::unordered_map<CacheKey, std::list<LruNode>::iterator,
                             CacheKeyHash>
      index_ GUARDED_BY(cache_mu_);

  mutable common::Mutex flight_mu_ ACQUIRED_BEFORE(cache_mu_){
      common::LockRank::kRouteFlightTable, "planner.flight_table"};
  /// In-progress enumerations by key. An entry whose epoch or generation
  /// differs from the arriving query's is replaced (its leader still completes and
  /// notifies its own followers; the pointer-compare on erase keeps it
  /// from removing its successor).
  mutable std::unordered_map<CacheKey, std::shared_ptr<Flight>, CacheKeyHash>
      flights_ GUARDED_BY(flight_mu_);

  mutable std::atomic<uint64_t> cache_hits_{0};
  mutable std::atomic<uint64_t> cache_misses_{0};
  mutable std::atomic<uint64_t> invalidations_{0};
  mutable std::atomic<uint64_t> single_flight_waits_{0};
  mutable std::atomic<uint64_t> enumerations_{0};
  mutable std::atomic<uint64_t> deadline_exceeded_{0};
  mutable std::atomic<uint64_t> degraded_{0};
  mutable std::atomic<uint64_t> alt_fallbacks_{0};
};

}  // namespace pathrank::serving
