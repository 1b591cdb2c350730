// The pluggable point-to-point shortest-path seam.
//
// The two routers in this directory (Dijkstra and ALT) each have their
// own constructor/query shape, and YenEnumerator once hard-coded a
// Dijkstra member. ShortestPathEngine is the one query contract both
// adapt to:
//
//   FindPath(source, target, cost, bans, cancel) -> SearchResult
//
// with a tri-state result instead of an overloaded std::nullopt:
// kFound carries the path, kUnreachable means the path space is provably
// empty under the bans, kCancelled means the token expired before the
// search finished (the caller must NOT conclude anything about
// reachability). Yen's spur searches run through this seam, which is what
// lets the serving cold path swap plain Dijkstra for ALT.
//
// Engine instances are single-threaded scratch holders (like the routers
// they wrap): create one per enumeration/thread. They borrow the network
// (and, for ALT, share an immutable PreprocessedGraph) — the caller keeps
// both alive.
//
// Exactness contract: every adapter here returns an exact shortest path
// under the query metric, so swapping engines never changes path COSTS.
// When shortest paths are unique (no cost ties) the returned paths — and
// therefore Yen candidate sets — are bitwise identical across engines.
// Within one engine, FindPath's answer depends on its arguments alone:
// scratch state (including ALT's per-target tree) never changes a result.
// YenEnumerator relies on this twice: Lawler pruning skips searches that
// would repeat an earlier one, and postponed spur searches run later than
// eager Yen would, with the stored bans, and must get the same answer.
#pragma once

#include <memory>
#include <vector>

#include "common/deadline.h"
#include "routing/alt.h"
#include "routing/ban_set.h"
#include "routing/cost_model.h"
#include "routing/dijkstra.h"
#include "routing/path.h"

namespace pathrank::routing {

/// Tri-state outcome of one point-to-point query.
enum class SearchOutcome {
  kFound,        ///< `path` holds an exact shortest path
  kUnreachable,  ///< no path exists under the given bans
  kCancelled,    ///< the cancel token expired mid-search; reachability unknown
};

/// One answered point-to-point query.
struct SearchResult {
  SearchOutcome outcome = SearchOutcome::kUnreachable;
  /// Meaningful only when outcome == kFound.
  Path path;

  bool found() const { return outcome == SearchOutcome::kFound; }

  static SearchResult Found(Path p) {
    SearchResult r;
    r.outcome = SearchOutcome::kFound;
    r.path = std::move(p);
    return r;
  }
  static SearchResult Unreachable() { return SearchResult{}; }
  static SearchResult Cancelled() {
    SearchResult r;
    r.outcome = SearchOutcome::kCancelled;
    return r;
  }
};

/// Abstract point-to-point shortest-path engine. Not thread-safe; one
/// instance per concurrent enumeration.
class ShortestPathEngine {
 public:
  virtual ~ShortestPathEngine() = default;

  /// Exact shortest path from `source` to `target` under `cost`,
  /// excluding banned edges and banned (arrival) vertices. `bans` and
  /// `cancel` are optional and borrowed for the duration of the call.
  ///
  /// Ban semantics match Dijkstra's: a banned vertex blocks ARRIVAL (its
  /// in-edges), never departure — so a banned source still routes, and a
  /// banned target is unreachable. (Yen bans root vertices, which are
  /// never the spur node or the target.)
  virtual SearchResult FindPath(VertexId source, VertexId target,
                                const EdgeCostFn& cost, const BanSet* bans,
                                const CancelToken* cancel) = 0;

  /// Stable lower_snake_case engine name ("dijkstra", "alt") — surfaced
  /// as the /v1/route "algo" field.
  virtual const char* name() const = 0;

  /// Vertices settled by the last FindPath (diagnostics/benchmarks).
  virtual size_t last_settled_count() const = 0;

  /// d(v -> target) for every vertex in the unbanned graph under the
  /// engine's metric (+inf when v cannot reach the target), when the
  /// engine keeps the target's reverse tree for its own searches; a
  /// caller that needs those distances reads them here instead of running
  /// a second reverse search. The vector stays valid, and unchanged, until
  /// a call on the engine names another target; it is empty when `cancel`
  /// expired during the build. nullptr when the engine keeps no tree (the
  /// default); the caller then computes ReverseTree itself.
  virtual const std::vector<double>* DistancesTo(
      VertexId /*target*/, const CancelToken* /*cancel*/) {
    return nullptr;
  }
};

/// Plain Dijkstra. The default spur engine; YenEnumerator without an
/// explicit engine behaves bitwise identically to the pre-seam code.
class DijkstraEngine final : public ShortestPathEngine {
 public:
  explicit DijkstraEngine(const RoadNetwork& network) : dijkstra_(network) {}

  SearchResult FindPath(VertexId source, VertexId target,
                        const EdgeCostFn& cost, const BanSet* bans,
                        const CancelToken* cancel) override;
  const char* name() const override { return "dijkstra"; }
  size_t last_settled_count() const override {
    return dijkstra_.last_settled_count();
  }

 private:
  Dijkstra dijkstra_;
};

/// ALT (A* with landmarks): shares an immutable PreprocessedGraph built
/// for one (network, metric) pair. The per-call cost function MUST be the
/// metric the tables were preprocessed under — checked for the length and
/// travel-time kinds, the caller's responsibility for custom metrics.
/// Every query runs as A* on the target's exact reverse tree, with an
/// early stop where the tree suffix is clear of the bans (routing/alt.h);
/// the bound stays admissible under bans (removing edges only increases
/// true distances), so results stay exact. DistancesTo shares that tree,
/// so an enumeration through this engine runs one reverse search.
class AltEngine final : public ShortestPathEngine {
 public:
  /// `cost` must be the metric `tables` was preprocessed under.
  AltEngine(const RoadNetwork& network, const EdgeCostFn& cost,
            std::shared_ptr<const PreprocessedGraph> tables);

  SearchResult FindPath(VertexId source, VertexId target,
                        const EdgeCostFn& cost, const BanSet* bans,
                        const CancelToken* cancel) override;
  const char* name() const override { return "alt"; }
  size_t last_settled_count() const override {
    return alt_.last_settled_count();
  }
  const std::vector<double>* DistancesTo(VertexId target,
                                         const CancelToken* cancel) override {
    return &alt_.DistancesTo(target, cancel);
  }

 private:
  std::shared_ptr<const PreprocessedGraph> tables_;
  AltRouter alt_;
};

}  // namespace pathrank::routing
