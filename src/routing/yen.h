// Yen's algorithm for k shortest loopless paths, exposed both as a one-shot
// TopKShortestPaths() and as an incremental enumerator (YenEnumerator) that
// yields simple paths in non-decreasing cost order. The enumerator form is
// what the diversified top-k generator consumes: it keeps pulling paths
// until enough mutually-dissimilar ones have been accepted.
//
// Spur searches run through the pluggable ShortestPathEngine seam: by
// default an owned plain Dijkstra (bitwise identical to the pre-seam
// enumerator), or any caller-supplied engine — the serving layer passes an
// ALT engine over per-epoch landmark tables to accelerate cold routes.
// Because every engine is exact, the candidate sets are identical across
// engines whenever shortest paths are unique.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <unordered_set>
#include <vector>

#include "routing/ban_set.h"
#include "routing/cost_model.h"
#include "routing/path.h"
#include "routing/shortest_path_engine.h"

namespace pathrank::routing {

/// Incremental k-shortest-simple-paths enumerator (Yen 1971, with
/// Lawler's 1972 rule). Create one per (source, target) query; call Next()
/// repeatedly.
///
/// Lawler's rule: an accepted path is spurred only from its deviation
/// index on (the `Candidate::spur_index` it was generated at; 0 for the
/// shortest path). Below that index the path shares its parent's root
/// and next edge, which is already banned there, so the ban set equals
/// the one the last spur search from that root used. An engine answers
/// from its arguments alone, so the search would return a path already
/// generated, which the dedup drops. The output is therefore bitwise
/// identical to classic Yen, which spurs from index 0 (docs/routing.md
/// has the argument; yen_test checks it against a classic-Yen oracle).
///
/// Spur bookkeeping is incremental along the base path: the accepted
/// paths sharing the root are collected once at the deviation index and
/// narrowed as the spur position advances (a path stays while its next
/// vertex matches the base's), the banned root grows by one vertex per
/// position, and the root cost is a running sum in the same sequential
/// order as a fresh sum, so costs stay bit-equal.
class YenEnumerator {
 public:
  /// `cancel` (optional, borrowed — must outlive the enumerator) threads
  /// cooperative cancellation into every spur search. Once it expires,
  /// Next() returns std::nullopt; paths already accepted stay valid, which
  /// is what lets callers degrade to a partial candidate set.
  ///
  /// `engine` (optional, borrowed — must outlive the enumerator; not
  /// shareable across concurrent enumerators) runs every shortest-path
  /// search, including the spur searches. nullptr = an internally owned
  /// plain Dijkstra.
  YenEnumerator(const RoadNetwork& network, VertexId source, VertexId target,
                const EdgeCostFn& cost, const CancelToken* cancel = nullptr,
                ShortestPathEngine* engine = nullptr);

  /// Returns the next shortest simple path, or std::nullopt when the path
  /// space is exhausted or the cancel token has expired. The first call
  /// returns the shortest path.
  std::optional<Path> Next();

  /// Paths returned so far.
  const std::vector<Path>& accepted() const { return accepted_; }

  /// True when the path space is provably exhausted (every engine search
  /// that could extend it reported Unreachable and the candidate pool is
  /// empty). False after a cancellation — "ran out of time" is not "ran
  /// out of paths".
  bool exhausted() const { return exhausted_; }

  /// True once a search was cut short by the cancel token. Latched: no
  /// later Next() re-runs any search (the token is sticky, so none could
  /// make progress anyway).
  bool cancelled() const { return cancelled_; }

  /// The engine spur searches run through (diagnostics).
  const ShortestPathEngine& engine() const { return *engine_; }

 private:
  struct Candidate {
    double cost;
    // Deviation position: index into the parent path where the spur
    // starts. Once the candidate is accepted, Lawler's rule spurs it from
    // this index on.
    size_t spur_index;
    Path path;
    bool operator<(const Candidate& o) const {
      if (cost != o.cost) return cost < o.cost;
      return path.vertices < o.path.vertices;
    }
  };

  /// Generates deviations of `base` at spur positions `deviation` onward.
  /// Returns false when a spur search was cancelled mid-pass (the pool
  /// may be missing cheaper deviations).
  bool GenerateSpurs(const Path& base, size_t deviation);
  uint64_t HashVertexSeq(const std::vector<VertexId>& seq) const;

  const RoadNetwork* network_;
  VertexId source_;
  VertexId target_;
  EdgeCostFn cost_;
  const CancelToken* cancel_;
  std::unique_ptr<ShortestPathEngine> owned_engine_;
  ShortestPathEngine* engine_;
  BanSet bans_;
  std::vector<Path> accepted_;
  std::vector<size_t> deviation_;  // deviation index of each accepted path
  // Scratch: the accepted paths sharing the current spur root.
  std::vector<const Path*> sharing_;
  std::set<Candidate> candidates_;          // ordered pool (B set)
  // Dedup of generated paths by vertex sequence: on a multigraph, a
  // parallel-edge variant of a generated path is not a new path.
  std::unordered_set<uint64_t> seen_hash_;
  bool exhausted_ = false;
  bool cancelled_ = false;
  bool first_done_ = false;
};

/// One-shot convenience: up to k shortest simple paths in cost order.
/// When `cancel` expires mid-enumeration the paths found so far are
/// returned (possibly fewer than k, possibly zero). `engine` (optional,
/// borrowed) runs the spur searches; nullptr = owned plain Dijkstra.
std::vector<Path> TopKShortestPaths(const RoadNetwork& network,
                                    VertexId source, VertexId target,
                                    const EdgeCostFn& cost, int k,
                                    const CancelToken* cancel = nullptr,
                                    ShortestPathEngine* engine = nullptr);

}  // namespace pathrank::routing
