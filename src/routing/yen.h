// Yen's algorithm for k shortest loopless paths, exposed both as a one-shot
// TopKShortestPaths() and as an incremental enumerator (YenEnumerator) that
// yields simple paths in non-decreasing cost order. The enumerator form is
// what the diversified top-k generator consumes: it keeps pulling paths
// until enough mutually-dissimilar ones have been accepted.
//
// Spur searches run through the pluggable ShortestPathEngine seam: by
// default an owned plain Dijkstra, or any caller-supplied engine — the
// serving layer passes an ALT engine, which runs the spur searches on the
// target's reverse tree and shares that tree as the enumerator's
// potential. Because every engine is exact, the candidate sets are
// identical across engines whenever shortest paths are unique.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "routing/ban_set.h"
#include "routing/cost_model.h"
#include "routing/path.h"
#include "routing/shortest_path_engine.h"

namespace pathrank::routing {

/// Incremental k-shortest-simple-paths enumerator (Yen 1971, with
/// Lawler's 1972 rule and postponed spur searches). Create one per
/// (source, target) query; call Next() repeatedly.
///
/// Lawler's rule: an accepted path is spurred only from its deviation
/// index on (the `Candidate::spur_index` it was generated at; 0 for the
/// shortest path). Below that index the path shares its parent's root
/// and next edge, which is already banned there, so the ban set equals
/// the one the last spur search from that root used. An engine answers
/// from its arguments alone, so the search would return a path already
/// generated, which the dedup drops.
///
/// Postponed spur searches: accepting a path runs none of its searches.
/// Each spur position becomes a `Postponed` entry that stores its root
/// cost and banned next-edges and is keyed by a lower bound on the cost
/// of the path it can find: the root cost plus the cheapest allowed
/// first edge plus that edge's head's distance to the target in the
/// unbanned graph (`potential_`, one reverse Dijkstra per enumeration:
/// the engine's own tree through DistancesTo when it keeps one, else
/// ReverseTree), deflated by 1e-9 against summation-order rounding.
/// Next() runs an entry only while its bound is at most the cheapest
/// pooled candidate's cost, and drops an entry whose bound is infinite
/// unsearched. Entries are numbered in the order eager Yen would run them
/// (`generation`); when two searches find the same vertex sequence the
/// earlier one keeps it, replacing a later one still in the pool. On a
/// multigraph, where two searches can find one vertex sequence at
/// different costs, the earlier entries whose root is a prefix of a
/// candidate that uses a parallel edge run before that candidate is
/// accepted. Because every engine answers from its arguments alone,
/// running a search late returns what running it early would have. The
/// output is therefore bitwise identical to classic Yen, which spurs
/// every path from index 0 at once (docs/routing.md has the argument;
/// yen_test checks it against a classic-Yen oracle).
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
  /// cooperative cancellation into every search, the reverse one that
  /// computes the potential included. Once it expires,
  /// Next() returns std::nullopt; paths already accepted stay valid, which
  /// is what lets callers degrade to a partial candidate set.
  ///
  /// `engine` (optional, borrowed — must outlive the enumerator; not
  /// shareable across concurrent enumerators) runs every shortest-path
  /// search, including the spur searches. nullptr = an internally owned
  /// plain Dijkstra. While the enumerator is in use the engine must not
  /// be queried toward another target: the potential may be the engine's
  /// own tree (DistancesTo), valid only until such a query.
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
  /// that could extend it reported Unreachable or was provably empty, and
  /// the candidate pool is empty). False after a cancellation — "ran out
  /// of time" is not "ran out of paths".
  bool exhausted() const { return exhausted_; }

  /// True once a search was cut short by the cancel token. Latched: no
  /// later Next() re-runs any search (the token is sticky, so none could
  /// make progress anyway).
  bool cancelled() const { return cancelled_; }

  /// The engine spur searches run through (diagnostics).
  const ShortestPathEngine& engine() const { return *engine_; }

 private:
  struct Candidate {
    double cost = 0.0;
    // Deviation position: index into the parent path where the spur
    // starts. Once the candidate is accepted, Lawler's rule spurs it from
    // this index on.
    size_t spur_index = 0;
    // The generating entry's generation (0 for the shortest path).
    uint64_t generation = 0;
    Path path;
    bool operator<(const Candidate& o) const {
      if (cost != o.cost) return cost < o.cost;
      return path.vertices < o.path.vertices;
    }
  };
  using Pool = std::set<Candidate>;

  /// A spur search not run yet.
  struct Postponed {
    double bound = 0.0;  // lower bound on the cost of the path it finds
    // Position in eager Yen's search order; breaks bound ties and
    // decides dedup precedence.
    uint64_t generation = 0;
    size_t base = 0;  // index into accepted_
    size_t spur_index = 0;
    double root_cost = 0.0;
    // The banned next-edges, a range of banned_edges_.
    size_t bans_begin = 0;
    size_t bans_end = 0;
  };

  /// Heap order for postponed entries: the smallest bound on top, ties
  /// to the earlier generation.
  static bool RunsLater(const Postponed& a, const Postponed& b);

  /// The search that generated a vertex sequence, and where its
  /// candidate is (candidates_.end() once accepted).
  struct Generated {
    uint64_t generation = 0;
    Pool::iterator pooled;
  };

  struct SequenceHash {
    size_t operator()(const std::vector<VertexId>& seq) const;
  };

  /// Postpones the spur searches of accepted_[base] at positions from its
  /// deviation index on. Returns false when computing the potential was
  /// cancelled.
  bool Postpone(size_t base);
  /// Runs one postponed search and pools its candidate. Returns false
  /// when the search was cancelled.
  bool Run(const Postponed& entry);
  /// When `cand` uses a parallel edge, gives every entry generated before
  /// it whose root is a prefix of it the bound -inf, so they run, in
  /// generation order, before `cand` can be accepted. Returns whether
  /// there was any. On a network without parallel edges it returns false
  /// at once.
  bool MakeEarlierRootsDue(const Candidate& cand);

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
  Pool candidates_;  // ordered pool (B set)
  // Exact dedup of generated paths by vertex sequence: on a multigraph, a
  // parallel-edge variant of a generated path is not a new path.
  std::unordered_map<std::vector<VertexId>, Generated, SequenceHash>
      generated_;
  // d(v -> target) in the unbanned graph; nullptr until the first spur
  // pass. The engine's tree (DistancesTo), or own_potential_ when the
  // engine keeps none; empty when its build was cancelled.
  const std::vector<double>* potential_ = nullptr;
  std::vector<double> own_potential_;
  std::vector<Postponed> postponed_;  // min-heap on (bound, generation)
  std::vector<EdgeId> banned_edges_;  // backs Postponed::bans_*
  uint64_t next_generation_ = 1;
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
