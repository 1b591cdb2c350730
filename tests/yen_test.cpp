// Yen's k-shortest-paths and the diversified top-k generator, plus the
// classic-Yen oracle: the production enumerator (Lawler's rule, postponed
// spur searches, narrowed sharing list) must match Yen as originally
// specified bit for bit, and must stay a correct prefix when a search is
// cancelled.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "graph/network_builder.h"
#include "routing/ban_set.h"
#include "routing/cost_model.h"
#include "routing/diversified.h"
#include "routing/path_similarity.h"
#include "routing/preprocessed_graph.h"
#include "routing/shortest_path_engine.h"
#include "routing/yen.h"

namespace pathrank::routing {
namespace {

using graph::BuildSyntheticNetwork;
using graph::BuildTestNetwork;
using graph::RoadCategory;
using graph::RoadNetwork;
using graph::RoadNetworkBuilder;
using graph::SyntheticNetworkConfig;

/// Small diamond graph with known path spectrum between 0 and 3:
///   0->1->3 cost 2, 0->2->3 cost 4, 0->1->2->3 cost 5, 0->2->1->3 ... etc.
RoadNetwork MakeDiamond() {
  RoadNetworkBuilder b;
  for (int i = 0; i < 4; ++i) b.AddVertex({57.0 + 0.01 * i, 9.9});
  b.AddBidirectionalEdge(0, 1, 1.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(1, 3, 1.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(0, 2, 2.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(2, 3, 2.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(1, 2, 2.0, RoadCategory::kResidential);
  return b.Build();
}

TEST(Yen, DiamondSpectrumInOrder) {
  const RoadNetwork net = MakeDiamond();
  const auto cost = EdgeCostFn::Length(net);
  const auto paths = TopKShortestPaths(net, 0, 3, cost, 4);
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_NEAR(paths[0].cost, 2.0, 1e-9);  // 0-1-3
  EXPECT_NEAR(paths[1].cost, 4.0, 1e-9);  // 0-2-3
  EXPECT_NEAR(paths[2].cost, 5.0, 1e-9);  // 0-1-2-3
  EXPECT_NEAR(paths[3].cost, 5.0, 1e-9);  // 0-2-1-3
}

TEST(Yen, FirstPathIsShortest) {
  const RoadNetwork net = BuildTestNetwork();
  const auto cost = EdgeCostFn::Length(net);
  Dijkstra dijkstra(net);
  const auto sp = dijkstra.ShortestPath(0, 63, cost);
  const auto paths = TopKShortestPaths(net, 0, 63, cost, 5);
  ASSERT_FALSE(paths.empty());
  ASSERT_TRUE(sp.has_value());
  EXPECT_NEAR(paths[0].cost, sp->cost, 1e-9);
}

class YenProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(YenProperty, PathsAreSortedSimpleDistinctAndValid) {
  const RoadNetwork net = BuildTestNetwork(GetParam());
  const auto cost = EdgeCostFn::Length(net);
  pathrank::Rng rng(GetParam() * 13 + 1);
  for (int trial = 0; trial < 5; ++trial) {
    const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s == t) continue;
    const auto paths = TopKShortestPaths(net, s, t, cost, 8);
    ASSERT_FALSE(paths.empty());
    std::set<std::vector<VertexId>> seen;
    double prev_cost = 0.0;
    for (const Path& p : paths) {
      EXPECT_TRUE(ValidatePath(net, p).empty()) << ValidatePath(net, p);
      EXPECT_TRUE(IsSimplePath(p));
      EXPECT_EQ(p.source(), s);
      EXPECT_EQ(p.destination(), t);
      EXPECT_GE(p.cost, prev_cost - 1e-9);  // non-decreasing
      prev_cost = p.cost;
      EXPECT_TRUE(seen.insert(p.vertices).second) << "duplicate path";
    }
  }
}

TEST_P(YenProperty, EnumeratorMatchesOneShot) {
  const RoadNetwork net = BuildTestNetwork(GetParam() + 50);
  const auto cost = EdgeCostFn::Length(net);
  YenEnumerator yen(net, 0, 63, cost);
  std::vector<Path> incremental;
  for (int i = 0; i < 6; ++i) {
    auto p = yen.Next();
    if (!p.has_value()) break;
    incremental.push_back(*p);
  }
  const auto oneshot = TopKShortestPaths(net, 0, 63, cost, 6);
  ASSERT_EQ(incremental.size(), oneshot.size());
  for (size_t i = 0; i < oneshot.size(); ++i) {
    EXPECT_NEAR(incremental[i].cost, oneshot[i].cost, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, YenProperty, ::testing::Values(2, 8, 18, 44));

TEST(Yen, ExhaustsFiniteGraph) {
  // Line graph: exactly one simple path between the endpoints.
  RoadNetworkBuilder b;
  for (int i = 0; i < 4; ++i) b.AddVertex({57.0 + 0.01 * i, 9.9});
  for (int i = 0; i < 3; ++i) {
    b.AddBidirectionalEdge(static_cast<VertexId>(i),
                           static_cast<VertexId>(i + 1), 1.0,
                           RoadCategory::kResidential);
  }
  const RoadNetwork net = b.Build();
  const auto cost = EdgeCostFn::Length(net);
  const auto paths = TopKShortestPaths(net, 0, 3, cost, 10);
  EXPECT_EQ(paths.size(), 1u);
}

TEST(Yen, UnreachableYieldsEmpty) {
  RoadNetworkBuilder b;
  b.AddVertex({57.0, 9.9});
  b.AddVertex({57.1, 9.9});
  b.AddEdge(1, 0, 10.0, RoadCategory::kResidential);
  const RoadNetwork net = b.Build();
  const auto cost = EdgeCostFn::Length(net);
  EXPECT_TRUE(TopKShortestPaths(net, 0, 1, cost, 3).empty());
}

class DiversifiedProperty : public ::testing::TestWithParam<double> {};

TEST_P(DiversifiedProperty, PairwiseSimilarityRespectsThreshold) {
  const RoadNetwork net = BuildTestNetwork(77);
  const auto cost = EdgeCostFn::Length(net);
  DiversifiedOptions options;
  options.k = 6;
  options.similarity_threshold = GetParam();
  options.pad_with_rejected = false;  // strict mode for the property
  pathrank::Rng rng(91);
  for (int trial = 0; trial < 5; ++trial) {
    const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s == t) continue;
    const auto paths = DiversifiedTopK(net, s, t, cost, options);
    for (size_t i = 0; i < paths.size(); ++i) {
      for (size_t j = i + 1; j < paths.size(); ++j) {
        EXPECT_LE(WeightedJaccard(net, paths[i].edges, paths[j].edges),
                  GetParam() + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, DiversifiedProperty,
                         ::testing::Values(0.3, 0.5, 0.8));

TEST(Diversified, FirstPathIsShortest) {
  const RoadNetwork net = BuildTestNetwork(5);
  const auto cost = EdgeCostFn::Length(net);
  Dijkstra dijkstra(net);
  const auto sp = dijkstra.ShortestPath(3, 60, cost);
  DiversifiedOptions options;
  options.k = 5;
  const auto paths = DiversifiedTopK(net, 3, 60, cost, options);
  ASSERT_FALSE(paths.empty());
  ASSERT_TRUE(sp.has_value());
  EXPECT_NEAR(paths[0].cost, sp->cost, 1e-9);
}

TEST(Diversified, PaddingFillsUpToK) {
  const RoadNetwork net = BuildTestNetwork(6);
  const auto cost = EdgeCostFn::Length(net);
  DiversifiedOptions strict;
  strict.k = 8;
  strict.similarity_threshold = 0.05;  // extremely strict
  strict.pad_with_rejected = false;
  DiversifiedOptions padded = strict;
  padded.pad_with_rejected = true;
  const auto strict_paths = DiversifiedTopK(net, 0, 63, cost, strict);
  const auto padded_paths = DiversifiedTopK(net, 0, 63, cost, padded);
  EXPECT_GE(padded_paths.size(), strict_paths.size());
  EXPECT_LE(padded_paths.size(), 8u);
  // Padded output stays sorted by cost.
  for (size_t i = 1; i < padded_paths.size(); ++i) {
    EXPECT_GE(padded_paths[i].cost, padded_paths[i - 1].cost - 1e-9);
  }
}

TEST(Diversified, MoreDiverseThanTopK) {
  const RoadNetwork net = BuildTestNetwork(9);
  const auto cost = EdgeCostFn::Length(net);
  DiversifiedOptions options;
  options.k = 6;
  options.similarity_threshold = 0.6;
  pathrank::Rng rng(17);
  double topk_sim = 0.0;
  double div_sim = 0.0;
  int pairs = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s == t) continue;
    const auto topk = TopKShortestPaths(net, s, t, cost, options.k);
    const auto div = DiversifiedTopK(net, s, t, cost, options);
    const size_t n = std::min(topk.size(), div.size());
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        topk_sim += WeightedJaccard(net, topk[i].edges, topk[j].edges);
        div_sim += WeightedJaccard(net, div[i].edges, div[j].edges);
        ++pairs;
      }
    }
  }
  ASSERT_GT(pairs, 0);
  // The diversified sets must be meaningfully less self-similar.
  EXPECT_LT(div_sim, topk_sim);
}

// ---- Classic-Yen oracle ------------------------------------------------

/// Yen's algorithm as originally specified: every accepted path is spurred
/// from index 0; at each position the i-th edge of every accepted path
/// sharing the root is banned (found by a full prefix scan), the root
/// vertices are banned, and the root cost is summed afresh. Same
/// (cost, vertices) pool and vertex-sequence hash dedup as YenEnumerator.
class ClassicYen {
 public:
  ClassicYen(const RoadNetwork& network, VertexId source, VertexId target,
             const EdgeCostFn& cost, ShortestPathEngine* engine)
      : network_(&network),
        source_(source),
        target_(target),
        cost_(cost),
        engine_(engine),
        bans_(network.num_vertices(), network.num_edges()) {}

  std::optional<Path> Next() {
    if (exhausted_) return std::nullopt;
    if (accepted_.empty()) {
      SearchResult r =
          engine_->FindPath(source_, target_, cost_, nullptr, nullptr);
      if (!r.found() || r.path.edges.empty()) {
        exhausted_ = true;
        return std::nullopt;
      }
      accepted_.push_back(std::move(r.path));
      seen_.insert(Hash(accepted_.back().vertices));
      return accepted_.back();
    }
    GenerateSpurs(accepted_.back());
    if (pool_.empty()) {
      exhausted_ = true;
      return std::nullopt;
    }
    accepted_.push_back(pool_.begin()->path);
    pool_.erase(pool_.begin());
    return accepted_.back();
  }

  bool exhausted() const { return exhausted_; }

 private:
  struct Candidate {
    double cost;
    Path path;
    bool operator<(const Candidate& o) const {
      if (cost != o.cost) return cost < o.cost;
      return path.vertices < o.path.vertices;
    }
  };

  static uint64_t Hash(const std::vector<VertexId>& seq) {
    uint64_t h = 1469598103934665603ULL;
    for (VertexId v : seq) {
      h ^= v;
      h *= 1099511628211ULL;
    }
    return h;
  }

  void GenerateSpurs(const Path& base) {
    for (size_t i = 0; i + 1 < base.vertices.size(); ++i) {
      bans_.Clear();
      for (const Path& p : accepted_) {
        if (p.vertices.size() > i &&
            std::equal(p.vertices.begin(), p.vertices.begin() + i + 1,
                       base.vertices.begin()) &&
            i < p.edges.size()) {
          bans_.BanEdge(p.edges[i]);
        }
      }
      for (size_t j = 0; j < i; ++j) bans_.BanVertex(base.vertices[j]);
      SearchResult r = engine_->FindPath(base.vertices[i], target_, cost_,
                                         &bans_, nullptr);
      if (!r.found()) continue;
      Candidate cand;
      cand.path.edges.assign(base.edges.begin(), base.edges.begin() + i);
      cand.path.edges.insert(cand.path.edges.end(), r.path.edges.begin(),
                             r.path.edges.end());
      cand.path.vertices.assign(base.vertices.begin(),
                                base.vertices.begin() + i);
      cand.path.vertices.insert(cand.path.vertices.end(),
                                r.path.vertices.begin(),
                                r.path.vertices.end());
      if (!seen_.insert(Hash(cand.path.vertices)).second) continue;
      double root_cost = 0.0;
      for (size_t j = 0; j < i; ++j) root_cost += cost_(base.edges[j]);
      cand.path.cost = root_cost + r.path.cost;
      cand.cost = cand.path.cost;
      RecomputeTotals(*network_, &cand.path);
      pool_.insert(std::move(cand));
    }
  }

  const RoadNetwork* network_;
  VertexId source_;
  VertexId target_;
  EdgeCostFn cost_;
  ShortestPathEngine* engine_;
  BanSet bans_;
  std::vector<Path> accepted_;
  std::set<Candidate> pool_;
  std::unordered_set<uint64_t> seen_;
  bool exhausted_ = false;
};

/// Forwards to `inner` (its reverse tree included, as the planner's
/// engine serves it) and counts its searches; when `token` is given,
/// cancels it once `cancel_after` searches have run.
class CountingEngine final : public ShortestPathEngine {
 public:
  explicit CountingEngine(ShortestPathEngine* inner,
                          const CancelToken* token = nullptr,
                          size_t cancel_after = 0)
      : inner_(inner), token_(token), cancel_after_(cancel_after) {}

  SearchResult FindPath(VertexId source, VertexId target,
                        const EdgeCostFn& cost, const BanSet* bans,
                        const CancelToken* cancel) override {
    SearchResult r = inner_->FindPath(source, target, cost, bans, cancel);
    ++searches_;
    if (token_ != nullptr && searches_ == cancel_after_) token_->Cancel();
    return r;
  }
  const char* name() const override { return inner_->name(); }
  size_t last_settled_count() const override {
    return inner_->last_settled_count();
  }
  const std::vector<double>* DistancesTo(VertexId target,
                                         const CancelToken* cancel) override {
    return inner_->DistancesTo(target, cancel);
  }
  size_t searches() const { return searches_; }

 private:
  ShortestPathEngine* inner_;
  const CancelToken* token_;
  size_t cancel_after_;
  size_t searches_ = 0;
};

/// Forwards to `inner` and counts its searches; expires `token` just
/// before the `cancel_at`-th search, so that search is cut short inside
/// the engine.
class CancelInsideEngine final : public ShortestPathEngine {
 public:
  CancelInsideEngine(ShortestPathEngine* inner, const CancelToken* token,
                     size_t cancel_at)
      : inner_(inner), token_(token), cancel_at_(cancel_at) {}

  SearchResult FindPath(VertexId source, VertexId target,
                        const EdgeCostFn& cost, const BanSet* bans,
                        const CancelToken* cancel) override {
    if (++searches_ == cancel_at_) token_->Cancel();
    return inner_->FindPath(source, target, cost, bans, cancel);
  }
  const char* name() const override { return inner_->name(); }
  size_t last_settled_count() const override {
    return inner_->last_settled_count();
  }
  const std::vector<double>* DistancesTo(VertexId target,
                                         const CancelToken* cancel) override {
    return inner_->DistancesTo(target, cancel);
  }
  size_t searches() const { return searches_; }

 private:
  ShortestPathEngine* inner_;
  const CancelToken* token_;
  size_t cancel_at_;
  size_t searches_ = 0;
};

enum class EngineKind { kDijkstra, kAlt };

/// One network, its metric and its ALT tables; makes fresh engines.
struct OracleNetwork {
  OracleNetwork(std::string name_in, RoadNetwork net_in)
      : name(std::move(name_in)), net(std::move(net_in)) {}

  EdgeCostFn cost() const {
    return weights.empty() ? EdgeCostFn::TravelTime(net)
                           : EdgeCostFn::Custom(net, weights);
  }

  std::unique_ptr<ShortestPathEngine> MakeEngine(EngineKind kind) {
    if (kind == EngineKind::kDijkstra) {
      return std::make_unique<DijkstraEngine>(net);
    }
    if (tables == nullptr) {
      tables = std::make_shared<const PreprocessedGraph>(net, cost(), 4);
    }
    return std::make_unique<AltEngine>(net, cost(), tables);
  }

  std::string name;
  RoadNetwork net;
  std::vector<double> weights;  // backs a custom metric; empty otherwise
  std::shared_ptr<const PreprocessedGraph> tables;
};

OracleNetwork Synthetic(uint64_t seed) {
  SyntheticNetworkConfig config;
  config.rows = 12;
  config.cols = 12;
  config.seed = seed;
  return OracleNetwork("synthetic" + std::to_string(seed),
                       BuildSyntheticNetwork(config));
}

/// Jitter 0, no deletions, diagonals or motorway, and every segment costs
/// 1: all paths with the same number of edges tie exactly.
OracleNetwork PerfectGrid(int rows, int cols) {
  SyntheticNetworkConfig config;
  config.rows = rows;
  config.cols = cols;
  config.jitter = 0.0;
  config.deletion_prob = 0.0;
  config.diagonal_prob = 0.0;
  config.motorway = false;
  OracleNetwork out(
      "perfect" + std::to_string(rows) + "x" + std::to_string(cols),
      BuildSyntheticNetwork(config));
  out.weights.assign(out.net.num_edges(), 1.0);
  return out;
}

/// Integer edge weights in {1, 2, 3}: exact float sums, many exact ties.
OracleNetwork IntegerMetric(RoadNetwork net, uint64_t seed) {
  OracleNetwork out("integer" + std::to_string(seed), std::move(net));
  pathrank::Rng rng(seed);
  out.weights.resize(out.net.num_edges());
  for (double& w : out.weights) w = 1.0 + static_cast<double>(rng.NextBounded(3));
  return out;
}

/// Six vertices with two parallel segments, each with a second, longer
/// edge between the same vertices: a parallel-edge variant of a path has
/// the same vertex sequence but a different cost.
OracleNetwork Multigraph() {
  RoadNetworkBuilder b;
  for (int i = 0; i < 6; ++i) b.AddVertex({57.0 + 0.01 * i, 9.9 + 0.01 * (i % 2)});
  b.AddBidirectionalEdge(0, 1, 1.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(0, 1, 1.5, RoadCategory::kResidential);
  b.AddBidirectionalEdge(1, 3, 2.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(0, 2, 1.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(2, 4, 2.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(1, 4, 1.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(1, 4, 2.5, RoadCategory::kResidential);
  b.AddBidirectionalEdge(3, 5, 1.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(4, 5, 2.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(3, 4, 1.0, RoadCategory::kResidential);
  return OracleNetwork("multigraph", b.Build());
}

/// Costs whose float sums depend on the summation order. The shortest
/// path is 0-3-5 (0.2). The spur search at 0 finds 0-1-2-5 at
/// (0.3 + 0.2) + 0.1 = 0.6, but its bound sums 0.3 + (0.1 + 0.2) =
/// 0.6000000000000001, one ulp above. The spur search at 3 finds 0-3-4-5
/// at 0.1 + (0.2 + 0.3) = 0.6, an exact tie that sorts after 0-1-2-5.
OracleNetwork RoundingTie() {
  struct Segment {
    VertexId from;
    VertexId to;
    double cost;
  };
  constexpr Segment kSegments[] = {{0, 3, 0.1}, {3, 5, 0.1}, {0, 1, 0.3},
                                   {1, 2, 0.2}, {2, 5, 0.1}, {3, 4, 0.2},
                                   {4, 5, 0.3}};
  RoadNetworkBuilder b;
  for (int i = 0; i < 6; ++i) b.AddVertex({57.0 + 0.01 * i, 9.9});
  for (const Segment& seg : kSegments) {
    b.AddEdge(seg.from, seg.to, 100.0, RoadCategory::kResidential);
  }
  OracleNetwork out("roundingtie", b.Build());
  for (const Segment& seg : kSegments) out.weights.push_back(seg.cost);
  return out;
}

void ExpectBitwiseEqual(const Path& want, const Path& got,
                        const std::string& where) {
  EXPECT_EQ(want.vertices, got.vertices) << where;
  EXPECT_EQ(want.edges, got.edges) << where;
  EXPECT_EQ(std::bit_cast<uint64_t>(want.cost),
            std::bit_cast<uint64_t>(got.cost))
      << where;
  EXPECT_EQ(std::bit_cast<uint64_t>(want.length_m),
            std::bit_cast<uint64_t>(got.length_m))
      << where;
  EXPECT_EQ(std::bit_cast<uint64_t>(want.time_s),
            std::bit_cast<uint64_t>(got.time_s))
      << where;
}

void ExpectBitwiseEqual(const std::vector<Path>& want,
                        const std::vector<Path>& got,
                        const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    ExpectBitwiseEqual(want[i], got[i], where + " path " + std::to_string(i));
  }
}

std::string Where(const OracleNetwork& network, EngineKind kind, VertexId s,
                  VertexId t) {
  return network.name + (kind == EngineKind::kAlt ? " alt " : " dijkstra ") +
         std::to_string(s) + "->" + std::to_string(t);
}

struct SearchCounts {
  size_t lawler = 0;
  size_t classic = 0;
};

/// Enumerates (s, t) with YenEnumerator and ClassicYen, each through a
/// fresh engine of `kind`, for up to `max_paths` paths (0: to
/// exhaustion), and asserts bitwise-equal streams and equal exhausted().
SearchCounts ExpectTkdiMatchesOracle(OracleNetwork& network, EngineKind kind,
                                     VertexId s, VertexId t,
                                     size_t max_paths) {
  const std::string where = Where(network, kind, s, t);
  const EdgeCostFn cost = network.cost();
  auto lawler_inner = network.MakeEngine(kind);
  auto classic_inner = network.MakeEngine(kind);
  CountingEngine lawler_engine(lawler_inner.get());
  CountingEngine classic_engine(classic_inner.get());
  YenEnumerator lawler(network.net, s, t, cost, nullptr, &lawler_engine);
  ClassicYen classic(network.net, s, t, cost, &classic_engine);
  const size_t limit =
      max_paths == 0 ? std::numeric_limits<size_t>::max() : max_paths;
  std::vector<Path> want;
  std::vector<Path> got;
  for (size_t n = 0; n < limit; ++n) {
    auto a = classic.Next();
    auto b = lawler.Next();
    EXPECT_EQ(a.has_value(), b.has_value()) << where << " path " << n;
    if (!a.has_value() || !b.has_value()) break;
    want.push_back(std::move(*a));
    got.push_back(std::move(*b));
  }
  ExpectBitwiseEqual(want, got, where);
  EXPECT_EQ(classic.exhausted(), lawler.exhausted()) << where;
  if (max_paths == 0) {
    EXPECT_TRUE(lawler.exhausted()) << where;
  }
  EXPECT_FALSE(lawler.cancelled()) << where;
  EXPECT_LE(lawler_engine.searches(), classic_engine.searches()) << where;
  return {lawler_engine.searches(), classic_engine.searches()};
}

/// DiversifiedTopK's selection loop over any enumerator with Next().
template <typename Enumerator>
std::vector<Path> Diversify(const RoadNetwork& network, Enumerator& yen,
                            const DiversifiedOptions& options) {
  std::vector<Path> accepted;
  std::vector<Path> rejected;
  int enumerated = 0;
  while (static_cast<int>(accepted.size()) < options.k &&
         enumerated < options.max_enumerated) {
    auto next = yen.Next();
    if (!next.has_value()) break;
    ++enumerated;
    const bool diverse = std::all_of(
        accepted.begin(), accepted.end(), [&](const Path& a) {
          return WeightedJaccard(network, next->edges, a.edges) <=
                 options.similarity_threshold;
        });
    (diverse ? accepted : rejected).push_back(std::move(*next));
  }
  for (Path& p : rejected) {
    if (static_cast<int>(accepted.size()) >= options.k) break;
    accepted.push_back(std::move(p));
  }
  std::sort(accepted.begin(), accepted.end(),
            [](const Path& a, const Path& b) { return a.cost < b.cost; });
  return accepted;
}

/// D-TkDI (k = 10, threshold 0.6) through DiversifiedTopK equals the same
/// selection over ClassicYen, bit for bit.
SearchCounts ExpectDtkdiMatchesOracle(OracleNetwork& network, EngineKind kind,
                                      VertexId s, VertexId t) {
  const std::string where = Where(network, kind, s, t);
  const EdgeCostFn cost = network.cost();
  DiversifiedOptions options;
  options.k = 10;
  options.similarity_threshold = 0.6;
  auto lawler_inner = network.MakeEngine(kind);
  auto classic_inner = network.MakeEngine(kind);
  CountingEngine lawler_engine(lawler_inner.get());
  CountingEngine classic_engine(classic_inner.get());
  const std::vector<Path> got = DiversifiedTopK(
      network.net, s, t, cost, options, nullptr, &lawler_engine);
  ClassicYen classic(network.net, s, t, cost, &classic_engine);
  ExpectBitwiseEqual(Diversify(network.net, classic, options), got, where);
  return {lawler_engine.searches(), classic_engine.searches()};
}

/// Deterministic (s, t) pairs, s != t.
std::vector<std::pair<VertexId, VertexId>> Queries(const RoadNetwork& net,
                                                   uint64_t seed, int n) {
  pathrank::Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> out;
  while (static_cast<int>(out.size()) < n) {
    const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s != t) out.emplace_back(s, t);
  }
  return out;
}

constexpr EngineKind kEngineKinds[] = {EngineKind::kDijkstra,
                                       EngineKind::kAlt};

TEST(YenOracle, MatchesClassicYenOnRandomizedSyntheticNetworks) {
  SearchCounts dtkdi;
  for (const uint64_t seed : {3u, 11u, 17u, 29u, 73u}) {
    OracleNetwork network = Synthetic(seed);
    for (const auto& [s, t] : Queries(network.net, seed, 6)) {
      for (const EngineKind kind : kEngineKinds) {
        ExpectTkdiMatchesOracle(network, kind, s, t, /*max_paths=*/30);
        const SearchCounts c = ExpectDtkdiMatchesOracle(network, kind, s, t);
        dtkdi.lawler += c.lawler;
        dtkdi.classic += c.classic;
      }
    }
  }
  EXPECT_LT(dtkdi.lawler, dtkdi.classic);
}

TEST(YenOracle, DeadEndSpurPositionsRunNoSearch) {
  // 0 -> 3 has two simple paths, 0-1-2-3 and 0-1-6-3; the one-way edges
  // 1 -> 4 and 2 -> 5 lead to dead ends. Every spur position except
  // vertex 1 of the first path has only banned edges, edges into the
  // banned root or edges into a dead end left, so it runs no search.
  RoadNetworkBuilder b;
  for (int i = 0; i < 7; ++i) b.AddVertex({57.0 + 0.01 * i, 9.9});
  b.AddBidirectionalEdge(0, 1, 1.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(1, 2, 1.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(2, 3, 1.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(1, 6, 2.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(6, 3, 2.0, RoadCategory::kResidential);
  b.AddEdge(1, 4, 1.0, RoadCategory::kResidential);
  b.AddEdge(2, 5, 1.0, RoadCategory::kResidential);
  OracleNetwork network("deadend", b.Build());
  for (const EngineKind kind : kEngineKinds) {
    const SearchCounts c =
        ExpectTkdiMatchesOracle(network, kind, 0, 3, /*max_paths=*/0);
    // The shortest path, then the spur at vertex 1 of 0-1-2-3.
    EXPECT_EQ(c.lawler, 2u);
    // Classic Yen spurs 0-1-2-3 at 0, 1, 2 and 0-1-6-3 at 0, 1, 6.
    EXPECT_EQ(c.classic, 7u);
  }
}

TEST(YenOracle, MatchesClassicYenOnTieHeavyPerfectGrid) {
  // To exhaustion on a 4x4 grid (184 simple paths between opposite
  // corners)...
  OracleNetwork small = PerfectGrid(4, 4);
  SearchCounts small_counts;
  for (const auto& [s, t] : Queries(small.net, 4, 6)) {
    for (const EngineKind kind : kEngineKinds) {
      const SearchCounts c =
          ExpectTkdiMatchesOracle(small, kind, s, t, /*max_paths=*/0);
      small_counts.lawler += c.lawler;
      small_counts.classic += c.classic;
      ExpectDtkdiMatchesOracle(small, kind, s, t);
    }
  }
  EXPECT_LT(small_counts.lawler, small_counts.classic);
  // ...and prefixes on a 10x10 one.
  OracleNetwork grid = PerfectGrid(10, 10);
  SearchCounts counts;
  for (const auto& [s, t] : Queries(grid.net, 10, 6)) {
    for (const EngineKind kind : kEngineKinds) {
      const SearchCounts c =
          ExpectTkdiMatchesOracle(grid, kind, s, t, /*max_paths=*/40);
      counts.lawler += c.lawler;
      counts.classic += c.classic;
      ExpectDtkdiMatchesOracle(grid, kind, s, t);
    }
  }
  EXPECT_LT(counts.lawler, counts.classic);
}

TEST(YenOracle, MatchesClassicYenUnderAnIntegerMetric) {
  OracleNetwork small = IntegerMetric(PerfectGrid(3, 4).net, 5);
  for (const auto& [s, t] : Queries(small.net, 3, 6)) {
    for (const EngineKind kind : kEngineKinds) {
      ExpectTkdiMatchesOracle(small, kind, s, t, /*max_paths=*/0);
      ExpectDtkdiMatchesOracle(small, kind, s, t);
    }
  }
  OracleNetwork network = IntegerMetric(BuildTestNetwork(7), 8);
  for (const auto& [s, t] : Queries(network.net, 8, 4)) {
    for (const EngineKind kind : kEngineKinds) {
      ExpectTkdiMatchesOracle(network, kind, s, t, /*max_paths=*/40);
      ExpectDtkdiMatchesOracle(network, kind, s, t);
    }
  }
}

TEST(YenOracle, MatchesClassicYenUnderAZeroMetric) {
  // Every path costs 0, so every postponed bound ties the cheapest
  // candidate and must run before it is accepted.
  OracleNetwork network = PerfectGrid(3, 3);
  network.name = "zero3x3";
  network.weights.assign(network.net.num_edges(), 0.0);
  for (const auto& [s, t] : Queries(network.net, 9, 6)) {
    for (const EngineKind kind : kEngineKinds) {
      ExpectTkdiMatchesOracle(network, kind, s, t, /*max_paths=*/0);
      ExpectDtkdiMatchesOracle(network, kind, s, t);
    }
  }
}

TEST(YenOracle, MatchesClassicYenWhenABoundRoundsAboveItsCost) {
  OracleNetwork network = RoundingTie();
  for (const EngineKind kind : kEngineKinds) {
    ExpectTkdiMatchesOracle(network, kind, 0, 5, /*max_paths=*/0);
  }
  const auto paths = TopKShortestPaths(network.net, 0, 5, network.cost(), 3);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[1].vertices, (std::vector<VertexId>{0, 1, 2, 5}));
  EXPECT_EQ(paths[2].vertices, (std::vector<VertexId>{0, 3, 4, 5}));
  EXPECT_EQ(paths[1].cost, paths[2].cost);
}

TEST(YenOracle, MatchesClassicYenOnAMultigraph) {
  OracleNetwork network = Multigraph();
  const auto n = static_cast<VertexId>(network.net.num_vertices());
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      if (s == t) continue;
      for (const EngineKind kind : kEngineKinds) {
        ExpectTkdiMatchesOracle(network, kind, s, t, /*max_paths=*/0);
        ExpectDtkdiMatchesOracle(network, kind, s, t);
      }
    }
  }
}

TEST(YenOracle, ParallelEdgeVariantIsNotANewPath) {
  // 0 -> 1 has a 1.0 m and a 1.5 m edge; 0 -> 1 -> 3 -> 5 via the longer
  // one has the vertex sequence of an accepted path, so it never appears.
  OracleNetwork network = Multigraph();
  const auto paths =
      TopKShortestPaths(network.net, 0, 5, network.cost(), 1000);
  std::set<std::vector<VertexId>> seen;
  for (const Path& p : paths) {
    EXPECT_TRUE(seen.insert(p.vertices).second) << "duplicate sequence";
    EXPECT_TRUE(ValidatePath(network.net, p).empty());
  }
}

// ---- Cancellation under Lawler's rule ----------------------------------

TEST(YenCancellation, CancelledEnumerationIsAPrefixOfTheFullRun) {
  OracleNetwork network = Synthetic(17);
  const EdgeCostFn cost = network.cost();
  for (const auto& [s, t] : Queries(network.net, 17, 3)) {
    for (const EngineKind kind : kEngineKinds) {
      auto inner = network.MakeEngine(kind);
      CountingEngine full_engine(inner.get());
      YenEnumerator full(network.net, s, t, cost, nullptr, &full_engine);
      while (full.accepted().size() < 25 && full.Next().has_value()) {
      }
      const size_t total = full_engine.searches();
      ASSERT_GT(total, 8u);
      for (const size_t n : {size_t{1}, size_t{2}, size_t{5}, total / 3,
                             total / 2, total - 1}) {
        const CancelToken token;
        auto cancel_inner = network.MakeEngine(kind);
        CountingEngine engine(cancel_inner.get(), &token, n);
        YenEnumerator yen(network.net, s, t, cost, &token, &engine);
        while (yen.accepted().size() < 25 && yen.Next().has_value()) {
        }
        EXPECT_TRUE(yen.cancelled()) << "cancel after " << n;
        EXPECT_FALSE(yen.exhausted()) << "cancel after " << n;
        EXPECT_FALSE(yen.Next().has_value());
        ASSERT_LE(yen.accepted().size(), full.accepted().size());
        const std::vector<Path> prefix(
            full.accepted().begin(),
            full.accepted().begin() +
                static_cast<std::ptrdiff_t>(yen.accepted().size()));
        ExpectBitwiseEqual(prefix, yen.accepted(),
                           "cancel after " + std::to_string(n));
      }
    }
  }
}

TEST(YenCancellation, CancelInsideAPostponedSearchLatchesAndRunsNoMore) {
  OracleNetwork network = Synthetic(11);
  const EdgeCostFn cost = network.cost();
  for (const auto& [s, t] : Queries(network.net, 11, 3)) {
    for (const EngineKind kind : kEngineKinds) {
      auto inner = network.MakeEngine(kind);
      CountingEngine full_engine(inner.get());
      YenEnumerator full(network.net, s, t, cost, nullptr, &full_engine);
      while (full.accepted().size() < 25 && full.Next().has_value()) {
      }
      const size_t total = full_engine.searches();
      ASSERT_GT(total, 4u);
      // Search 1 finds the shortest path; every later one is postponed.
      for (const size_t n : {size_t{2}, size_t{3}, total / 2, total}) {
        const std::string where = Where(network, kind, s, t) +
                                  " cancel inside search " +
                                  std::to_string(n);
        const CancelToken token;
        auto cancel_inner = network.MakeEngine(kind);
        CancelInsideEngine engine(cancel_inner.get(), &token, n);
        YenEnumerator yen(network.net, s, t, cost, &token, &engine);
        while (yen.accepted().size() < 25 && yen.Next().has_value()) {
        }
        EXPECT_TRUE(yen.cancelled()) << where;
        EXPECT_FALSE(yen.exhausted()) << where;
        EXPECT_EQ(engine.searches(), n) << where;
        EXPECT_FALSE(yen.Next().has_value()) << where;
        EXPECT_TRUE(yen.cancelled()) << where;
        EXPECT_EQ(engine.searches(), n) << where;
        ASSERT_LE(yen.accepted().size(), full.accepted().size()) << where;
        const std::vector<Path> prefix(
            full.accepted().begin(),
            full.accepted().begin() +
                static_cast<std::ptrdiff_t>(yen.accepted().size()));
        ExpectBitwiseEqual(prefix, yen.accepted(), where);
      }
    }
  }
}

TEST(YenCancellation, CancelledDiversifiedSetIsWellFormedAndShorter) {
  OracleNetwork network = Synthetic(29);
  const EdgeCostFn cost = network.cost();
  DiversifiedOptions options;
  options.k = 10;
  options.similarity_threshold = 0.6;
  for (const auto& [s, t] : Queries(network.net, 29, 3)) {
    for (const EngineKind kind : kEngineKinds) {
      auto inner = network.MakeEngine(kind);
      CountingEngine full_engine(inner.get());
      const std::vector<Path> full = DiversifiedTopK(
          network.net, s, t, cost, options, nullptr, &full_engine);
      ASSERT_EQ(full.size(), 10u);
      // Every path the full run enumerated, in Yen order: the cancelled
      // run may only return paths from a prefix of this stream.
      auto stream_inner = network.MakeEngine(kind);
      YenEnumerator stream(network.net, s, t, cost, nullptr,
                           stream_inner.get());
      while (stream.accepted().size() <
                 static_cast<size_t>(options.max_enumerated) &&
             stream.Next().has_value()) {
      }
      std::set<std::vector<VertexId>> enumerated;
      for (const Path& p : stream.accepted()) enumerated.insert(p.vertices);

      const size_t total = full_engine.searches();
      for (const size_t n : {size_t{1}, size_t{3}, size_t{10}, total / 4}) {
        const CancelToken token;
        auto cancel_inner = network.MakeEngine(kind);
        CountingEngine engine(cancel_inner.get(), &token, n);
        const std::vector<Path> got = DiversifiedTopK(
            network.net, s, t, cost, options, &token, &engine);
        EXPECT_LT(got.size(), full.size()) << "cancel after " << n;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(ValidatePath(network.net, got[i]).empty());
          EXPECT_TRUE(IsSimplePath(got[i]));
          EXPECT_EQ(got[i].source(), s);
          EXPECT_EQ(got[i].destination(), t);
          EXPECT_TRUE(enumerated.count(got[i].vertices) == 1);
          if (i > 0) {
            EXPECT_GE(got[i].cost, got[i - 1].cost);
            EXPECT_NE(got[i].vertices, got[i - 1].vertices);
          }
        }
        if (!got.empty()) ExpectBitwiseEqual(full[0], got[0], "shortest");
      }
    }
  }
}

}  // namespace
}  // namespace pathrank::routing
