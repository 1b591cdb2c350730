// The route workloads in-process: the bitwise reference for sampled
// route_cold responses, and the traced replay of a route stream.
//
// The replay composes the same pipeline `pathrank_cli serve --http`
// builds (GraphStore with ALT preprocessing, RoutePlanner over it,
// ServingEngine::ScoreBatch as the scoring seam) and calls only public
// library functions, with a span around each call:
//
//   planner.plan    RoutePlanner::Plan, one per route query (root)
//   score.batch     ServingEngine::ScoreBatch inside Plan (child)
//   traffic.apply   GraphStore::ApplyTraffic, one per batch (root)
//
// Enumeration is the self time of planner.plan on misses; spur searches
// and settled vertices come from a separate, untimed pass that re-runs
// data::GenerateCandidatePaths on a sample of the misses through a
// counting ShortestPathEngine decorator, at the graph epoch the miss saw.
#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/model_io.h"
#include "data/candidate_generation.h"
#include "graph/graph_io.h"
#include "graph/graph_snapshot.h"
#include "routing/cost_model.h"
#include "routing/shortest_path_engine.h"
#include "serving/graph_store.h"
#include "serving/model_snapshot.h"
#include "serving/route_planner.h"
#include "serving/serving_engine.h"

namespace perfbench {
namespace {

using namespace pathrank;

/// One stream entry written by run.py: a route query or a traffic batch,
/// in stream order.
struct StreamOp {
  bool is_route = true;
  graph::VertexId source = 0;
  graph::VertexId destination = 0;
  std::vector<graph::TrafficUpdate> updates;
};

/// Reads "R src dst" and "T edge:travel_time_s ..." lines.
std::vector<StreamOp> ReadStream(const std::string& path) {
  std::ifstream in(path);
  if (!in) Fail("cannot read " + path);
  std::vector<StreamOp> ops;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    StreamOp op;
    if (kind == "R") {
      fields >> op.source >> op.destination;
    } else if (kind == "T") {
      op.is_route = false;
      std::string item;
      while (fields >> item) {
        const auto colon = item.find(':');
        if (colon == std::string::npos) Fail("bad traffic item " + item);
        graph::TrafficUpdate update;
        update.edge = static_cast<graph::EdgeId>(
            std::stoul(item.substr(0, colon)));
        update.travel_time_s = std::stod(item.substr(colon + 1));
        update.has_travel_time = true;
        op.updates.push_back(update);
      }
    } else {
      Fail("bad stream line: " + line);
    }
    if (fields.fail() && !fields.eof()) Fail("bad stream line: " + line);
    ops.push_back(std::move(op));
  }
  return ops;
}

/// The served model and the planner settings, as `serve` is started.
struct Serving {
  graph::RoadNetwork network;
  std::unique_ptr<serving::ServingEngine> engine;
  data::CandidateGenConfig gen;
  int landmarks = 8;
  size_t cache_capacity = 1024;
};

std::unique_ptr<Serving> LoadServing(const Flags& flags) {
  auto s = std::make_unique<Serving>();
  const std::string dir = flags.Str("dir");
  s->network = graph::LoadNetworkCsv(dir + "/net");
  const auto model = core::LoadModel(dir + "/model.bin");
  if (model->vocab_size() != s->network.num_vertices()) {
    Fail("model/network vertex-count mismatch");
  }
  s->gen.strategy = data::CandidateStrategy::kDiversifiedTopK;
  s->gen.k = static_cast<int>(flags.Int("k"));
  s->gen.similarity_threshold = flags.Double("threshold");
  s->landmarks = static_cast<int>(flags.Int("landmarks"));
  s->cache_capacity = static_cast<size_t>(flags.Int("cache"));
  serving::ServingOptions options;
  options.num_replicas = 1;
  options.candidates = s->gen;
  s->engine = std::make_unique<serving::ServingEngine>(
      s->network, serving::ModelSnapshot::Capture(*model), options);
  return s;
}

std::unique_ptr<serving::GraphStore> MakeStore(const Serving& s) {
  auto store = std::make_unique<serving::GraphStore>(s.network);
  serving::PreprocessOptions preprocess;
  preprocess.num_landmarks = s.landmarks;
  store->EnablePreprocessing(preprocess);
  return store;
}

serving::RoutePlannerConfig PlannerConfig(const Serving& s,
                                          const serving::GraphStore& store) {
  serving::RoutePlannerConfig config;
  config.store = &store;
  config.candidates = s.gen;
  config.cache_capacity = s.cache_capacity;
  config.spur_engine = serving::SpurEngine::kAlt;
  config.num_landmarks = s.landmarks;
  return config;
}

/// Counts spur searches and settled vertices of the engine it wraps.
class CountingEngine final : public routing::ShortestPathEngine {
 public:
  explicit CountingEngine(std::unique_ptr<routing::ShortestPathEngine> inner)
      : inner_(std::move(inner)) {}
  routing::SearchResult FindPath(graph::VertexId source,
                                 graph::VertexId target,
                                 const routing::EdgeCostFn& cost,
                                 const routing::BanSet* bans,
                                 const CancelToken* cancel) override {
    ++searches_;
    routing::SearchResult result =
        inner_->FindPath(source, target, cost, bans, cancel);
    settled_ += inner_->last_settled_count();
    return result;
  }
  const char* name() const override { return inner_->name(); }
  size_t last_settled_count() const override {
    return inner_->last_settled_count();
  }
  uint64_t searches() const { return searches_; }
  uint64_t settled() const { return settled_; }

 private:
  std::unique_ptr<routing::ShortestPathEngine> inner_;
  uint64_t searches_ = 0;
  uint64_t settled_ = 0;
};

struct SampledMiss {
  graph::VertexId source;
  graph::VertexId destination;
  serving::GraphQueryView view;
};

/// What one pass over the stream measured.
struct PassResult {
  double wall_s = 0.0;
  double prefix_s = 0.0;  ///< time to the end of the first `prefix` ops
  uint64_t failures = 0;
  std::vector<int64_t> miss_requests;
  std::vector<SampledMiss> sampled_misses;
  uint64_t score_calls = 0;
  uint64_t score_paths = 0;
  uint64_t score_vertices = 0;
  uint64_t epochs_behind_max = 0;
  serving::RoutePlannerStats planner;
  serving::PreprocessingStats preprocessing;
};

/// Replays `ops` in order on a fresh store and planner, noting the time
/// at which the first `prefix` ops were done. Every `miss_sample`-th miss
/// keeps its query view for the counting pass.
PassResult RunPass(const Serving& s, const std::vector<StreamOp>& ops,
                   size_t prefix, Tracer& tracer, size_t miss_sample) {
  PassResult r;
  const auto store = MakeStore(s);
  int32_t parent = -1;
  int64_t request = -1;
  const serving::RoutePlanner planner(
      PlannerConfig(s, *store), [&](std::vector<routing::Path> paths) {
        ScopedSpan span(tracer, "score.batch", parent, request);
        ++r.score_calls;
        r.score_paths += paths.size();
        for (const auto& path : paths) r.score_vertices += path.num_vertices();
        return s.engine->ScoreBatch(paths);
      });

  const int64_t start = NowNs();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == prefix) r.prefix_s = static_cast<double>(NowNs() - start) * 1e-9;
    const StreamOp& op = ops[i];
    request = static_cast<int64_t>(i);
    if (op.is_route) {
      parent = tracer.Begin("planner.plan", -1, request);
      const serving::RouteResult result =
          planner.Plan(serving::RouteRequest(op.source, op.destination));
      tracer.End(parent);
      if (result.status != serving::RouteStatus::kOk) ++r.failures;
      if (!result.cache_hit) {
        r.miss_requests.push_back(request);
        if (miss_sample > 0 &&
            (r.miss_requests.size() - 1) % miss_sample == 0) {
          r.sampled_misses.push_back(
              {op.source, op.destination, store->CaptureForQuery()});
        }
      }
    } else {
      const int32_t span = tracer.Begin("traffic.apply", -1, request);
      const serving::TrafficResult applied = store->ApplyTraffic(op.updates);
      tracer.End(span);
      if (applied.status != serving::TrafficStatus::kOk) ++r.failures;
      r.epochs_behind_max = std::max(
          r.epochs_behind_max, store->preprocessing_stats().epochs_behind);
    }
  }
  r.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  if (prefix >= ops.size()) r.prefix_s = r.wall_s;
  r.planner = planner.stats();
  r.preprocessing = store->preprocessing_stats();
  return r;
}

std::string JsonList(const std::vector<int64_t>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  return out + "]";
}

}  // namespace

/// Answers every route op of --stream with an in-process planner built
/// like the server's, one JSON line per query (paths and scores in
/// round-trip form), for the bitwise comparison in run.py.
int RunReference(const Flags& flags) {
  const auto s = LoadServing(flags);
  const auto store = MakeStore(*s);
  const serving::RoutePlanner planner(
      PlannerConfig(*s, *store), [&](std::vector<routing::Path> paths) {
        return s->engine->ScoreBatch(paths);
      });
  for (const StreamOp& op : ReadStream(flags.Str("stream"))) {
    if (!op.is_route) Fail("reference streams hold route queries only");
    const auto result =
        planner.Plan(serving::RouteRequest(op.source, op.destination));
    std::string line = "{\"source\":" + std::to_string(op.source) +
                       ",\"destination\":" + std::to_string(op.destination) +
                       ",\"status\":\"" +
                       serving::RouteStatusSlug(result.status) +
                       "\",\"routes\":[";
    for (size_t i = 0; i < result.ranked.size(); ++i) {
      const auto& scored = result.ranked[i];
      if (i > 0) line += ',';
      line += "{\"score\":" + Num(scored.score) + ",\"vertices\":[";
      for (size_t v = 0; v < scored.path.vertices.size(); ++v) {
        if (v > 0) line += ',';
        line += std::to_string(scored.path.vertices[v]);
      }
      line += "]}";
    }
    line += "]}";
    std::printf("%s\n", line.c_str());
  }
  return 0;
}

/// Replays --stream traced after a short warm-up, with an untraced replay
/// of its first --overhead-ops ops before and after it, so drift over the
/// run cancels out of the overhead ratio (the prefix is the same work in
/// every pass). Then counts spur searches on every --miss-sample'th miss
/// of the traced pass. Prints one JSON object; spans go to --trace-out.
int RunRouteReplay(const Flags& flags) {
  const auto s = LoadServing(flags);
  const std::vector<StreamOp> ops = ReadStream(flags.Str("stream"));
  const auto miss_sample = static_cast<size_t>(flags.Int("miss-sample"));
  const auto prefix = std::min(
      ops.size(), static_cast<size_t>(flags.Int("overhead-ops")));
  const std::vector<StreamOp> head(ops.begin(), ops.begin() + prefix);

  // Warm-up: page in the engine and the allocator before timing.
  const std::vector<StreamOp> warm(head.begin(),
                                   head.begin() + std::min<size_t>(prefix, 64));
  Tracer off(false);
  RunPass(*s, warm, warm.size(), off, 0);
  const PassResult before = RunPass(*s, head, prefix, off, 0);
  Tracer tracer(true);
  const PassResult traced = RunPass(*s, ops, prefix, tracer, miss_sample);
  const PassResult after = RunPass(*s, head, prefix, off, 0);
  tracer.Write(flags.Str("trace-out"));
  const double plain_s = (before.wall_s + after.wall_s) / 2;

  uint64_t searches = 0;
  uint64_t settled = 0;
  for (const SampledMiss& miss : traced.sampled_misses) {
    const graph::RoadNetwork& network = miss.view.snapshot->network();
    std::unique_ptr<routing::ShortestPathEngine> inner;
    if (miss.view.artifact != nullptr &&
        miss.view.artifact->epoch == miss.view.snapshot->epoch()) {
      inner = std::make_unique<routing::AltEngine>(
          network, routing::EdgeCostFn::TravelTime(network),
          miss.view.artifact->tables);
    } else {
      inner = std::make_unique<routing::DijkstraEngine>(network);
    }
    CountingEngine counting(std::move(inner));
    data::GenerateCandidatePaths(network, miss.source, miss.destination,
                                 s->gen, nullptr, &counting);
    searches += counting.searches();
    settled += counting.settled();
  }

  const auto& p = traced.planner;
  const auto& pre = traced.preprocessing;
  std::printf(
      "{\"ops\": %zu, \"overhead_ops\": %zu, \"plain_s\": %s, "
      "\"traced_s\": %s, \"failures\": %llu, "
      "\"miss_requests\": %s, \"counted_misses\": %zu, \"spur_searches\": "
      "%llu, \"settled\": %llu, \"score_calls\": %llu, \"score_paths\": "
      "%llu, \"score_vertices\": %llu, \"cache_hits\": %llu, "
      "\"cache_misses\": %llu, \"invalidations\": %llu, "
      "\"single_flight_waits\": %llu, \"enumerations\": %llu, "
      "\"alt_fallbacks\": %llu, \"rebuilds\": %llu, \"rebuild_p50_s\": %s, "
      "\"rebuild_p99_s\": %s, \"epochs_behind_max\": %llu, "
      "\"peak_rss_mb\": %s}\n",
      ops.size(), prefix, Num(plain_s).c_str(), Num(traced.prefix_s).c_str(),
      static_cast<unsigned long long>(before.failures + traced.failures +
                                      after.failures),
      JsonList(traced.miss_requests).c_str(), traced.sampled_misses.size(),
      static_cast<unsigned long long>(searches),
      static_cast<unsigned long long>(settled),
      static_cast<unsigned long long>(traced.score_calls),
      static_cast<unsigned long long>(traced.score_paths),
      static_cast<unsigned long long>(traced.score_vertices),
      static_cast<unsigned long long>(p.cache_hits),
      static_cast<unsigned long long>(p.cache_misses),
      static_cast<unsigned long long>(p.invalidations),
      static_cast<unsigned long long>(p.single_flight_waits),
      static_cast<unsigned long long>(p.enumerations),
      static_cast<unsigned long long>(p.alt_fallbacks),
      static_cast<unsigned long long>(pre.rebuilds),
      Num(pre.rebuild_p50_s).c_str(), Num(pre.rebuild_p99_s).c_str(),
      static_cast<unsigned long long>(traced.epochs_behind_max),
      Num(PeakRssMb()).c_str());
  return 0;
}

}  // namespace perfbench
