// pathrank_cli — command-line front end for the full pipeline, with file
// persistence between stages so each step can run as a separate process:
//
//   pathrank_cli network  --rows 20 --cols 20 --seed 1 --out net
//   pathrank_cli simulate --network net --trips 700 --drivers 40
//                         --out trips.csv
//   pathrank_cli train    --network net --trips trips.csv --m 64
//                         --strategy dtkdi --epochs 20 --out model.bin
//   pathrank_cli evaluate --network net --trips trips.csv --model model.bin
//   pathrank_cli rank     --network net --model model.bin --from 12 --to 245
//   pathrank_cli serve    --network net --model model.bin --http 8080
//                         [--watch-model 1] [--watch-graph 1]
//
// `rank` answers one query through a RoutePlanner over the loaded
// network: the same enumerate-then-score pipeline `serve` runs per
// request.
//
// `serve --http PORT` exposes the serving stack over HTTP/1.1 (POST
// /v1/route, POST /v1/score, POST /v1/traffic, GET /healthz, GET
// /statsz) until SIGINT/SIGTERM, with admission control in
// front of the engine (--max-inflight, --max-queue-wait-us; overload
// answers 429 + Retry-After). /v1/route is the full online pipeline
// (candidate enumeration + scoring + LRU answer cache, see
// serving::RoutePlanner); --route-cache N sizes the cache. The route
// pipeline serves a live graph behind a GraphStore: POST /v1/traffic
// ingests edge cost/closure batches (epoch + 1 per batch). `--watch-model
// 1` polls the model checkpoint and hot-swaps the served snapshot
// whenever the file changes, and `--watch-graph 1` polls the graph
// source files and hot-swaps a re-exported network the same way. The
// serving network comes from --network PREFIX (the CSV pair) or --graph
// EDGES.csv (edges-only: vertex set inferred, coordinates zeroed —
// enough for travel-time routing).
//
// `train`, `evaluate`, `rank` and `serve` all check the candidate flags
// (--k at least 1, --threshold in (0, 1]) before reading any file, and
// exit 2 on a bad value; `serve` checks its own numeric flags the same
// way, rejecting an out-of-range value rather than clamping it.
//
// Networks are stored as the CSV pair written by graph::SaveNetworkCsv,
// trips as traj::SaveTrips CSV, models as core::SaveModel checkpoints.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/parse.h"
#include "common/string_util.h"
#include "core/model_io.h"
#include "pathrank.h"
#include "graph/graph_io.h"
#include "serving/fault_injector.h"
#include "serving/graph_store.h"
#include "serving/http_server.h"
#include "serving/route_planner.h"
#include "traj/trip_io.h"

namespace {

using namespace pathrank;

/// Minimal --flag value parser; every flag takes exactly one value.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
        std::exit(2);
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag %s expects a value\n", key.c_str());
        std::exit(2);
      }
      values_[key.substr(2)] = argv[++i];
    }
  }

  /// Errors out (listing the offenders) when a parsed flag is not in the
  /// subcommand's allow-list.
  void RejectUnknown(const std::string& command,
                     const std::set<std::string>& known) const {
    bool any = false;
    for (const auto& [key, value] : values_) {
      if (known.count(key) == 0) {
        std::fprintf(stderr, "unknown flag --%s for command '%s'\n",
                     key.c_str(), command.c_str());
        any = true;
      }
    }
    if (any) std::exit(2);
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it != values_.end() ? it->second : fallback;
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  int GetInt(const std::string& key, int fallback) const {
    return GetParsed<int32_t>(key, fallback, "an integer", ParseInt32);
  }

  /// GetInt that exits 2, naming the flag, when the value is below `min`.
  int GetIntAtLeast(const std::string& key, int fallback, int min) const {
    const int value = GetInt(key, fallback);
    if (value < min) {
      std::fprintf(stderr, "--%s must be at least %d (got %d)\n", key.c_str(),
                   min, value);
      std::exit(2);
    }
    return value;
  }

  double GetDouble(const std::string& key, double fallback) const {
    return GetParsed<double>(key, fallback, "a number", ParseDouble);
  }

  std::string Require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }

 private:
  /// Shared lookup/parse/diagnostic for the numeric getters, built on the
  /// common/parse whole-token parsers: the entire value must convert
  /// (trailing junk, overflow and non-finite values are all clean usage
  /// errors, exit 2 — never a half-parsed flag).
  template <typename T, typename Parse>
  T GetParsed(const std::string& key, T fallback, const char* expected,
              Parse parse) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    T value{};
    if (!parse(it->second, &value)) {
      std::fprintf(stderr, "flag --%s expects %s, got '%s'\n", key.c_str(),
                   expected, it->second.c_str());
      std::exit(2);
    }
    return value;
  }

  std::map<std::string, std::string> values_;
};

data::CandidateStrategy ParseStrategy(const std::string& name) {
  if (name == "tkdi" || name == "topk") return data::CandidateStrategy::kTopK;
  if (name == "dtkdi" || name == "div") {
    return data::CandidateStrategy::kDiversifiedTopK;
  }
  std::fprintf(stderr, "--strategy must be tkdi or dtkdi (got '%s')\n",
               name.c_str());
  std::exit(2);
}

int CmdNetwork(const Args& args) {
  graph::SyntheticNetworkConfig cfg;
  cfg.rows = args.GetInt("rows", 20);
  cfg.cols = args.GetInt("cols", 20);
  cfg.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  const auto network = graph::BuildSyntheticNetwork(cfg);
  const std::string out = args.Require("out");
  graph::SaveNetworkCsv(network, out);
  std::printf("wrote %s_vertices.csv / %s_edges.csv (%s)\n", out.c_str(),
              out.c_str(), network.Summary().c_str());
  return 0;
}

int CmdSimulate(const Args& args) {
  const auto network = graph::LoadNetworkCsv(args.Require("network"));
  traj::TrajectoryGeneratorConfig cfg;
  cfg.num_trips = args.GetInt("trips", 700);
  cfg.num_drivers = args.GetInt("drivers", 40);
  cfg.min_trip_distance_m = args.GetDouble("min-distance", 2500.0);
  cfg.max_path_vertices = args.GetInt("max-vertices", 60);
  cfg.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  const auto trips = traj::TrajectoryGenerator(network, cfg).Generate();
  const std::string out = args.Require("out");
  traj::SaveTrips(trips, out);
  std::printf("wrote %zu trips to %s\n", trips.size(), out.c_str());
  return 0;
}

/// The candidate flags every subcommand but network/simulate shares.
/// Checked here, before the caller reads any file: a bad value exits 2.
data::CandidateGenConfig GenConfigFromArgs(const Args& args) {
  data::CandidateGenConfig gen;
  gen.strategy = ParseStrategy(args.Get("strategy", "dtkdi"));
  gen.k = args.GetInt("k", 10);
  // One default for training and serving, so serving candidates match a
  // model trained with the defaults.
  gen.similarity_threshold = args.GetDouble("threshold", 0.6);
  if (gen.k < 1) {
    std::fprintf(stderr, "--k must be at least 1\n");
    std::exit(2);
  }
  if (!(gen.similarity_threshold > 0.0 && gen.similarity_threshold <= 1.0)) {
    std::fprintf(stderr, "--threshold must be in (0, 1]\n");
    std::exit(2);
  }
  return gen;
}

data::RankingDataset BuildDataset(const graph::RoadNetwork& network,
                                  const std::vector<traj::TripPath>& trips,
                                  const data::CandidateGenConfig& gen) {
  data::RankingDataset dataset;
  dataset.queries = data::GenerateQueries(network, trips, gen);
  return dataset;
}

int CmdTrain(const Args& args) {
  // Every flag is checked before any work starts, so a bad value exits 2
  // at once and writes nothing.
  const data::CandidateGenConfig gen = GenConfigFromArgs(args);
  const int m = args.GetInt("m", 64);
  const int hidden = args.GetInt("hidden", 64);
  const int epochs = args.GetInt("epochs", 20);
  const double lr = args.GetDouble("lr", 3e-3);  // finite: GetDouble checks
  const std::string out = args.Require("out");
  const std::pair<bool, const char*> checks[] = {
      {epochs >= 1, "--epochs must be at least 1"},
      {m >= 1, "--m must be at least 1"},
      {hidden >= 1, "--hidden must be at least 1"},
      {lr > 0.0, "--lr must be positive"},
  };
  for (const auto& [ok, message] : checks) {
    if (!ok) {
      std::fprintf(stderr, "%s\n", message);
      return 2;
    }
  }

  const auto network = graph::LoadNetworkCsv(args.Require("network"));
  const auto trips = traj::LoadTrips(network, args.Require("trips"));
  auto dataset = BuildDataset(network, trips, gen);
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 11)));
  const auto split = data::SplitDataset(dataset, 0.8, 0.1, rng);

  embedding::Node2VecConfig n2v;
  n2v.skipgram.dims = m;
  n2v.seed = static_cast<uint64_t>(args.GetInt("seed", 11)) + 1;
  std::printf("training node2vec (%d dims)...\n", m);
  const auto table = embedding::TrainNode2Vec(network, n2v);

  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = static_cast<size_t>(m);
  model_cfg.hidden_size = static_cast<size_t>(hidden);
  model_cfg.finetune_embedding = args.GetInt("finetune", 1) != 0;
  model_cfg.multi_task = args.GetInt("multitask", 0) != 0;
  core::PathRankModel model(network.num_vertices(), model_cfg);
  model.InitializeEmbedding(table);

  core::TrainerConfig train_cfg;
  train_cfg.epochs = epochs;
  train_cfg.learning_rate = lr;
  train_cfg.verbose = true;
  SetLogLevel(LogLevel::kInfo);
  std::printf("training PathRank (%s)...\n",
              model_cfg.VariantName().c_str());
  core::TrainPathRank(model, split.train, split.validation, train_cfg);

  const auto result = core::Evaluate(model, split.test);
  std::printf("held-out test: %s\n", result.ToString().c_str());
  core::SaveModel(model, out);
  std::printf("wrote model checkpoint to %s\n", out.c_str());
  return 0;
}

int CmdEvaluate(const Args& args) {
  const data::CandidateGenConfig gen = GenConfigFromArgs(args);
  const auto network = graph::LoadNetworkCsv(args.Require("network"));
  const auto trips = traj::LoadTrips(network, args.Require("trips"));
  auto dataset = BuildDataset(network, trips, gen);
  auto model = core::LoadModel(args.Require("model"));
  if (model->vocab_size() != network.num_vertices()) {
    std::fprintf(stderr, "model/network vertex-count mismatch\n");
    return 1;
  }
  const auto result = core::Evaluate(*model, dataset);
  std::printf("%s\n", result.ToString().c_str());
  return 0;
}

int CmdRank(const Args& args) {
  const data::CandidateGenConfig gen = GenConfigFromArgs(args);
  const auto network = graph::LoadNetworkCsv(args.Require("network"));
  auto model = core::LoadModel(args.Require("model"));
  const auto from = static_cast<graph::VertexId>(args.GetInt("from", 0));
  const auto to = static_cast<graph::VertexId>(
      args.GetInt("to", static_cast<int>(network.num_vertices()) - 1));
  if (model->vocab_size() != network.num_vertices()) {
    std::fprintf(stderr, "model/network vertex-count mismatch\n");
    return 1;
  }
  const serving::ServingEngine engine(
      network, serving::ModelSnapshot::Capture(*model));
  serving::RoutePlannerConfig config;
  config.network = &network;
  config.candidates = gen;
  config.cache_capacity = 0;  // one query: nothing to reuse
  const serving::RoutePlanner planner(
      config, [&engine](std::vector<routing::Path> paths) {
        return engine.ScoreBatch(std::move(paths));
      });
  const serving::RouteResult result = planner.Plan({from, to});
  if (result.status != serving::RouteStatus::kOk) {
    std::fprintf(stderr, "%s: %s\n", serving::RouteStatusSlug(result.status),
                 result.message.c_str());
    return 1;
  }
  const auto& ranked = result.ranked;
  std::printf("%zu candidates for %u -> %u:\n", ranked.size(), from, to);
  for (size_t i = 0; i < ranked.size(); ++i) {
    std::printf("#%zu score=%.4f length=%.0fm time=%.0fs vertices=%zu\n",
                i + 1, ranked[i].score, ranked[i].path.length_m,
                ranked[i].path.time_s, ranked[i].path.num_vertices());
  }
  return 0;
}

/// Polls one file's mtime and calls `reload` when it changes — the
/// `serve --watch-model` and `--watch-graph` hot-swap path. `reload`
/// returns true when it swapped the file in and false when it rejected
/// the file's contents; a rejected file is not retried until the next
/// rewrite. A throw is a failed read — normally a file caught mid-write —
/// and retries on the next tick. In-flight requests finish on whatever
/// they captured before the swap.
class FileWatcher {
 public:
  FileWatcher(std::string label, std::string path,
              std::function<bool()> reload, int interval_ms)
      : label_(std::move(label)),
        path_(std::move(path)),
        reload_(std::move(reload)),
        interval_ms_(interval_ms),
        last_mtime_(Mtime(path_)) {
    thread_ = std::thread([this] { Loop(); });
  }

  ~FileWatcher() {
    stop_.store(true);
    thread_.join();
  }
  FileWatcher(const FileWatcher&) = delete;
  FileWatcher& operator=(const FileWatcher&) = delete;

  uint64_t swaps() const { return swaps_.load(); }

 private:
  static std::filesystem::file_time_type Mtime(const std::string& path) {
    std::error_code ec;
    const auto t = std::filesystem::last_write_time(path, ec);
    return ec ? std::filesystem::file_time_type{} : t;
  }

  /// Sleeps one poll interval in small slices so destruction never waits
  /// out a long --watch-interval-ms.
  void InterruptibleSleep() const {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(interval_ms_);
    while (!stop_.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  void Loop() {
    while (!stop_.load()) {
      InterruptibleSleep();
      if (stop_.load()) break;
      const auto mtime = Mtime(path_);
      if (mtime == last_mtime_ ||
          mtime == std::filesystem::file_time_type{}) {
        continue;
      }
      try {
        if (reload_()) swaps_.fetch_add(1);
        last_mtime_ = mtime;
      } catch (const std::exception& e) {
        // last_mtime_ deliberately stays stale so the next tick retries
        // even when the writer finishes within the same coarse mtime
        // granule.
        std::fprintf(stderr, "%s: reload of %s failed (%s); will retry\n",
                     label_.c_str(), path_.c_str(), e.what());
      }
    }
  }

  const std::string label_;
  const std::string path_;
  const std::function<bool()> reload_;
  const int interval_ms_;
  std::filesystem::file_time_type last_mtime_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> swaps_{0};
  std::thread thread_;
};

/// SIGINT/SIGTERM flag for `serve --http`: handlers may only touch
/// lock-free atomics, so the serving loop polls this and does the actual
/// shutdown outside signal context.
std::atomic<bool> g_http_interrupted{false};

void OnHttpSignal(int /*signum*/) { g_http_interrupted.store(true); }

/// The `serve` flags that are not candidate flags, checked by
/// ServeFlagsFromArgs before any file is read.
struct ServeFlags {
  serving::HttpServerOptions http;
  size_t route_cache = 0;
  int watch_interval_ms = 0;
  serving::SpurEngine spur_engine = serving::SpurEngine::kDijkstra;
  int num_landmarks = 0;
};

/// Reads the `serve` flags. A value out of range exits 2 with a message
/// naming the flag; none is clamped into range.
ServeFlags ServeFlagsFromArgs(const Args& args) {
  ServeFlags flags;
  serving::HttpServerOptions& http = flags.http;
  http.bind_address = args.Get("http-addr", "0.0.0.0");
  const int port = args.GetInt("http", 0);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "--http expects a port in [0, 65535]\n");
    std::exit(2);
  }
  http.port = static_cast<uint16_t>(port);
  http.max_inflight =
      static_cast<size_t>(args.GetIntAtLeast("max-inflight", 64, 1));
  // 0 = auto (max_inflight + 4): admission stays the binding constraint
  // and spare workers keep /healthz answering under a saturated engine.
  http.num_threads =
      static_cast<size_t>(args.GetIntAtLeast("http-threads", 0, 0));
  http.max_queue_wait_us = args.GetIntAtLeast("max-queue-wait-us", 0, 0);
  http.idle_timeout_s = args.GetIntAtLeast("idle-timeout-s", 30, 1);
  http.request_deadline_s = args.GetIntAtLeast("request-deadline-s", 60, 1);
  http.default_deadline_ms = args.GetIntAtLeast("default-deadline-ms", 0, 0);
  http.max_deadline_ms = args.GetIntAtLeast("max-deadline-ms", 0, 0);
  flags.route_cache =
      static_cast<size_t>(args.GetIntAtLeast("route-cache", 1024, 0));
  flags.watch_interval_ms = args.GetIntAtLeast("watch-interval-ms", 200, 1);
  const std::string spur_name = args.Get("spur-engine", "dijkstra");
  if (!serving::ParseSpurEngine(spur_name, &flags.spur_engine)) {
    std::fprintf(stderr,
                 "--spur-engine must be dijkstra or alt (got %s)\n",
                 spur_name.c_str());
    std::exit(2);
  }
  flags.num_landmarks = args.GetIntAtLeast("landmarks", 8, 1);
  return flags;
}

/// `serve --http PORT`: serves the engine over HTTP until a signal
/// arrives, then reports the traffic counters.
int RunHttpFrontEnd(const Args& args, const ServeFlags& flags,
                    const data::CandidateGenConfig& gen,
                    const graph::RoadNetwork& network,
                    serving::ServingEngine* engine,
                    const FileWatcher* model_watcher) {
  const serving::HttpServerOptions& options = flags.http;
  if (options.num_threads != 0 &&
      options.num_threads <= options.max_inflight) {
    std::fprintf(stderr,
                 "warning: --http-threads %zu <= --max-inflight %zu: "
                 "admission control cannot engage (concurrency is already "
                 "capped by the worker count)\n",
                 options.num_threads, options.max_inflight);
  }

  serving::HttpBackend backend;
  backend.num_vertices = network.num_vertices();
  backend.score = [engine](std::vector<routing::Path> paths) {
    return engine->ScoreBatch(std::move(paths));
  };
  backend.swap_count = [engine] { return engine->swap_count(); };

  // --fault-spec: deterministic chaos at the backend seams (sites
  // "score" and "route"), for drills and for reproducing what chaos_test
  // exercises programmatically. The wrapper goes in BEFORE the planner
  // captures backend.score, so injected scoring faults hit /v1/route
  // too.
  std::shared_ptr<serving::FaultInjector> faults;
  if (args.Has("fault-spec")) {
    try {
      faults = serving::FaultInjector::Parse(
          args.Get("fault-spec", ""),
          static_cast<uint64_t>(args.GetInt("fault-seed", 1)));
    } catch (const serving::FaultSpecError& e) {
      std::fprintf(stderr, "--fault-spec: %s\n", e.what());
      return 2;
    }
  }
  if (faults != nullptr && faults->enabled()) {
    backend.score = [faults, inner = backend.score](
                        std::vector<routing::Path> paths) {
      faults->Inject("score");
      return inner(std::move(paths));
    };
  }

  // The live graph behind /v1/route and /v1/traffic: a
  // GraphStore seeded with a copy of the boot network (epoch 0). Traffic
  // batches and --watch-graph reloads swap new snapshots in.
  serving::GraphStore graph_store(network);

  // --spur-engine: which engine runs the Yen spur searches behind
  // /v1/route. "alt" turns on the GraphStore's preprocessing lifecycle:
  // landmark tables built at boot, rebuilt in the background after every
  // /v1/traffic batch or --watch-graph swap, with mid-rebuild queries
  // falling back to exact Dijkstra.
  if (flags.spur_engine == serving::SpurEngine::kAlt) {
    serving::PreprocessOptions preprocess;
    preprocess.num_landmarks = flags.num_landmarks;
    graph_store.EnablePreprocessing(preprocess);
  }

  // The online route pipeline behind POST /v1/route:
  // candidate enumeration + scoring through the SAME seam backend.score
  // uses + LRU answer cache. Built over the GraphStore: each query
  // captures the current snapshot (and, for ALT, the preprocessing
  // artifact) once, and cached answers invalidate when the epoch moves on
  // or a model hot swap lands.
  serving::RoutePlannerConfig route_config;
  route_config.store = &graph_store;
  route_config.candidates = gen;
  route_config.cache_capacity = flags.route_cache;
  route_config.spur_engine = flags.spur_engine;
  route_config.num_landmarks = flags.num_landmarks;
  const serving::RoutePlanner planner(route_config, backend.score);
  backend.route = [&planner](const serving::RouteRequest& request) {
    return planner.Plan(request);
  };
  backend.traffic =
      [&graph_store](const std::vector<graph::TrafficUpdate>& updates) {
        return graph_store.ApplyTraffic(updates);
      };
  backend.graph_epoch = [&graph_store] { return graph_store.epoch(); };
  backend.route_planner_stats = [&planner] { return planner.stats(); };
  backend.preprocessing_stats = [&graph_store] {
    return graph_store.preprocessing_stats();
  };
  if (faults != nullptr && faults->enabled()) {
    // The "route" site stalls/fails between deadline anchoring (HTTP
    // parse) and Plan(), so an injected delay visibly consumes budget.
    backend.route = [faults, inner = backend.route](
                        const serving::RouteRequest& request) {
      faults->Inject("route");
      return inner(request);
    };
  }

  // --watch-graph: poll the graph source and hot-swap re-exports, the
  // graph-side analogue of --watch-model. Watches the edges CSV — the
  // file a re-export rewrites for either --graph or --network serving.
  std::unique_ptr<FileWatcher> graph_watcher;
  if (args.GetInt("watch-graph", 0) != 0) {
    const bool has_graph = args.Has("graph");
    const std::string watch_path =
        has_graph ? args.Get("graph", "")
                  : args.Get("network", "") + "_edges.csv";
    auto reload = [has_graph, &args, &graph_store, watch_path] {
      graph::RoadNetwork next =
          has_graph ? graph::LoadNetworkEdgesCsv(args.Get("graph", ""))
                    : graph::LoadNetworkCsv(args.Get("network", ""));
      const size_t current = graph_store.Current()->network().num_vertices();
      if (next.num_vertices() != current) {
        // The model's vocabulary is pinned to the boot-time vertex set; a
        // graph that changes it needs a restart with a matching model,
        // not a hot swap.
        std::fprintf(stderr,
                     "watch-graph: %s changed its vertex count (%zu -> "
                     "%zu); the model is pinned to the boot graph — "
                     "keeping the current snapshot\n",
                     watch_path.c_str(), current, next.num_vertices());
        return false;
      }
      graph_store.SwapNetwork(std::move(next));
      std::printf("watch-graph: hot-swapped graph from %s (epoch %llu)\n",
                  watch_path.c_str(),
                  static_cast<unsigned long long>(graph_store.epoch()));
      return true;
    };
    graph_watcher = std::make_unique<FileWatcher>(
        "watch-graph", watch_path, std::move(reload),
        flags.watch_interval_ms);
  }

  serving::HttpServer server(std::move(backend), options);
  server.Start();
  std::printf("route planner: strategy %s, k=%d, cache %zu entries, "
              "spur engine %s%s\n",
              data::CandidateStrategyName(route_config.candidates.strategy)
                  .c_str(),
              route_config.candidates.k, route_config.cache_capacity,
              serving::SpurEngineName(flags.spur_engine),
              flags.spur_engine == serving::SpurEngine::kAlt
                  ? StrFormat(" (%d landmarks)", flags.num_landmarks).c_str()
                  : "");
  std::printf("HTTP serving on %s:%u  (threads=%zu, max_inflight=%zu, "
              "max_queue_wait_us=%lld%s%s)\n",
              options.bind_address.c_str(), server.port(),
              server.options().num_threads, options.max_inflight,
              static_cast<long long>(options.max_queue_wait_us),
              model_watcher != nullptr ? ", watch-model" : "",
              graph_watcher != nullptr ? ", watch-graph" : "");
  std::printf("timeouts: idle %d s, request %d s; route budget: default %lld "
              "ms, max %lld ms (0 = unbounded)\n",
              options.idle_timeout_s, options.request_deadline_s,
              static_cast<long long>(options.default_deadline_ms),
              static_cast<long long>(options.max_deadline_ms));
  if (faults != nullptr && faults->enabled()) {
    std::printf("FAULT INJECTION ACTIVE: %s (seed %d)\n",
                args.Get("fault-spec", "").c_str(),
                args.GetInt("fault-seed", 1));
  }
  std::printf("endpoints: POST /v1/route  POST /v1/score  POST /v1/traffic  GET /healthz  GET /statsz  "
              "(Ctrl-C to stop)\n");

  g_http_interrupted.store(false);
  std::signal(SIGINT, OnHttpSignal);
  std::signal(SIGTERM, OnHttpSignal);
  while (!g_http_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  server.Stop();

  // The shutdown report is logged (stderr), so a server log whose stdout
  // is discarded still holds it.
  const auto stats = server.stats();
  const serving::RoutePlannerStats plan_stats = planner.stats();
  PR_LOG_INFO << StrFormat(
      "shutting down: %llu connections, %llu requests, %llu shed",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.requests_total),
      static_cast<unsigned long long>(stats.shed_total));
  PR_LOG_INFO << StrFormat(
      "score: %llu requests  p50 %.2f ms  p99 %.2f ms",
      static_cast<unsigned long long>(stats.score.requests),
      stats.score.latency_p50_s * 1e3, stats.score.latency_p99_s * 1e3);
  PR_LOG_INFO << StrFormat(
      "route: %llu requests  p50 %.2f ms  p99 %.2f ms  "
      "cache %llu hit / %llu miss",
      static_cast<unsigned long long>(stats.route.requests),
      stats.route.latency_p50_s * 1e3, stats.route.latency_p99_s * 1e3,
      static_cast<unsigned long long>(plan_stats.cache_hits),
      static_cast<unsigned long long>(plan_stats.cache_misses));
  const serving::ScoreMemoStats memo = engine->memo_stats();
  PR_LOG_INFO << "score memo: " << memo.hits << " hit(s)  " << memo.misses
              << " miss(es)  " << memo.rows_scored << " row(s) and "
              << memo.vertices_scored << " vertices scored  " << memo.flips
              << " flip(s)  " << memo.held_ids << " ids held";
  PR_LOG_INFO << StrFormat(
      "graph: epoch %llu  %llu traffic batch(es)  %llu invalidation(s)  "
      "%llu enumeration(s)",
      static_cast<unsigned long long>(graph_store.epoch()),
      static_cast<unsigned long long>(graph_store.traffic_batches()),
      static_cast<unsigned long long>(plan_stats.invalidations),
      static_cast<unsigned long long>(plan_stats.enumerations));
  if (flags.spur_engine == serving::SpurEngine::kAlt) {
    const serving::PreprocessingStats pre = graph_store.preprocessing_stats();
    PR_LOG_INFO << StrFormat(
        "preprocessing: %d landmarks  %llu rebuild(s)  p50 %.1f ms  "
        "p99 %.1f ms  %llu ALT fallback(s)",
        pre.landmarks, static_cast<unsigned long long>(pre.rebuilds),
        pre.rebuild_p50_s * 1e3, pre.rebuild_p99_s * 1e3,
        static_cast<unsigned long long>(plan_stats.alt_fallbacks));
  }
  PR_LOG_INFO << StrFormat(
      "deadlines: %llu exceeded (504), %llu degraded (partial)",
      static_cast<unsigned long long>(plan_stats.deadline_exceeded),
      static_cast<unsigned long long>(plan_stats.degraded));
  if (faults != nullptr && faults->enabled()) {
    PR_LOG_INFO << StrFormat(
        "fault injection: %llu delay(s), %llu error(s) fired",
        static_cast<unsigned long long>(faults->injected_delays()),
        static_cast<unsigned long long>(faults->injected_errors()));
  }
  if (model_watcher != nullptr) {
    PR_LOG_INFO << "watch-model: " << model_watcher->swaps()
                << " hot swap(s) while serving";
  }
  if (graph_watcher != nullptr) {
    PR_LOG_INFO << "watch-graph: " << graph_watcher->swaps()
                << " hot swap(s) while serving";
  }
  return 0;
}

/// Serving network source: --network PREFIX (the SaveNetworkCsv pair) or
/// --graph EDGES.csv (edges-only; vertex set inferred, coordinates
/// zeroed). Exactly one must be given.
graph::RoadNetwork LoadServeNetwork(const Args& args) {
  const bool has_network = args.Has("network");
  const bool has_graph = args.Has("graph");
  if (has_network == has_graph) {
    std::fprintf(stderr,
                 "serve needs exactly one of --network PREFIX or "
                 "--graph EDGES.csv\n");
    std::exit(2);
  }
  return has_graph ? graph::LoadNetworkEdgesCsv(args.Get("graph", ""))
                   : graph::LoadNetworkCsv(args.Get("network", ""));
}

int CmdServe(const Args& args) {
  if (!args.Has("http")) {
    std::fprintf(stderr,
                 "serve runs the HTTP server and needs --http PORT "
                 "(0 = any free port)\n");
    return 2;
  }
  const data::CandidateGenConfig gen = GenConfigFromArgs(args);
  const ServeFlags flags = ServeFlagsFromArgs(args);
  const auto network = LoadServeNetwork(args);
  auto model = core::LoadModel(args.Require("model"));
  if (model->vocab_size() != network.num_vertices()) {
    std::fprintf(stderr, "model/network vertex-count mismatch\n");
    return 1;
  }
  serving::ServingEngine engine(network,
                                serving::ModelSnapshot::Capture(*model));
  model.reset();  // the snapshot owns its own copy of the parameters

  std::unique_ptr<FileWatcher> model_watcher;
  if (args.GetInt("watch-model", 0) != 0) {
    const std::string model_path = args.Require("model");
    auto reload = [model_path, &network, &engine] {
      auto next = core::LoadModel(model_path);
      if (next->vocab_size() != network.num_vertices()) {
        std::fprintf(stderr,
                     "watch-model: %s no longer matches the network; "
                     "keeping the current snapshot\n",
                     model_path.c_str());
        return false;
      }
      engine.SwapSnapshot(serving::ModelSnapshot::Capture(*next));
      std::printf("watch-model: hot-swapped snapshot from %s\n",
                  model_path.c_str());
      return true;
    };
    model_watcher = std::make_unique<FileWatcher>(
        "watch-model", model_path, std::move(reload),
        flags.watch_interval_ms);
  }
  return RunHttpFrontEnd(args, flags, gen, network, &engine,
                         model_watcher.get());
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: pathrank_cli <command> [--flag value ...]\n"
      "commands:\n"
      "  network   --out PREFIX [--rows N --cols N --seed S]\n"
      "  simulate  --network PREFIX --out TRIPS.csv [--trips N --drivers N]\n"
      "  train     --network PREFIX --trips TRIPS.csv --out MODEL.bin\n"
      "            [--strategy tkdi|dtkdi --k K --m M --hidden H\n"
      "             --threshold T --epochs E --lr LR --finetune 0|1\n"
      "             --multitask 0|1]\n"
      "  evaluate  --network PREFIX --trips TRIPS.csv --model MODEL.bin\n"
      "            [--strategy tkdi|dtkdi --k K --threshold T]\n"
      "  rank      --network PREFIX --model MODEL.bin --from V --to V\n"
      "            [--strategy tkdi|dtkdi --k K --threshold T]\n"
      "  serve     (--network PREFIX | --graph EDGES.csv) --model MODEL.bin\n"
      "            --http PORT\n"
      "            [--strategy ... --k K --threshold T]\n"
      "            [--watch-model 0|1 --watch-interval-ms M]\n"
      "            [--http-addr A --max-inflight N\n"
      "             --max-queue-wait-us U --http-threads T (0 = auto)\n"
      "             --route-cache N (LRU route answers for /v1/route)\n"
      "             --spur-engine dijkstra|alt (Yen spur searches)\n"
      "             --landmarks N (ALT landmark count, default 8)\n"
      "             --watch-graph 0|1 (hot-swap re-exported graphs)\n"
      "             --idle-timeout-s S --request-deadline-s S\n"
      "             --default-deadline-ms MS --max-deadline-ms MS "
      "(0 = unbounded)\n"
      "             --fault-spec \"site:delay_ms=N:p=F;site:error\" "
      "--fault-seed S]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv, 2);

  // Per-subcommand flag allow-lists: a typo'd or misplaced flag is an
  // error, not a silently ignored no-op.
  static const std::map<std::string, std::set<std::string>> kKnownFlags = {
      {"network", {"rows", "cols", "seed", "out"}},
      {"simulate",
       {"network", "trips", "drivers", "min-distance", "max-vertices", "seed",
        "out"}},
      {"train",
       {"network", "trips", "strategy", "k", "threshold", "seed", "m",
        "hidden", "finetune", "multitask", "epochs", "lr", "out"}},
      {"evaluate",
       {"network", "trips", "strategy", "k", "threshold", "model"}},
      {"rank",
       {"network", "model", "from", "to", "strategy", "k", "threshold"}},
      {"serve",
       {"network", "graph", "model", "strategy", "k",
        "threshold", "watch-model", "watch-graph", "watch-interval-ms",
        "http", "http-addr", "http-threads", "max-inflight",
        "max-queue-wait-us", "route-cache", "spur-engine", "landmarks",
        "idle-timeout-s", "request-deadline-s", "default-deadline-ms",
        "max-deadline-ms", "fault-spec", "fault-seed"}},
  };
  const auto known = kKnownFlags.find(command);
  if (known != kKnownFlags.end()) {
    args.RejectUnknown(command, known->second);
  }

  try {
    if (command == "network") return CmdNetwork(args);
    if (command == "simulate") return CmdSimulate(args);
    if (command == "train") return CmdTrain(args);
    if (command == "evaluate") return CmdEvaluate(args);
    if (command == "rank") return CmdRank(args);
    if (command == "serve") return CmdServe(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  PrintUsage();
  return 2;
}
