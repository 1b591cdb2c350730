// The train workload: simulate a corpus and generate its candidate sets
// (set-up), then node2vec, TrainPathRank and Evaluate (measured), in
// process with the thread count the caller pinned in PATHRANK_THREADS.
//
// --mode gated repeats set-up --setups times and the measured round
// until --seconds have passed, printing every repetition. --mode traced
// runs one round through the layers' public functions with a span
// around each call (node2vec split into its walk and skip-gram halves),
// between two untraced runs of the same round, for the overhead ratio.
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/evaluator.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/batcher.h"
#include "data/candidate_generation.h"
#include "data/dataset.h"
#include "embedding/node2vec.h"
#include "embedding/random_walk.h"
#include "embedding/skipgram.h"
#include "graph/network_builder.h"
#include "traj/trajectory_generator.h"

namespace perfbench {
namespace {

using namespace pathrank;

/// FNV-1a over raw bytes, folded into `hash`.
uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct TrainSetup {
  graph::RoadNetwork network;
  traj::TrajectoryGeneratorConfig trips;
  data::CandidateGenConfig gen;
  embedding::Node2VecConfig n2v;
  core::PathRankConfig model;
  core::TrainerConfig trainer;
  uint64_t split_seed = 0;
};

TrainSetup ParseSetup(const Flags& flags) {
  TrainSetup t;
  // The corpus (trips, their candidates and the split) is fixed by
  // --corpus-seed, so set-up and per-sample cost do not depend on the
  // run's --seed; that seeds only node2vec, the model and the trainer.
  const auto corpus_seed = static_cast<uint64_t>(flags.Int("corpus-seed"));
  const auto seed = static_cast<uint64_t>(flags.Int("seed"));
  graph::SyntheticNetworkConfig net;
  net.rows = static_cast<int>(flags.Int("rows"));
  net.cols = static_cast<int>(flags.Int("cols"));
  net.seed = static_cast<uint64_t>(flags.Int("net-seed"));
  t.network = graph::BuildSyntheticNetwork(net);
  t.trips.num_trips = static_cast<int>(flags.Int("trips"));
  t.trips.num_drivers = static_cast<int>(flags.Int("drivers"));
  t.trips.seed = corpus_seed;
  t.gen.strategy = data::CandidateStrategy::kDiversifiedTopK;
  t.gen.k = static_cast<int>(flags.Int("k"));
  t.gen.similarity_threshold = flags.Double("threshold");
  t.n2v.skipgram.dims = static_cast<int>(flags.Int("m"));
  t.n2v.seed = seed + 1;
  t.model.embedding_dim = static_cast<size_t>(flags.Int("m"));
  t.model.hidden_size = static_cast<size_t>(flags.Int("hidden"));
  t.model.seed = seed + 2;
  t.trainer.epochs = static_cast<int>(flags.Int("epochs"));
  t.trainer.learning_rate = 3e-3;
  t.trainer.seed = seed + 3;
  t.split_seed = corpus_seed + 1;
  return t;
}

/// Simulation plus candidate generation: the workload's set-up.
data::RankingDataset BuildCorpus(const TrainSetup& t, Tracer& tracer) {
  std::vector<traj::TripPath> trips;
  {
    ScopedSpan span(tracer, "traj.generate");
    trips = traj::TrajectoryGenerator(t.network, t.trips).Generate();
  }
  data::RankingDataset dataset;
  ScopedSpan span(tracer, "data.queries");
  dataset.queries = data::GenerateQueries(t.network, trips, t.gen);
  return dataset;
}

struct Round {
  double embed_s = 0.0;
  double train_s = 0.0;
  double train_cpu_s = 0.0;
  double eval_s = 0.0;
  size_t samples = 0;
  core::TrainHistory history;
  core::EvalResult eval;
  uint64_t hash = 0;
  bool finite = true;
};

double Since(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// One measured round. `split_node2vec` calls the walk and skip-gram
/// halves separately (the traced mode) instead of TrainNode2Vec; both
/// consume the same RNG in the same order.
Round RunRound(const TrainSetup& t, const data::DatasetSplit& split,
               Tracer& tracer, bool split_node2vec) {
  Round r;
  int64_t start = NowNs();
  nn::Matrix table;
  if (split_node2vec) {
    Rng rng(t.n2v.seed);
    std::vector<std::vector<graph::VertexId>> corpus;
    {
      ScopedSpan span(tracer, "embed.walks");
      corpus = embedding::RandomWalker(t.network, t.n2v.walk)
                   .GenerateCorpus(rng);
    }
    ScopedSpan span(tracer, "embed.skipgram");
    table = embedding::TrainSkipGram(corpus, t.network.num_vertices(),
                                     t.n2v.skipgram, rng);
  } else {
    table = embedding::TrainNode2Vec(t.network, t.n2v);
  }
  r.embed_s = Since(start);

  core::PathRankModel model(t.network.num_vertices(), t.model);
  model.InitializeEmbedding(table);
  start = NowNs();
  const int64_t cpu_start = CpuNs();
  {
    ScopedSpan span(tracer, "train.fit");
    r.history =
        core::TrainPathRank(model, split.train, split.validation, t.trainer);
  }
  r.train_s = Since(start);
  r.train_cpu_s = static_cast<double>(CpuNs() - cpu_start) * 1e-9;
  r.samples = r.history.epochs.size() * data::FlattenDataset(split.train).size();

  start = NowNs();
  {
    ScopedSpan span(tracer, "eval.evaluate");
    r.eval = core::Evaluate(model, split.test);
  }
  r.eval_s = Since(start);

  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const nn::Parameter* p : std::as_const(model).Parameters()) {
    hash = Fnv1a(p->value.data(), p->value.size() * sizeof(float), hash);
    for (size_t i = 0; i < p->value.size(); ++i) {
      if (!std::isfinite(p->value.data()[i])) r.finite = false;
    }
  }
  r.hash = hash;
  for (const auto& epoch : r.history.epochs) {
    if (!std::isfinite(epoch.train_loss) || !std::isfinite(epoch.val_mae)) {
      r.finite = false;
    }
  }
  if (!std::isfinite(r.eval.kendall_tau) || !std::isfinite(r.eval.mae)) {
    r.finite = false;
  }
  return r;
}

std::string RoundJson(const Round& r) {
  std::string epochs = "[";
  std::string losses = "[";
  for (size_t i = 0; i < r.history.epochs.size(); ++i) {
    if (i > 0) {
      epochs += ',';
      losses += ',';
    }
    epochs += Num(r.history.epochs[i].seconds);
    losses += Num(r.history.epochs[i].train_loss);
  }
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(r.hash));
  return "{\"embed_s\": " + Num(r.embed_s) + ", \"train_s\": " +
         Num(r.train_s) + ", \"train_cpu_s\": " + Num(r.train_cpu_s) +
         ", \"eval_s\": " + Num(r.eval_s) +
         ", \"samples\": " + std::to_string(r.samples) +
         ", \"epoch_s\": " + epochs + "], \"losses\": " + losses +
         "], \"kendall_tau\": " + Num(r.eval.kendall_tau) +
         ", \"spearman_rho\": " + Num(r.eval.spearman_rho) +
         ", \"test_queries\": " + std::to_string(r.eval.num_queries) +
         ", \"hash\": \"" + hash + "\", \"finite\": " +
         (r.finite ? "true" : "false") + "}";
}

size_t CountCandidates(const data::RankingDataset& dataset) {
  size_t total = 0;
  for (const auto& query : dataset.queries) total += query.candidates.size();
  return total;
}

}  // namespace

int RunTrain(const Flags& flags) {
  const TrainSetup t = ParseSetup(flags);
  const std::string mode = flags.Str("mode");
  if (mode == "gated") {
    const auto setups = flags.Int("setups");
    const double seconds = flags.Double("seconds");
    std::string setup_s = "[";
    data::RankingDataset dataset;
    for (int64_t i = 0; i < setups; ++i) {
      Tracer off(false);
      const int64_t start = NowNs();
      dataset = BuildCorpus(t, off);
      if (i > 0) setup_s += ',';
      setup_s += Num(Since(start));
    }
    Rng split_rng(t.split_seed);
    const auto split = data::SplitDataset(dataset, 0.8, 0.1, split_rng);
    std::string rounds = "[";
    const int64_t start = NowNs();
    for (int i = 0; i < 2 || Since(start) < seconds; ++i) {
      Tracer off(false);
      if (i > 0) rounds += ',';
      rounds += RoundJson(RunRound(t, split, off, false));
    }
    std::printf("{\"setup_s\": %s], \"candidates\": %zu, \"rounds\": %s], "
                "\"peak_rss_mb\": %s}\n",
                setup_s.c_str(), CountCandidates(dataset), rounds.c_str(),
                Num(PeakRssMb()).c_str());
    return 0;
  }
  if (mode != "traced") Fail("--mode must be gated or traced");

  Tracer tracer(true);
  const data::RankingDataset dataset = BuildCorpus(t, tracer);
  Rng split_rng(t.split_seed);
  const auto split = data::SplitDataset(dataset, 0.8, 0.1, split_rng);
  Tracer off(false);
  int64_t start = NowNs();
  const Round before = RunRound(t, split, off, true);
  double plain_s = Since(start);
  start = NowNs();
  const Round traced = RunRound(t, split, tracer, true);
  const double traced_s = Since(start);
  start = NowNs();
  const Round after = RunRound(t, split, off, true);
  plain_s = (plain_s + Since(start)) / 2;
  tracer.Write(flags.Str("trace-out"));
  std::printf("{\"plain_s\": %s, \"traced_s\": %s, \"candidates\": %zu, "
              "\"same_hash\": %s, \"round\": %s}\n",
              Num(plain_s).c_str(), Num(traced_s).c_str(),
              CountCandidates(dataset),
              before.hash == traced.hash && after.hash == traced.hash
                  ? "true"
                  : "false",
              RoundJson(traced).c_str());
  return 0;
}

}  // namespace perfbench
