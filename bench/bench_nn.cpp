// Micro-benchmarks of the neural substrate: GEMM kernels, recurrent
// layer forward/backward throughput at the shapes PathRank trains with,
// and the serving scorer on one candidate set.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "data/candidate_generation.h"
#include "graph/network_builder.h"
#include "nn/matrix.h"
#include "nn/recurrent.h"
#include "serving/model_snapshot.h"
#include "serving/serving_engine.h"

namespace {

using namespace pathrank;
using namespace pathrank::nn;

Matrix RandomMatrix(size_t r, size_t c, Rng& rng) {
  Matrix m(r, c);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextUniform(-1, 1));
  }
  return m;
}

void BM_GemmNN(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = RandomMatrix(32, n, rng);
  const Matrix b = RandomMatrix(n, n, rng);
  Matrix c(32, n);
  for (auto _ : state) {
    GemmNN(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * 32 * n * n) * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(128)->Arg(256);

template <CellType kCell>
void BM_RecurrentForward(benchmark::State& state) {
  const size_t hidden = static_cast<size_t>(state.range(0));
  const size_t batch = 32;
  const size_t steps = 30;
  Rng rng(2);
  auto cell = MakeRecurrentLayer(kCell, hidden, hidden, &rng, "cell");
  std::vector<Matrix> x_steps;
  for (size_t t = 0; t < steps; ++t) {
    x_steps.push_back(RandomMatrix(batch, hidden, rng));
  }
  const std::vector<int32_t> lengths(batch, static_cast<int32_t>(steps));
  Matrix h;
  for (auto _ : state) {
    cell->Forward(x_steps, lengths, &h);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * batch * steps));
}
BENCHMARK(BM_RecurrentForward<CellType::kGru>)->Arg(64)->Arg(128);
BENCHMARK(BM_RecurrentForward<CellType::kLstm>)->Arg(64);
BENCHMARK(BM_RecurrentForward<CellType::kRnn>)->Arg(64);

void BM_GruForwardBackward(benchmark::State& state) {
  const size_t hidden = static_cast<size_t>(state.range(0));
  const size_t batch = 32;
  const size_t steps = 30;
  Rng rng(3);
  GruLayer gru(hidden, hidden, &rng);
  std::vector<Matrix> x_steps;
  for (size_t t = 0; t < steps; ++t) {
    x_steps.push_back(RandomMatrix(batch, hidden, rng));
  }
  const std::vector<int32_t> lengths(batch, static_cast<int32_t>(steps));
  Matrix h;
  const Matrix d_h = RandomMatrix(batch, hidden, rng);
  std::vector<Matrix> d_x;
  for (auto _ : state) {
    gru.Forward(x_steps, lengths, &h);
    gru.Backward(d_h, &d_x);
    benchmark::DoNotOptimize(d_x);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * batch * steps));
}
BENCHMARK(BM_GruForwardBackward)->Arg(64)->Arg(128);

// One /v1/route miss's scoring: 10 D-TkDI candidates (similarity threshold
// 0.6) on the 24 x 24 synthetic network, scored through a ModelSnapshot of
// the served shape (bidirectional GRU, m = 64, h = 64, random init).
void BM_ScoreCandidateSet(benchmark::State& state) {
  graph::SyntheticNetworkConfig net_cfg;
  net_cfg.rows = 24;
  net_cfg.cols = 24;
  const graph::RoadNetwork network = graph::BuildSyntheticNetwork(net_cfg);
  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = 64;
  model_cfg.hidden_size = 64;
  const core::PathRankModel model(network.num_vertices(), model_cfg);
  const auto snapshot = serving::ModelSnapshot::Capture(model);

  data::CandidateGenConfig gen;
  gen.k = 10;
  gen.similarity_threshold = 0.6;
  const auto last = static_cast<graph::VertexId>(network.num_vertices() - 1);
  const auto paths =
      data::GenerateCandidatePaths(network, last / 3, 2 * last / 3, gen);
  std::vector<std::vector<int32_t>> seqs;
  size_t vertices = 0;
  for (const auto& p : paths) {
    seqs.push_back(serving::PathToSequence(p));
    vertices += p.vertices.size();
  }
  const auto batch = nn::SequenceBatch::FromSequences(seqs);

  core::InferenceScratch scratch;
  for (auto _ : state) {
    const auto scores = snapshot->model().ForwardInference(
        batch, snapshot->tables(), &scratch);
    benchmark::DoNotOptimize(scores.data());
  }
  state.counters["paths"] = static_cast<double>(paths.size());
  state.counters["vertices"] = static_cast<double>(vertices);
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * paths.size()));
}
BENCHMARK(BM_ScoreCandidateSet);

}  // namespace

BENCHMARK_MAIN();
