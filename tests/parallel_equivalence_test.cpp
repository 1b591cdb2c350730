// Parallel-vs-serial equivalence: GEMM outputs, node2vec walks and
// tables, trained weights and evaluation metrics are bitwise identical
// for any thread count, and training is bit-reproducible for a fixed seed
// (the determinism guarantees documented in docs/performance.md).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "embedding/node2vec.h"
#include "embedding/random_walk.h"
#include "graph/network_builder.h"
#include "nn/matrix.h"

namespace pathrank {
namespace {

class ParallelEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { SetNumThreads(4); }
};

nn::Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  nn::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  }
  return m;
}

void ExpectBitwiseEqual(const nn::Matrix& a, const nn::Matrix& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "at flat index " << i;
  }
}

TEST_F(ParallelEquivalenceTest, GemmBitwiseStableAcrossThreadCounts) {
  // Odd shapes exercise the remainder tiles. The kernels run serially on
  // the calling thread, so the thread count must leave every bit alone;
  // this guards against a kernel that starts reading it.
  struct Shape {
    size_t m, k, n;
  };
  for (const Shape& shape :
       {Shape{97, 130, 61}, Shape{128, 128, 128}, Shape{33, 257, 19}}) {
    Rng rng(shape.m * 1315423911u + shape.k * 7 + shape.n);
    const nn::Matrix a = RandomMatrix(shape.m, shape.k, rng);
    const nn::Matrix b_nn = RandomMatrix(shape.k, shape.n, rng);
    const nn::Matrix b_nt = RandomMatrix(shape.n, shape.k, rng);
    const nn::Matrix b_tn = RandomMatrix(shape.m, shape.n, rng);
    const nn::Matrix c_base = RandomMatrix(shape.m, shape.n, rng);
    const nn::Matrix c_tn_base = RandomMatrix(shape.k, shape.n, rng);

    SetNumThreads(1);
    nn::Matrix nn_ref = c_base;
    GemmNN(a, b_nn, &nn_ref, 0.5f, 1.0f);
    nn::Matrix nt_ref = c_base;
    GemmNT(a, b_nt, &nt_ref, 0.5f, 1.0f);
    nn::Matrix tn_ref = c_tn_base;
    GemmTN(a, b_tn, &tn_ref, 0.5f, 1.0f);

    for (size_t threads : {2, 3, 4, 7}) {
      SetNumThreads(threads);
      nn::Matrix c = c_base;
      GemmNN(a, b_nn, &c, 0.5f, 1.0f);
      ExpectBitwiseEqual(c, nn_ref);
      c = c_base;
      GemmNT(a, b_nt, &c, 0.5f, 1.0f);
      ExpectBitwiseEqual(c, nt_ref);
      c = c_tn_base;
      GemmTN(a, b_tn, &c, 0.5f, 1.0f);
      ExpectBitwiseEqual(c, tn_ref);
    }
  }
}

TEST_F(ParallelEquivalenceTest, Node2VecBitwiseStableAcrossThreadCounts) {
  // Enough walks that a thread-count-sized split of the corpus or of the SGD
  // would cut it into several pieces at every thread count below.
  const graph::RoadNetwork net = graph::BuildTestNetwork();
  embedding::Node2VecConfig cfg;
  cfg.walk.walk_length = 12;
  cfg.walk.walks_per_vertex = 6;
  cfg.skipgram.dims = 8;
  cfg.skipgram.epochs = 2;
  cfg.seed = 23;
  const embedding::RandomWalker walker(net, cfg.walk);

  SetNumThreads(1);
  Rng serial_rng(cfg.seed);
  const auto serial_corpus = walker.GenerateCorpus(serial_rng);
  const nn::Matrix serial_table = embedding::TrainNode2Vec(net, cfg);
  for (size_t threads : {2, 4, 8}) {
    SCOPED_TRACE(threads);
    SetNumThreads(threads);
    Rng rng(cfg.seed);
    EXPECT_TRUE(walker.GenerateCorpus(rng) == serial_corpus);
    ExpectBitwiseEqual(embedding::TrainNode2Vec(net, cfg), serial_table);
  }
}

/// Tiny synthetic ranking dataset: deterministic paths over a fake vertex
/// id space (the trainer never touches a road network).
data::RankingDataset SyntheticDataset(size_t num_queries, uint64_t seed) {
  Rng rng(seed);
  data::RankingDataset dataset;
  constexpr int32_t kVocab = 60;
  for (size_t q = 0; q < num_queries; ++q) {
    data::RankingQuery query;
    query.query_id = static_cast<int>(q);
    const size_t candidates = 3 + rng.NextBounded(3);
    for (size_t c = 0; c < candidates; ++c) {
      data::RankingCandidate cand;
      const size_t len = 4 + rng.NextBounded(9);
      for (size_t v = 0; v < len; ++v) {
        cand.path.vertices.push_back(
            static_cast<graph::VertexId>(rng.NextBounded(kVocab)));
      }
      cand.path.length_m = 500.0 + rng.NextDouble() * 3000.0;
      cand.path.time_s = cand.path.length_m / 15.0;
      cand.label = rng.NextDouble();
      query.candidates.push_back(std::move(cand));
    }
    dataset.queries.push_back(std::move(query));
  }
  return dataset;
}

std::vector<nn::Matrix> TrainOnce(size_t threads, bool multi_task = false) {
  SetNumThreads(threads);
  const data::RankingDataset train = SyntheticDataset(24, 101);
  const data::RankingDataset val = SyntheticDataset(6, 202);

  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = 12;
  model_cfg.hidden_size = 16;
  model_cfg.seed = 5;
  model_cfg.multi_task = multi_task;
  core::PathRankModel model(60, model_cfg);

  core::TrainerConfig train_cfg;
  train_cfg.epochs = 3;
  train_cfg.batch_size = 8;
  train_cfg.patience = 0;
  train_cfg.seed = 17;
  core::TrainPathRank(model, train, val, train_cfg);

  std::vector<nn::Matrix> weights;
  for (const nn::Parameter* p : model.Parameters()) {
    weights.push_back(p->value);
  }
  return weights;
}

TEST_F(ParallelEquivalenceTest, TrainingDeterministicForFixedThreadCount) {
  for (size_t threads : {1, 2, 4}) {
    const auto run1 = TrainOnce(threads);
    const auto run2 = TrainOnce(threads);
    ASSERT_EQ(run1.size(), run2.size());
    bool moved = false;
    for (size_t i = 0; i < run1.size(); ++i) {
      ExpectBitwiseEqual(run1[i], run2[i]);
      if (run1[i].SquaredNorm() > 0.0) moved = true;
    }
    EXPECT_TRUE(moved);
  }
}

TEST_F(ParallelEquivalenceTest, TrainingBitwiseStableAcrossThreadCounts) {
  // One optimizer step per batch whatever the thread count: weights trained
  // (with validation and best-weight restore) at any thread count equal
  // the serial ones bit for bit, with and without the auxiliary heads.
  for (bool multi_task : {false, true}) {
    SCOPED_TRACE(multi_task ? "multi_task" : "single_task");
    const auto serial = TrainOnce(1, multi_task);
    for (size_t threads : {2, 4, 8}) {
      SCOPED_TRACE(threads);
      const auto parallel = TrainOnce(threads, multi_task);
      ASSERT_EQ(parallel.size(), serial.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        ExpectBitwiseEqual(parallel[i], serial[i]);
      }
    }
  }
}

TEST_F(ParallelEquivalenceTest, EvaluationStableAcrossThreadCounts) {
  const data::RankingDataset dataset = SyntheticDataset(32, 303);
  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = 12;
  model_cfg.hidden_size = 16;
  model_cfg.seed = 5;
  core::PathRankModel model(60, model_cfg);

  SetNumThreads(1);
  const core::EvalResult serial = core::Evaluate(model, dataset);
  for (size_t threads : {2, 4}) {
    SetNumThreads(threads);
    const core::EvalResult parallel = core::Evaluate(model, dataset);
    EXPECT_EQ(parallel.mae, serial.mae);
    EXPECT_EQ(parallel.kendall_tau, serial.kendall_tau);
    EXPECT_EQ(parallel.spearman_rho, serial.spearman_rho);
    EXPECT_EQ(parallel.num_queries, serial.num_queries);
  }
}

}  // namespace
}  // namespace pathrank
