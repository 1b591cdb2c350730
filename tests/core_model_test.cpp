// PathRank model behaviour: output range, variants (PR-A1 freeze vs PR-A2
// fine-tune), cell/bidirectional configurations, gradient flow, and
// end-to-end ranking through the serving engine.
#include <gtest/gtest.h>

#include <cmath>

#include "core/model.h"
#include "data/candidate_generation.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "graph/network_builder.h"
#include "serving/serving_engine.h"

namespace pathrank::core {
namespace {

nn::SequenceBatch ToyBatch() {
  return nn::SequenceBatch::FromSequences(
      {{1, 2, 3, 4}, {5, 6}, {7, 8, 9}});
}

PathRankConfig SmallConfig() {
  PathRankConfig cfg;
  cfg.embedding_dim = 8;
  cfg.hidden_size = 12;
  cfg.seed = 3;
  return cfg;
}

TEST(PathRankModel, ScoresAreInUnitInterval) {
  PathRankModel model(16, SmallConfig());
  const auto scores = model.Forward(ToyBatch());
  ASSERT_EQ(scores.size(), 3u);
  for (float s : scores) {
    EXPECT_GT(s, 0.0f);
    EXPECT_LT(s, 1.0f);
  }
}

TEST(PathRankModel, DeterministicForward) {
  PathRankModel model(16, SmallConfig());
  const auto s1 = model.Forward(ToyBatch());
  const auto s2 = model.Forward(ToyBatch());
  for (size_t i = 0; i < s1.size(); ++i) EXPECT_EQ(s1[i], s2[i]);
}

TEST(PathRankModel, SameSeedSameModel) {
  PathRankModel a(16, SmallConfig());
  PathRankModel b(16, SmallConfig());
  const auto sa = a.Forward(ToyBatch());
  const auto sb = b.Forward(ToyBatch());
  for (size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
}

TEST(PathRankModel, PaddingDoesNotChangeScores) {
  PathRankModel model(16, SmallConfig());
  const auto mixed = model.Forward(ToyBatch());
  const auto alone = model.Forward(
      nn::SequenceBatch::FromSequences({{5, 6}}));
  EXPECT_NEAR(mixed[1], alone[0], 1e-6f);
}

class VariantTest : public ::testing::TestWithParam<bool> {};

TEST_P(VariantTest, EmbeddingFreezeSemantics) {
  PathRankConfig cfg = SmallConfig();
  cfg.finetune_embedding = GetParam();  // PR-A2 if true, PR-A1 if false
  PathRankModel model(16, cfg);

  // Snapshot embedding table.
  const nn::ParameterList params = model.Parameters();
  nn::Parameter* emb = params[0];
  ASSERT_EQ(emb->name, "embedding");
  const nn::Matrix before = emb->value;

  // One training step.
  nn::Adam adam(0.05);
  const auto batch = ToyBatch();
  const std::vector<float> truth{0.9f, 0.1f, 0.5f};
  const auto scores = model.Forward(batch);
  std::vector<float> d;
  nn::MseLoss(scores, truth, &d);
  nn::ZeroGradients(params);
  model.Backward(d);
  adam.Step(params);

  double delta = 0.0;
  for (size_t i = 0; i < before.size(); ++i) {
    delta += std::abs(emb->value.data()[i] - before.data()[i]);
  }
  if (GetParam()) {
    EXPECT_GT(delta, 0.0) << "PR-A2 must update the embedding matrix";
  } else {
    EXPECT_EQ(delta, 0.0) << "PR-A1 must keep the embedding matrix frozen";
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, VariantTest, ::testing::Bool());

TEST(PathRankModel, VariantNames) {
  PathRankConfig a1 = SmallConfig();
  a1.finetune_embedding = false;
  PathRankConfig a2 = SmallConfig();
  a2.finetune_embedding = true;
  EXPECT_EQ(a1.VariantName(), "PR-A1");
  EXPECT_EQ(a2.VariantName(), "PR-A2");
}

class CellConfig : public ::testing::TestWithParam<nn::CellType> {};

TEST_P(CellConfig, TrainingStepReducesLoss) {
  PathRankConfig cfg = SmallConfig();
  cfg.cell = GetParam();
  PathRankModel model(16, cfg);
  const auto batch = ToyBatch();
  const std::vector<float> truth{0.9f, 0.1f, 0.5f};

  nn::Adam adam(0.02);
  const nn::ParameterList params = model.Parameters();
  std::vector<float> d;
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 60; ++step) {
    const auto scores = model.Forward(batch);
    const double loss = nn::MseLoss(scores, truth, &d);
    if (step == 0) first_loss = loss;
    last_loss = loss;
    nn::ZeroGradients(params);
    model.Backward(d);
    adam.Step(params);
  }
  EXPECT_LT(last_loss, first_loss * 0.2)
      << nn::CellTypeName(GetParam()) << " failed to overfit a toy batch";
}

INSTANTIATE_TEST_SUITE_P(Cells, CellConfig,
                         ::testing::Values(nn::CellType::kGru,
                                           nn::CellType::kRnn,
                                           nn::CellType::kLstm));

class PoolingTest : public ::testing::TestWithParam<Pooling> {};

TEST_P(PoolingTest, ScoresValidAndTrainable) {
  PathRankConfig cfg = SmallConfig();
  cfg.pooling = GetParam();
  PathRankModel model(16, cfg);
  const auto batch = ToyBatch();
  const std::vector<float> truth{0.9f, 0.1f, 0.5f};
  nn::Adam adam(0.02);
  const nn::ParameterList params = model.Parameters();
  std::vector<float> d;
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 50; ++step) {
    const auto scores = model.Forward(batch);
    for (float s : scores) {
      ASSERT_GT(s, 0.0f);
      ASSERT_LT(s, 1.0f);
    }
    const double loss = nn::MseLoss(scores, truth, &d);
    if (step == 0) first_loss = loss;
    last_loss = loss;
    nn::ZeroGradients(params);
    model.Backward(d);
    adam.Step(params);
  }
  EXPECT_LT(last_loss, first_loss * 0.25);
}

TEST_P(PoolingTest, PaddingInvariance) {
  PathRankConfig cfg = SmallConfig();
  cfg.pooling = GetParam();
  PathRankModel model(16, cfg);
  const auto mixed = model.Forward(ToyBatch());
  const auto alone =
      model.Forward(nn::SequenceBatch::FromSequences({{5, 6}}));
  EXPECT_NEAR(mixed[1], alone[0], 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Poolings, PoolingTest,
                         ::testing::Values(Pooling::kMean,
                                           Pooling::kFinalState));

TEST(PathRankModel, PoolingModesDiffer) {
  PathRankConfig mean_cfg = SmallConfig();
  mean_cfg.pooling = Pooling::kMean;
  PathRankConfig final_cfg = SmallConfig();
  final_cfg.pooling = Pooling::kFinalState;
  PathRankModel a(16, mean_cfg);
  PathRankModel b(16, final_cfg);
  const auto sa = a.Forward(ToyBatch());
  const auto sb = b.Forward(ToyBatch());
  bool any_diff = false;
  for (size_t i = 0; i < sa.size(); ++i) {
    any_diff = any_diff || sa[i] != sb[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(PathRankModel, UnidirectionalHasFewerParameters) {
  PathRankConfig bi = SmallConfig();
  bi.bidirectional = true;
  PathRankConfig uni = SmallConfig();
  uni.bidirectional = false;
  PathRankModel m_bi(16, bi);
  PathRankModel m_uni(16, uni);
  EXPECT_GT(m_bi.NumParameters(), m_uni.NumParameters());
}

TEST(PathRankModel, InitializeEmbeddingIsUsed) {
  PathRankConfig cfg = SmallConfig();
  PathRankModel model(16, cfg);
  nn::Matrix table(16, cfg.embedding_dim);
  table.Fill(0.01f);
  model.InitializeEmbedding(table);
  // Scores before/after must differ from a fresh model with random init.
  PathRankModel fresh(16, cfg);
  const auto s1 = model.Forward(ToyBatch());
  const auto s2 = fresh.Forward(ToyBatch());
  bool any_diff = false;
  for (size_t i = 0; i < s1.size(); ++i) {
    any_diff = any_diff || std::abs(s1[i] - s2[i]) > 1e-9f;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ModelServing, RanksSortedByScoreDescending) {
  const auto net = graph::BuildTestNetwork();
  PathRankConfig cfg = SmallConfig();
  PathRankModel model(net.num_vertices(), cfg);
  const serving::ServingEngine engine(net, model);
  data::CandidateGenConfig gen;
  gen.k = 5;
  const auto ranked =
      engine.ScoreBatch(data::GenerateCandidatePaths(net, 0, 63, gen));
  ASSERT_GE(ranked.size(), 2u);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].score, ranked[i].score);
  }
  for (const auto& sp : ranked) {
    EXPECT_EQ(sp.path.source(), 0u);
    EXPECT_EQ(sp.path.destination(), 63u);
  }
}

TEST(ModelServing, ScoreEmptyInputYieldsEmpty) {
  const auto net = graph::BuildTestNetwork();
  PathRankConfig cfg = SmallConfig();
  PathRankModel model(net.num_vertices(), cfg);
  const serving::ServingEngine engine(net, model);
  EXPECT_TRUE(engine.ScoreBatch({}).empty());
}

}  // namespace
}  // namespace pathrank::core
