// Behavioural tests of the layers: shapes, masking semantics, freezing,
// determinism, sequence-batch utilities and the loss. Checkpoint
// serialization is model_io_test's.
#include <gtest/gtest.h>

#include <cstring>

#include "nn/embedding_layer.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/recurrent.h"
#include "nn/sequence_batch.h"

namespace pathrank::nn {
namespace {

TEST(SequenceBatch, PadsAndRecordsLengths) {
  const std::vector<std::vector<int32_t>> seqs{{1, 2, 3}, {4, 5}, {6}};
  const auto batch = SequenceBatch::FromSequences(seqs);
  EXPECT_EQ(batch.batch_size, 3u);
  EXPECT_EQ(batch.max_len, 3u);
  EXPECT_EQ(batch.id_at(0, 2), 3);
  EXPECT_EQ(batch.id_at(1, 1), 5);
  EXPECT_EQ(batch.id_at(1, 2), 0);  // padding
  EXPECT_EQ(batch.lengths[2], 1);
}

TEST(SequenceBatch, ReversedReversesPrefixOnly) {
  const std::vector<std::vector<int32_t>> seqs{{1, 2, 3}, {4, 5}};
  const auto rev = SequenceBatch::FromSequences(seqs).Reversed();
  EXPECT_EQ(rev.id_at(0, 0), 3);
  EXPECT_EQ(rev.id_at(0, 2), 1);
  EXPECT_EQ(rev.id_at(1, 0), 5);
  EXPECT_EQ(rev.id_at(1, 1), 4);
  EXPECT_EQ(rev.id_at(1, 2), 0);  // padding untouched
}

TEST(SequenceBatch, RejectsEmptySequence) {
  const std::vector<std::vector<int32_t>> seqs{{1}, {}};
  EXPECT_THROW(SequenceBatch::FromSequences(seqs), std::logic_error);
}

TEST(EmbeddingLayer, LookupReturnsTableRows) {
  pathrank::Rng rng(2);
  EmbeddingLayer emb(10, 4, rng);
  const auto batch = SequenceBatch::FromSequences({{3, 7}, {1, 1}});
  Matrix x;
  emb.Lookup(batch, 0, &x);
  ASSERT_EQ(x.rows(), 2u);
  ASSERT_EQ(x.cols(), 4u);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(x.at(0, c), emb.table().at(3, c));
    EXPECT_EQ(x.at(1, c), emb.table().at(1, c));
  }
}

TEST(EmbeddingLayer, GradSkipsPadding) {
  pathrank::Rng rng(3);
  EmbeddingLayer emb(10, 2, rng);
  const auto batch = SequenceBatch::FromSequences({{3, 7}, {1}});
  Matrix d(2, 2);
  d.Fill(1.0f);
  emb.parameter().ZeroGrad();
  emb.AccumulateGrad(batch, 1, d);  // t=1: row 1 is padding
  EXPECT_EQ(emb.parameter().grad.at(7, 0), 1.0f);
  // Padded token id is 0: its row must stay zero.
  EXPECT_EQ(emb.parameter().grad.at(0, 0), 0.0f);
  EXPECT_EQ(emb.parameter().grad.at(1, 0), 0.0f);
}

TEST(EmbeddingLayer, LoadTableValidatesShape) {
  pathrank::Rng rng(4);
  EmbeddingLayer emb(5, 3, rng);
  Matrix good(5, 3);
  EXPECT_NO_THROW(emb.LoadTable(good));
  Matrix bad(5, 4);
  EXPECT_THROW(emb.LoadTable(bad), std::logic_error);
}

TEST(LinearLayer, ForwardIsAffine) {
  pathrank::Rng rng(5);
  LinearLayer fc(3, 2, rng);
  // Overwrite parameters with known values.
  fc.Parameters()[0]->value.Fill(1.0f);  // W all ones
  fc.Parameters()[1]->value.Fill(0.5f);  // b
  Matrix x(1, 3);
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = 2.0f;
  x.at(0, 2) = 3.0f;
  Matrix y;
  fc.ForwardInference(x, &y);
  EXPECT_NEAR(y.at(0, 0), 6.5f, 1e-6f);
  EXPECT_NEAR(y.at(0, 1), 6.5f, 1e-6f);
}

class RecurrentShapes : public ::testing::TestWithParam<CellType> {};

TEST_P(RecurrentShapes, FinalStateShapeAndDeterminism) {
  pathrank::Rng rng(6);
  auto cell = MakeRecurrentLayer(GetParam(), 3, 5, &rng, "cell");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->input_size(), 3u);
  EXPECT_EQ(cell->hidden_size(), 5u);

  std::vector<Matrix> x_steps(4, Matrix(2, 3));
  pathrank::Rng data_rng(7);
  for (auto& x : x_steps) {
    for (size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = static_cast<float>(data_rng.NextUniform(-1, 1));
    }
  }
  const std::vector<int32_t> lengths{4, 2};
  Matrix h1;
  cell->Forward(x_steps, lengths, &h1);
  ASSERT_EQ(h1.rows(), 2u);
  ASSERT_EQ(h1.cols(), 5u);
  Matrix h2;
  cell->Forward(x_steps, lengths, &h2);
  for (size_t i = 0; i < h1.size(); ++i) {
    EXPECT_EQ(h1.data()[i], h2.data()[i]);
  }
}

TEST_P(RecurrentShapes, MaskingMatchesTruncatedSequence) {
  // Row with length L inside a longer padded batch must produce the same
  // final state as running the truncated sequence alone.
  pathrank::Rng rng(8);
  auto cell = MakeRecurrentLayer(GetParam(), 2, 4, &rng, "cell");

  pathrank::Rng data_rng(9);
  std::vector<Matrix> x_long(5, Matrix(1, 2));
  for (auto& x : x_long) {
    for (size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = static_cast<float>(data_rng.NextUniform(-1, 1));
    }
  }
  // Padded run: length 3 of 5.
  Matrix h_padded;
  cell->Forward(x_long, {3}, &h_padded);
  // Truncated run: only the first 3 steps.
  std::vector<Matrix> x_short(x_long.begin(), x_long.begin() + 3);
  Matrix h_short;
  cell->Forward(x_short, {3}, &h_short);
  for (size_t i = 0; i < h_short.size(); ++i) {
    EXPECT_NEAR(h_padded.data()[i], h_short.data()[i], 1e-6f);
  }
}

TEST_P(RecurrentShapes, TrainingCacheReuseAcrossGeometriesIsStable) {
  // Forward and Backward keep their per-step buffers across calls and
  // only reshape them. A layer that trained on a larger batch first must
  // train on a smaller one bitwise like a fresh layer with the same
  // weights.
  pathrank::Rng rng(11);
  auto reused = MakeRecurrentLayer(GetParam(), 3, 4, &rng, "cell");
  auto fresh = MakeRecurrentLayer(GetParam(), 3, 4, nullptr, "cell");
  const ParameterList reused_params = reused->Parameters();
  const ParameterList fresh_params = fresh->Parameters();
  for (size_t i = 0; i < reused_params.size(); ++i) {
    fresh_params[i]->value = reused_params[i]->value;
  }

  pathrank::Rng data_rng(12);
  auto random_steps = [&](size_t steps, size_t rows) {
    std::vector<Matrix> x(steps, Matrix(rows, 3));
    for (Matrix& m : x) {
      for (size_t i = 0; i < m.size(); ++i) {
        m.data()[i] = static_cast<float>(data_rng.NextUniform(-1, 1));
      }
    }
    return x;
  };
  auto expect_bitwise_equal = [](const Matrix& a, const Matrix& b) {
    ASSERT_TRUE(a.SameShape(b))
        << a.ShapeString() << " vs " << b.ShapeString();
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
  };

  std::vector<Matrix> dx_reused, dx_fresh;
  const std::vector<Matrix> x_big = random_steps(5, 3);
  Matrix h_big;
  reused->Forward(x_big, {5, 2, 4}, &h_big);
  Matrix d_big(3, 4);
  d_big.Fill(0.5f);
  reused->Backward(d_big, &dx_reused);
  for (Parameter* p : reused_params) p->ZeroGrad();

  const std::vector<Matrix> x_small = random_steps(3, 2);
  const std::vector<int32_t> lengths{3, 1};
  Matrix d_final(2, 4);
  for (size_t i = 0; i < d_final.size(); ++i) {
    d_final.data()[i] = static_cast<float>(data_rng.NextUniform(-1, 1));
  }
  Matrix h_reused, h_fresh;
  reused->Forward(x_small, lengths, &h_reused);
  reused->Backward(d_final, &dx_reused);
  fresh->Forward(x_small, lengths, &h_fresh);
  fresh->Backward(d_final, &dx_fresh);

  expect_bitwise_equal(h_reused, h_fresh);
  ASSERT_EQ(dx_reused.size(), 3u);
  ASSERT_EQ(dx_fresh.size(), 3u);
  for (size_t t = 0; t < dx_reused.size(); ++t) {
    expect_bitwise_equal(dx_reused[t], dx_fresh[t]);
  }
  for (size_t i = 0; i < reused_params.size(); ++i) {
    SCOPED_TRACE(reused_params[i]->name);
    expect_bitwise_equal(reused_params[i]->grad, fresh_params[i]->grad);
  }
}

TEST_P(RecurrentShapes, BackwardRequiresForward) {
  pathrank::Rng rng(10);
  auto cell = MakeRecurrentLayer(GetParam(), 2, 3, &rng, "cell");
  Matrix d(1, 3);
  std::vector<Matrix> dx;
  EXPECT_THROW(cell->Backward(d, &dx), std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(Cells, RecurrentShapes,
                         ::testing::Values(CellType::kGru, CellType::kRnn,
                                           CellType::kLstm));

TEST(Loss, MseValueAndGradient) {
  const std::vector<float> p{1.0f, 0.0f};
  const std::vector<float> t{0.0f, 0.0f};
  std::vector<float> d;
  const double loss = MseLoss(p, t, &d);
  EXPECT_NEAR(loss, 0.5, 1e-6);  // (1 + 0) / 2
  EXPECT_NEAR(d[0], 1.0f, 1e-6f);  // 2*1/2
  EXPECT_NEAR(d[1], 0.0f, 1e-6f);
}

}  // namespace
}  // namespace pathrank::nn
