// Model checkpointing: save/load round trips, config restoration,
// rejection of corrupt checkpoints, and multi-task model behaviour.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "core/model.h"
#include "core/model_io.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace pathrank::core {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

nn::SequenceBatch ToyBatch() {
  return nn::SequenceBatch::FromSequences({{1, 2, 3, 4}, {5, 6}, {7, 8, 9}});
}

PathRankConfig SmallConfig() {
  PathRankConfig cfg;
  cfg.embedding_dim = 8;
  cfg.hidden_size = 12;
  cfg.seed = 3;
  return cfg;
}

TEST(ModelIo, SaveReportsAFailedWrite) {
  // Every write to /dev/full fails with ENOSPC. A checkpoint this small
  // is written only when the file is closed.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  PathRankConfig cfg;
  cfg.embedding_dim = 2;
  cfg.hidden_size = 2;
  const PathRankModel model(4, cfg);
  EXPECT_THROW(SaveModel(model, "/dev/full"), std::runtime_error);
}

TEST(ModelIo, RoundTripReproducesScores) {
  PathRankModel model(16, SmallConfig());
  // Perturb away from init: one training step.
  nn::Adam adam(0.05);
  const auto batch = ToyBatch();
  const std::vector<float> truth{0.9f, 0.1f, 0.5f};
  std::vector<float> d;
  const auto scores0 = model.ForwardFull(batch).scores;
  nn::MseLoss(scores0, truth, &d);
  nn::ZeroGradients(model.Parameters());
  model.BackwardFull(d, {}, {});
  adam.Step(model.Parameters());

  const auto expected = model.ForwardFull(batch).scores;
  const std::string path = TempPath("pr_model.bin");
  SaveModel(model, path);
  auto loaded = LoadModel(path);
  const auto got = loaded->ForwardFull(batch).scores;
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]);
  }
  std::remove(path.c_str());
}

TEST(ModelIo, RestoresConfig) {
  PathRankConfig cfg = SmallConfig();
  cfg.cell = nn::CellType::kLstm;
  cfg.bidirectional = false;
  cfg.pooling = Pooling::kFinalState;
  cfg.finetune_embedding = false;
  cfg.multi_task = true;
  cfg.aux_loss_weight = 0.7;
  PathRankModel model(20, cfg);
  const std::string path = TempPath("pr_model2.bin");
  SaveModel(model, path);
  auto loaded = LoadModel(path);
  EXPECT_EQ(loaded->vocab_size(), 20u);
  EXPECT_EQ(loaded->config().cell, nn::CellType::kLstm);
  EXPECT_FALSE(loaded->config().bidirectional);
  EXPECT_EQ(loaded->config().pooling, Pooling::kFinalState);
  EXPECT_FALSE(loaded->config().finetune_embedding);
  EXPECT_TRUE(loaded->config().multi_task);
  EXPECT_DOUBLE_EQ(loaded->config().aux_loss_weight, 0.7);
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsGarbage) {
  const std::string path = TempPath("pr_model_garbage.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const char junk[] = "this is not a model";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_THROW(LoadModel(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---- corrupt checkpoints -------------------------------------------------

// Byte offsets of SaveModel's header fields.
constexpr size_t kVocabOffset = 8;
constexpr size_t kEmbeddingDimOffset = 16;
constexpr size_t kCellOffset = 32;
constexpr size_t kPoolingOffset = 40;
constexpr size_t kMultiTaskOffset = 48;
constexpr size_t kFirstNameLengthOffset = 72;

/// The bytes of a small single-task checkpoint (vocab 4, M 2, hidden 3).
std::string SmallCheckpoint() {
  PathRankConfig cfg;
  cfg.embedding_dim = 2;
  cfg.hidden_size = 3;
  const PathRankModel model(4, cfg);
  const std::string path = TempPath("pr_model_small.bin");
  SaveModel(model, path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

template <typename T>
void Patch(std::string* bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(value), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Loads `bytes` as a checkpoint file and returns the std::runtime_error
/// message; fails the test when the load succeeds or throws another type.
std::string LoadError(const std::string& bytes) {
  const std::string path = TempPath("pr_model_corrupt.bin");
  WriteFile(path, bytes);
  std::string message;
  try {
    LoadModel(path);
    ADD_FAILURE() << "a corrupt checkpoint of " << bytes.size()
                  << " bytes loaded";
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  std::remove(path.c_str());
  return message;
}

TEST(ModelIoCorrupt, UnknownCellTypeThrows) {
  std::string bytes = SmallCheckpoint();
  Patch<uint32_t>(&bytes, kCellOffset, 7);
  EXPECT_NE(LoadError(bytes).find("cell"), std::string::npos);
}

TEST(ModelIoCorrupt, UnknownPoolingThrows) {
  std::string bytes = SmallCheckpoint();
  Patch<uint32_t>(&bytes, kPoolingOffset, 9);
  EXPECT_NE(LoadError(bytes).find("pooling"), std::string::npos);
}

TEST(ModelIoCorrupt, VocabBeyondTheFileThrowsBeforeAllocating) {
  std::string bytes = SmallCheckpoint();
  Patch<uint64_t>(&bytes, kVocabOffset, uint64_t{1} << 40);
  EXPECT_NE(LoadError(bytes).find("exceed"), std::string::npos);
}

TEST(ModelIoCorrupt, NameLengthBeyondTheFileThrowsBeforeAllocating) {
  std::string bytes = SmallCheckpoint();
  Patch<uint32_t>(&bytes, kFirstNameLengthOffset, 0xFFFFFFFFu);
  EXPECT_NE(LoadError(bytes).find("truncated"), std::string::npos);
}

TEST(ModelIoCorrupt, EveryTruncationThrows) {
  const std::string bytes = SmallCheckpoint();
  for (size_t size = 0; size < bytes.size(); ++size) {
    EXPECT_FALSE(LoadError(bytes.substr(0, size)).empty()) << size;
  }
  // The whole file loads: the throws above come from the truncation.
  const std::string path = TempPath("pr_model_whole.bin");
  WriteFile(path, bytes);
  EXPECT_EQ(LoadModel(path)->vocab_size(), 4u);
  std::remove(path.c_str());
}

TEST(ModelIoCorrupt, MissingParameterThrows) {
  // A multi-task header over single-task tensors: the auxiliary heads'
  // parameters are not in the file.
  std::string bytes = SmallCheckpoint();
  Patch<uint32_t>(&bytes, kMultiTaskOffset, 1);
  EXPECT_NE(LoadError(bytes).find("parameter missing"), std::string::npos);
}

TEST(ModelIoCorrupt, WrongShapeParameterThrows) {
  // M = 3 in the header, but the stored tensors were built with M = 2.
  std::string bytes = SmallCheckpoint();
  Patch<uint64_t>(&bytes, kEmbeddingDimOffset, 3);
  EXPECT_NE(LoadError(bytes).find("shape mismatch"), std::string::npos);
}

TEST(MultiTask, AuxOutputsPresentAndBounded) {
  PathRankConfig cfg = SmallConfig();
  cfg.multi_task = true;
  PathRankModel model(16, cfg);
  const auto outputs = model.ForwardFull(ToyBatch());
  ASSERT_EQ(outputs.aux_length.size(), 3u);
  ASSERT_EQ(outputs.aux_time.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GT(outputs.aux_length[i], 0.0f);
    EXPECT_LT(outputs.aux_length[i], 1.0f);
    EXPECT_GT(outputs.aux_time[i], 0.0f);
    EXPECT_LT(outputs.aux_time[i], 1.0f);
  }
}

TEST(MultiTask, SingleTaskHasNoAuxOutputs) {
  PathRankModel model(16, SmallConfig());
  const auto outputs = model.ForwardFull(ToyBatch());
  EXPECT_TRUE(outputs.aux_length.empty());
  EXPECT_TRUE(outputs.aux_time.empty());
}

TEST(MultiTask, HasMoreParameters) {
  PathRankConfig cfg = SmallConfig();
  PathRankModel single(16, cfg);
  cfg.multi_task = true;
  PathRankModel multi(16, cfg);
  EXPECT_GT(multi.NumParameters(), single.NumParameters());
}

TEST(MultiTask, JointTrainingReducesAllLosses) {
  PathRankConfig cfg = SmallConfig();
  cfg.multi_task = true;
  cfg.aux_loss_weight = 0.5;
  PathRankModel model(16, cfg);
  const auto batch = ToyBatch();
  const std::vector<float> truth{0.9f, 0.1f, 0.5f};
  const std::vector<float> aux_len{0.3f, 0.8f, 0.6f};
  const std::vector<float> aux_time{0.4f, 0.7f, 0.5f};

  nn::Adam adam(0.02);
  const nn::ParameterList params = model.Parameters();
  std::vector<float> ds;
  std::vector<float> dl;
  std::vector<float> dt;
  double first = 0.0;
  double last = 0.0;
  for (int step = 0; step < 80; ++step) {
    const auto out = model.ForwardFull(batch);
    double loss = nn::MseLoss(out.scores, truth, &ds);
    loss += 0.5 * nn::MseLoss(out.aux_length, aux_len, &dl);
    loss += 0.5 * nn::MseLoss(out.aux_time, aux_time, &dt);
    for (float& g : dl) g *= 0.5f;
    for (float& g : dt) g *= 0.5f;
    if (step == 0) first = loss;
    last = loss;
    nn::ZeroGradients(params);
    model.BackwardFull(ds, dl, dt);
    adam.Step(params);
  }
  EXPECT_LT(last, first * 0.2);
}

TEST(MultiTask, BackwardFullRejectsAuxWithoutMultiTask) {
  PathRankModel model(16, SmallConfig());
  const auto batch = ToyBatch();
  model.ForwardFull(batch);
  const std::vector<float> d{0.1f, 0.1f, 0.1f};
  EXPECT_THROW(model.BackwardFull(d, d, d), std::logic_error);
}

}  // namespace
}  // namespace pathrank::core
