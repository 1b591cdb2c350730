#include "core/model_io.h"

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "nn/serialize.h"

namespace pathrank::core {
namespace {

constexpr uint32_t kModelMagic = 0x50524D44;  // "PRMD"
constexpr uint32_t kVersion = 1;

void Put32(std::ostream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void Put64(std::ostream& out, uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutF64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint32_t Get32(std::istream& in) {
  uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("truncated model file");
  return v;
}

uint64_t Get64(std::istream& in) {
  uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("truncated model file");
  return v;
}

double GetF64(std::istream& in) {
  double v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("truncated model file");
  return v;
}

}  // namespace

void SaveModel(const PathRankModel& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  const PathRankConfig& cfg = model.config();
  Put32(out, kModelMagic);
  Put32(out, kVersion);
  Put64(out, model.vocab_size());
  Put64(out, cfg.embedding_dim);
  Put64(out, cfg.hidden_size);
  Put32(out, static_cast<uint32_t>(cfg.cell));
  Put32(out, cfg.bidirectional ? 1 : 0);
  Put32(out, static_cast<uint32_t>(cfg.pooling));
  Put32(out, cfg.finetune_embedding ? 1 : 0);
  Put32(out, cfg.multi_task ? 1 : 0);
  PutF64(out, cfg.aux_loss_weight);
  Put64(out, cfg.seed);

  const nn::ConstParameterList params = model.Parameters();
  {
    // Duplicate names would silently alias slots at load time.
    std::unordered_map<std::string, int> seen;
    for (const nn::Parameter* p : params) {
      if (++seen[p->name] > 1) {
        throw std::runtime_error("duplicate parameter name: " + p->name);
      }
    }
  }
  Put32(out, static_cast<uint32_t>(params.size()));
  for (const nn::Parameter* p : params) {
    Put32(out, static_cast<uint32_t>(p->name.size()));
    out.write(p->name.data(),
              static_cast<std::streamsize>(p->name.size()));
    nn::WriteMatrix(out, p->value);
  }
  // A small checkpoint's only real write is the flush in close().
  out.close();
  if (!out) throw std::runtime_error("write failed: " + path);
}

std::unique_ptr<PathRankModel> LoadModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  if (Get32(in) != kModelMagic) {
    throw std::runtime_error("not a PathRank model file: " + path);
  }
  if (Get32(in) != kVersion) {
    throw std::runtime_error("unsupported model version in " + path);
  }
  const uint64_t vocab = Get64(in);
  PathRankConfig cfg;
  cfg.embedding_dim = Get64(in);
  cfg.hidden_size = Get64(in);
  const uint32_t cell = Get32(in);
  if (cell > static_cast<uint32_t>(nn::CellType::kLstm)) {
    throw std::runtime_error("unknown cell type " + std::to_string(cell) +
                             " in " + path);
  }
  cfg.cell = static_cast<nn::CellType>(cell);
  cfg.bidirectional = Get32(in) != 0;
  const uint32_t pooling = Get32(in);
  if (pooling > static_cast<uint32_t>(Pooling::kMean)) {
    throw std::runtime_error("unknown pooling " + std::to_string(pooling) +
                             " in " + path);
  }
  cfg.pooling = static_cast<Pooling>(pooling);
  cfg.finetune_embedding = Get32(in) != 0;
  cfg.multi_task = Get32(in) != 0;
  cfg.aux_loss_weight = GetF64(in);
  cfg.seed = Get64(in);

  // The model allocates an embedding table [vocab x M] and cell weights
  // [M x hidden] and [hidden x hidden], and the file must hold each of
  // them. Checking that before the model is built keeps a corrupt size
  // field from allocating more than the file itself could fill.
  const uint64_t floats_left = nn::BytesLeft(in) / sizeof(float);
  const auto fits = [floats_left](uint64_t rows, uint64_t cols) {
    return cols == 0 || rows <= floats_left / cols;
  };
  if (!fits(vocab, cfg.embedding_dim) ||
      !fits(cfg.embedding_dim, cfg.hidden_size) ||
      !fits(cfg.hidden_size, cfg.hidden_size)) {
    throw std::runtime_error("model sizes exceed the file: " + path);
  }

  // Skip-init: every parameter is required to be present in the
  // checkpoint below, so the random init would be overwritten anyway.
  auto model = std::make_unique<PathRankModel>(vocab, cfg,
                                               InitMode::kSkipInit);

  const uint32_t count = Get32(in);
  std::unordered_map<std::string, nn::Matrix> loaded;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t name_len = Get32(in);
    if (name_len > nn::BytesLeft(in)) {
      throw std::runtime_error("truncated model file");
    }
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    if (!in) throw std::runtime_error("truncated model file");
    loaded.emplace(std::move(name), nn::ReadMatrix(in));
  }
  for (nn::Parameter* p : model->Parameters()) {
    auto it = loaded.find(p->name);
    if (it == loaded.end()) {
      throw std::runtime_error("parameter missing from checkpoint: " +
                               p->name);
    }
    if (!it->second.SameShape(p->value)) {
      throw std::runtime_error("parameter shape mismatch: " + p->name);
    }
    p->value = std::move(it->second);
  }
  return model;
}

}  // namespace pathrank::core
