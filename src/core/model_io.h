// Whole-model checkpointing: persists the architecture configuration and
// every parameter tensor in one binary file, so a trained PathRank can be
// deployed (see the pathrank_cli tool) without retraining.
#pragma once

#include <memory>
#include <string>

#include "core/model.h"

namespace pathrank::core {

/// Saves `model` (config + parameters) to `path`: writes `<path>.tmp`
/// and renames it onto `path`, so a reader polling `path` (`serve
/// --watch-model`) sees the old checkpoint or the whole new one.
/// Throws std::runtime_error on I/O failure, leaving `path` unchanged.
void SaveModel(const PathRankModel& model, const std::string& path);

/// Loads a model checkpoint; reconstructs the architecture from the stored
/// config and fills in the trained parameters.
/// Throws std::runtime_error on I/O or format errors.
std::unique_ptr<PathRankModel> LoadModel(const std::string& path);

}  // namespace pathrank::core
