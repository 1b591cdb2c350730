// Serving stack: const inference path equivalence (every cell / pooling /
// multi-task / direction configuration), skip-init construction, immutable
// snapshots, and the replica-pool ServingEngine scorer (concurrent-vs-
// serial bitwise equivalence).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/model.h"
#include "data/candidate_generation.h"
#include "graph/network_builder.h"
#include "serving/model_snapshot.h"
#include "serving/serving_engine.h"

namespace pathrank::serving {
namespace {

nn::SequenceBatch ToyBatch() {
  return nn::SequenceBatch::FromSequences(
      {{1, 2, 3, 4}, {5, 6}, {7, 8, 9, 10, 11}, {12}});
}

core::PathRankConfig SmallConfig() {
  core::PathRankConfig cfg;
  cfg.embedding_dim = 8;
  cfg.hidden_size = 12;
  cfg.seed = 3;
  return cfg;
}

// ---- const inference path --------------------------------------------

TEST(ForwardInference, BitwiseEqualToTrainingForwardAcrossConfigs) {
  for (nn::CellType cell :
       {nn::CellType::kGru, nn::CellType::kRnn, nn::CellType::kLstm}) {
    for (bool bidirectional : {false, true}) {
      for (core::Pooling pooling :
           {core::Pooling::kFinalState, core::Pooling::kMean}) {
        for (bool multi_task : {false, true}) {
          core::PathRankConfig cfg = SmallConfig();
          cfg.cell = cell;
          cfg.bidirectional = bidirectional;
          cfg.pooling = pooling;
          cfg.multi_task = multi_task;
          core::PathRankModel model(16, cfg);

          const auto expected = model.ForwardFull(ToyBatch());
          const core::PathRankModel& const_model = model;
          core::InferenceScratch scratch;
          const auto actual =
              const_model.ForwardInferenceFull(ToyBatch(), &scratch);

          ASSERT_EQ(expected.scores.size(), actual.scores.size());
          for (size_t i = 0; i < expected.scores.size(); ++i) {
            EXPECT_EQ(expected.scores[i], actual.scores[i])
                << "cell=" << static_cast<int>(cell)
                << " bidi=" << bidirectional
                << " pool=" << static_cast<int>(pooling)
                << " mt=" << multi_task << " i=" << i;
          }
          ASSERT_EQ(expected.aux_length.size(), actual.aux_length.size());
          for (size_t i = 0; i < expected.aux_length.size(); ++i) {
            EXPECT_EQ(expected.aux_length[i], actual.aux_length[i]);
            EXPECT_EQ(expected.aux_time[i], actual.aux_time[i]);
          }
        }
      }
    }
  }
}

TEST(ForwardInference, ScratchReuseAcrossGeometriesIsStable) {
  core::PathRankModel model(16, SmallConfig());
  core::InferenceScratch scratch;
  // Alternate between batch geometries with one scratch: stale shapes
  // must never leak into results.
  const auto small = nn::SequenceBatch::FromSequences({{3, 1}});
  const auto expected_toy = model.Forward(ToyBatch());
  const auto expected_small = model.Forward(small);
  for (int round = 0; round < 3; ++round) {
    const auto toy_scores = model.ForwardInference(ToyBatch(), &scratch);
    const auto small_scores = model.ForwardInference(small, &scratch);
    for (size_t i = 0; i < expected_toy.size(); ++i) {
      EXPECT_EQ(expected_toy[i], toy_scores[i]);
    }
    EXPECT_EQ(expected_small[0], small_scores[0]);
  }
}

// ---- skip-init construction ------------------------------------------

TEST(SkipInit, CopiedReplicaScoresBitwiseEqual) {
  for (bool multi_task : {false, true}) {
    core::PathRankConfig cfg = SmallConfig();
    cfg.cell = nn::CellType::kLstm;  // exercises the forget-bias init too
    cfg.multi_task = multi_task;
    core::PathRankModel source(16, cfg);
    core::PathRankModel replica(16, cfg, core::InitMode::kSkipInit);
    replica.CopyParametersFrom(source);
    const auto expected = source.Forward(ToyBatch());
    const auto actual = replica.Forward(ToyBatch());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i], actual[i]);
    }
  }
}

TEST(SkipInit, EmbeddingFreezeIsStillApplied) {
  core::PathRankConfig cfg = SmallConfig();
  cfg.finetune_embedding = false;  // PR-A1
  core::PathRankModel model(16, cfg, core::InitMode::kSkipInit);
  // The embedding must be frozen exactly as on the random-init path.
  bool found_frozen_embedding = false;
  for (const nn::Parameter* p :
       static_cast<const core::PathRankModel&>(model).Parameters()) {
    if (p->name == "embedding") found_frozen_embedding = p->frozen;
  }
  EXPECT_TRUE(found_frozen_embedding);
}

// ---- snapshots --------------------------------------------------------

TEST(ModelSnapshot, ConstSnapshotIsUsable) {
  core::PathRankModel model(16, SmallConfig());
  const std::shared_ptr<const ModelSnapshot> snapshot =
      ModelSnapshot::Capture(model);
  // Everything below goes through a const ModelSnapshot&.
  const ModelSnapshot& snap = *snapshot;
  EXPECT_EQ(snap.vocab_size(), 16u);
  EXPECT_EQ(snap.NumParameters(), model.NumParameters());
  EXPECT_EQ(snap.config().hidden_size, SmallConfig().hidden_size);

  core::InferenceScratch scratch;
  const auto expected = model.Forward(ToyBatch());
  const auto actual = snap.model().ForwardInference(ToyBatch(), &scratch);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]);
  }
}

TEST(ModelSnapshot, IsImmuneToLaterTrainingOfTheSource) {
  core::PathRankModel model(16, SmallConfig());
  const auto snapshot = ModelSnapshot::Capture(model);
  core::InferenceScratch scratch;
  const auto before = snapshot->model().ForwardInference(ToyBatch(), &scratch);

  // Perturb the source model's weights (stand-in for continued training).
  for (nn::Parameter* p : model.Parameters()) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] += 0.25f;
    }
  }
  const auto source_now = model.Forward(ToyBatch());
  const auto after = snapshot->model().ForwardInference(ToyBatch(), &scratch);
  bool source_changed = false;
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
    source_changed = source_changed || source_now[i] != before[i];
  }
  EXPECT_TRUE(source_changed);
}

TEST(ModelSnapshot, MaterializeRoundTrips) {
  core::PathRankModel model(16, SmallConfig());
  const auto snapshot = ModelSnapshot::Capture(model);
  const auto copy = snapshot->Materialize();
  const auto expected = model.Forward(ToyBatch());
  const auto actual = copy->Forward(ToyBatch());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]);
  }
}

// ---- serving engine ---------------------------------------------------

struct EngineFixture {
  graph::RoadNetwork network = graph::BuildTestNetwork();
  core::PathRankModel model;  // initialised after network (member order)
  data::CandidateGenConfig gen;

  EngineFixture() : model(network.num_vertices(), SmallConfig()) {
    gen.k = 5;
  }
};

TEST(ServingEngine, ScoreBatchMatchesTrainingForward) {
  EngineFixture fx;
  const ServingEngine engine(fx.network, fx.model);
  const auto candidates =
      data::GenerateCandidatePaths(fx.network, 0, 63, fx.gen);
  ASSERT_GE(candidates.size(), 2u);

  // Reference: the mutable training-path scores for the same batch.
  std::vector<std::vector<int32_t>> seqs;
  for (const auto& p : candidates) {
    std::vector<int32_t> seq(p.vertices.begin(), p.vertices.end());
    seqs.push_back(std::move(seq));
  }
  const auto scores =
      fx.model.Forward(nn::SequenceBatch::FromSequences(seqs));

  auto scored = engine.ScoreBatch(candidates);
  ASSERT_EQ(scored.size(), candidates.size());
  // Engine output is sorted; check it is a permutation with exact scores.
  std::vector<double> expected(scores.begin(), scores.end());
  std::sort(expected.begin(), expected.end(), std::greater<double>());
  for (size_t i = 0; i < scored.size(); ++i) {
    EXPECT_EQ(expected[i], scored[i].score);
    if (i > 0) {
      EXPECT_GE(scored[i - 1].score, scored[i].score);
    }
  }
}

/// Candidate sets for a spread of queries over the 8x8 test grid.
std::vector<std::vector<routing::Path>> QueryCandidates(
    const EngineFixture& fx) {
  const std::vector<std::pair<graph::VertexId, graph::VertexId>> queries = {
      {0, 63}, {7, 56}, {3, 60}, {21, 42}, {14, 49}, {8, 55}, {2, 61}};
  std::vector<std::vector<routing::Path>> sets;
  for (const auto& [source, destination] : queries) {
    sets.push_back(
        data::GenerateCandidatePaths(fx.network, source, destination, fx.gen));
  }
  return sets;
}

bool SameRanking(const std::vector<ScoredPath>& a,
                 const std::vector<ScoredPath>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].score != b[i].score || a[i].path.vertices != b[i].path.vertices) {
      return false;
    }
  }
  return true;
}

// A sequence's score does not depend on which other sequences share the
// batch (padding width included), so a /v1/score answer for one path does
// not depend on the client's other paths.
TEST(ServingEngine, RowScoresAreIndependentOfBatchmates) {
  EngineFixture fx;
  const ServingEngine engine(fx.network, fx.model);

  // All candidate sets merged into one wide batch...
  std::vector<std::vector<int32_t>> all_seqs;
  for (const auto& paths : QueryCandidates(fx)) {
    for (const auto& p : paths) all_seqs.push_back(PathToSequence(p));
  }
  ASSERT_GE(all_seqs.size(), 8u);
  const auto wide =
      engine.ScoreSequences(nn::SequenceBatch::FromSequences(all_seqs));

  // ...must score every row exactly as that row alone does.
  for (size_t i = 0; i < all_seqs.size(); ++i) {
    const auto alone =
        engine.ScoreSequences(nn::SequenceBatch::FromSequences({all_seqs[i]}));
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(alone[0], wide[i]) << "row " << i;
  }
}

TEST(ServingEngine, ConcurrentScoreBatchIsBitwiseEqualToSerial) {
  EngineFixture fx;
  ServingOptions options;
  options.num_replicas = 3;  // fewer replicas than callers: locks contend
  const ServingEngine engine(fx.network, fx.model, options);
  const auto sets = QueryCandidates(fx);

  // Serial reference through the same engine.
  std::vector<std::vector<ScoredPath>> expected;
  expected.reserve(sets.size());
  for (const auto& paths : sets) expected.push_back(engine.ScoreBatch(paths));

  // N external threads x M rounds over one shared engine. Every result
  // must be bitwise identical to the serial reference.
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        // Stagger starting offsets so threads hit different replicas.
        const size_t start = (t + round) % sets.size();
        for (size_t i = 0; i < sets.size(); ++i) {
          const size_t q = (start + i) % sets.size();
          if (!SameRanking(engine.ScoreBatch(sets[q]), expected[q])) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServingEngine, EmptyPathsAreFine) {
  EngineFixture fx;
  const ServingEngine engine(fx.network, fx.model);
  EXPECT_TRUE(engine.ScoreBatch({}).empty());
}

TEST(ServingEngine, TwoEnginesOverOneModelAgreeBitwise) {
  // Two independently constructed engines capture independent snapshots
  // of the same model; determinism demands bitwise-equal rankings.
  EngineFixture fx;
  const ServingEngine first(fx.network, fx.model);
  const ServingEngine second(fx.network, fx.model);
  const auto paths = data::GenerateCandidatePaths(fx.network, 0, 63, fx.gen);
  EXPECT_TRUE(SameRanking(first.ScoreBatch(paths), second.ScoreBatch(paths)));
}

}  // namespace
}  // namespace pathrank::serving
