// Serving stack: const inference path equivalence (every cell / pooling /
// multi-task / direction configuration), skip-init construction, immutable
// snapshots, the replica-pool ServingEngine scorer (concurrent-vs-
// serial bitwise equivalence), and its per-snapshot score memo (a hit
// equals a fresh score bitwise, the memo stays within its bound, and a
// failed batch stores nothing).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
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

/// Rows that share prefixes and suffixes, so the inference path's prefix
/// grouping merges steps in both chains: a duplicate pair (rows 0 and 2),
/// a strict prefix of row 0 (row 3), a row sharing only the suffix {4, 5}
/// with row 0 (row 1), a row that leaves row 0's prefix after two steps
/// (row 5), a length-1 row (row 4) and lengths in no sorted order.
nn::SequenceBatch SharedPrefixBatch() {
  return nn::SequenceBatch::FromSequences({{1, 2, 3, 4, 5},
                                           {9, 8, 4, 5},
                                           {1, 2, 3, 4, 5},
                                           {1, 2, 3},
                                           {7},
                                           {1, 2, 10, 11, 12, 13},
                                           {9, 8}});
}

/// Every cell x direction x pooling x multi-task combination (24).
std::vector<core::PathRankConfig> AllConfigs() {
  std::vector<core::PathRankConfig> configs;
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
          configs.push_back(cfg);
        }
      }
    }
  }
  return configs;
}

std::string ConfigName(const core::PathRankConfig& cfg) {
  return nn::CellTypeName(cfg.cell) + (cfg.bidirectional ? " bidi" : " uni") +
         (cfg.pooling == core::Pooling::kMean ? " mean" : " final") +
         (cfg.multi_task ? " mt" : "");
}

void ExpectOutputsEqual(const core::PathRankModel::Outputs& expected,
                        const core::PathRankModel::Outputs& actual,
                        const std::string& context) {
  ASSERT_EQ(expected.scores.size(), actual.scores.size()) << context;
  for (size_t i = 0; i < expected.scores.size(); ++i) {
    EXPECT_EQ(expected.scores[i], actual.scores[i]) << context << " i=" << i;
  }
  ASSERT_EQ(expected.aux_length.size(), actual.aux_length.size()) << context;
  ASSERT_EQ(expected.aux_time.size(), actual.aux_time.size()) << context;
  for (size_t i = 0; i < expected.aux_length.size(); ++i) {
    EXPECT_EQ(expected.aux_length[i], actual.aux_length[i]) << context;
    EXPECT_EQ(expected.aux_time[i], actual.aux_time[i]) << context;
  }
}

// ---- const inference path --------------------------------------------

TEST(ForwardInference, BitwiseEqualToTrainingForwardAcrossConfigs) {
  for (const core::PathRankConfig& cfg : AllConfigs()) {
    core::PathRankModel model(16, cfg);
    const auto expected = model.ForwardFull(ToyBatch());
    const core::PathRankModel& const_model = model;
    core::InferenceScratch scratch;
    const auto actual = const_model.ForwardInferenceFull(
        ToyBatch(), const_model.BuildInferenceTables(), &scratch);
    ExpectOutputsEqual(expected, actual, ConfigName(cfg));
  }
}

TEST(ForwardInference, SharedPrefixesThroughSnapshotBitwiseEqualForward) {
  for (const core::PathRankConfig& cfg : AllConfigs()) {
    core::PathRankModel model(16, cfg);
    const auto snapshot = ModelSnapshot::Capture(model);
    const auto expected = model.ForwardFull(SharedPrefixBatch());
    core::InferenceScratch scratch;
    // Twice with one scratch: the second call reuses every buffer.
    for (int round = 0; round < 2; ++round) {
      const auto actual = snapshot->model().ForwardInferenceFull(
          SharedPrefixBatch(), snapshot->tables(), &scratch);
      ExpectOutputsEqual(expected, actual, ConfigName(cfg));
    }
  }
}

TEST(ForwardInference, VertexIdOutsideTheTableThrows) {
  core::PathRankModel model(16, SmallConfig());
  const auto snapshot = ModelSnapshot::Capture(model);
  core::InferenceScratch scratch;
  for (int32_t bad : {16, 1000, -1}) {
    const auto batch = nn::SequenceBatch::FromSequences({{1, 2}, {3, bad}});
    EXPECT_THROW(snapshot->model().ForwardInference(batch, snapshot->tables(),
                                                    &scratch),
                 std::logic_error)
        << "id " << bad;
  }
}

TEST(ForwardInference, ScratchReuseAcrossGeometriesIsStable) {
  core::PathRankModel model(16, SmallConfig());
  const core::InferenceTables tables = model.BuildInferenceTables();
  core::InferenceScratch scratch;
  // Alternate between batch geometries with one scratch: stale shapes
  // must never leak into results.
  const auto small = nn::SequenceBatch::FromSequences({{3, 1}});
  const auto expected_toy = model.ForwardFull(ToyBatch()).scores;
  const auto expected_small = model.ForwardFull(small).scores;
  for (int round = 0; round < 3; ++round) {
    const auto toy_scores =
        model.ForwardInference(ToyBatch(), tables, &scratch);
    const auto small_scores = model.ForwardInference(small, tables, &scratch);
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
    const auto expected = source.ForwardFull(ToyBatch()).scores;
    const auto actual = replica.ForwardFull(ToyBatch()).scores;
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
  const auto expected = model.ForwardFull(ToyBatch()).scores;
  const auto actual =
      snap.model().ForwardInference(ToyBatch(), snap.tables(), &scratch);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]);
  }
}

TEST(ModelSnapshot, IsImmuneToLaterTrainingOfTheSource) {
  core::PathRankModel model(16, SmallConfig());
  const auto snapshot = ModelSnapshot::Capture(model);
  core::InferenceScratch scratch;
  const auto before = snapshot->model().ForwardInference(
      ToyBatch(), snapshot->tables(), &scratch);

  // Perturb the source model's weights (stand-in for continued training).
  for (nn::Parameter* p : model.Parameters()) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] += 0.25f;
    }
  }
  const auto source_now = model.ForwardFull(ToyBatch()).scores;
  const auto after = snapshot->model().ForwardInference(
      ToyBatch(), snapshot->tables(), &scratch);
  bool source_changed = false;
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
    source_changed = source_changed || source_now[i] != before[i];
  }
  EXPECT_TRUE(source_changed);
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
      fx.model.ForwardFull(nn::SequenceBatch::FromSequences(seqs)).scores;

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

  // Serial reference through a second engine over the same model, so the
  // shared engine's memo starts empty: the threads race to miss, score
  // and insert the same rows, and hit what the others stored.
  const ServingEngine reference(fx.network, fx.model);
  std::vector<std::vector<ScoredPath>> expected;
  expected.reserve(sets.size());
  size_t rows = 0;
  for (const auto& paths : sets) {
    expected.push_back(reference.ScoreBatch(paths));
    rows += paths.size();
  }

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
  const ScoreMemoStats memo = engine.memo_stats();
  EXPECT_EQ(memo.hits + memo.misses, kThreads * kRounds * rows);
  EXPECT_GE(memo.misses, rows);
  EXPECT_GT(memo.hits, 0u);
  EXPECT_EQ(memo.rows_scored, memo.misses);
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

// ---- score memo ---------------------------------------------------------

/// True when every path of `scored` has exactly its score in `expected`.
bool SameScores(const std::vector<ScoredPath>& scored,
                const std::map<std::vector<graph::VertexId>, double>& expected) {
  for (const auto& s : scored) {
    const auto it = expected.find(s.path.vertices);
    if (it == expected.end() || it->second != s.score) return false;
  }
  return !scored.empty();
}

TEST(ScoreMemo, HitIsBitwiseEqualToAFreshScoreAloneOrInAnyBatch) {
  for (const core::PathRankConfig& cfg : AllConfigs()) {
    SCOPED_TRACE(ConfigName(cfg));
    EngineFixture fx;
    const core::PathRankModel model(fx.network.num_vertices(), cfg);
    const auto snapshot = ModelSnapshot::Capture(model);
    std::vector<routing::Path> all;
    for (auto& paths : QueryCandidates(fx)) {
      for (auto& p : paths) all.push_back(std::move(p));
    }
    const std::vector<routing::Path> half(all.begin(),
                                          all.begin() + all.size() / 2);

    // Reference: each row scored alone, each by its own fresh engine.
    std::map<std::vector<graph::VertexId>, double> alone;
    for (const auto& p : all) {
      const ServingEngine fresh(fx.network, snapshot);
      alone[p.vertices] = fresh.ScoreBatch({p}).at(0).score;
    }

    const ServingEngine engine(fx.network, snapshot);
    // Misses in one batch, then a batch that mixes hits and misses...
    EXPECT_TRUE(SameScores(engine.ScoreBatch(half), alone));
    EXPECT_TRUE(SameScores(engine.ScoreBatch(all), alone));
    ScoreMemoStats memo = engine.memo_stats();
    EXPECT_EQ(memo.hits, half.size());
    EXPECT_EQ(memo.misses, all.size());
    // ...then all hits, in the batch and alone.
    EXPECT_TRUE(SameScores(engine.ScoreBatch(all), alone));
    for (const auto& p : all) {
      EXPECT_TRUE(SameScores(engine.ScoreBatch({p}), alone));
    }
    memo = engine.memo_stats();
    EXPECT_EQ(memo.hits, half.size() + 2 * all.size());
    EXPECT_EQ(memo.rows_scored, all.size());
  }
}

TEST(ScoreMemo, StaysWithinItsBoundAndScoresStayExact) {
  EngineFixture fx;
  const ServingEngine engine(fx.network, fx.model);
  const auto vertices = static_cast<uint32_t>(fx.network.num_vertices());
  Rng rng(7);
  // Random (not road-valid) sequences: the model reads only vertex ids.
  // Long rows, five halves' worth of ids, flip the halves by ids; then
  // short rows flip them by index entries.
  const auto make_batch = [&](size_t rows, size_t min_len, size_t max_len) {
    std::vector<routing::Path> batch(rows);
    for (auto& p : batch) {
      const size_t len = min_len + rng.NextBounded(max_len - min_len + 1);
      for (size_t i = 0; i < len; ++i) {
        p.vertices.push_back(static_cast<graph::VertexId>(
            rng.NextBounded(vertices)));
      }
    }
    return batch;
  };
  std::vector<std::vector<routing::Path>> batches;
  size_t ids = 0;
  while (ids < 5 * kScoreMemoHalfIds) {
    batches.push_back(make_batch(64, 30, 90));
    for (const auto& p : batches.back()) ids += p.vertices.size();
  }
  for (int b = 0; b < 200; ++b) batches.push_back(make_batch(64, 3, 5));

  // The memo-free primitive is the reference for every row.
  std::vector<std::map<std::vector<graph::VertexId>, double>> expected;
  for (const auto& batch : batches) {
    std::vector<std::vector<int32_t>> seqs;
    for (const auto& p : batch) seqs.push_back(PathToSequence(p));
    const auto scores =
        engine.ScoreSequences(nn::SequenceBatch::FromSequences(seqs));
    expected.emplace_back();
    for (size_t i = 0; i < batch.size(); ++i) {
      expected.back()[batch[i].vertices] = scores[i];
    }
  }
  for (size_t b = 0; b < batches.size(); ++b) {
    ASSERT_TRUE(SameScores(engine.ScoreBatch(batches[b]), expected[b])) << b;
    // Earlier batches again, after the halves have flipped under them.
    if (b % 16 == 15) {
      ASSERT_TRUE(SameScores(engine.ScoreBatch(batches[b / 2]),
                             expected[b / 2])) << b;
      ASSERT_TRUE(SameScores(engine.ScoreBatch(batches[b - 1]),
                             expected[b - 1])) << b;
    }
    ASSERT_LE(engine.memo_stats().held_ids, 2 * kScoreMemoHalfIds) << b;
  }
  const ScoreMemoStats memo = engine.memo_stats();
  EXPECT_GE(memo.flips, 6u);
  EXPECT_GT(memo.hits, 0u);
}

TEST(ScoreMemo, FailedBatchStoresNothing) {
  EngineFixture fx;
  const ServingEngine engine(fx.network, fx.model);
  auto good = data::GenerateCandidatePaths(fx.network, 0, 63, fx.gen);
  ASSERT_GE(good.size(), 2u);
  auto bad = good;
  bad.back().vertices.back() =
      static_cast<graph::VertexId>(fx.network.num_vertices());  // off the table
  EXPECT_THROW(engine.ScoreBatch(bad), std::logic_error);
  ScoreMemoStats memo = engine.memo_stats();
  EXPECT_EQ(memo.held_ids, 0u);
  EXPECT_EQ(memo.rows_scored, 0u);
  EXPECT_EQ(memo.hits, 0u);

  // The valid rows of the failed batch were not stored: they miss now,
  // and score exactly as a fresh engine scores them.
  const ServingEngine fresh(fx.network, fx.model);
  EXPECT_TRUE(SameRanking(engine.ScoreBatch(good), fresh.ScoreBatch(good)));
  memo = engine.memo_stats();
  EXPECT_EQ(memo.hits, 0u);
  EXPECT_EQ(memo.rows_scored, good.size());
  EXPECT_GT(memo.held_ids, 0u);
}

}  // namespace
}  // namespace pathrank::serving
