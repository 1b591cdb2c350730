#include "serving/serving_engine.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace pathrank::serving {

std::vector<int32_t> PathToSequence(const routing::Path& path) {
  std::vector<int32_t> seq;
  seq.reserve(path.vertices.size());
  for (graph::VertexId v : path.vertices) {
    seq.push_back(static_cast<int32_t>(v));
  }
  return seq;
}

namespace {

std::atomic<uint64_t> g_model_generation{0};

nn::SequenceBatch BatchFromPaths(const std::vector<routing::Path>& paths) {
  std::vector<std::vector<int32_t>> seqs;
  seqs.reserve(paths.size());
  for (const auto& p : paths) {
    seqs.push_back(PathToSequence(p));
  }
  return nn::SequenceBatch::FromSequences(seqs);
}

}  // namespace

uint64_t ModelGeneration() {
  return g_model_generation.load(std::memory_order_acquire);
}

/// One scoring slot: a lock plus the per-caller activation scratch the
/// const inference path writes into. No parameters live here — every
/// replica scores against the one shared snapshot.
struct ServingEngine::Replica {
  /// Every replica shares kEngineReplica: a caller holds exactly one.
  common::Mutex mu{common::LockRank::kEngineReplica, "engine.replica"};
  core::InferenceScratch scratch GUARDED_BY(mu);
};

ServingEngine::ServingEngine(const graph::RoadNetwork& network,
                             std::shared_ptr<const ModelSnapshot> snapshot,
                             const ServingOptions& options)
    : network_(&network) {
  PR_CHECK(snapshot != nullptr) << "ServingEngine needs a snapshot";
  PR_CHECK(snapshot->vocab_size() == network.num_vertices())
      << "model/network vertex-count mismatch";
  snapshot_ = std::move(snapshot);
  // Touch the global pool now, while this thread holds no engine lock.
  // Replica locks rank ABOVE the pool bands (src/common/lock_rank.h), so
  // if an inference call's ParallelFor were also the process's FIRST pool
  // use, the lazy ThreadPool::Global() constructor would acquire
  // pool.region under engine.replica — a rank inversion (and the one
  // pool-under-replica path the SerialRegionScope in ScoreOn cannot
  // prevent). Engine construction is the one point that can guarantee a
  // lock-free context before any replica lock exists.
  const size_t pool_threads = std::max<size_t>(1, GetNumThreads());
  const size_t n =
      options.num_replicas > 0 ? options.num_replicas : pool_threads;
  replicas_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    replicas_.push_back(std::make_unique<Replica>());
  }
}

ServingEngine::ServingEngine(const graph::RoadNetwork& network,
                             const core::PathRankModel& model,
                             const ServingOptions& options)
    : ServingEngine(network, ModelSnapshot::Capture(model), options) {}

ServingEngine::~ServingEngine() = default;

std::shared_ptr<const ModelSnapshot> ServingEngine::SwapSnapshot(
    std::shared_ptr<const ModelSnapshot> next) {
  PR_CHECK(next != nullptr) << "SwapSnapshot needs a snapshot";
  PR_CHECK(next->vocab_size() == network_->num_vertices())
      << "model/network vertex-count mismatch";
  // One locked exchange is the entire cut-over: requests that already
  // copied the old pointer finish on it (their shared_ptr copy keeps it
  // alive); requests that copy after this line see `next`.
  common::MutexLock lock(snapshot_mu_);
  snapshot_.swap(next);
  // Count only once `next` serves: /healthz never reports a swap early,
  // and a planner that reads the new generation (acquire pairs with this
  // release) can only capture `next` or a later snapshot.
  swap_count_.fetch_add(1, std::memory_order_relaxed);
  g_model_generation.fetch_add(1, std::memory_order_release);
  return next;
}

std::vector<float> ServingEngine::ScoreOn(
    const ModelSnapshot& snap, const nn::SequenceBatch& batch) const {
  // cuBERT-style dispatch: round-robin over the pool, blocking on the
  // chosen replica's lock. Scratch contents never influence scores, so the
  // choice only affects contention, not results.
  const uint32_t idx =
      round_robin_.fetch_add(1, std::memory_order_relaxed) %
      static_cast<uint32_t>(replicas_.size());
  Replica& replica = *replicas_[idx];
  common::MutexLock lock(replica.mu);
  // Score serially on this thread: parallelism lives across callers, and
  // a caller that holds a replica lock must never block on the global
  // pool — a pool worker could be waiting on this very lock.
  SerialRegionScope serial;
  return snap.model().ForwardInference(batch, snap.tables(),
                                       &replica.scratch);
}

std::vector<float> ServingEngine::ScoreSequences(
    const nn::SequenceBatch& batch) const {
  // Capture once: the whole batch scores on one snapshot even if a swap
  // lands mid-call.
  const auto snap = shared_snapshot();
  return ScoreOn(*snap, batch);
}

std::vector<ScoredPath> ServingEngine::ScoreBatch(
    const std::vector<routing::Path>& paths) const {
  if (paths.empty()) return {};
  const auto scores = ScoreSequences(BatchFromPaths(paths));
  PR_CHECK(scores.size() == paths.size()) << "one score per path";
  std::vector<ScoredPath> scored;
  scored.reserve(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    scored.push_back({paths[i], static_cast<double>(scores[i])});
  }
  // Determinism note: exact float scores make ties sort identically for
  // identical inputs, so the order is reproducible despite std::sort
  // being unstable.
  std::sort(scored.begin(), scored.end(),
            [](const ScoredPath& a, const ScoredPath& b) {
              return a.score > b.score;
            });
  return scored;
}

}  // namespace pathrank::serving
