// Thread-safe path scorer: one immutable ModelSnapshot shared by a pool
// of scoring replicas, dispatched round-robin behind per-replica locks
// (the cuBERT multi-instance pattern). Candidate enumeration lives in
// RoutePlanner, which scores through ScoreBatch. Because the snapshot's
// inference path is const, a "replica" is just per-caller scratch state —
// no parameter copies — so the pool is cheap to size at one replica per
// expected concurrent caller.
//
// Thread-safety contract: ScoreBatch / ScoreSequences may be called
// concurrently from any number of threads on one shared engine. Scores
// are bitwise identical to the single-threaded path for any thread or
// replica count (the inference kernels are deterministic and replicas
// share the exact same parameters).
//
// Hot-swap contract: SwapSnapshot atomically replaces the served model.
// Every scoring call captures the snapshot pointer exactly once at entry,
// so each response is computed entirely on one snapshot — never a mix —
// and in-flight requests finish on the snapshot they started with. The old
// snapshot is freed when the last in-flight request drops its reference.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "core/model.h"
#include "data/candidate_generation.h"
#include "graph/road_network.h"
#include "routing/path.h"
#include "serving/model_snapshot.h"

namespace pathrank::serving {

/// One ranked candidate.
struct ScoredPath {
  routing::Path path;
  double score = 0.0;
};

/// Engine construction options.
struct ServingOptions {
  /// Scoring replicas (scratch + lock). 0 = one per global pool thread.
  size_t num_replicas = 0;
  /// Read by nothing in the library; only the benchmark's in-process
  /// replay (perfbench/inproc) still sets it. Candidate strategy belongs
  /// to RoutePlannerConfig::candidates.
  data::CandidateGenConfig candidates;
};

/// Encodes one candidate path's vertex ids as the model's token sequence.
/// The single source of truth for the Path -> SequenceBatch-row mapping.
std::vector<int32_t> PathToSequence(const routing::Path& path);

/// Replica-pool path scorer. The engine borrows the network (caller
/// keeps it alive) and shares ownership of the snapshot.
class ServingEngine {
 public:
  ServingEngine(const graph::RoadNetwork& network,
                std::shared_ptr<const ModelSnapshot> snapshot,
                const ServingOptions& options = {});

  /// Convenience: captures a snapshot of `model` at construction. Later
  /// training of `model` does not affect this engine.
  ServingEngine(const graph::RoadNetwork& network,
                const core::PathRankModel& model,
                const ServingOptions& options = {});

  ~ServingEngine();
  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Scores externally supplied candidate paths (sorted descending).
  /// Thread-safe.
  std::vector<ScoredPath> ScoreBatch(
      const std::vector<routing::Path>& paths) const;

  /// Scores a prepared SequenceBatch on the current snapshot, row for row
  /// (no sorting) — the raw scoring primitive under ScoreBatch. Runs the
  /// kernels serially on the calling thread (parallelism lives across
  /// callers). Thread-safe.
  std::vector<float> ScoreSequences(const nn::SequenceBatch& batch) const;

  /// Atomically replaces the served snapshot and returns the previous one.
  /// In-flight requests finish on the snapshot they captured at entry; new
  /// requests score on `next`. The old snapshot is destroyed when its last
  /// in-flight request completes (or when the caller drops the returned
  /// handle, whichever is later). Thread-safe; callable under full load.
  std::shared_ptr<const ModelSnapshot> SwapSnapshot(
      std::shared_ptr<const ModelSnapshot> next) EXCLUDES(snapshot_mu_);

  /// The currently served snapshot (a new swap may supersede it at any
  /// time; the returned handle stays valid regardless).
  std::shared_ptr<const ModelSnapshot> shared_snapshot() const
      EXCLUDES(snapshot_mu_) {
    common::MutexLock lock(snapshot_mu_);
    return snapshot_;
  }
  /// Number of SwapSnapshot calls since construction.
  uint64_t swap_count() const {
    return swap_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Replica;

  /// Round-robin pick + lock, then score `batch` on `snap` with the
  /// replica's scratch, serially on the calling thread.
  std::vector<float> ScoreOn(const ModelSnapshot& snap,
                             const nn::SequenceBatch& batch) const;

  const graph::RoadNetwork* network_;
  /// Guarded by a mutex rather than std::atomic<shared_ptr>: the critical
  /// section is one refcounted copy (noise next to a forward pass), and
  /// libstdc++'s lock-bit _Sp_atomic protocol is opaque to TSan, which
  /// the CI thread-sanitizer gate runs against. Never held while taking
  /// a replica lock (the snapshot handle is copied out first), hence the
  /// rank before the replica locks.
  mutable common::Mutex snapshot_mu_{common::LockRank::kEngineSnapshot,
                                     "engine.snapshot"};
  std::shared_ptr<const ModelSnapshot> snapshot_ GUARDED_BY(snapshot_mu_);
  std::atomic<uint64_t> swap_count_{0};
  std::vector<std::unique_ptr<Replica>> replicas_;
  mutable std::atomic<uint32_t> round_robin_{0};
};

}  // namespace pathrank::serving
