// Thread-safe path scorer: one immutable ModelSnapshot shared by every
// caller. Candidate enumeration lives in RoutePlanner, which scores
// through ScoreBatch. Because the snapshot's inference path is const, the
// only per-call state is activation scratch, and each calling thread owns
// one (thread_local, shared by every engine that thread calls): scoring
// takes no lock and runs serially on the calling thread.
//
// Thread-safety contract: ScoreBatch / ScoreSequences may be called
// concurrently from any number of threads on one shared engine. Scores
// are bitwise identical to the single-threaded path for any thread count
// (the inference kernels are deterministic, and ForwardInference resizes
// and overwrites every scratch buffer, so what a scratch held before
// never reaches a score).
//
// Hot-swap contract: SwapSnapshot atomically replaces the served model.
// Every scoring call captures the snapshot pointer exactly once at entry,
// so each response is computed entirely on one snapshot — never a mix —
// and in-flight requests finish on the snapshot they started with. The old
// snapshot is freed when the last in-flight request drops its reference.
// Every swap also bumps the process-wide ModelGeneration(), which is how
// RoutePlanner knows a cached ranking was scored on a superseded model.
//
// Score memo: a path's score depends only on its vertex sequence and the
// snapshot, so ScoreBatch keeps a bounded memo from the whole sequence to
// its float score beside the snapshot it was scored on, and sends only
// the rows the memo misses to the model. A swap installs a new, empty
// memo with the new snapshot; the old memo is freed with the last call
// that captured it. A row's score does not depend on its batchmates, so
// a memo hit is bitwise equal to scoring the row afresh.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
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

/// Engine construction options. Read by nothing in the library: the
/// benchmark's in-process replay (perfbench/inproc) still sets both
/// fields, and ROADMAP item 1 removes those writes, then this struct.
struct ServingOptions {
  /// Scoring scratch is per calling thread; there is nothing to size.
  size_t num_replicas = 0;
  /// Candidate strategy belongs to RoutePlannerConfig::candidates.
  data::CandidateGenConfig candidates;
};

/// Vertex ids one half of a snapshot's score memo holds; the memo holds
/// at most twice this (2 x 256 KiB of int32 ids, plus 2 x 64 KiB of
/// index). When the current half fills, the older half is dropped and
/// the current one becomes the older. Sized for route_live's whole
/// working set, 107 625 ids of distinct paths on one snapshot. Replaying a
/// logged route_live run, 2 x 64 K ids saved 41.6 % of the prefix nodes
/// the GRU steps; 2 x 32 K saved 23.5 % and 2 x 16 K 5 %, and an
/// entry-count LRU fell from 36 % at 4096 entries to 9 % at 2048.
inline constexpr size_t kScoreMemoHalfIds = 64 * 1024;

/// Score-memo counters of one engine since construction, summed over
/// every snapshot it served.
struct ScoreMemoStats {
  /// ScoreBatch rows answered from the memo.
  uint64_t hits = 0;
  /// ScoreBatch rows the memo did not hold.
  uint64_t misses = 0;
  /// Rows the model scored (missed rows of batches that did not throw).
  uint64_t rows_scored = 0;
  /// Vertex ids in those rows.
  uint64_t vertices_scored = 0;
  /// Times a full half displaced the older half.
  uint64_t flips = 0;
  /// Vertex ids the served snapshot's memo holds now; at most
  /// 2 * kScoreMemoHalfIds.
  size_t held_ids = 0;
};

/// Process-wide model generation: the number of SwapSnapshot calls, by any
/// engine, whose pointer exchange has completed. Read with acquire
/// ordering, so a caller that reads G and then captures a snapshot scores
/// on a model at least as new as swap G. RoutePlanner tags each cached
/// ranking with the value it read before scoring and serves it only while
/// the generation is unchanged. A swap in any engine therefore invalidates
/// every planner's rankings, which is conservative and correct.
uint64_t ModelGeneration();

/// Encodes one candidate path's vertex ids as the model's token sequence.
/// The single source of truth for the Path -> SequenceBatch-row mapping.
std::vector<int32_t> PathToSequence(const routing::Path& path);

/// Snapshot-serving path scorer. The engine borrows the network (caller
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

  /// Scores externally supplied candidate paths (sorted descending),
  /// moving each path into its ScoredPath. Rows the served snapshot's
  /// memo holds are not rescored; the rest are scored in one batch and
  /// then stored. A batch that throws stores nothing. Thread-safe.
  std::vector<ScoredPath> ScoreBatch(std::vector<routing::Path> paths) const;

  /// Scores a prepared SequenceBatch on the current snapshot, row for row
  /// (no sorting) — the raw scoring primitive, which reads and fills no
  /// memo. Runs the kernels serially on the calling thread (parallelism
  /// lives across callers). Thread-safe.
  std::vector<float> ScoreSequences(const nn::SequenceBatch& batch) const;

  /// Atomically replaces the served snapshot, and with it the score memo
  /// (the new snapshot starts with an empty one), and returns the
  /// previous snapshot.
  /// In-flight requests finish on the snapshot they captured at entry; new
  /// requests score on `next`. The old snapshot is destroyed when its last
  /// in-flight request completes (or when the caller drops the returned
  /// handle, whichever is later). Bumps swap_count() and ModelGeneration()
  /// after the exchange, so neither reports a swap before `next` serves.
  /// Thread-safe; callable under full load.
  std::shared_ptr<const ModelSnapshot> SwapSnapshot(
      std::shared_ptr<const ModelSnapshot> next) EXCLUDES(snapshot_mu_);

  /// The currently served snapshot (a new swap may supersede it at any
  /// time; the returned handle stays valid regardless).
  std::shared_ptr<const ModelSnapshot> shared_snapshot() const
      EXCLUDES(snapshot_mu_) {
    common::MutexLock lock(snapshot_mu_);
    return served_.snapshot;
  }
  /// Number of SwapSnapshot calls since construction.
  uint64_t swap_count() const {
    return swap_count_.load(std::memory_order_relaxed);
  }

  /// Score-memo counters (see ScoreMemoStats). Thread-safe.
  ScoreMemoStats memo_stats() const EXCLUDES(snapshot_mu_);

 private:
  class ScoreMemo;

  /// The served snapshot and the memo of scores computed on it. Callers
  /// copy both in one locked read, so a call never mixes two snapshots.
  struct Served {
    std::shared_ptr<const ModelSnapshot> snapshot;
    std::shared_ptr<ScoreMemo> memo;
  };
  Served CaptureServed() const EXCLUDES(snapshot_mu_) {
    common::MutexLock lock(snapshot_mu_);
    return served_;
  }

  /// Scores `batch` on `snap` with the calling thread's scratch,
  /// serially on the calling thread.
  std::vector<float> ScoreOn(const ModelSnapshot& snap,
                             const nn::SequenceBatch& batch) const;

  const graph::RoadNetwork* network_;
  /// Guarded by a mutex rather than std::atomic<shared_ptr>: the critical
  /// section is two refcounted copies (noise next to a forward pass), and
  /// libstdc++'s lock-bit _Sp_atomic protocol is opaque to TSan, which
  /// the CI thread-sanitizer gate runs against. Never held while taking
  /// a memo lock (the handles are copied out first), hence the rank
  /// before it.
  mutable common::Mutex snapshot_mu_{common::LockRank::kEngineSnapshot,
                                     "engine.snapshot"};
  Served served_ GUARDED_BY(snapshot_mu_);
  std::atomic<uint64_t> swap_count_{0};
  mutable std::atomic<uint64_t> memo_hits_{0};
  mutable std::atomic<uint64_t> memo_misses_{0};
  mutable std::atomic<uint64_t> rows_scored_{0};
  mutable std::atomic<uint64_t> vertices_scored_{0};
  mutable std::atomic<uint64_t> memo_flips_{0};
};

}  // namespace pathrank::serving
