// Process-wide worker pool and data-parallel loop primitives.
//
// Every hot path in the library (GEMM and activation kernels, walk
// generation, skip-gram, candidate generation, evaluation) funnels through
// ParallelFor / ParallelForShards so one knob controls all concurrency:
//
//   SetNumThreads(n)          — resize the pool (n >= 1; 1 = fully serial)
//   PATHRANK_THREADS          — env override consulted on first use
//   default                   — std::thread::hardware_concurrency()
//
// Determinism contract: ParallelForShards always cuts [begin, end) into
// the SAME contiguous shards for a given (range, max_shards) regardless of
// how many workers execute them, and shard index is passed to the body, so
// callers can keep per-shard state (Rng streams, gradient buffers) and
// reduce in shard order. Results are then bit-reproducible for a fixed
// shard count no matter how the OS schedules the workers.
#pragma once

#include <cstddef>
#include <functional>

namespace pathrank {

/// Number of worker threads the pool runs with (>= 1).
size_t GetNumThreads();

/// Resizes the global pool. n == 0 means "hardware concurrency".
/// Safe to call between parallel regions; not from inside one.
void SetNumThreads(size_t n);

/// Runs fn(chunk_begin, chunk_end) over a partition of [begin, end) with
/// chunks of at least `grain` iterations. Blocks until every chunk
/// finished. Exceptions thrown by `fn` are rethrown (the first one) in the
/// caller. Calls from inside a worker run serially (nested parallelism is
/// collapsed rather than deadlocking the pool).
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

/// Number of shards ParallelForShards will use for `range` iterations
/// capped at `max_shards` (0 = pool size). Exposed so callers can size
/// per-shard buffers before the loop.
size_t NumShardsFor(size_t range, size_t max_shards = 0);

/// Runs fn(shard, shard_begin, shard_end) over NumShardsFor(end - begin,
/// max_shards) contiguous shards. The decomposition depends only on the
/// range and shard count — never on scheduling — so per-shard results can
/// be reduced in shard order for deterministic parallel reductions.
void ParallelForShards(
    size_t begin, size_t end,
    const std::function<void(size_t, size_t, size_t)>& fn,
    size_t max_shards = 0);

/// RAII guard that marks the current thread as already inside a parallel
/// region: ParallelFor / ParallelForShards called on this thread run
/// serially instead of dispatching to (and blocking on) the global pool.
///
/// Callers that manage their own concurrency — the serving engine scores
/// queries on caller threads — use this so independent work neither
/// serialises on the pool's one-region-at-a-time lock nor deadlocks when a
/// pool region is waiting on a lock this thread holds.
class SerialRegionScope {
 public:
  SerialRegionScope();
  ~SerialRegionScope();
  SerialRegionScope(const SerialRegionScope&) = delete;
  SerialRegionScope& operator=(const SerialRegionScope&) = delete;

 private:
  bool previous_;
};

}  // namespace pathrank
