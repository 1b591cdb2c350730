// Process-wide worker pool and its one data-parallel loop primitive.
//
// Every parallel loop in the library (GEMM and activation kernels,
// candidate generation, evaluation) funnels through ParallelFor so one
// knob controls all concurrency:
//
//   SetNumThreads(n)          — resize the pool (n >= 1; 1 = fully serial)
//   PATHRANK_THREADS          — env override consulted on first use
//   default                   — std::thread::hardware_concurrency()
//
// Determinism contract: ParallelFor's chunking depends on the pool size,
// so a body must write only its own iterations' outputs and compute each
// one the same way whatever chunk it lands in. No result then depends on
// the pool size. A computation whose result would depend on how the range
// is cut (an Rng stream per chunk, a reduction over chunks) stays serial.
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

/// RAII guard that marks the current thread as already inside a parallel
/// region: ParallelFor called on this thread runs serially instead of
/// dispatching to (and blocking on) the global pool.
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
