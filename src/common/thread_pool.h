// The library's one data-parallel loop primitive and its thread count.
//
// Parallelism lives across queries: candidate generation and evaluation
// each run one ParallelFor over their queries. The nn kernels, training
// and serving run serially on their calling thread. One knob sets how
// many threads a ParallelFor uses:
//
//   SetNumThreads(n)          — n >= 1; 1 = fully serial
//   PATHRANK_THREADS          — env override consulted on first use
//   default                   — std::thread::hardware_concurrency()
//
// ParallelFor keeps no state between calls: each call starts its own
// short-lived threads and joins them before it returns, so no lock is
// held and no worker outlives a call.
//
// Determinism contract: ParallelFor's chunking depends on the thread
// count, so a body must write only its own iterations' outputs and
// compute each one the same way whatever chunk it lands in. No result
// then depends on the thread count. A computation whose result would
// depend on how the range is cut (an Rng stream per chunk, a reduction
// over chunks) stays serial.
#pragma once

#include <cstddef>
#include <functional>

namespace pathrank {

/// Number of threads a ParallelFor runs with (>= 1).
size_t GetNumThreads();

/// Sets the thread count. n == 0 means "hardware concurrency". A call
/// already running keeps the count it started with.
void SetNumThreads(size_t n);

/// Runs fn(chunk_begin, chunk_end) over a partition of [begin, end) with
/// chunks of at least `grain` iterations, on the caller and up to
/// GetNumThreads() - 1 threads started for this call. Blocks until every
/// chunk finished. If chunks threw, the exception of the lowest-numbered
/// one is rethrown in the caller. Calls from inside a chunk run serially.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn);

}  // namespace pathrank
