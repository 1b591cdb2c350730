#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "common/env.h"

namespace pathrank {
namespace {

/// True while this thread runs chunks of a ParallelFor (a started thread
/// or the caller); nested calls run serially instead of multiplying the
/// thread count.
thread_local bool t_in_parallel_region = false;

/// Sets t_in_parallel_region for a scope, restoring it on any exit.
class RegionScope {
 public:
  RegionScope() : previous_(t_in_parallel_region) {
    t_in_parallel_region = true;
  }
  ~RegionScope() { t_in_parallel_region = previous_; }
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;

 private:
  bool previous_;
};

size_t DefaultThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<size_t>(hw) : 1;
}

/// Relaxed: the count is the only shared state, and a ParallelFor reads
/// it once on entry.
std::atomic<size_t>& ThreadCount() {
  static std::atomic<size_t> count{[] {
    const int64_t env = EnvInt("PATHRANK_THREADS", 0);
    return env > 0 ? static_cast<size_t>(env) : DefaultThreads();
  }()};
  return count;
}

}  // namespace

size_t GetNumThreads() {
  return ThreadCount().load(std::memory_order_relaxed);
}

void SetNumThreads(size_t n) {
  ThreadCount().store(n > 0 ? n : DefaultThreads(),
                      std::memory_order_relaxed);
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  const size_t range = end - begin;
  if (grain == 0) grain = 1;
  const size_t threads = GetNumThreads();
  size_t num_chunks = (range + grain - 1) / grain;
  // A few chunks per thread load-balances uneven work without flooding
  // the chunk counter.
  num_chunks = std::min(num_chunks, threads * 4);

  if (threads == 1 || num_chunks <= 1 || t_in_parallel_region) {
    RegionScope region;
    fn(begin, end);
    return;
  }

  const size_t chunk_size = (range + num_chunks - 1) / num_chunks;
  num_chunks = (range + chunk_size - 1) / chunk_size;
  // One slot per chunk: each is written by the one thread that claimed
  // the chunk and read after the joins, so no lock is needed.
  std::vector<std::exception_ptr> errors(num_chunks);
  std::atomic<size_t> next_chunk{0};
  const auto work = [&] {
    RegionScope region;
    for (;;) {
      const size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return;
      const size_t lo = begin + chunk * chunk_size;
      try {
        fn(lo, std::min(end, lo + chunk_size));
      } catch (...) {
        errors[chunk] = std::current_exception();
      }
    }
  };

  // The caller claims chunks too, so N threads of compute need N - 1
  // started threads. A thread that fails to start (std::system_error, or
  // bad_alloc for its state) only leaves its chunks to the threads that
  // did; nothing may leave this loop while started threads are unjoined.
  std::vector<std::thread> helpers;
  const size_t num_helpers = std::min(threads, num_chunks) - 1;
  helpers.reserve(num_helpers);
  for (size_t i = 0; i < num_helpers; ++i) {
    try {
      helpers.emplace_back(work);
    } catch (...) {
      break;
    }
  }
  work();
  for (std::thread& t : helpers) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace pathrank
