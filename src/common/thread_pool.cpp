#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/thread_annotations.h"

namespace pathrank {
namespace {

using common::CondVar;
using common::Mutex;
using common::MutexLock;

/// True while this thread is executing chunks of a parallel region (pool
/// worker or the region's caller); nested regions are collapsed to serial
/// execution instead of deadlocking the pool.
thread_local bool t_in_parallel_region = false;

/// One blocking parallel region: workers and the caller pull chunk indices
/// from a shared counter until exhausted. A fresh Batch lives on the
/// caller's stack per region; the pool threads persist.
struct Batch {
  size_t num_chunks = 0;
  std::function<void(size_t)> run_chunk;  // invoked with the chunk index

  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> done_chunks{0};
  std::atomic<size_t> active_workers{0};  // pool workers inside Work()
  /// Taken by chunk bodies (no pool lock held) and by the region owner
  /// (under region_mutex_, after the region retired) — never under
  /// mutex_, hence the rank between pool.state and the leaf locks.
  Mutex error_mutex{common::LockRank::kPoolError, "pool.error"};
  std::exception_ptr first_error GUARDED_BY(error_mutex);

  /// Claims and runs chunks until none remain.
  void Work() EXCLUDES(error_mutex) {
    const bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    for (;;) {
      const size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) break;
      try {
        run_chunk(chunk);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      done_chunks.fetch_add(1, std::memory_order_release);
    }
    t_in_parallel_region = was_in_region;
  }

  bool Finished() const {
    return done_chunks.load(std::memory_order_acquire) == num_chunks;
  }

  /// The first chunk exception, if any — for the region owner, after the
  /// region retired (taking the lock anyway keeps the proof airtight).
  std::exception_ptr TakeError() EXCLUDES(error_mutex) {
    MutexLock lock(error_mutex);
    return first_error;
  }
};

class ThreadPool {
 public:
  static ThreadPool& Global() {
    static ThreadPool* pool = new ThreadPool();  // leaked: outlives statics
    return *pool;
  }

  size_t num_threads() const {
    return num_threads_.load(std::memory_order_relaxed);
  }

  void Resize(size_t n) EXCLUDES(region_mutex_, mutex_) {
    if (n == 0) n = DefaultThreads();
    MutexLock region_lock(region_mutex_);
    if (n == num_threads()) return;
    StopWorkers();
    num_threads_.store(n, std::memory_order_relaxed);
    StartWorkers();
  }

  /// Executes `batch`; the calling thread participates. Blocks until every
  /// chunk finished, then rethrows the first chunk exception, if any.
  void Run(Batch& batch) EXCLUDES(region_mutex_, mutex_) {
    MutexLock region_lock(region_mutex_);
    {
      MutexLock lock(mutex_);
      current_ = &batch;
    }
    wake_.NotifyAll();
    batch.Work();
    {
      MutexLock lock(mutex_);
      // Wait for the last chunk AND for every worker to step out of the
      // batch, so it can be destroyed as soon as Run returns.
      while (!(batch.Finished() &&
               batch.active_workers.load(std::memory_order_acquire) == 0)) {
        finished_.Wait(mutex_);
      }
      current_ = nullptr;
      ++region_seq_;
    }
    idle_.NotifyAll();
    if (std::exception_ptr error = batch.TakeError()) {
      std::rethrow_exception(error);
    }
  }

 private:
  ThreadPool() {
    const int64_t env = EnvInt("PATHRANK_THREADS", 0);
    num_threads_.store(env > 0 ? static_cast<size_t>(env) : DefaultThreads(),
                       std::memory_order_relaxed);
    MutexLock region_lock(region_mutex_);
    StartWorkers();
  }

  static size_t DefaultThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<size_t>(hw) : 1;
  }

  void StartWorkers() REQUIRES(region_mutex_) {
    {
      MutexLock lock(mutex_);
      stop_ = false;
    }
    // The caller participates in every region, so N threads of compute
    // need only N - 1 pool workers.
    const size_t n = num_threads();
    const size_t helpers = n > 0 ? n - 1 : 0;
    workers_.reserve(helpers);
    for (size_t i = 0; i < helpers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void StopWorkers() REQUIRES(region_mutex_) {
    {
      MutexLock lock(mutex_);
      stop_ = true;
    }
    wake_.NotifyAll();
    idle_.NotifyAll();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }

  void WorkerLoop() EXCLUDES(mutex_) {
    for (;;) {
      Batch* batch = nullptr;
      uint64_t my_region = 0;
      {
        MutexLock lock(mutex_);
        while (!(stop_ || (current_ != nullptr && !current_->Finished()))) {
          wake_.Wait(mutex_);
        }
        if (stop_) return;
        batch = current_;
        my_region = region_seq_;
        // Registered under the mutex: the region owner cannot observe
        // completion (and destroy the batch) before this worker is
        // counted in.
        batch->active_workers.fetch_add(1, std::memory_order_acq_rel);
      }
      batch->Work();
      batch->active_workers.fetch_sub(1, std::memory_order_acq_rel);
      // Lock-then-notify so the completion cannot slip into the window
      // between the region owner's predicate check and its sleep.
      { MutexLock lock(mutex_); }
      finished_.NotifyAll();
      // Park until this region is retired (or shutdown); otherwise the
      // wake_ predicate would spin on the still-current batch.
      MutexLock lock(mutex_);
      while (!(stop_ || region_seq_ != my_region)) idle_.Wait(mutex_);
      if (stop_) return;
    }
  }

  /// Serialises Run()/Resize() callers. Held for a region's whole
  /// lifetime, during which the owner's chunks may take any lock ranked
  /// after kPoolRegion (replica locks, the error slot, logging) — which
  /// is why callers holding coarser serving locks (the batch replica)
  /// rank BEFORE it and callers may never enter a region while holding
  /// anything ranked after it.
  Mutex region_mutex_{common::LockRank::kPoolRegion, "pool.region"};
  /// Scheduler state; taken under region_mutex_ by the owner, alone by
  /// workers.
  Mutex mutex_ ACQUIRED_AFTER(region_mutex_){common::LockRank::kPoolState,
                                             "pool.state"};
  CondVar wake_;      // new region available or shutdown
  CondVar finished_;  // last chunk of a region done
  CondVar idle_;      // region retired
  Batch* current_ GUARDED_BY(mutex_) = nullptr;
  uint64_t region_seq_ GUARDED_BY(mutex_) = 0;  // bumped on region retire
  bool stop_ GUARDED_BY(mutex_) = false;
  /// Relaxed atomic rather than GUARDED_BY(region_mutex_): GetNumThreads
  /// is called on every parallel-loop entry and must not contend with a
  /// running region; Resize still serialises writers via region_mutex_.
  std::atomic<size_t> num_threads_{1};
  std::vector<std::thread> workers_ GUARDED_BY(region_mutex_);
};

}  // namespace

SerialRegionScope::SerialRegionScope() : previous_(t_in_parallel_region) {
  t_in_parallel_region = true;
}

SerialRegionScope::~SerialRegionScope() { t_in_parallel_region = previous_; }

size_t GetNumThreads() { return ThreadPool::Global().num_threads(); }

void SetNumThreads(size_t n) { ThreadPool::Global().Resize(n); }

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  const size_t range = end - begin;
  if (grain == 0) grain = 1;
  const size_t threads = GetNumThreads();
  size_t num_chunks = (range + grain - 1) / grain;
  // A few chunks per worker load-balances uneven work without flooding
  // the chunk counter.
  num_chunks = std::min(num_chunks, threads * 4);

  if (threads == 1 || num_chunks <= 1 || t_in_parallel_region) {
    const bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    try {
      fn(begin, end);
    } catch (...) {
      t_in_parallel_region = was_in_region;
      throw;
    }
    t_in_parallel_region = was_in_region;
    return;
  }

  const size_t chunk_size = (range + num_chunks - 1) / num_chunks;
  Batch batch;
  batch.num_chunks = (range + chunk_size - 1) / chunk_size;
  batch.run_chunk = [&](size_t chunk) {
    const size_t lo = begin + chunk * chunk_size;
    const size_t hi = std::min(end, lo + chunk_size);
    fn(lo, hi);
  };
  ThreadPool::Global().Run(batch);
}

}  // namespace pathrank
