// ParallelFor: coverage/partitioning, exception propagation (lowest
// chunk first), nested-call collapse, concurrent callers and
// SetNumThreads behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace pathrank {
namespace {

class ParallelForTest : public ::testing::Test {
 protected:
  void TearDown() override { SetNumThreads(4); }
};

TEST_F(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {1, 2, 4}) {
    SetNumThreads(threads);
    EXPECT_EQ(GetNumThreads(), threads);
    constexpr size_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    ParallelFor(0, kN, 64, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST_F(ParallelForTest, EmptyAndTinyRanges) {
  SetNumThreads(4);
  int calls = 0;
  ParallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  std::atomic<int> total{0};
  ParallelFor(7, 8, 100, [&](size_t lo, size_t hi) {
    total.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(total.load(), 1);
}

TEST_F(ParallelForTest, PropagatesExceptions) {
  for (size_t threads : {1, 4}) {
    SetNumThreads(threads);
    EXPECT_THROW(
        ParallelFor(0, 1000, 10,
                    [&](size_t lo, size_t hi) {
                      for (size_t i = lo; i < hi; ++i) {
                        if (i == 500) throw std::runtime_error("boom");
                      }
                    }),
        std::runtime_error);
    // ParallelFor must stay usable after an exception.
    std::atomic<size_t> count{0};
    ParallelFor(0, 100, 10,
                [&](size_t lo, size_t hi) { count.fetch_add(hi - lo); });
    EXPECT_EQ(count.load(), 100u);
  }
}

TEST_F(ParallelForTest, NestedParallelForRunsSerially) {
  SetNumThreads(4);
  std::atomic<size_t> total{0};
  ParallelFor(0, 8, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      // The inner call must collapse to a single serial call instead of
      // starting threads of its own.
      size_t inner_calls = 0;
      ParallelFor(0, 100, 1, [&](size_t ilo, size_t ihi) {
        ++inner_calls;
        total.fetch_add(ihi - ilo);
      });
      EXPECT_EQ(inner_calls, 1u);
    }
  });
  EXPECT_EQ(total.load(), 800u);
}

TEST_F(ParallelForTest, RethrowsLowestChunkException) {
  // Every chunk but the first throws its own begin index, and the second
  // chunk throws last, so "first to throw" and "lowest chunk" disagree.
  for (size_t threads : {2, 4, 7}) {
    SetNumThreads(threads);
    // 1000 iterations at grain 10 make min(100, 4 * threads) chunks; the
    // second one begins at ceil(1000 / chunks).
    const size_t chunks = std::min<size_t>(100, 4 * threads);
    const size_t second = (1000 + chunks - 1) / chunks;
    for (int round = 0; round < 10; ++round) {
      try {
        ParallelFor(0, 1000, 10, [&](size_t lo, size_t) {
          if (lo == 0) return;
          if (lo == second) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          throw std::runtime_error(std::to_string(lo));
        });
        ADD_FAILURE() << "no exception at " << threads << " threads";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(e.what(), std::to_string(second)) << threads << " threads";
      }
    }
  }
}

TEST_F(ParallelForTest, ConcurrentCallersEachCoverTheirOwnRange) {
  SetNumThreads(4);
  constexpr size_t kN = 5000;
  std::vector<std::atomic<int>> hits_a(kN);
  std::vector<std::atomic<int>> hits_b(kN);
  const auto cover = [](std::vector<std::atomic<int>>& hits) {
    for (int round = 0; round < 20; ++round) {
      ParallelFor(0, kN, 16, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      });
    }
  };
  std::thread a([&] { cover(hits_a); });
  std::thread b([&] { cover(hits_b); });
  a.join();
  b.join();
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits_a[i].load(), 20) << "index " << i;
    ASSERT_EQ(hits_b[i].load(), 20) << "index " << i;
  }
}

TEST_F(ParallelForTest, ManyConsecutiveRegions) {
  SetNumThreads(4);
  // Stress thread start and join across many calls.
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> sum{0};
    ParallelFor(0, 256, 16, [&](size_t lo, size_t hi) {
      size_t s = 0;
      for (size_t i = lo; i < hi; ++i) s += i;
      sum.fetch_add(s);
    });
    ASSERT_EQ(sum.load(), 256u * 255u / 2u);
  }
}

TEST_F(ParallelForTest, SetNumThreadsZeroMeansHardware) {
  SetNumThreads(0);
  EXPECT_GE(GetNumThreads(), 1u);
}

}  // namespace
}  // namespace pathrank
