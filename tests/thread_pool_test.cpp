// Thread pool: ParallelFor coverage/partitioning, exception propagation,
// nested-region collapse and SetNumThreads/env behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"

namespace pathrank {
namespace {

class ThreadPoolTest : public ::testing::Test {
 protected:
  void TearDown() override { SetNumThreads(4); }
};

TEST_F(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
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

TEST_F(ThreadPoolTest, EmptyAndTinyRanges) {
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

TEST_F(ThreadPoolTest, PropagatesExceptions) {
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
    // The pool must stay usable after an exception.
    std::atomic<size_t> count{0};
    ParallelFor(0, 100, 10,
                [&](size_t lo, size_t hi) { count.fetch_add(hi - lo); });
    EXPECT_EQ(count.load(), 100u);
  }
}

TEST_F(ThreadPoolTest, NestedParallelForRunsSerially) {
  SetNumThreads(4);
  std::atomic<size_t> total{0};
  ParallelFor(0, 8, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      // Inner region must collapse to a single serial call instead of
      // re-entering (and potentially deadlocking) the pool.
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

TEST_F(ThreadPoolTest, ManyConsecutiveRegions) {
  SetNumThreads(4);
  // Stress region setup/teardown for lost-wakeup bugs.
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

TEST_F(ThreadPoolTest, SetNumThreadsZeroMeansHardware) {
  SetNumThreads(0);
  EXPECT_GE(GetNumThreads(), 1u);
}

}  // namespace
}  // namespace pathrank
