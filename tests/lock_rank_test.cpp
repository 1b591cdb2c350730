// Tests for the debug lock-rank runtime checker (common/lock_rank.h):
// acquiring ranked mutexes out of hierarchy order must abort with BOTH
// locks' names in the message, correct-order nesting must stay silent,
// and unranked / try_lock acquisitions must follow their documented
// carve-outs. The death fixtures only run in builds compiled with
// -DPATHRANK_DEBUG_LOCK_RANK=ON (the CI lock-rank leg); everywhere else
// they GTEST_SKIP, because without the checker the wrong-order pair
// simply locks fine.
#include <gtest/gtest.h>

#include <iterator>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"

namespace pathrank {
namespace {

using common::LockRank;
using common::LockRankCheckingEnabled;
using common::LockRankHeldCount;
using common::Mutex;
using common::MutexLock;

TEST(LockRankRegistry, NamesRoundTrip) {
  EXPECT_STREQ(common::LockRankName(LockRank::kHttpStop), "http.stop");
  EXPECT_STREQ(common::LockRankName(LockRank::kRouteCache),
               "planner.cache");
  EXPECT_STREQ(common::LockRankName(LockRank::kStderrLog), "log.stderr");
  EXPECT_STREQ(common::LockRankName(LockRank::kEngineScoreMemo),
               "engine.score_memo");
  EXPECT_STREQ(common::LockRankName(0), "unranked");
  EXPECT_STREQ(common::LockRankName(-5), "unranked");
}

TEST(LockRankRegistry, RanksAreStrictlyIncreasingInTableOrder) {
  // The registry IS the hierarchy: a refactor that reorders two slots
  // without renumbering silently legalises the old inversion.
  const int ranks[] = {
      LockRank::kHttpStop,         LockRank::kHttpConn,
      LockRank::kHttpAdmit,        LockRank::kGraphRebuild,
      LockRank::kGraphStore,       LockRank::kRouteCache,
      LockRank::kEngineSnapshot,   LockRank::kEngineScoreMemo,
      LockRank::kHttpEndpointStats, LockRank::kStderrLog,
  };
  for (size_t i = 1; i < std::size(ranks); ++i) {
    EXPECT_LT(ranks[i - 1], ranks[i]) << "registry slot " << i;
    EXPECT_GT(ranks[i - 1], 0);
  }
}

TEST(LockRankChecker, CorrectOrderIsSilentAndFullyReleased) {
  // Ascending acquisition is the contract; this must never abort, in
  // any build, and the held stack must drain to empty.
  Mutex low(10, "test.low");
  Mutex high(20, "test.high");
  {
    MutexLock outer(low);
    if (LockRankCheckingEnabled()) {
      EXPECT_EQ(LockRankHeldCount(), 1u);
    }
    MutexLock inner(high);
    if (LockRankCheckingEnabled()) {
      EXPECT_EQ(LockRankHeldCount(), 2u);
    }
  }
  EXPECT_EQ(LockRankHeldCount(), 0u);
}

TEST(LockRankChecker, UnrankedMutexIsInvisible) {
  // Rank 0 (the default constructor — tests, out-of-tree callers) takes
  // no part in the order: locking one between or around ranked locks in
  // any order must not fire the checker.
  Mutex unranked;
  Mutex high(20, "test.high");
  MutexLock outer(high);
  MutexLock inner(unranked);  // "descending" into rank 0: fine
  if (LockRankCheckingEnabled()) {
    EXPECT_EQ(LockRankHeldCount(), 1u);
  }
}

TEST(LockRankChecker, ManualUnlockMayReleaseOutOfLifoOrder) {
  // The wrappers release LIFO, but nothing requires it of manual
  // lock()/unlock() pairs; the held-stack bookkeeping must cope.
  Mutex low(10, "test.low");
  Mutex high(20, "test.high");
  low.lock();
  high.lock();
  low.unlock();  // out of LIFO order
  if (LockRankCheckingEnabled()) {
    EXPECT_EQ(LockRankHeldCount(), 1u);
  }
  high.unlock();
  EXPECT_EQ(LockRankHeldCount(), 0u);
}

TEST(LockRankChecker, TryLockBelowHeldRankIsAllowed) {
  // try_lock cannot deadlock (it would just fail), so an out-of-order
  // TRY is legal; the acquired lock still lands on the held stack.
  // Plain if rather than ASSERT_TRUE: clang's thread-safety analysis
  // only follows a TRY_ACQUIRE result that is branched on directly.
  Mutex low(10, "test.low");
  Mutex high(20, "test.high");
  MutexLock outer(high);
  if (low.try_lock()) {
    if (LockRankCheckingEnabled()) {
      EXPECT_EQ(LockRankHeldCount(), 2u);
    }
    low.unlock();
  } else {
    ADD_FAILURE() << "uncontended try_lock failed";
  }
}

TEST(LockRankCheckerDeath, WrongOrderAbortsWithBothNames) {
  if (!LockRankCheckingEnabled()) {
    GTEST_SKIP() << "build has no PATHRANK_DEBUG_LOCK_RANK checker";
  }
  // Death tests fork; threadsafe style re-executes the binary so the
  // child is not a fork of a multi-threaded gtest process mid-flight.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex low(10, "test.low");
        Mutex high(20, "test.high");
        MutexLock outer(high);
        MutexLock inner(low);  // rank 10 under rank 20: inversion
      },
      "pathrank lock-rank violation: acquiring "
      "\"test\\.low\"(.|\n)*\"test\\.high\"");
}

TEST(LockRankCheckerDeath, EqualRankNestingAborts) {
  if (!LockRankCheckingEnabled()) {
    GTEST_SKIP() << "build has no PATHRANK_DEBUG_LOCK_RANK checker";
  }
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two mutexes may share a rank ONLY when no thread holds both at
  // once; holding both is exactly the ABBA shape ranks exist to stop
  // (the other thread takes them in the other order), so the rule is
  // strictly-greater, not greater-or-equal.
  EXPECT_DEATH(
      {
        Mutex a(30, "test.peer_a");
        Mutex b(30, "test.peer_b");
        MutexLock outer(a);
        MutexLock inner(b);
      },
      "pathrank lock-rank violation: acquiring "
      "\"test\\.peer_b\"(.|\n)*\"test\\.peer_a\"");
}

TEST(LockRankCheckerDeath, BlockingAcquireChecksAgainstTryLockedRank) {
  if (!LockRankCheckingEnabled()) {
    GTEST_SKIP() << "build has no PATHRANK_DEBUG_LOCK_RANK checker";
  }
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A successful out-of-order try_lock leaves a LOWER rank on top of
  // the stack; later blocking acquisitions must be checked against the
  // MAXIMUM held rank, not the top, or this inversion goes unnoticed.
  EXPECT_DEATH(
      {
        Mutex low(10, "test.low");
        Mutex mid(15, "test.mid");
        Mutex high(20, "test.high");
        MutexLock outer(high);
        if (low.try_lock()) {    // legal: try below a held rank
          MutexLock inner(mid);  // 15 < max held (20): inversion, aborts
          low.unlock();          // unreachable; satisfies the analysis
        }
      },
      "pathrank lock-rank violation: acquiring "
      "\"test\\.mid\"(.|\n)*\"test\\.high\"");
}

}  // namespace
}  // namespace pathrank
