// Unit tests for the common utilities: RNG, CSV, strings, env, logging,
// and the annotated CondVar's timed-wait paths.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

#include "common/csv.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/parse.h"
#include "common/percentile.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_annotations.h"

namespace pathrank {
namespace {

TEST(Rng, DeterministicUnderSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 12345ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.NextBounded(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 500);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.01);
  EXPECT_NEAR(sq / kN, 1.0, 0.02);
}

TEST(Rng, IntRangeInclusive) {
  Rng rng(15);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(19);
  Rng child = parent.Fork();
  // Child should not replay the parent's stream.
  Rng parent2(19);
  parent2.Fork();
  EXPECT_NE(child.NextU64(), parent.NextU64());
}

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(EscapeCsvField("hello"), "hello");
}

TEST(Csv, EscapeQuotesAndCommas) {
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, ParseSimpleLine) {
  const auto fields = ParseCsvLine("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(Csv, ParseQuotedWithEmbeddedComma) {
  const auto fields = ParseCsvLine("x,\"a,b\",y");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "a,b");
}

TEST(Csv, ParseEscapedQuote) {
  const auto fields = ParseCsvLine("\"say \"\"hi\"\"\"");
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "say \"hi\"");
}

TEST(Csv, ParseEmptyFields) {
  const auto fields = ParseCsvLine("a,,b,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(Csv, RoundTripFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pr_csv_test.csv").string();
  {
    CsvWriter w(path);
    w.WriteRow({"id", "name"});
    w.WriteRow({"1", "with,comma"});
    w.WriteRow({"2", "with \"quote\""});
    w.Close();
  }
  CsvReader r(path);
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.row(1)[1], "with,comma");
  EXPECT_EQ(r.row(2)[1], "with \"quote\"");
  std::remove(path.c_str());
}

TEST(Csv, WriterPublishesByRenameOnlyOnClose) {
  // `serve --watch-graph` polls the file: it must see the old file or the
  // whole new one. Rows go to `<path>.tmp`, Close() renames that onto
  // `path` (a new inode, since the temp file coexists with the old one),
  // and a writer destroyed without Close() publishes nothing.
  const std::string path =
      (std::filesystem::temp_directory_path() / "pr_csv_rename.csv").string();
  {
    CsvWriter w(path);
    w.WriteRow({"old"});
    w.Close();
  }
  struct stat before {};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  {
    CsvWriter w(path);
    w.WriteRow({"abandoned"});
    EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(CsvReader(path).row(0)[0], "old");
  {
    CsvWriter w(path);
    w.WriteRow({"new"});
    EXPECT_EQ(CsvReader(path).row(0)[0], "old");  // not yet published
    w.Close();
  }
  struct stat after {};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  EXPECT_NE(before.st_ino, after.st_ino);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(CsvReader(path).row(0)[0], "new");
  std::remove(path.c_str());
}

TEST(StringUtil, Split) {
  const auto parts = Split("a:b::c", ':');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtil, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtil, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(Env, FallbacksWhenUnset) {
  EXPECT_EQ(EnvString("PATHRANK_TEST_UNSET_VAR", "dflt"), "dflt");
  EXPECT_EQ(EnvInt("PATHRANK_TEST_UNSET_VAR", 42), 42);
}

TEST(Env, ParsesSetValues) {
  setenv("PATHRANK_TEST_VAR", "17", 1);
  EXPECT_EQ(EnvInt("PATHRANK_TEST_VAR", 0), 17);
  unsetenv("PATHRANK_TEST_VAR");
}

TEST(Parse, WholeTokenIntegers) {
  int64_t i64 = 0;
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &i64));
  EXPECT_EQ(i64, INT64_MIN);
  EXPECT_TRUE(ParseInt64("9223372036854775807", &i64));
  EXPECT_EQ(i64, INT64_MAX);
  // Half-parses under std::stoll; must fail whole-token.
  EXPECT_FALSE(ParseInt64("12abc", &i64));
  EXPECT_FALSE(ParseInt64(" 12", &i64));
  EXPECT_FALSE(ParseInt64("", &i64));
  // One past INT64_MAX: overflow is a failure, not a saturate.
  EXPECT_FALSE(ParseInt64("9223372036854775808", &i64));

  uint64_t u64 = 0;
  EXPECT_TRUE(ParseUInt64("18446744073709551615", &u64));
  EXPECT_EQ(u64, UINT64_MAX);
  EXPECT_FALSE(ParseUInt64("18446744073709551616", &u64));
  EXPECT_FALSE(ParseUInt64("-1", &u64));
  EXPECT_FALSE(ParseUInt64("0x10", &u64));
}

TEST(Parse, DoubleRejectsNonFiniteAndJunk) {
  double d = 0.0;
  EXPECT_TRUE(ParseDouble("-0.5", &d));
  EXPECT_DOUBLE_EQ(d, -0.5);
  EXPECT_TRUE(ParseDouble("1e3", &d));
  EXPECT_DOUBLE_EQ(d, 1000.0);
  EXPECT_FALSE(ParseDouble("nan", &d));
  EXPECT_FALSE(ParseDouble("inf", &d));
  EXPECT_FALSE(ParseDouble("12,3", &d));
  EXPECT_FALSE(ParseDouble("1.5x", &d));
}

TEST(Logging, ParseLevels) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("bogus"), LogLevel::kInfo);
}

TEST(Logging, CheckThrowsOnFailure) {
  EXPECT_THROW([] { PR_CHECK(1 == 2) << "should throw"; }(),
               std::logic_error);
}

TEST(Logging, CheckPassesSilently) {
  EXPECT_NO_THROW([] { PR_CHECK(1 == 1) << "fine"; }());
}

// Hand-computed nearest-rank quantiles: PercentileSorted must return the
// element at index ceil(p * n) - 1. The cases where p * n is an exact
// integer (p50 of an even-sized sample) are the ones the old floor(p * n)
// indexing got one rank too high.
TEST(Percentile, NearestRankEvenSample) {
  const std::vector<double> four = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(PercentileSorted(four, 0.50), 2.0);   // ceil(2) - 1 = index 1
  EXPECT_EQ(PercentileSorted(four, 0.25), 1.0);   // ceil(1) - 1 = index 0
  EXPECT_EQ(PercentileSorted(four, 0.75), 3.0);   // ceil(3) - 1 = index 2
  EXPECT_EQ(PercentileSorted(four, 0.99), 4.0);   // ceil(3.96) - 1 = 3
  EXPECT_EQ(PercentileSorted(four, 1.00), 4.0);
  EXPECT_EQ(PercentileSorted(four, 0.00), 1.0);   // clamped to the min
}

TEST(Percentile, NearestRankOddSample) {
  const std::vector<double> five = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_EQ(PercentileSorted(five, 0.50), 30.0);  // ceil(2.5) - 1 = 2
  EXPECT_EQ(PercentileSorted(five, 0.60), 30.0);  // ceil(3) - 1 = 2
  EXPECT_EQ(PercentileSorted(five, 0.61), 40.0);  // ceil(3.05) - 1 = 3
  EXPECT_EQ(PercentileSorted(five, 0.99), 50.0);
}

TEST(Percentile, SingleSampleIsEveryQuantile) {
  const std::vector<double> one = {7.0};
  EXPECT_EQ(PercentileSorted(one, 0.0), 7.0);
  EXPECT_EQ(PercentileSorted(one, 0.5), 7.0);
  EXPECT_EQ(PercentileSorted(one, 0.99), 7.0);
  EXPECT_EQ(PercentileSorted(one, 1.0), 7.0);
}

TEST(CondVar, WaitForTimesOutWithNobodyNotifying) {
  common::Mutex mu;
  common::CondVar cv;
  // Spurious wakeups return no_timeout early, so loop until the wait
  // itself reports timeout — bounded by an outer deadline generous
  // enough (5 s vs 5 ms waits) that a scheduler hiccup cannot flake it.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::cv_status status = std::cv_status::no_timeout;
  common::MutexLock lock(mu);
  while (status != std::cv_status::timeout &&
         std::chrono::steady_clock::now() < give_up) {
    status = cv.WaitFor(mu, std::chrono::milliseconds(5));
  }
  EXPECT_EQ(status, std::cv_status::timeout);
}

TEST(CondVar, WaitUntilPastDeadlineReportsTimeoutImmediately) {
  common::Mutex mu;
  common::CondVar cv;
  common::MutexLock lock(mu);
  // An already-expired deadline must come back timeout, not block.
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(cv.WaitUntil(mu, past), std::cv_status::timeout);
}

TEST(CondVar, WaitUntilWakesOnNotifyBeforeDeadline) {
  common::Mutex mu;
  common::CondVar cv;
  bool ready = false;  // guarded by mu (local, so no GUARDED_BY member)
  std::thread notifier([&] {
    {
      common::MutexLock lock(mu);
      ready = true;
    }
    cv.NotifyOne();
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool timed_out = false;
  {
    common::MutexLock lock(mu);
    // Predicate loop, as the CondVar contract requires: WaitUntil holds
    // mu again on return, so reading `ready` here is race-free.
    while (!ready && !timed_out) {
      timed_out = cv.WaitUntil(mu, deadline) == std::cv_status::timeout;
    }
    EXPECT_TRUE(ready);
    EXPECT_FALSE(timed_out);
  }
  notifier.join();
}

TEST(CondVar, WaitForReacquiresTheMutexOnTimeout) {
  // The timed waits must return with the mutex HELD whatever the
  // outcome — guarded state is legal to touch right after. (Under
  // -DPATHRANK_DEBUG_LOCK_RANK the held-stack must agree.)
  common::Mutex mu(42, "test.cv_mutex");
  common::CondVar cv;
  {
    common::MutexLock lock(mu);
    (void)cv.WaitFor(mu, std::chrono::milliseconds(1));
    if (common::LockRankCheckingEnabled()) {
      EXPECT_EQ(common::LockRankHeldCount(), 1u);
    }
  }
  EXPECT_EQ(common::LockRankHeldCount(), 0u);
}

}  // namespace
}  // namespace pathrank
