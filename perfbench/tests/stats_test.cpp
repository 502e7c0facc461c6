// The benchmark's statistics helpers: percentile guard, rate bases, and the
// error rate.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(NearestRank, PicksTheSmallestSampleCoveringTheQuantile) {
  const std::vector<double> v = {5, 1, 4, 2, 3};  // unsorted on purpose
  EXPECT_EQ(nearest_rank(v, 0.5), 3);
  EXPECT_EQ(nearest_rank(v, 0.2), 1);
  EXPECT_EQ(nearest_rank(v, 0.21), 2);
  EXPECT_EQ(nearest_rank(v, 1.0), 5);
  EXPECT_EQ(median(one_to(4)), 2);
  EXPECT_EQ(nearest_rank(one_to(1000), 0.99), 990);
  EXPECT_THROW(nearest_rank({}, 0.5), std::invalid_argument);
}

TEST(Mean, MovesWithTheMixOfTwoModesWhereTheMedianJumps) {
  // 49 fast jobs of 10 ms and 51 slow ones of 16 ms, then the other way
  // round: the median jumps by 6 ms, the mean by 0.12 ms.
  std::vector<double> slow_heavy(49, 10.0), fast_heavy(51, 10.0);
  slow_heavy.insert(slow_heavy.end(), 51, 16.0);
  fast_heavy.insert(fast_heavy.end(), 49, 16.0);
  EXPECT_EQ(median(slow_heavy), 16.0);
  EXPECT_EQ(median(fast_heavy), 10.0);
  EXPECT_DOUBLE_EQ(mean(slow_heavy), 13.06);
  EXPECT_DOUBLE_EQ(mean(fast_heavy), 12.94);
  EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(SupportedTail, ReportsP99OnlyWithTenSamplesBeyondIt) {
  const Tail t = supported_tail(one_to(1000), 0.99);
  EXPECT_DOUBLE_EQ(t.q, 0.99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.beyond, 10);
}

TEST(SupportedTail, FallsBackToTheHighestPercentileWithTenBeyond) {
  // 999 samples: p99 is rank 990 with only 9 beyond, so rank 989 is the
  // highest with ten.
  const Tail t = supported_tail(one_to(999), 0.99);
  EXPECT_LT(t.q, 0.99);
  EXPECT_EQ(t.value, 989);
  EXPECT_EQ(t.beyond, 10);

  const Tail small = supported_tail(one_to(100), 0.99);
  EXPECT_EQ(small.value, 90);
  EXPECT_EQ(small.beyond, 10);
}

TEST(SupportedTail, NeverReportsATailBelowTheMedian) {
  for (const int n : {1, 5, 12, 19}) {
    const Tail t = supported_tail(one_to(n), 0.99);
    EXPECT_DOUBLE_EQ(t.q, 0.5) << n;
    EXPECT_EQ(t.value, median(one_to(n))) << n;
  }
  // From 20 samples on, a tail at or above the median has ten beyond.
  EXPECT_EQ(supported_tail(one_to(20), 0.99).beyond, 10);
}

TEST(Rates, UseTheVerifiedWorkOverTheWholeWindow) {
  // 2M verified seeds over a 2.5 s sweep window, of which the kernel took
  // 0.25 s: the rate's base is the window, not the kernel.
  EXPECT_DOUBLE_EQ(per_second(2'000'000, 2.5), 800'000.0);
  EXPECT_THROW(per_second(1, 0.0), std::invalid_argument);
  // Speedup is base over measured: a 4 s serial run against a 2 s fabric
  // run is 2x, and a slower fabric reads below 1.
  EXPECT_DOUBLE_EQ(speedup(4.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(speedup(1.7, 3.4), 0.5);
  EXPECT_THROW(speedup(1.0, 0.0), std::invalid_argument);
}

TEST(ErrorRate, CountsFailuresAgainstAttempts) {
  EXPECT_DOUBLE_EQ(error_rate(0, 1000), 0.0);
  EXPECT_DOUBLE_EQ(error_rate(3, 1000), 0.003);
  EXPECT_DOUBLE_EQ(error_rate(7, 7), 1.0);
  EXPECT_THROW(error_rate(0, 0), std::invalid_argument);
  EXPECT_THROW(error_rate(2, 1), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
