#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "util/bitfield.h"
#include "util/check.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cil {
namespace {

TEST(Check, CheckThrowsOnFalse) {
  EXPECT_THROW(CIL_CHECK(1 == 2), ContractViolation);
  EXPECT_NO_THROW(CIL_CHECK(1 == 1));
}

TEST(Check, MessageIncludesExpressionAndNote) {
  try {
    CIL_CHECK_MSG(false, "extra context");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("extra context"), std::string::npos);
  }
}

TEST(Check, LocationIsRepoRelative) {
  // The build maps the checkout's path out of __FILE__, so a contract
  // message that reaches a CLI or a service client names the file as the
  // repository does and says nothing of where the tree was built.
  try {
    CIL_CHECK_MSG(false, "where am I");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tests/util_test.cpp:"), std::string::npos) << what;
    EXPECT_EQ(what.find(" at /"), std::string::npos) << what;
  }
}

TEST(Check, NarrowRoundTrips) {
  EXPECT_EQ(narrow<std::int32_t>(std::int64_t{42}), 42);
  EXPECT_EQ(narrow<std::uint8_t>(255), 255);
}

TEST(Check, NarrowThrowsOnLoss) {
  EXPECT_THROW(narrow<std::int8_t>(1000), ContractViolation);
  EXPECT_THROW(narrow<std::uint32_t>(std::int64_t{-1}), ContractViolation);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.bits(), b.bits());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differ = 0;
  for (int i = 0; i < 64; ++i) differ += (a.bits() != b.bits());
  EXPECT_GT(differ, 60);
}

TEST(Rng, FlipIsRoughlyFair) {
  Rng rng(123);
  int heads = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) heads += rng.flip();
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRangeAndCoversIt) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ForkIndependence) {
  Rng parent(5);
  Rng child = parent.fork();
  // The child stream should not simply replay the parent stream.
  Rng parent2(5);
  (void)parent2.bits();  // advance equally
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child.bits() == parent2.bits());
  EXPECT_LT(same, 4);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, CiShrinksWithSamples) {
  RunningStats small, large;
  Rng rng(3);
  for (int i = 0; i < 10; ++i) small.add(rng.uniform());
  for (int i = 0; i < 10000; ++i) large.add(rng.uniform());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Tally, PercentilesAndTail) {
  Tally s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.min(), 1);
  EXPECT_EQ(s.max(), 100);
  EXPECT_EQ(s.percentile(0.5), 50);
  EXPECT_EQ(s.percentile(1.0), 100);
  EXPECT_DOUBLE_EQ(s.tail_at_least(101), 0.0);
  EXPECT_DOUBLE_EQ(s.tail_at_least(1), 1.0);
  EXPECT_DOUBLE_EQ(s.tail_at_least(51), 0.5);
  EXPECT_EQ(s.sum(), 5050);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Tally, SurvivalTable) {
  Tally s;
  s.add(0);
  s.add(1);
  s.add(1);
  s.add(3);
  const auto surv = s.survival(4);
  ASSERT_EQ(surv.size(), 5u);
  EXPECT_DOUBLE_EQ(surv[0], 1.0);
  EXPECT_DOUBLE_EQ(surv[1], 0.75);
  EXPECT_DOUBLE_EQ(surv[2], 0.25);
  EXPECT_DOUBLE_EQ(surv[3], 0.25);
  EXPECT_DOUBLE_EQ(surv[4], 0.0);
}

TEST(Tally, BinsAreAscendingValueCountPairs) {
  Tally t;
  for (const std::int64_t x : {7, -3, 7, 1'000'000, 0, -3, 7}) t.add(x);
  t.add(5000, 4);
  const std::vector<std::pair<std::int64_t, std::int64_t>> want = {
      {-3, 2}, {0, 1}, {7, 3}, {5000, 4}, {1'000'000, 1}};
  EXPECT_EQ(t.bins(), want);
  EXPECT_EQ(t.count(), 11);
  EXPECT_TRUE(Tally().bins().empty());
  EXPECT_DOUBLE_EQ(Tally().tail_at_least(0), 0.0);
}

TEST(Tally, EqualityDependsOnlyOnTheMultiset) {
  // a's dense bins grow to hold 1000; b's only to hold 2, with 1000 still
  // counted in the same bins once added. Same multiset, different growth.
  Tally a, b;
  a.add(1000);
  a.add(2);
  b.add(2);
  EXPECT_FALSE(a == b);
  b.add(1000);
  EXPECT_TRUE(a == b);
  // Grown-but-empty bins do not count: merging an empty tally changes
  // nothing, and neither does a merge that only widens the dense bins.
  Tally small;
  small.add(2);
  Tally widened = small;
  widened.merge(Tally());
  EXPECT_TRUE(widened == small);
  Tally wide;
  wide.add(900);
  Tally other_order = wide;
  other_order.merge(small);
  Tally same;
  same.add(2);
  same.add(900);
  EXPECT_TRUE(other_order == same);
  small.add(-5);
  EXPECT_FALSE(small == widened);
}

TEST(Tally, MatchesABruteForceSortedVector) {
  // Mixed magnitudes: dense small values, negatives, and values near the
  // int64 limits (the sparse path), against order statistics of a sorted
  // copy.
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    Tally t;
    std::vector<std::int64_t> v;
    const int n = 1 + static_cast<int>(rng.below(400));
    for (int i = 0; i < n; ++i) {
      std::int64_t x = 0;
      switch (rng.below(4)) {
        case 0: x = static_cast<std::int64_t>(rng.below(40)); break;
        case 1: x = -static_cast<std::int64_t>(rng.below(1000)); break;
        case 2: x = static_cast<std::int64_t>(rng.below(100'000)); break;
        default:
          x = static_cast<std::int64_t>(rng.bits() >> 1) *
              (rng.flip() ? 1 : -1);
      }
      t.add(x);
      v.push_back(x);
    }
    std::sort(v.begin(), v.end());
    const auto size = static_cast<double>(v.size());
    ASSERT_EQ(t.count(), n);
    EXPECT_EQ(t.min(), v.front());
    EXPECT_EQ(t.max(), v.back());
    long double sum = 0, magnitude = 0;
    for (const std::int64_t x : v) {
      sum += static_cast<long double>(x);
      magnitude += std::fabs(static_cast<long double>(x));
    }
    EXPECT_NEAR(t.mean(), static_cast<double>(sum / n),
                1e-12 * std::max(1.0, static_cast<double>(magnitude / n)));
    for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      std::size_t rank =
          static_cast<std::size_t>(std::ceil(q * size));
      if (rank > 0) --rank;
      if (rank >= v.size()) rank = v.size() - 1;
      EXPECT_EQ(t.percentile(q), v[rank]) << "q=" << q;
    }
    std::vector<std::int64_t> ks = {0, 1, 5, 39, 40, -1, -999};
    for (int i = 0; i < 5; ++i) ks.push_back(v[rng.below(v.size())]);
    for (const std::int64_t k : ks) {
      const auto at_least =
          v.end() - std::lower_bound(v.begin(), v.end(), k);
      EXPECT_DOUBLE_EQ(t.tail_at_least(k),
                       static_cast<double>(at_least) / size)
          << "k=" << k;
    }
    const auto surv = t.survival(45);
    for (std::int64_t k = 0; k <= 45; ++k)
      EXPECT_DOUBLE_EQ(surv[static_cast<std::size_t>(k)], t.tail_at_least(k));
  }
}

TEST(Tally, MergeIsCommutativeAndAssociative) {
  Rng rng(7);
  const auto random_tally = [&rng] {
    Tally t;
    for (int i = 0; i < 300; ++i) {
      const std::int64_t x = rng.flip()
                                 ? static_cast<std::int64_t>(rng.below(64))
                                 : static_cast<std::int64_t>(rng.bits());
      t.add(x);
    }
    return t;
  };
  const Tally a = random_tally(), b = random_tally(), c = random_tally();
  const auto merged = [](Tally x, const Tally& y) {
    x.merge(y);
    return x;
  };
  EXPECT_EQ(merged(a, b), merged(b, a));
  EXPECT_EQ(merged(merged(a, b), c), merged(a, merged(b, c)));
  EXPECT_EQ(merged(a, Tally()), a);
  EXPECT_EQ(merged(merged(a, b), c).count(), 900);
  // The merge is the multiset union: the same values added one by one.
  Tally one_by_one = a;
  for (const auto& [value, count] : b.bins())
    for (std::int64_t i = 0; i < count; ++i) one_by_one.add(value);
  EXPECT_EQ(merged(a, b), one_by_one);
  EXPECT_EQ(merged(a, b).bins(), one_by_one.bins());
}

TEST(Tally, SumIsExactAndOverflowIsAContractViolation) {
  Tally t;
  t.add(std::numeric_limits<std::int64_t>::max());
  t.add(-5);
  EXPECT_EQ(t.sum(), std::numeric_limits<std::int64_t>::max() - 5);
  t.add(10);
  EXPECT_THROW((void)t.sum(), ContractViolation);
  // The mean stays exact past int64: (2^63 - 1 + 5) / 3.
  EXPECT_DOUBLE_EQ(t.mean(), 9223372036854775812.0 / 3.0);
}

TEST(Stats, GeometricTailFitRecoversRatio) {
  // Sample a geometric distribution with ratio 0.75 (Theorem 9's bound).
  Rng rng(42);
  Tally s;
  for (int i = 0; i < 200000; ++i) {
    std::int64_t k = 0;
    while (rng.with_probability(0.75)) ++k;
    s.add(k);
  }
  const double r = fit_geometric_tail_ratio(s);
  EXPECT_NEAR(r, 0.75, 0.03);
}

TEST(BitField, PackUnpack) {
  BitLayout layout;
  const BitField a = layout.field(3);
  const BitField b = layout.field(5);
  EXPECT_EQ(layout.width(), 8);
  std::uint64_t w = 0;
  w = a.set(w, 5);
  w = b.set(w, 19);
  EXPECT_EQ(a.get(w), 5u);
  EXPECT_EQ(b.get(w), 19u);
  // Overwriting one field leaves the other intact.
  w = a.set(w, 2);
  EXPECT_EQ(a.get(w), 2u);
  EXPECT_EQ(b.get(w), 19u);
}

TEST(BitField, RejectsOverflowingValue) {
  const BitField f{0, 3};
  std::uint64_t w = 0;
  EXPECT_THROW(f.set(w, 8), ContractViolation);
  EXPECT_NO_THROW(f.set(w, 7));
}

TEST(BitField, BitWidth) {
  EXPECT_EQ(bit_width_u64(0), 0);
  EXPECT_EQ(bit_width_u64(1), 1);
  EXPECT_EQ(bit_width_u64(2), 2);
  EXPECT_EQ(bit_width_u64(255), 8);
  EXPECT_EQ(bit_width_u64(256), 9);
}

#ifndef _WIN32

TEST(Net, WriteAllAndReadRetryRoundTripThroughPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // Big enough to exceed the default 64KiB pipe buffer if written in one
  // go, so write_all's short-write loop actually loops.
  const std::string payload(200'000, 'q');
  std::string received;
  std::thread reader([&] {
    char buf[4096];
    for (;;) {
      const ssize_t n = net::read_retry(fds[0], buf, sizeof buf);
      ASSERT_GE(n, 0);
      if (n == 0) break;
      received.append(buf, static_cast<std::size_t>(n));
    }
  });
  EXPECT_TRUE(net::write_all(fds[1], payload));
  EXPECT_EQ(net::close_retry(fds[1]), 0);
  reader.join();
  EXPECT_EQ(received, payload);
  EXPECT_EQ(net::close_retry(fds[0]), 0);
}

TEST(Net, WriteAllFailsCleanlyOnClosedPipe) {
  net::ignore_sigpipe();  // without this the EPIPE below would kill us
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  EXPECT_EQ(net::close_retry(fds[0]), 0);
  // The write must report failure (EPIPE), not raise SIGPIPE.
  EXPECT_FALSE(net::write_all(fds[1], "doomed"));
  EXPECT_EQ(errno, EPIPE);
  EXPECT_EQ(net::close_retry(fds[1]), 0);
}

TEST(Net, SetNonblockingMakesReadsReturnEagain) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  EXPECT_TRUE(net::set_nonblocking(fds[0]));
  char buf[8];
  EXPECT_EQ(net::read_retry(fds[0], buf, sizeof buf), -1);
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
  EXPECT_EQ(net::close_retry(fds[0]), 0);
  EXPECT_EQ(net::close_retry(fds[1]), 0);
}

#endif  // _WIN32

}  // namespace
}  // namespace cil
