// Tests for the unbounded-register protocol (Figure 2): consistency
// (Theorem 8), the (3/4)^k num-field tail (Theorem 9), constant expected
// running time, the n-processor generalization, and crash tolerance.
#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "core/unbounded.h"
#include "tests/test_util.h"
#include "util/stats.h"

namespace cil {
namespace {

using test::all_binary_inputs;
using test::run_protocol;
using test::run_random;

TEST(Unbounded, PackUnpackRoundTrips) {
  for (const Value pref : {kNoValue, 0, 1, 5}) {
    for (const std::int64_t num : {0L, 1L, 17L, 123456789L}) {
      const Word w = UnboundedProtocol::pack(pref, num);
      EXPECT_EQ(UnboundedProtocol::unpack_pref(w), pref);
      EXPECT_EQ(UnboundedProtocol::unpack_num(w), num);
    }
  }
}

TEST(Unbounded, RegistersAreSingleWriter) {
  UnboundedProtocol protocol(3);
  const auto specs = protocol.registers();
  ASSERT_EQ(specs.size(), 3u);
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(specs[p].writers, std::vector<ProcessId>{p});
    EXPECT_EQ(specs[p].readers.size(), 2u);  // 1-writer 2-reader, as in §5
  }
}

TEST(Unbounded, ThreeProcsUnanimousInputsDecideIt) {
  UnboundedProtocol protocol(3);
  for (const Value v : {0, 1}) {
    const auto r = run_random(protocol, {v, v, v}, 7);
    ASSERT_TRUE(r.all_decided);
    for (const Value d : r.decisions) EXPECT_EQ(d, v);
  }
}

TEST(Unbounded, ThreeProcsAllInputCombosAgree) {
  UnboundedProtocol protocol(3);
  for (const auto& inputs : all_binary_inputs(3)) {
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
      const auto r = run_random(protocol, inputs, seed);
      ASSERT_TRUE(r.all_decided);
      EXPECT_EQ(r.decisions[0], r.decisions[1]);
      EXPECT_EQ(r.decisions[1], r.decisions[2]);
    }
  }
}

TEST(Unbounded, SoloProcessorDecidesQuickly) {
  // Wait freedom: with both peers starved the runner increments num to get
  // 2 ahead and decides alone, having taken only its own steps.
  UnboundedProtocol protocol(3);
  SimOptions options;
  options.seed = 11;
  options.max_total_steps = 1000;
  Simulation sim(protocol, {1, 0, 0}, options);
  StarvingScheduler sched({1, 2}, 3);
  while (sim.active(0)) ASSERT_TRUE(sim.step_once(sched));
  EXPECT_EQ(sim.process(0).decision(), 1);
  EXPECT_EQ(sim.steps_of(1), 0);
  EXPECT_EQ(sim.steps_of(2), 0);
  EXPECT_LT(sim.steps_of(0), 50);
}

TEST(Unbounded, AdaptiveAdversaryCannotPreventAgreement) {
  UnboundedProtocol protocol(3);
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    DecisionAvoidingAdversary adversary(seed + 5);
    const auto r = run_protocol(protocol, {0, 1, 0}, adversary, seed, 100000);
    ASSERT_TRUE(r.all_decided) << "seed " << seed;
  }
}

TEST(Unbounded, SplitKeepingAdversaryCannotPreventAgreement) {
  UnboundedProtocol protocol(3);
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    SplitKeepingAdversary adversary(seed + 5, &UnboundedProtocol::unpack_pref);
    const auto r = run_protocol(protocol, {0, 1, 1}, adversary, seed, 100000);
    ASSERT_TRUE(r.all_decided) << "seed " << seed;
  }
}

TEST(Unbounded, Theorem9NumTailIsAtMostThreeQuarters) {
  // P[num reaches k] <= (3/4)^k. We measure the max num over the run under
  // the adversary that tries hardest to keep the race going.
  UnboundedProtocol protocol(3);
  Tally max_nums;
  for (std::uint64_t seed = 0; seed < 3000; ++seed) {
    SimOptions options;
    options.seed = seed;
    options.max_total_steps = 100000;
    Simulation sim(protocol, {0, 1, 0}, options);
    SplitKeepingAdversary adversary(seed + 3,
                                    &UnboundedProtocol::unpack_pref);
    const auto r = sim.run(adversary);
    ASSERT_TRUE(r.all_decided);
    std::int64_t max_num = 0;
    for (RegisterId reg = 0; reg < 3; ++reg) {
      max_num = std::max(
          max_num, UnboundedProtocol::unpack_num(sim.regs().peek(reg)));
    }
    max_nums.add(max_num);
  }
  // Check the empirical tail against (3/4)^k at a few points, with slack
  // for sampling noise and for the adaptivity of the split-keeping
  // adversary (which sits right AT the bound — the paper's Theorem 9
  // analysis is the per-round 1/4 agreement chance that this adversary
  // minimizes). num starts at 1, so compare P[max >= k+1] with (3/4)^k.
  for (const std::int64_t k : {4, 6, 8}) {
    EXPECT_LE(max_nums.tail_at_least(k + 1),
              std::pow(0.75, static_cast<double>(k)) + 0.05)
        << "k = " << k;
  }
  // And the tail must be genuinely geometric.
  EXPECT_LT(fit_geometric_tail_ratio(max_nums, /*k_min=*/2), 0.85);
}

TEST(Unbounded, ExpectedRunTimeIsSmallConstant) {
  // Corollary to Theorem 9: constant expected running time for n = 3.
  UnboundedProtocol protocol(3);
  RunningStats total_steps;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    const auto r = run_random(protocol, {0, 1, 0}, seed);
    ASSERT_TRUE(r.all_decided);
    total_steps.add(static_cast<double>(r.total_steps));
  }
  EXPECT_LT(total_steps.mean(), 100.0);  // "a small constant"
}

TEST(Unbounded, CrashToleranceUpToNMinusOne) {
  UnboundedProtocol protocol(4);
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    RandomScheduler inner(seed);
    // Three of four processors die at various times.
    CrashingScheduler sched(inner, {{5, 1}, {9, 2}, {13, 3}});
    const auto r = run_protocol(protocol, {1, 0, 0, 1}, sched, seed, 10000);
    EXPECT_NE(r.decisions[0], kNoValue) << "seed " << seed;
  }
}

class UnboundedNProcs : public ::testing::TestWithParam<int> {};

TEST_P(UnboundedNProcs, AgreementAndTerminationAcrossN) {
  const int n = GetParam();
  UnboundedProtocol protocol(n);
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    std::vector<Value> inputs;
    for (int i = 0; i < n; ++i) inputs.push_back(i % 2);
    const auto r = run_random(protocol, inputs, seed, 2'000'000);
    ASSERT_TRUE(r.all_decided) << "n=" << n << " seed=" << seed;
    for (int i = 1; i < n; ++i) EXPECT_EQ(r.decisions[i], r.decisions[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, UnboundedNProcs,
                         ::testing::Values(2, 3, 4, 5, 6, 8));

TEST(Unbounded, LaggardAdoptsEarlierDecision) {
  // A starved processor scheduled only after everyone else decided must
  // reach the same value.
  UnboundedProtocol protocol(3);
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    SimOptions options;
    options.seed = seed;
    options.max_total_steps = 100000;
    Simulation sim(protocol, {0, 1, 1}, options);
    StarvingScheduler starve(std::vector<ProcessId>{2}, seed);
    // Phase 1: run P0/P1 to completion.
    while (sim.active(0) || sim.active(1)) {
      ASSERT_TRUE(sim.step_once(starve));
    }
    const Value early = sim.process(0).decision();
    // Phase 2: now let P2 run alone.
    RoundRobinScheduler rr;
    const auto r = sim.run(rr);
    ASSERT_TRUE(r.all_decided);
    EXPECT_EQ(r.decisions[2], early);
  }
}

TEST(Unbounded, MultiValuedInputsDirectlySupported) {
  UnboundedProtocol protocol(3, /*max_value=*/200);
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const auto r = run_random(protocol, {5, 200, 77}, seed);
    ASSERT_TRUE(r.all_decided);
    EXPECT_TRUE(r.decisions[0] == 5 || r.decisions[0] == 200 ||
                r.decisions[0] == 77);
  }
}

}  // namespace
}  // namespace cil
