// Tests for the two-processor protocol (Figure 1): consistency (Theorem 6),
// termination against benign and adaptive schedulers (Theorem 7), expected
// step count (Corollary), register width, and the encoding helpers.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/explorer.h"
#include "analysis/mdp.h"
#include "core/two_process.h"
#include "tests/test_util.h"
#include "util/stats.h"

namespace cil {
namespace {

using test::all_binary_inputs;
using test::run_protocol;
using test::run_random;

TEST(TwoProcess, EncodingRoundTrips) {
  EXPECT_EQ(TwoProcessProtocol::decode(TwoProcessProtocol::encode(kNoValue)),
            kNoValue);
  for (Value v : {0, 1, 2, 17}) {
    EXPECT_EQ(TwoProcessProtocol::decode(TwoProcessProtocol::encode(v)), v);
  }
}

TEST(TwoProcess, RegisterLayoutIsSwsrAndTwoBitsForBinary) {
  TwoProcessProtocol protocol;
  const auto specs = protocol.registers();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].writers, std::vector<ProcessId>{0});
  EXPECT_EQ(specs[0].readers, std::vector<ProcessId>{1});
  EXPECT_EQ(specs[1].writers, std::vector<ProcessId>{1});
  EXPECT_EQ(specs[1].readers, std::vector<ProcessId>{0});
  EXPECT_EQ(specs[0].width_bits, 2);  // ⊥, a, b
}

TEST(TwoProcess, SameInputsDecideThatValueUnderEverySchedulerKind) {
  TwoProcessProtocol protocol;
  for (const Value v : {0, 1}) {
    RoundRobinScheduler rr;
    const auto r = run_protocol(protocol, {v, v}, rr, 1);
    ASSERT_TRUE(r.all_decided);
    EXPECT_EQ(r.decisions[0], v);
    EXPECT_EQ(r.decisions[1], v);
  }
}

TEST(TwoProcess, SoloRunDecidesOwnInputInThreeSteps) {
  // A processor whose peer never moves must still decide (wait freedom):
  // write input, read ⊥, decide — 2 steps by our step accounting (decide
  // happens inside the read step).
  TwoProcessProtocol protocol;
  StarvingScheduler sched({1}, /*seed=*/3);
  const auto r = run_protocol(protocol, {0, 1}, sched, 3);
  EXPECT_EQ(r.decisions[0], 0);
  EXPECT_EQ(r.steps_per_process[0], 2);
}

TEST(TwoProcess, MixedInputsAlwaysAgreeRandomScheduler) {
  TwoProcessProtocol protocol;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    const auto r = run_random(protocol, {0, 1}, seed);
    ASSERT_TRUE(r.all_decided) << "seed " << seed;
    EXPECT_EQ(r.decisions[0], r.decisions[1]) << "seed " << seed;
  }
}

TEST(TwoProcess, MixedInputsAgreeUnderAdaptiveAdversary) {
  TwoProcessProtocol protocol;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    DecisionAvoidingAdversary adversary(seed + 1);
    const auto r = run_protocol(protocol, {0, 1}, adversary, seed, 20000);
    ASSERT_TRUE(r.all_decided) << "seed " << seed;
    EXPECT_EQ(r.decisions[0], r.decisions[1]);
  }
}

TEST(TwoProcess, ExpectedStepsWithinCorollaryBoundUnderAdversary) {
  // Corollary to Theorem 7: E[steps of P_i to decide] <= 10. The greedy
  // adaptive adversary should not be able to push the average above that.
  TwoProcessProtocol protocol;
  RunningStats steps;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    DecisionAvoidingAdversary adversary(seed * 3 + 1);
    const auto r = run_protocol(protocol, {0, 1}, adversary, seed, 100000);
    ASSERT_TRUE(r.all_decided);
    steps.add(static_cast<double>(r.steps_per_process[0]));
    steps.add(static_cast<double>(r.steps_per_process[1]));
  }
  EXPECT_LE(steps.mean(), 10.0 + steps.ci95_halfwidth());
}

TEST(TwoProcess, TerminationTailDecaysGeometrically) {
  // Theorem 7's proof establishes success probability >= 1/4 per read-write
  // pair, i.e. P[P_i undecided after k+2 of its steps] <= (3/4)^{k/2}. (The
  // paper's statement says (1/4)^{k/2}, which contradicts its own proof and
  // its own corollary E <= 2 + 4*2; see EXPERIMENTS.md.) Empirically the
  // greedy adversary achieves ~(1/2)^{k/2}, inside the bound.
  TwoProcessProtocol protocol;
  Tally steps;
  for (std::uint64_t seed = 0; seed < 4000; ++seed) {
    DecisionAvoidingAdversary adversary(seed + 17);
    const auto r = run_protocol(protocol, {0, 1}, adversary, seed, 100000);
    ASSERT_TRUE(r.all_decided);
    steps.add(r.steps_per_process[0]);
  }
  // Spot-check the bound at k = 6 and k = 10 (own steps k+2 = 8, 12).
  EXPECT_LE(steps.tail_at_least(8 + 1), std::pow(0.75, 3.0) + 0.02);
  EXPECT_LE(steps.tail_at_least(12 + 1), std::pow(0.75, 5.0) + 0.02);
  // And that the tail really is geometric with a per-step ratio well below 1.
  EXPECT_LT(fit_geometric_tail_ratio(steps, /*k_min=*/4), 0.85);
}

TEST(TwoProcess, CrashOfOnePeerStillTerminates) {
  // The paper tolerates t = n-1 crashes.
  TwoProcessProtocol protocol;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    RandomScheduler inner(seed);
    CrashingScheduler sched(inner, {{3, 1}});  // P1 dies after 3 steps
    const auto r = run_protocol(protocol, {0, 1}, sched, seed, 10000);
    EXPECT_NE(r.decisions[0], kNoValue) << "survivor must decide, seed " << seed;
  }
}

TEST(TwoProcess, MultiValuedInputsWorkToo) {
  // With two processors the Figure 1 protocol is value-agnostic.
  TwoProcessProtocol protocol(/*max_value=*/41);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto r = run_random(protocol, {7, 41}, seed);
    ASSERT_TRUE(r.all_decided);
    EXPECT_TRUE(r.decisions[0] == 7 || r.decisions[0] == 41);
    EXPECT_EQ(r.decisions[0], r.decisions[1]);
  }
}

TEST(TwoProcess, DecidedValueIsAlwaysSomeInput) {
  TwoProcessProtocol protocol;
  for (const auto& inputs : all_binary_inputs(2)) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      const auto r = run_random(protocol, inputs, seed);
      ASSERT_TRUE(r.all_decided);
      EXPECT_TRUE(r.decisions[0] == inputs[0] || r.decisions[0] == inputs[1]);
    }
  }
}

TEST(TwoProcess, ScheduleReplayReproducesRun) {
  TwoProcessProtocol protocol;
  SimOptions options;
  options.seed = 99;
  options.record_schedule = true;
  Simulation sim(protocol, {0, 1}, options);
  RandomScheduler sched(5);
  const auto r1 = sim.run(sched);
  ASSERT_TRUE(r1.all_decided);

  // Same seed (same coins) + same schedule => identical outcome.
  Simulation sim2(protocol, {0, 1}, options);
  ReplayScheduler replay(r1.schedule);
  const auto r2 = sim2.run(replay);
  EXPECT_EQ(r1.decisions, r2.decisions);
  EXPECT_EQ(r1.total_steps, r2.total_steps);
}

TEST(TwoProcess, CloneIsDeepAndStateEncodingDistinguishes) {
  TwoProcessProtocol protocol;
  auto p = protocol.make_process(0);
  p->init(1);
  auto q = p->clone();
  EXPECT_EQ(p->encode_state(), q->encode_state());

  RegisterFile regs = protocol.make_registers();
  Rng rng(1);
  struct TestCoins final : CoinSource {
    bool flip() override { return false; }
  } coins;
  DirectStepContext ctx(regs, 0, coins);
  p->step(ctx);  // p writes its input
  EXPECT_NE(p->encode_state(), q->encode_state());
}

}  // namespace
}  // namespace cil

namespace cil {
namespace {

// --- the paper's literal "one bit shared register per processor" claim ---

TwoProcessProtocol one_bit_protocol(Value in0, Value in1) {
  TwoProcessProtocol::Options options;
  options.preinitialized_registers = true;
  TwoProcessProtocol protocol(1, options);
  protocol.preset_inputs(in0, in1);
  return protocol;
}

TEST(TwoProcessOneBit, RegistersAreExactlyOneBit) {
  const auto protocol = one_bit_protocol(0, 1);
  for (const auto& spec : protocol.registers()) {
    EXPECT_EQ(spec.width_bits, 1);
  }
}

TEST(TwoProcessOneBit, RequiresPresetInputs) {
  TwoProcessProtocol::Options options;
  options.preinitialized_registers = true;
  TwoProcessProtocol protocol(1, options);
  EXPECT_THROW(protocol.registers(), ContractViolation);
}

// NOTE on nontriviality: with preinitialized registers a processor can
// adopt its peer's VISIBLE input before the peer ever takes a step, so the
// paper's strong form ("input of a processor ACTIVATED in the run") no
// longer holds — only the weaker validity (input of some processor) does.
// That is precisely what the ⊥ initialization buys, at the cost of the
// extra bit; the engine's activated-nontriviality check is therefore
// disabled for this variant (consistency stays checked).

SimResult run_one_bit(const TwoProcessProtocol& protocol,
                      const std::vector<Value>& inputs, Scheduler& sched,
                      std::uint64_t seed, std::int64_t max_steps = 1000000) {
  SimOptions options;
  options.seed = seed;
  options.max_total_steps = max_steps;
  options.check_nontriviality = false;
  Simulation sim(protocol, inputs, options);
  return sim.run(sched);
}

TEST(TwoProcessOneBit, MixedInputsAlwaysAgreeOnSomeInput) {
  const auto protocol = one_bit_protocol(0, 1);
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    RandomScheduler sched(seed ^ 0xabc);
    const auto r = run_one_bit(protocol, {0, 1}, sched, seed);
    ASSERT_TRUE(r.all_decided) << "seed " << seed;
    EXPECT_EQ(r.decisions[0], r.decisions[1]);
    EXPECT_TRUE(r.decisions[0] == 0 || r.decisions[0] == 1);  // validity
  }
}

TEST(TwoProcessOneBit, AdaptiveAdversaryStillLoses) {
  const auto protocol = one_bit_protocol(1, 0);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    DecisionAvoidingAdversary adversary(seed + 3);
    const auto r = run_one_bit(protocol, {1, 0}, adversary, seed, 20000);
    ASSERT_TRUE(r.all_decided) << "seed " << seed;
  }
}

TEST(TwoProcessOneBit, ExhaustivelyConsistent) {
  // Full closure of the one-bit variant, checked by the model checker.
  const auto protocol = one_bit_protocol(0, 1);
  const auto r = explore(protocol, {0, 1});
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.consistent) << r.violation;
  EXPECT_TRUE(r.valid) << r.violation;
}

TEST(TwoProcessOneBit, ExactWorstCaseStillWithinTen) {
  // Dropping the initial write removes 1 step from the corollary's budget;
  // the exact worst case must still be <= 10 (in fact <= 9).
  const auto protocol = one_bit_protocol(0, 1);
  const auto mdp = worst_case_expected_steps(protocol, {0, 1}, 0);
  EXPECT_TRUE(mdp.converged);
  EXPECT_LE(mdp.expected_steps, 9.0 + 1e-9);
}

TEST(TwoProcessOneBit, SoloRunDecides) {
  // P1 never moves: P0 reads P1's (preinitialized) input; if it differs it
  // converges to it via the coin. Wait-freedom is preserved without the
  // ⊥ arm — and this is exactly the execution that breaks ACTIVATED
  // nontriviality (P0 decides P1's input though P1 never took a step).
  const auto protocol = one_bit_protocol(0, 1);
  StarvingScheduler sched({1}, 5);
  const auto r = run_one_bit(protocol, {0, 1}, sched, 3, 1000);
  EXPECT_NE(r.decisions[0], kNoValue);
  EXPECT_EQ(r.decisions[0], 1);  // must converge to P1's visible input
}

}  // namespace
}  // namespace cil
