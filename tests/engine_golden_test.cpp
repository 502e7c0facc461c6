// Seed-equivalence goldens: replay every line of
// tests/data/engine_goldens.txt (captured from the pre-flattening engine by
// tools/goldengen) and assert the current engine reproduces it bit-for-bit —
// total steps, recoveries, max register width, per-process decisions, and
// the exact pid schedule. Any change to PRNG-consumption order anywhere in
// the hot path (Simulation, RegisterFile, enumerate_step, the schedulers,
// the adversary score cache, fault hooks) shows up here as a diff.
//
// If a behavior change is INTENTIONAL, regenerate with
//   ./build/tools/goldengen > tests/data/engine_goldens.txt
// and say so in the commit message.
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bounded_three.h"
#include "core/two_process.h"
#include "core/unbounded.h"
#include "fault/fault_plan.h"
#include "fault/sim_faults.h"
#include "sched/adversary.h"
#include "sched/lane_engine.h"
#include "sched/schedulers.h"
#include "sched/simulation.h"
#include "util/simd.h"

namespace cil {
namespace {

#ifndef CIL_GOLDENS_PATH
#define CIL_GOLDENS_PATH "tests/data/engine_goldens.txt"
#endif

std::string format_run(const std::string& name, std::uint64_t seed,
                       const SimResult& r) {
  std::ostringstream os;
  os << name << " seed=" << seed << " total=" << r.total_steps
     << " recoveries=" << r.recoveries << " bits=" << r.max_register_bits
     << " dec=";
  for (std::size_t i = 0; i < r.decisions.size(); ++i)
    os << (i == 0 ? "" : ",") << r.decisions[i];
  os << " sched=";
  for (std::size_t i = 0; i < r.schedule.size(); ++i)
    os << (i == 0 ? "" : ",") << r.schedule[i];
  return os.str();
}

SimOptions base_options(std::uint64_t seed) {
  SimOptions options;
  options.seed = seed;
  options.max_total_steps = 200'000;
  options.record_schedule = true;
  return options;
}

std::unique_ptr<Protocol> case_protocol(const std::string& proto) {
  if (proto == "two") return std::make_unique<TwoProcessProtocol>();
  if (proto == "unbounded3") return std::make_unique<UnboundedProtocol>(3);
  if (proto == "unbounded4") return std::make_unique<UnboundedProtocol>(4);
  if (proto == "bounded3") return std::make_unique<BoundedThreeProtocol>();
  return nullptr;
}

std::vector<Value> case_inputs(const std::string& proto) {
  if (proto == "two") return {0, 1};
  if (proto == "unbounded3") return {0, 1, 0};
  if (proto == "unbounded4") return {0, 1, 1, 0};
  return {1, 0, 1};  // bounded3
}

/// The lane-representable crash/recovery plans of the two/crashrec* cases
/// (seed left at its default: it only drives register-fault coins, which
/// these plans don't use, so one shared plan serves every golden seed).
const fault::FaultPlan* plan_for_case(const std::string& name) {
  static const fault::FaultPlan crashrec = [] {
    fault::FaultPlan p;
    p.crashes.push_back({0, 2});
    p.recoveries.push_back({0, 8});
    return p;
  }();
  static const fault::FaultPlan crashrec_late = [] {
    fault::FaultPlan p;
    p.crashes.push_back({1, 3});
    p.recoveries.push_back({1, 48});
    return p;
  }();
  if (name == "two/crashrec") return &crashrec;
  if (name == "two/crashrec-late") return &crashrec_late;
  return nullptr;
}

/// Rebuild the run a golden line names — must mirror tools/goldengen.cpp
/// case for case.
SimResult run_case_scalar(const std::string& name, std::uint64_t seed) {
  const std::string proto = name.substr(0, name.find('/'));
  const std::string kind = name.substr(name.find('/') + 1);
  const std::unique_ptr<Protocol> protocol = case_protocol(proto);
  if (protocol == nullptr) {
    ADD_FAILURE() << "golden corpus names unknown case: " << name;
    return {};
  }
  const std::vector<Value> inputs = case_inputs(proto);

  if (kind == "random" || kind == "adversary") {
    std::unique_ptr<Scheduler> sched;
    if (kind == "random")
      sched = std::make_unique<RandomScheduler>(seed ^ 0x1234);
    else
      sched = std::make_unique<DecisionAvoidingAdversary>(seed + 17);
    Simulation sim(*protocol, inputs, base_options(seed));
    return sim.run(*sched);
  }
  if (name == "unbounded3/split") {
    SplitKeepingAdversary sched(seed + 3, &UnboundedProtocol::unpack_pref);
    Simulation sim(*protocol, inputs, base_options(seed));
    return sim.run(sched);
  }
  if (name == "unbounded3/faults+adversary") {
    fault::RegisterFaultConfig config;
    config.stale_prob = 0.2;
    config.stale_depth = 2;
    config.delay_prob = 0.1;
    config.delay_window = 2;
    Simulation sim(*protocol, inputs, base_options(seed));
    fault::SimRegisterFaults hook(config, seed ^ 0xfa, sim.regs().size());
    sim.mutable_regs().set_fault_hook(&hook);
    DecisionAvoidingAdversary sched(seed + 5);
    return sim.run(sched);
  }
  if (name == "unbounded4/crash+recovery") {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.crashes.push_back({1, 3});
    plan.crashes.push_back({2, 5});
    plan.recoveries.push_back({1, 40});
    plan.stalls.push_back({0, 2, 6});
    Simulation sim(*protocol, inputs, base_options(seed));
    RandomScheduler inner(seed ^ 0x77);
    fault::FaultPlanScheduler sched(inner, plan);
    return sim.run(sched);
  }
  if (const fault::FaultPlan* plan = plan_for_case(name)) {
    Simulation sim(*protocol, inputs, base_options(seed));
    RandomScheduler inner(seed ^ 0x77);
    fault::FaultPlanScheduler sched(inner, *plan);
    return sim.run(sched);
  }
  ADD_FAILURE() << "golden corpus names unknown case: " << name;
  return {};
}

std::string replay_case(const std::string& name, std::uint64_t seed) {
  return format_run(name, seed, run_case_scalar(name, seed));
}

/// Lane-engine options that reproduce a golden case: the built-in spec
/// kinds for random/adversary lines (exercising the bitsliced lockstep
/// kernel for two/random and the pooled-scheduler fallback for the rest), a
/// shared FaultPlan for the two/crashrec* lines (exercising the lockstep
/// kernel's fault planes), and a custom scalar_run for the exotic rigs
/// (split adversary, register faults, multi-process fault plans) —
/// exercising the kCustom divergence arm. Every line records its schedule,
/// so the lockstep kernel runs its <kRecordSchedule = true> arms here.
LaneRunOptions lane_case_options(const std::string& name, int lanes) {
  const std::string kind = name.substr(name.find('/') + 1);
  LaneRunOptions lo;
  lo.lanes = lanes;
  lo.max_total_steps = 200'000;
  lo.record_schedule = true;
  if (kind == "random") {
    lo.sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  } else if (kind == "adversary") {
    lo.sched = {LaneSchedSpec::Kind::kAvoid, 0, 17};
  } else if (const fault::FaultPlan* plan = plan_for_case(name)) {
    lo.sched = {LaneSchedSpec::Kind::kRandom, 0x77, 0};
    lo.fault_plan = plan;
  } else {
    lo.scalar_run = [name](std::uint64_t s) { return run_case_scalar(name, s); };
  }
  return lo;
}

TEST(EngineGolden, ReplaysEveryCorpusLineBitForBit) {
  std::ifstream is(CIL_GOLDENS_PATH);
  ASSERT_TRUE(is) << "cannot open " << CIL_GOLDENS_PATH;
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    // "name seed=N ..." — everything needed to rebuild the run.
    const std::size_t sp = line.find(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string name = line.substr(0, sp);
    unsigned long long seed = 0;
    ASSERT_EQ(std::sscanf(line.c_str() + sp, " seed=%llu", &seed), 1) << line;
    EXPECT_EQ(replay_case(name, seed), line) << "golden mismatch: " << name
                                             << " seed=" << seed;
  }
  // The corpus covers all three core protocols, both adaptive adversaries,
  // register faults, and crash+recovery; a truncated file must not pass.
  EXPECT_GE(lines, 50);
}

// The lane-vs-scalar pin: every corpus case, run through the lane engine at
// W in {1, 4, 5, 8, 63, 64} and every compiled-in SIMD width this host can
// execute, produces byte-identical formatted runs per lane — total steps,
// recoveries, max register bits, decisions, and the exact schedule —
// against a freshly-built scalar Simulation of the same seed. Each width
// sweeps more runs than lanes, so the lockstep kernel's harvest-and-refill
// path (a finished lane reloading the next seed mid-round) is pinned too,
// up to plane bit 63 at W = 64. W = 5 and 63 are not multiples of the
// vector widths, so their runs cross the seam between the vector chunks
// and the scalar tail lanes of the PRNG kernels. Every divergence arm is
// exercised:
// two/random takes the bitsliced lockstep kernel, two/crashrec* its fault
// arm, adversary lines the pooled-scheduler fallback, the exotic rigs the
// custom scalar_run fallback.
TEST(EngineGolden, LaneEngineMatchesScalarPerLaneAtEveryWidth) {
  std::ifstream is(CIL_GOLDENS_PATH);
  ASSERT_TRUE(is) << "cannot open " << CIL_GOLDENS_PATH;
  std::vector<int> simd_widths;
  for (const int w : {1, 2, 4})
    if (w <= simd::runtime_max_width()) simd_widths.push_back(w);
  std::string line;
  int soa_cases = 0, fault_soa_cases = 0, fallback_cases = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::size_t sp = line.find(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string name = line.substr(0, sp);
    unsigned long long seed = 0;
    ASSERT_EQ(std::sscanf(line.c_str() + sp, " seed=%llu", &seed), 1) << line;

    const std::string proto = name.substr(0, name.find('/'));
    const std::unique_ptr<Protocol> protocol = case_protocol(proto);
    ASSERT_NE(protocol, nullptr) << name;
    const std::vector<Value> inputs = case_inputs(proto);

    for (const int lanes : {1, 4, 5, 8, 63, 64}) {
      LaneEngine engine(*protocol, inputs);
      const bool soa = engine.soa_supported(lane_case_options(name, lanes));
      if (soa) {
        ++soa_cases;
        if (plan_for_case(name) != nullptr) ++fault_soa_cases;
      } else {
        ++fallback_cases;
      }
      // Fallback arms never touch the vector kernels, so sweeping widths
      // there would replay identical work; one pass suffices.
      const std::vector<int> widths =
          soa ? simd_widths : std::vector<int>{0};
      for (const int width : widths) {
        LaneRunOptions lo = lane_case_options(name, lanes);
        lo.simd_width = width;
        // lanes + 3 runs: every lane starts once and at least three lanes
        // refill, so harvest order != seed order for W > 1.
        const std::int64_t runs = lanes + 3;
        const std::vector<SimResult> results =
            engine.run_collect(seed, runs, lo);
        ASSERT_EQ(static_cast<std::int64_t>(results.size()), runs);
        for (std::int64_t j = 0; j < runs; ++j) {
          const std::uint64_t s = seed + static_cast<std::uint64_t>(j);
          EXPECT_EQ(format_run(name, s, results[static_cast<std::size_t>(j)]),
                    replay_case(name, s))
              << "lane mismatch: " << name << " seed=" << s << " W=" << lanes
              << " simd=" << width;
        }
      }
    }
  }
  // two/random lines take the lockstep kernel, two/crashrec* its fault arm,
  // and everything else a fallback arm. All three must appear, or the pin
  // is vacuous.
  EXPECT_GT(soa_cases, 0);
  EXPECT_GT(fault_soa_cases, 0);
  EXPECT_GT(fallback_cases, 0);
}

}  // namespace
}  // namespace cil
