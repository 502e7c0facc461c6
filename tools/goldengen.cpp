// goldengen — regenerates tests/data/engine_goldens.txt, the seed-equivalence
// corpus for the simulation engine.
//
// Each line is one fully-determined run (protocol, scheduler, seed) with its
// recorded schedule and outcome. engine_golden_test.cpp replays every line
// and asserts the engine reproduces it bit-for-bit: total steps, per-process
// decisions, max register width, recovery count, and the exact pid sequence.
//
// The corpus pins the engine's PRNG-consumption order — including the
// adversary-lookahead interaction with register fault hooks — so hot-path
// refactors of Simulation/RegisterFile/enumerate_step cannot silently change
// scheduling or decisions for a fixed seed. Regenerate ONLY when such a
// change is intentional (and say so in the commit):
//
//   ./build/tools/goldengen > tests/data/engine_goldens.txt
#include <cstdio>
#include <string>

#include "core/bounded_three.h"
#include "core/two_process.h"
#include "core/unbounded.h"
#include "fault/fault_plan.h"
#include "fault/sim_faults.h"
#include "sched/adversary.h"
#include "sched/schedulers.h"
#include "sched/simulation.h"

using namespace cil;

namespace {

void print_run(const std::string& name, std::uint64_t seed, Simulation& sim,
               Scheduler& sched) {
  const SimResult r = sim.run(sched);
  std::printf("%s seed=%llu total=%lld recoveries=%lld bits=%d dec=",
              name.c_str(), static_cast<unsigned long long>(seed),
              static_cast<long long>(r.total_steps),
              static_cast<long long>(r.recoveries), r.max_register_bits);
  for (std::size_t i = 0; i < r.decisions.size(); ++i)
    std::printf("%s%d", i == 0 ? "" : ",", r.decisions[i]);
  std::printf(" sched=");
  for (std::size_t i = 0; i < r.schedule.size(); ++i)
    std::printf("%s%d", i == 0 ? "" : ",", r.schedule[i]);
  std::printf("\n");
}

SimOptions base_options(std::uint64_t seed) {
  SimOptions options;
  options.seed = seed;
  options.max_total_steps = 200'000;
  options.record_schedule = true;
  return options;
}

void plain_runs(const std::string& name, const Protocol& protocol,
                const std::vector<Value>& inputs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    {
      Simulation sim(protocol, inputs, base_options(seed));
      RandomScheduler sched(seed ^ 0x1234);
      print_run(name + "/random", seed, sim, sched);
    }
    {
      Simulation sim(protocol, inputs, base_options(seed));
      DecisionAvoidingAdversary sched(seed + 17);
      print_run(name + "/adversary", seed, sim, sched);
    }
  }
}

}  // namespace

int main() {
  plain_runs("two", TwoProcessProtocol(), {0, 1});
  plain_runs("unbounded3", UnboundedProtocol(3), {0, 1, 0});
  plain_runs("bounded3", BoundedThreeProtocol(), {1, 0, 1});

  // The split-keeping adversary consumes lookahead differently (register
  // preference scans), so pin it separately on the unbounded protocol.
  UnboundedProtocol unbounded3(3);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Simulation sim(unbounded3, {0, 1, 0}, base_options(seed));
    SplitKeepingAdversary sched(seed + 3, &UnboundedProtocol::unpack_pref);
    print_run("unbounded3/split", seed, sim, sched);
  }

  // Register fault hook + adaptive adversary: the lookahead runs inside
  // enumerate_step consult the live hook, so this case pins the exact
  // hook-interaction order of the lookahead path as well.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    fault::RegisterFaultConfig config;
    config.stale_prob = 0.2;
    config.stale_depth = 2;
    config.delay_prob = 0.1;
    config.delay_window = 2;
    Simulation sim(unbounded3, {0, 1, 0}, base_options(seed));
    fault::SimRegisterFaults hook(config, seed ^ 0xfa, sim.regs().size());
    sim.mutable_regs().set_fault_hook(&hook);
    DecisionAvoidingAdversary sched(seed + 5);
    print_run("unbounded3/faults+adversary", seed, sim, sched);
  }

  // Crash + delayed recovery through a FaultPlan: pins crash bookkeeping,
  // the idle-clock wait for a pending recovery, and Protocol::recover.
  UnboundedProtocol unbounded4(4);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.crashes.push_back({1, 3});
    plan.crashes.push_back({2, 5});
    plan.recoveries.push_back({1, 40});
    plan.stalls.push_back({0, 2, 6});
    Simulation sim(unbounded4, {0, 1, 1, 0}, base_options(seed));
    RandomScheduler inner(seed ^ 0x77);
    fault::FaultPlanScheduler sched(inner, plan);
    print_run("unbounded4/crash+recovery", seed, sim, sched);
  }

  // Two-process crash/recovery plans in the lane-representable subset (one
  // crash, one matching recovery, no stalls or register faults): the same
  // lines replay through BOTH engines in engine_golden_test, pinning the
  // bitsliced lockstep kernel's fault arm against the scalar event loop.
  TwoProcessProtocol two;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.crashes.push_back({0, 2});
    plan.recoveries.push_back({0, 8});
    Simulation sim(two, {0, 1}, base_options(seed));
    RandomScheduler inner(seed ^ 0x77);
    fault::FaultPlanScheduler sched(inner, plan);
    print_run("two/crashrec", seed, sim, sched);
  }
  // A late recovery that often lands after both processes decide: pins the
  // end-of-run subtlety where a pending recovery idles the clock (and can
  // still fire, or be swallowed) before the run concludes.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.crashes.push_back({1, 3});
    plan.recoveries.push_back({1, 48});
    Simulation sim(two, {0, 1}, base_options(seed));
    RandomScheduler inner(seed ^ 0x77);
    fault::FaultPlanScheduler sched(inner, plan);
    print_run("two/crashrec-late", seed, sim, sched);
  }
  return 0;
}
