// Experiment F1/T6/T7/C7 (DESIGN.md §3): the two-processor protocol of
// Figure 1.
//
// Reproduces:
//   * Theorem 6  — consistency, verified exhaustively over the full
//                  configuration space (not sampled);
//   * Theorem 7  — randomized termination against an adaptive adversary,
//                  with the decision-time tail compared against the bound
//                  (3/4)^{k/2} implied by the paper's proof (the paper's
//                  statement prints (1/4)^{k/2}, which contradicts its own
//                  corollary; see EXPERIMENTS.md);
//   * Corollary  — E[steps of P_i to decide] <= 10, checked two ways:
//                  empirically under three scheduler classes, and EXACTLY
//                  via the worst-case MDP solver (sup over ALL adaptive
//                  adversaries).
#include <cmath>
#include <memory>

#include "analysis/explorer.h"
#include "analysis/mdp.h"
#include "bench/bench_util.h"
#include "core/two_process.h"
#include "fault/fault_plan.h"
#include "sched/adversary.h"
#include "sched/schedulers.h"
#include "util/stats.h"

using namespace cil;
using namespace cil::bench;

namespace {

constexpr int kRuns = 20000;

// The random sweep, batched: pooled simulations (reset per seed) sharded
// across bench_threads() workers. The per-seed scheduler constructions match
// the historical serial loop exactly — RandomScheduler(seed ^ 0x1234),
// DecisionAvoidingAdversary(seed + 17) — via reseed() on a pooled instance,
// so the steps.* sample metrics are bit-identical to pre-batch baselines.
Tally measure(const TwoProcessProtocol& protocol, const char* scheduler_name,
              BenchReport* report = nullptr) {
  const std::string name = scheduler_name;
  SchedulerFactory factory;
  if (name == "round-robin") {
    factory = [] {
      auto s = std::make_shared<RoundRobinScheduler>();
      return [s](std::uint64_t) -> Scheduler& {
        s->reset();
        return *s;
      };
    };
  } else if (name == "random") {
    factory = [] {
      auto s = std::make_shared<RandomScheduler>(0);
      return [s](std::uint64_t seed) -> Scheduler& {
        s->reseed(seed ^ 0x1234);
        return *s;
      };
    };
  } else {
    factory = [] {
      auto s = std::make_shared<DecisionAvoidingAdversary>(0);
      return [s](std::uint64_t seed) -> Scheduler& {
        s->reseed(seed + 17);
        return *s;
      };
    };
  }

  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 0;
  opts.num_runs = kRuns;
  opts.threads = bench_threads();
  const BatchSummary b = batch.run(opts, factory);

  // Both processors' own-step counts, as the serial loop sampled them.
  Tally steps = b.steps_p0;
  steps.merge(b.steps_p1);
  if (report != nullptr) {
    add_batch_report(*report, scheduler_name, b);
    std::printf(
        "  [%s: %.0f runs/s on %d threads, %.1f us/run"
        " (construct %.0f ms, run %.0f ms)]\n",
        scheduler_name,
        static_cast<double>(b.num_runs) / b.wall_seconds, opts.threads,
        1e6 * b.wall_seconds / static_cast<double>(b.num_runs),
        1e3 * b.construct_seconds, 1e3 * b.run_seconds);
  }
  return steps;
}

// The same sweeps armed by a LaneSchedSpec instead of a factory, which
// lets the lane engine pick its kernel. The BatchSummary is bit-identical
// to measure()'s (pinned by batch_test's BatchLane suite), so only the
// rate changes — the random sweep takes the lockstep kernel, the adversary
// sweep the per-seed path (its rate shows the spec costs nothing when the
// kernel can't engage).
void measure_lane(const TwoProcessProtocol& protocol,
                  const char* scheduler_name, BenchReport& report) {
  const std::string name = scheduler_name;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 0;
  opts.num_runs = kRuns;
  opts.threads = bench_threads();
  opts.lanes = bench_lanes();
  opts.lane_sched = name == "random"
                        ? LaneSchedSpec{LaneSchedSpec::Kind::kRandom, 0x1234, 0}
                        : LaneSchedSpec{LaneSchedSpec::Kind::kAvoid, 0, 17};
  const BatchSummary b = batch.run(opts, nullptr);
  add_lane_batch_report(report, scheduler_name, b);
  std::printf(
      "  [%s engine=lane: %.0f runs/s on %d threads x %d lanes,"
      " %.2f us/run]\n",
      scheduler_name, static_cast<double>(b.num_runs) / b.wall_seconds,
      opts.threads, opts.lanes,
      1e6 * b.wall_seconds / static_cast<double>(b.num_runs));
}

// X14's crash series: the random sweep under a shared crash/recovery plan
// (P0 crashes at its 2nd step, recovers 8 ticks later), measured on both
// of the lane engine's paths. Its bitsliced lockstep kernel serves the plan
// through its fault planes — summaries stay bit-identical to the per-seed
// path (BatchLane.FaultSweepBitIdentity), so the lane_us_per_run /
// us_per_run ratio is the kernel's speedup under faults.
void measure_crash_series(const TwoProcessProtocol& protocol,
                          BenchReport& report) {
  fault::FaultPlan plan;
  plan.crashes.push_back({0, 2});
  plan.recoveries.push_back({0, 8});

  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 0;
  opts.num_runs = kRuns;
  opts.threads = bench_threads();
  opts.fault_plan = &plan;
  const auto factory = [] {
    auto s = std::make_shared<RandomScheduler>(0);
    return [s](std::uint64_t seed) -> Scheduler& {
      s->reseed(seed ^ 0x1234);
      return *s;
    };
  };
  const BatchSummary scalar = batch.run(opts, factory);
  add_batch_report(report, "crash-recovery", scalar);
  std::printf("  [crash-recovery: %.2f us/run scalar, %lld recoveries]\n",
              1e6 * scalar.wall_seconds / static_cast<double>(scalar.num_runs),
              static_cast<long long>(scalar.recoveries));

  opts.lanes = bench_lanes();
  opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  const BatchSummary lane = batch.run(opts, nullptr);
  add_lane_batch_report(report, "crash-recovery", lane);
  std::printf(
      "  [crash-recovery engine=lane: %.2f us/run on %d threads x %d lanes,"
      " simd_width=%d]\n",
      1e6 * lane.wall_seconds / static_cast<double>(lane.num_runs),
      opts.threads, opts.lanes, lane.simd_width);
}

}  // namespace

int main() {
  TwoProcessProtocol protocol;
  BenchReport report("bench_two_process");
  report.set_meta("protocol", "two_process");
  report.set_meta("experiment", "F1/T6/T7/C7");
  set_simd_meta(report);

  header("T6: consistency, exhaustively (full configuration-space closure)");
  {
    const auto r = explore(protocol, {0, 1});
    row({"configs", "transitions", "complete", "consistent", "valid"});
    row({fmt_int(r.num_configs), fmt_int(r.num_transitions),
         r.complete ? "yes" : "no", r.consistent ? "yes" : "NO",
         r.valid ? "yes" : "NO"});
  }

  header("C7: expected steps per processor (paper bound: <= 10)");
  summary_header("scheduler");
  for (const char* s : {"round-robin", "random", "adaptive-adversary"}) {
    const Tally steps = measure(protocol, s, &report);
    summary_row(s, steps);
    report.add_samples(std::string("steps.") + s, steps);
  }
  for (const char* s : {"random", "adaptive-adversary"})
    measure_lane(protocol, s, report);
  measure_crash_series(protocol, report);
  {
    // THE worst case: the argmax policy extracted from the MDP, run live.
    // Its sample mean converges to the exact supremum of 10 — the paper's
    // bound is achieved, not just approached.
    OptimalAdversary adversary(protocol, {0, 1}, /*tracked=*/0);
    Tally steps;
    for (std::uint64_t seed = 0; seed < kRuns; ++seed) {
      const auto r = run_once(protocol, {0, 1}, adversary, seed);
      steps.add(r.steps_per_process[0]);
    }
    summary_row("OPTIMAL (MDP policy)", steps);
    report.add_samples("steps.optimal-mdp", steps);
  }

  header("C7 exact: sup over ALL adaptive adversaries (MDP value iteration)");
  {
    const auto mdp = worst_case_expected_steps(protocol, {0, 1}, 0);
    const auto total = worst_case_expected_total_steps(protocol, {0, 1});
    report.set_value("mdp.expected_steps", mdp.expected_steps);
    report.set_value("mdp.expected_total_steps", total.expected_steps);
    row({"states", "exact E[steps]", "paper bound", "within bound"});
    row({fmt_int(mdp.num_states), fmt(mdp.expected_steps, 6), "10",
         mdp.expected_steps <= 10.0 ? "yes" : "NO"});
    row({"", "exact E[total]", fmt(total.expected_steps, 6),
         "(both processors done)"});
  }

  header("T7: decision-time tail — exact worst case vs measured vs bounds");
  {
    const Tally steps = measure(protocol, "adaptive-adversary");
    const auto exact = worst_case_tail(protocol, {0, 1}, 0, 14);
    row({"own steps k+2", "exact sup", "greedy adv", "(3/4)^{k/2}",
         "(1/4)^{k/2}"});
    for (const int k : {2, 4, 6, 8, 10, 12}) {
      row({fmt_int(k + 2), fmt(exact[k + 2], 5),
           fmt(steps.tail_at_least(k + 3), 5),
           fmt(std::pow(0.75, k / 2.0), 5), fmt(std::pow(0.25, k / 2.0), 5)});
    }
    const double fit = fit_geometric_tail_ratio(steps, 4);
    report.add_samples("steps.theorem7-tail", steps);
    report.set_value("theorem7.fit_ratio", fit);
    std::printf(
        "The exact supremum EQUALS (3/4)^{k/2}: the proof's bound is tight"
        "\nand the paper's stated (1/4)^{k/2} is a typo. The greedy adversary"
        "\n(fit ratio %.3f/step) is measurably weaker than optimal.\n",
        fit);
  }

  std::printf("\n");
  return 0;
}
