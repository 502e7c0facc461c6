// Experiment X1/X8/X9 (DESIGN.md §3, EXPERIMENTS.md): the n-processor
// generalization the paper defers to its full version ("expected run-time is
// polynomial in n, even in the presence of an adaptive adversary scheduler")
// and the crash claim ("fail/stop type errors of up to all but one of the
// system processors").
//
// We sweep n — into the thousands since pooled simulations and the O(active)
// crash bookkeeping (X9) — and print expected steps per processor under a
// benign and an adaptive adversary schedule, and with n-1 staggered crashes.
// The shape to check: growth stays polynomial (the fitted log-log slope is
// printed). Run counts shrink with n so the whole sweep stays inside a CI
// smoke budget; the split-keeping adversary's runs grow super-polynomially
// and its series stops at n = 8, and the adaptive adversary's O(active)
// lookahead per pick stops its series at n = 1024. Per-series throughput and
// batch rates go into the run-report (wall.<series>.n<k>.*,
// batch.<series>.n<k>.*) — that is what the perf gate watches.
#include <cmath>
#include <memory>

#include "bench/bench_util.h"
#include "core/unbounded.h"
#include "sched/adversary.h"
#include "sched/schedulers.h"
#include "util/stats.h"

using namespace cil;
using namespace cil::bench;

namespace {

// Run counts per series, scaled down as runs get longer (steps/run grows
// ~ n^2.3). The n <= 8 counts are the historical ones, so the deterministic
// mean_steps.* report values stay comparable across engine versions.
std::uint64_t runs_random(int n) {
  if (n <= 8) return 3000;
  if (n <= 16) return 400;
  if (n <= 32) return 100;
  if (n <= 64) return 30;
  if (n <= 128) return 8;
  if (n <= 256) return 3;
  if (n <= 512) return 2;
  return 1;  // n = 1024 and the 4096 headline row
}

std::uint64_t runs_adaptive(int n) {
  if (n <= 8) return 600;
  if (n <= 16) return 40;
  if (n <= 32) return 10;
  if (n <= 64) return 4;
  if (n <= 128) return 2;
  return 1;
}

// The n <= 256 caps are the historical 5M (the gated mean_steps.* values
// depend on them); the new thousand-scale rows need room for ~n^2.3 steps
// (n = 4096 random runs take ~5e8 steps).
std::int64_t step_cap(int n) { return n <= 256 ? 5'000'000 : 2'000'000'000; }

}  // namespace

int main() {
  const std::vector<int> sizes = {2,  3,  4,   5,   6,   8,    16,
                                  32, 64, 128, 256, 512, 1024, 4096};
  BenchReport report("bench_n_scaling");
  report.set_meta("protocol", "unbounded");
  report.set_meta("experiment", "X1/X8/X9");

  header("X1/X8/X9: expected total steps vs n (Figure 2 generalized)");
  row({"n", "random sched", "adaptive adv", "split-keeping", "crash n-1",
       "rand Msteps/s"},
      16);
  std::vector<double> ns, steps_random;
  std::vector<Value> inputs;
  inputs.reserve(sizes.back());
  StepTimer whole_sweep;
  const int threads = bench_threads();
  for (const int n : sizes) {
    UnboundedProtocol protocol(n);
    inputs.clear();
    for (int i = 0; i < n; ++i) inputs.push_back(i % 2);

    BatchRunner batch(protocol, inputs);
    BatchOptions opts;
    opts.first_seed = 0;
    opts.threads = threads;
    opts.max_total_steps = step_cap(n);
    const std::string suffix = ".n" + std::to_string(n);

    opts.num_runs = static_cast<std::int64_t>(runs_random(n));
    const BatchSummary rb = batch.run(opts, [] {
      auto s = std::make_shared<RandomScheduler>(0);
      return [s](std::uint64_t seed) -> Scheduler& {
        s->reseed(seed ^ 0x5);
        return *s;
      };
    });
    whole_sweep.add_steps(rb.total_steps);

    // The identical random sweep armed by a LaneSchedSpec instead of a
    // factory. The lockstep kernel is two-process-only, so every run here takes
    // the lane engine's per-seed path — the row pins that the spec costs
    // nothing where the kernel cannot engage. Capped at n <= 256 (the
    // historical 5M-step region) to stay inside the CI smoke budget.
    if (n <= 256) {
      opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x5, 0};
      const BatchSummary lb = batch.run(opts, nullptr);
      whole_sweep.add_steps(lb.total_steps);
      add_lane_batch_report(report, "random" + suffix, lb);
    }

    // The adaptive adversary scores every active process per pick — O(n)
    // per step on top of the ~n^2.3 steps — so its series stops at 1024.
    BatchSummary ab;
    if (n <= 1024) {
      opts.num_runs = static_cast<std::int64_t>(runs_adaptive(n));
      ab = batch.run(opts, [] {
        auto s = std::make_shared<DecisionAvoidingAdversary>(0);
        return [s](std::uint64_t seed) -> Scheduler& {
          s->reseed(seed + 3);
          return *s;
        };
      });
      whole_sweep.add_steps(ab.total_steps);
    }

    BatchSummary sb;
    if (n <= 8) {
      // Split-keeping run length explodes super-polynomially (it is designed
      // to stall the system); the series exists to show that, not to scale.
      opts.num_runs = 600;
      sb = batch.run(opts, [] {
        auto s = std::make_shared<SplitKeepingAdversary>(
            0, &UnboundedProtocol::unpack_pref);
        return [s](std::uint64_t seed) -> Scheduler& {
          s->reseed(seed + 7);
          return *s;
        };
      });
      whole_sweep.add_steps(sb.total_steps);
    }

    opts.num_runs = static_cast<std::int64_t>(runs_random(n));
    const BatchSummary cb = batch.run(opts, [n] {
      // The provider owns the inner random scheduler AND the crash wrapper
      // (which holds a reference to it), re-armed together per seed.
      struct CrashRig {
        RandomScheduler inner{0};
        CrashingScheduler sched{inner, {}};
        std::vector<std::pair<std::int64_t, ProcessId>> plan;
      };
      auto rig = std::make_shared<CrashRig>();
      rig->plan.reserve(static_cast<std::size_t>(n - 1));
      return [rig, n](std::uint64_t seed) -> Scheduler& {
        rig->inner.reseed(seed ^ 0x9);
        rig->plan.clear();
        for (ProcessId p = 1; p < n; ++p)
          rig->plan.emplace_back(4 * p + static_cast<std::int64_t>(seed % 7),
                                 p);
        rig->sched.set_plan(rig->plan);
        return rig->sched;
      };
    });
    whole_sweep.add_steps(cb.total_steps);

    ns.push_back(std::log(static_cast<double>(n)));
    steps_random.push_back(std::log(rb.steps.mean()));
    row({fmt_int(n), fmt(rb.steps.mean(), 1),
         n <= 1024 ? fmt(ab.steps.mean(), 1) : "-",
         n <= 8 ? fmt(sb.steps.mean(), 1) : "-",
         fmt(cb.steps.mean(), 1),
         fmt(static_cast<double>(rb.total_steps) / rb.wall_seconds / 1e6, 2)},
        16);
    report.set_value("mean_steps.random" + suffix, rb.steps.mean());
    if (n <= 1024)
      report.set_value("mean_steps.adaptive" + suffix, ab.steps.mean());
    if (n <= 8) report.set_value("mean_steps.split" + suffix, sb.steps.mean());
    report.set_value("mean_steps.crash" + suffix, cb.steps.mean());
    add_batch_report(report, "random" + suffix, rb);
    if (n <= 1024) add_batch_report(report, "adaptive" + suffix, ab);
  }
  report.add_throughput("sweep", whole_sweep);

  // Least-squares slope of log(steps) vs log(n): the polynomial degree.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double m = static_cast<double>(ns.size());
  for (std::size_t i = 0; i < ns.size(); ++i) {
    sx += ns[i];
    sy += steps_random[i];
    sxx += ns[i] * ns[i];
    sxy += ns[i] * steps_random[i];
  }
  const double slope = (m * sxy - sx * sy) / (m * sxx - sx * sx);
  report.set_value("loglog_slope.random", slope);
  std::printf(
      "\nfitted log-log slope (random sched, n in [2, 4096]): %.2f  — steps ~"
      " n^%.2f (paper: polynomial in n)\n"
      "sweep throughput: %.2f Msteps/s over %lld steps in %.1f s"
      " (%d worker threads)\n\n",
      slope, slope, whole_sweep.steps_per_sec() / 1e6,
      static_cast<long long>(whole_sweep.steps()), whole_sweep.seconds(),
      threads);
  return 0;
}
