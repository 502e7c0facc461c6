// Experiment F2/T8/T9 (DESIGN.md §3): the unbounded-register protocol of
// Figure 2, n = 3.
//
// Reproduces:
//   * Theorem 8 — consistency (a finished bench run IS the certificate:
//     every simulation checks it online), plus a bounded model check;
//   * Theorem 9 — P[num reaches k] <= (3/4)^k: we print the measured
//     survival of the maximum num field against the bound, under both a
//     benign scheduler and the split-keeping adaptive adversary (which
//     attacks exactly the quantity Theorem 9 bounds);
//   * corollary — expected running time is a small constant; we also print
//     the high-water register width: "unbounded" registers that never get
//     big is the paper's point.
#include <algorithm>
#include <cmath>
#include <memory>

#include "analysis/explorer.h"
#include "bench/bench_util.h"
#include "core/swsr_unbounded.h"
#include "core/unbounded.h"
#include "sched/adversary.h"
#include "sched/schedulers.h"
#include "util/stats.h"

using namespace cil;
using namespace cil::bench;

int main() {
  UnboundedProtocol protocol(3);
  constexpr int kRuns = 30000;
  BenchReport report("bench_three_unbounded");
  report.set_meta("protocol", "unbounded");
  report.set_meta("experiment", "F2/T8/T9");

  header("T8: consistency (bounded model check to depth 14 + 30k checked runs)");
  {
    ExploreOptions options;
    options.max_depth = 14;
    const auto r = explore(protocol, {0, 1, 0}, options);
    row({"configs", "consistent", "valid"});
    row({fmt_int(r.num_configs), r.consistent ? "yes" : "NO",
         r.valid ? "yes" : "NO"});
  }

  header("T9: P[max num >= k] vs (3/4)^{k-1}   (num starts at 1)");
  // The probe reads the pooled Simulation's final registers on the worker
  // thread, right after each run — the num-field high-water mark Theorem 9
  // bounds. It is stateless, as BatchRunner requires.
  const RunProbe max_num_probe = [](const Simulation& sim, const SimResult&) {
    std::int64_t m = 0;
    for (RegisterId reg = 0; reg < 3; ++reg)
      m = std::max(m, UnboundedProtocol::unpack_num(sim.regs().peek(reg)));
    return m;
  };
  for (const bool adversarial : {false, true}) {
    SchedulerFactory factory;
    if (adversarial) {
      factory = [] {
        auto s = std::make_shared<SplitKeepingAdversary>(
            0, &UnboundedProtocol::unpack_pref);
        return [s](std::uint64_t seed) -> Scheduler& {
          s->reseed(seed + 3);
          return *s;
        };
      };
    } else {
      factory = [] {
        auto s = std::make_shared<RandomScheduler>(0);
        return [s](std::uint64_t seed) -> Scheduler& {
          s->reseed(seed ^ 0xbeef);
          return *s;
        };
      };
    }
    BatchRunner batch(protocol, {0, 1, 0});
    BatchOptions opts;
    opts.first_seed = 0;
    opts.num_runs = kRuns;
    opts.threads = bench_threads();
    const BatchSummary b = batch.run(opts, factory, max_num_probe);

    const Tally& max_nums = b.probe;
    const std::int64_t max_bits = b.max_register_bits.max();

    const std::string label = adversarial ? "split-keeping" : "random";
    std::printf("scheduler: %s\n",
                adversarial ? "split-keeping adaptive adversary" : "random");
    tail_table(max_nums, {2, 3, 4, 5, 6, 8, 10, 12}, "k", "(3/4)^{k-1}",
               [](std::int64_t k) {
                 return std::pow(0.75, static_cast<double>(k - 1));
               });
    row({"fit ratio", fmt(fit_geometric_tail_ratio(max_nums, 2), 4), ""});
    row({"E[total steps]", fmt(b.steps.mean(), 2),
         "(paper: small constant)"});
    row({"max register bits used", fmt_int(max_bits),
         "(declared 'unbounded': 56)"});
    report.add_samples("max_num." + label, max_nums);
    report.set_value("fit_ratio." + label,
                     fit_geometric_tail_ratio(max_nums, 2));
    report.set_value("mean_total_steps." + label, b.steps.mean());
    report.set_value("max_register_bits." + label,
                     static_cast<double>(max_bits));
    add_batch_report(report, label, b);
    std::printf("  [%s: %.0f runs/s on %d threads, %.1f us/run]\n\n",
                label.c_str(),
                static_cast<double>(b.num_runs) / b.wall_seconds,
                opts.threads,
                1e6 * b.wall_seconds / static_cast<double>(b.num_runs));
  }

  header("F2-SWSR: the 1-writer 1-reader variant (full-paper claim)");
  {
    // Same protocol over n(n-1) SWSR copy registers: a phase writes n-1
    // copies one step at a time, so peers can see mixed generations.
    SwsrUnboundedProtocol swsr(3);
    UnboundedProtocol base(3);
    row({"variant", "E[total steps]", "registers", "widthxcount"});
    for (const bool use_swsr : {false, true}) {
      BatchRunner batch(use_swsr ? static_cast<const Protocol&>(swsr)
                                 : static_cast<const Protocol&>(base),
                        {0, 1, 0});
      BatchOptions opts;
      opts.first_seed = 0;
      opts.num_runs = 10000;
      opts.threads = bench_threads();
      const BatchSummary b = batch.run(opts, [] {
        auto s = std::make_shared<RandomScheduler>(0);
        return [s](std::uint64_t seed) -> Scheduler& {
          s->reseed(seed ^ 0xfe);
          return *s;
        };
      });
      report.set_value(use_swsr ? "mean_total_steps.swsr"
                                : "mean_total_steps.swmr",
                       b.steps.mean());
      const auto& protocol = use_swsr ? static_cast<const Protocol&>(swsr)
                                      : static_cast<const Protocol&>(base);
      const auto specs = protocol.registers();
      row({use_swsr ? "1W1R copies" : "1W2R (Fig 2)", fmt(b.steps.mean(), 2),
           fmt_int(static_cast<std::int64_t>(specs.size())),
           fmt_int(specs[0].width_bits) + "b x " +
               fmt_int(static_cast<std::int64_t>(specs.size()))});
    }
  }

  std::printf("\n");
  return 0;
}
