// Experiment F3 (DESIGN.md §3): the bounded-register three-processor
// protocol of §6/Figure 3 (reconstruction; see DESIGN.md §5).
//
// The point of §6 is that registers stay BOUNDED — a constant 9 bits here —
// no matter how long the adversary stretches the run, unlike Figure 2's
// growing num field. This bench measures: decision times under three
// scheduler classes, the register high-water mark (must equal the declared
// constant), the circular-window invariant, and a head-to-head against the
// unbounded protocol.
#include <algorithm>

#include "analysis/explorer.h"
#include "bench/bench_util.h"
#include "core/bounded_three.h"
#include "core/unbounded.h"
#include "sched/adversary.h"
#include "sched/schedulers.h"
#include "util/stats.h"

using namespace cil;
using namespace cil::bench;

namespace {

Value bounded_pref(Word w) {
  const auto r = BoundedThreeProtocol::unpack(w);
  return r.started() ? r.pref : kNoValue;
}

std::unique_ptr<Scheduler> make_sched(const std::string& name,
                                      std::uint64_t seed) {
  if (name == "round-robin") return std::make_unique<RoundRobinScheduler>();
  if (name == "random") return std::make_unique<RandomScheduler>(seed ^ 0x77);
  if (name == "adaptive")
    return std::make_unique<DecisionAvoidingAdversary>(seed + 5);
  return std::make_unique<SplitKeepingAdversary>(seed + 9, &bounded_pref);
}

}  // namespace

int main() {
  BoundedThreeProtocol protocol;
  constexpr int kRuns = 20000;
  BenchReport report("bench_three_bounded");
  report.set_meta("protocol", "bounded_three");
  report.set_meta("experiment", "F3");

  header("F3: consistency (bounded model check to depth 14)");
  {
    ExploreOptions options;
    options.max_depth = 14;
    options.max_configs = 5'000'000;
    const auto r = explore(protocol, {0, 1, 1}, options);
    row({"configs", "consistent", "valid"});
    row({fmt_int(r.num_configs), r.consistent ? "yes" : "NO",
         r.valid ? "yes" : "NO"});
  }

  header("F3: decision time and register width (declared width: 9 bits)");
  // "parked" counts runs the adversary kept undecided within the budget by
  // perpetually withholding specific pending writes — the liveness corner
  // DESIGN.md §5.7 documents. Consistency is never violated in them, and
  // they resolve as soon as the withheld processors run (the drain tests).
  row({"scheduler", "E[steps]", "p99", "max reg bits", "parked/runs"});
  for (const std::string s :
       {"round-robin", "random", "adaptive", "split-keeping"}) {
    Tally total;
    int max_bits = 0;
    int parked = 0;
    for (std::uint64_t seed = 0; seed < kRuns; ++seed) {
      const auto sched = make_sched(s, seed);
      const auto r = run_once(protocol, {0, 1, 0}, *sched, seed, 500'000);
      if (!r.all_decided) {
        ++parked;
        continue;
      }
      total.add(r.total_steps);
      max_bits = std::max(max_bits, r.max_register_bits);
    }
    const Summary m = summarize(total);
    row({s.c_str(), fmt(m.mean, 2), fmt_int(m.p99), fmt_int(max_bits),
         (std::to_string(parked) + "/" + std::to_string(kRuns))});
    report.add_samples("total_steps." + s, total);
    report.set_value("parked." + s, static_cast<double>(parked));
    report.set_value("max_register_bits." + s, static_cast<double>(max_bits));
  }

  header("F3: circular window invariant (span of live nums <= 4)");
  {
    int worst_span = 0;
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
      SimOptions options;
      options.seed = seed;
      Simulation sim(protocol, {1, 0, 1}, options);
      RandomScheduler sched(seed * 31 + 7);
      while (sim.step_once(sched)) {
        std::vector<int> nums;
        for (RegisterId reg = 0; reg < 3; ++reg) {
          const auto r = BoundedThreeProtocol::unpack(sim.regs().peek(reg));
          if (r.started()) nums.push_back(r.num);
        }
        if (nums.size() < 2) continue;
        int best = 9;
        for (const int base : nums) {
          int span = 0;
          for (const int x : nums) span = std::max(span, (x - base + 9) % 9);
          best = std::min(best, span);
        }
        worst_span = std::max(worst_span, best);
      }
    }
    row({"worst span observed", "invariant bound"});
    row({fmt_int(worst_span), "4"});
    report.set_value("worst_window_span", static_cast<double>(worst_span));
  }

  header("F3 vs F2: bounded vs unbounded protocol, same adversary class");
  {
    row({"protocol", "E[total steps]", "max reg bits"});
    for (const bool bounded : {true, false}) {
      UnboundedProtocol unb(3);
      RunningStats rs;
      int max_bits = 0;
      for (std::uint64_t seed = 0; seed < 5000; ++seed) {
        DecisionAvoidingAdversary sched(seed + 21);
        const auto r =
            bounded
                ? run_once(protocol, {0, 1, 0}, sched, seed, 2'000'000)
                : run_once(unb, {0, 1, 0}, sched, seed, 2'000'000);
        rs.add(static_cast<double>(r.total_steps));
        max_bits = std::max(max_bits, r.max_register_bits);
      }
      row({bounded ? "bounded (Fig 3)" : "unbounded (Fig 2)", fmt(rs.mean(), 2),
           fmt_int(max_bits)});
      report.set_value(bounded ? "head_to_head.bounded_mean_steps"
                               : "head_to_head.unbounded_mean_steps",
                       rs.mean());
    }
  }

  std::printf("\n");
  return 0;
}
