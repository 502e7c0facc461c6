// Experiment T5 (DESIGN.md §3): k-valued coordination from binary
// coordination, with cost "log k times larger than the complexity of CP2".
//
// We sweep k = 2 .. 1024 and print the measured total steps against the
// theorem's ⌈log2 k⌉ scaling (the binary instances dominate; the reduction
// adds one publish write plus at most n rescan reads per round).
#include <cmath>

#include "bench/bench_util.h"
#include "core/multivalued.h"
#include "sched/schedulers.h"
#include "util/stats.h"

using namespace cil;
using namespace cil::bench;

int main() {
  constexpr int kRuns = 4000;
  constexpr int kProcs = 3;
  BenchReport report("bench_multivalued");
  report.set_meta("protocol", "multivalued");
  report.set_meta("experiment", "T5");

  header("T5: steps vs number of decision values k (n = 3)");
  row({"k", "rounds=log2(k)", "E[total steps]", "ratio to k=2",
       "per-round steps"},
      18);

  double base_steps = 0;
  for (const int bits : {1, 2, 4, 6, 8, 10}) {
    const Value max_value = static_cast<Value>((1 << bits) - 1);
    MultiValuedProtocol protocol(kProcs, max_value);
    Tally steps;
    for (std::uint64_t seed = 0; seed < kRuns; ++seed) {
      // Spread the inputs across the domain so every round has work to do.
      std::vector<Value> inputs;
      Rng rng(seed * 7919 + 13);
      for (int i = 0; i < kProcs; ++i)
        inputs.push_back(static_cast<Value>(rng.below(max_value + 1)));
      RandomScheduler sched(seed ^ 0xfeed);
      const auto r = run_once(protocol, inputs, sched, seed, 2'000'000);
      steps.add(r.total_steps);
    }
    const Summary m = summarize(steps);
    if (bits == 1) base_steps = m.mean;
    row({fmt_int(std::int64_t{1} << bits), fmt_int(bits), fmt(m.mean, 1),
         fmt(m.mean / base_steps, 2), fmt(m.mean / bits, 1)},
        18);
    report.add_samples("total_steps.k" + std::to_string(std::int64_t{1} << bits),
                       steps);
  }

  std::printf(
      "\nThe theorem predicts the ratio column ~= log2(k); per-round cost is"
      "\nroughly constant (binary instance + publish/rescan overhead).\n\n");
  return 0;
}
