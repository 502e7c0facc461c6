// Experiment T4 (DESIGN.md §3): the impossibility of deterministic
// coordination, executed.
//
// For each deterministic strawman protocol (Figure 1 with the coin replaced
// by a deterministic conflict policy — all consistent and nontrivial, so
// Theorem 4 applies), the BivalenceAdversary plays the Lemma 1-3 argument
// live: it computes the valence of every successor configuration and picks
// a step that keeps the system bivalent (or forever undecidable). No
// processor ever decides, for any step budget.
//
// The contrast row runs the RANDOMIZED Figure 1 protocol against the
// strongest scheduler-only attack we have (the greedy decision-avoiding
// adversary): the coins rescue it within a handful of steps — that is the
// paper's whole message.
#include "analysis/valence.h"
#include "bench/bench_util.h"
#include "core/strawman.h"
#include "core/two_process.h"
#include "sched/adversary.h"
#include "util/stats.h"

using namespace cil;
using namespace cil::bench;

int main() {
  constexpr std::int64_t kBudget = 100'000;
  BenchReport report("bench_impossibility");
  report.set_meta("experiment", "T4");

  header("T4: deterministic protocols starve forever under BivalenceAdversary");
  row({"protocol", "budget", "steps taken", "decided?", "bivalent picks"},
      22);
  for (const auto policy : {ConflictPolicy::kKeep, ConflictPolicy::kAdopt,
                            ConflictPolicy::kAlternate}) {
    DeterministicTwoProcProtocol protocol(policy);
    SimOptions options;
    options.max_total_steps = kBudget;
    Simulation sim(protocol, {0, 1}, options);
    BivalenceAdversary adversary(protocol);
    const auto r = sim.run(adversary);
    row({protocol.name(), fmt_int(kBudget), fmt_int(r.total_steps),
         r.decision ? "YES (bug!)" : "no — starved",
         fmt_int(adversary.bivalent_picks())},
        22);
    report.set_value("starved." + protocol.name(), r.decision ? 0.0 : 1.0);
  }

  header("Lemma 2: the mixed initial configuration is bivalent");
  row({"protocol", "inputs", "reachable decisions"}, 22);
  for (const auto policy :
       {ConflictPolicy::kAdopt, ConflictPolicy::kAlternate}) {
    DeterministicTwoProcProtocol protocol(policy);
    ValenceAnalyzer analyzer(protocol);
    const auto values = analyzer.reachable_decisions(
        make_initial(protocol, {0, 1}));
    std::string v;
    for (const Value x : values) v += std::to_string(x) + " ";
    row({protocol.name(), "{0,1}", v.empty() ? "(none)" : v}, 22);
  }

  header("Contrast: randomized Figure 1 under the decision-avoiding adversary");
  {
    TwoProcessProtocol protocol;
    Tally steps;
    int undecided = 0;
    for (std::uint64_t seed = 0; seed < 5000; ++seed) {
      DecisionAvoidingAdversary adversary(seed + 1);
      const auto r = run_once(protocol, {0, 1}, adversary, seed, kBudget);
      if (!r.all_decided) ++undecided;
      steps.add(r.total_steps);
    }
    row({"runs", "undecided", "E[total steps]", "max"}, 22);
    const Summary m = summarize(steps);
    row({"5000", fmt_int(undecided), fmt(m.mean, 2), fmt_int(m.max)}, 22);
    report.add_samples("total_steps.randomized_fig1", steps);
    report.set_value("undecided.randomized_fig1",
                     static_cast<double>(undecided));
  }

  std::printf("\n");
  return 0;
}
