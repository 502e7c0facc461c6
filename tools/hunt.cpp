// hunt — the adversarial correctness fuzzer, as a command-line tool.
//
// Classic mode runs a chosen protocol against a chosen scheduler class over
// a seed range, optionally with an adversary phase followed by a
// round-robin drain (which force-lands frozen decision certificates — the
// harness that caught every bounded-protocol bug in EXPERIMENTS.md). On a
// violation it prints the full execution trace and exits nonzero.
//
// Search mode (--search=) replaces the seed sweep with the adversarial
// fault-plan optimizer (src/search): a gradient-free search over FaultPlan
// genomes — crash times, recovery delays, stall windows, register/message
// fault rates, scheduler seeds — maximizing the run's badness score
// (obs/badness.h). The worst plan found is printed and optionally written
// as a replayable JSON artifact; search mode exits 0 when the search
// completes (whether it found a violation is data, reported in the output
// and the artifact).
//
//   ./tools/hunt --protocol=bounded --adversary=split --seeds=20000 --drain
//   ./tools/hunt --protocol=two --ablation=warm-recovery \
//       --search=evo --budget=2000 --recovery --plan-out=worst.json
//   ./tools/hunt --protocol=ben-or --n=3 --t=1 --search=anneal --budget=500
//   ./tools/hunt --replay=worst.json     # re-run + verify an artifact
//
// `hunt --help` lists every flag.
#include <cstdio>
#include <memory>
#include <string>

#include "core/bounded_three.h"
#include "core/multivalued.h"
#include "core/naive.h"
#include "core/swsr_unbounded.h"
#include "core/two_process.h"
#include "core/unbounded.h"
#include "msg/ben_or.h"
#include "obs/export.h"
#include "sched/adversary.h"
#include "sched/schedulers.h"
#include "sched/trace.h"
#include "search/artifact.h"
#include "search/evaluate.h"
#include "search/genome.h"
#include "search/optimize.h"
#include "tools/cli_util.h"

using namespace cil;

namespace {

constexpr const char* kUsage =
    "usage: hunt [flags]\n"
    "classic:\n"
    "  --protocol=two|one-bit|unbounded|swsr|bounded|naive|multivalued\n"
    "                          (default bounded)\n"
    "  --n=<procs>             where the protocol is parameterized\n"
    "                          (default 3)\n"
    "  --adversary=random|rr|avoid|split|starve  (default split)\n"
    "  --seeds=<count>         (default 2000)\n"
    "  --steps=<budget>        (default 500000)\n"
    "  --drain                 adversary phase, then round-robin completion\n"
    "  --ablation=literal-cond2|naive-unanimity|no-guard|warm-recovery\n"
    "search:\n"
    "  --search=uniform|anneal|evo   replaces the seed sweep\n"
    "  --budget=<evals>        (default 2000)\n"
    "  --search-seed=<s>       (default 1)\n"
    "  --eval-steps=<per-run cap>     (default 20000)\n"
    "  --horizon=<crash window>       (default 64)\n"
    "  --max-crashes=<k>       (default n-1; t for ben-or)\n"
    "  --stalls=<k>            (default 0)\n"
    "  --recovery              allow crash-recovery\n"
    "  --reg-faults            allow register faults\n"
    "  --recovery-delay=<max global steps>  (default 64)\n"
    "  --warm-lease=<steps>    (default 8)\n"
    "  --protocol=ben-or --t=<tolerance>    message substrate, msg faults on\n"
    "  --plan-out=FILE         write the worst plan (worst_plan.v1)\n"
    "  --events-out=FILE.jsonl stream the worst run's events\n"
    "  --replay=FILE           re-run and verify a worst_plan.v1 artifact\n"
    "  --help                  this text\n"
    "exit: 0 no violation (classic), search completed, or replay matched;\n"
    "1 violation (classic) or replay mismatch; 2 usage error\n";

struct Args {
  std::string protocol = "bounded";
  std::string adversary = "split";
  std::string ablation;
  int n = 3;
  std::int64_t seeds = 2000;
  std::int64_t steps = 500'000;
  bool drain = false;
  // Search mode:
  std::string search;  ///< uniform|anneal|evo; empty = classic hunt
  std::int64_t budget = 2000;
  std::uint64_t search_seed = 1;
  std::int64_t eval_steps = 20'000;
  std::int64_t horizon = 64;
  int max_crashes = -1;  ///< -1 = n-1 (sim) / t (ben-or)
  int max_stalls = 0;
  bool recovery = false;
  bool reg_faults = false;
  std::int64_t recovery_delay = 64;
  std::int64_t warm_lease = 8;
  int t = -1;  ///< ben-or tolerance; -1 = (n-1)/2
  std::string plan_out;
  std::string events_out;
  std::string replay;
  bool help = false;
};

bool parse(int argc, char** argv, Args& args) {
  cli::FlagSet flags(argc, argv);
  args.help = flags.take_switch("help");
  if (args.help) return true;
  flags.take_string("protocol", args.protocol);
  flags.take_string("adversary", args.adversary);
  flags.take_string("ablation", args.ablation);
  flags.take_int("n", args.n);
  flags.take_int("seeds", args.seeds);
  flags.take_int("steps", args.steps);
  args.drain = flags.take_switch("drain");
  flags.take_string("search", args.search);
  flags.take_int("budget", args.budget);
  flags.take_uint64("search-seed", args.search_seed);
  flags.take_int("eval-steps", args.eval_steps);
  flags.take_int("horizon", args.horizon);
  flags.take_int("max-crashes", args.max_crashes);
  flags.take_int("stalls", args.max_stalls);
  args.recovery = flags.take_switch("recovery");
  args.reg_faults = flags.take_switch("reg-faults");
  flags.take_int("recovery-delay", args.recovery_delay);
  flags.take_int("warm-lease", args.warm_lease);
  flags.take_int("t", args.t);
  flags.take_string("plan-out", args.plan_out);
  flags.take_string("events-out", args.events_out);
  flags.take_string("replay", args.replay);
  return flags.finish();
}

std::unique_ptr<Protocol> make_protocol(const Args& args) {
  if (args.protocol == "two") {
    TwoProcessProtocol::Options o;
    o.buggy_warm_recovery = (args.ablation == "warm-recovery");
    o.warm_lease_steps = args.warm_lease;
    return std::make_unique<TwoProcessProtocol>(1, o);
  }
  if (args.protocol == "one-bit") {
    TwoProcessProtocol::Options o;
    o.preinitialized_registers = true;
    auto p = std::make_unique<TwoProcessProtocol>(1, o);
    p->preset_inputs(0, 1);
    return p;
  }
  if (args.protocol == "unbounded") {
    UnboundedProtocol::Options o;
    o.literal_condition2 = (args.ablation == "literal-cond2");
    return std::make_unique<UnboundedProtocol>(args.n, 1, o);
  }
  if (args.protocol == "swsr")
    return std::make_unique<SwsrUnboundedProtocol>(args.n);
  if (args.protocol == "bounded") {
    BoundedThreeProtocol::Options o;
    o.naive_unanimity = (args.ablation == "naive-unanimity");
    o.no_blocker_guard = (args.ablation == "no-guard");
    return std::make_unique<BoundedThreeProtocol>(o);
  }
  if (args.protocol == "naive")
    return std::make_unique<NaiveConsensusProtocol>(args.n);
  if (args.protocol == "multivalued")
    return std::make_unique<MultiValuedProtocol>(args.n, 15);
  return nullptr;
}

/// Everything a search/replay needs, with lifetimes tied together: the
/// evaluator borrows the protocol it closes over.
struct EvalBundle {
  std::unique_ptr<Protocol> protocol;        // sim substrate
  std::unique_ptr<msg::BenOrProtocol> ben;   // msg substrate
  std::vector<Value> inputs;
  search::Evaluator eval;
  search::GenomeSpace space;
  std::string substrate;
};

int ben_or_t(const Args& args) {
  return args.t >= 0 ? args.t : (args.n - 1) / 2;
}

/// `inputs_override` non-empty pins the input vector (replay mode, where
/// the artifact's inputs are canonical); empty uses the default alternating
/// 0/1 assignment.
bool make_eval_bundle(const Args& args, obs::EventSink* extra_sink,
                      const std::vector<Value>& inputs_override,
                      EvalBundle& out) {
  if (args.protocol == "ben-or") {
    out.substrate = "msg";
    out.ben = std::make_unique<msg::BenOrProtocol>(args.n, ben_or_t(args));
    out.inputs = inputs_override;
    for (int i = static_cast<int>(out.inputs.size()); i < args.n; ++i)
      out.inputs.push_back(static_cast<Value>(i & 1));
    search::MsgEvalOptions opts;
    opts.inputs = out.inputs;
    opts.max_picks = args.eval_steps;
    out.eval = search::make_msg_evaluator(*out.ben, opts);
    out.space.num_processes = args.n;
    out.space.max_crashes =
        args.max_crashes >= 0 ? args.max_crashes : ben_or_t(args);
    out.space.allow_message_faults = true;
  } else {
    out.substrate = "sim";
    out.protocol = make_protocol(args);
    if (!out.protocol) {
      std::fprintf(stderr, "unknown protocol: %s\n", args.protocol.c_str());
      return false;
    }
    const int n = out.protocol->num_processes();
    out.inputs = inputs_override;
    for (int i = static_cast<int>(out.inputs.size()); i < n; ++i)
      out.inputs.push_back(static_cast<Value>(i & 1));
    search::SimEvalOptions opts;
    opts.inputs = out.inputs;
    opts.max_total_steps = args.eval_steps;
    opts.check_nontriviality =
        args.protocol != "one-bit" && args.protocol != "naive";
    opts.extra_sink = extra_sink;
    out.eval = search::make_sim_evaluator(*out.protocol, opts);
    out.space.num_processes = n;
    out.space.max_crashes = args.max_crashes >= 0 ? args.max_crashes : n - 1;
    out.space.allow_recovery = args.recovery;
    out.space.allow_register_faults = args.reg_faults;
  }
  out.space.max_stalls = args.max_stalls;
  out.space.crash_horizon = args.horizon;
  out.space.max_recovery_delay = args.recovery_delay;
  return true;
}

int run_search(const Args& args) {
  EvalBundle bundle;
  if (!make_eval_bundle(args, nullptr, {}, bundle)) return 2;

  search::SearchOptions opts;
  opts.budget = args.budget;
  opts.seed = args.search_seed;

  search::SearchResult result;
  if (args.search == "uniform") {
    result = search::uniform_search(bundle.space, bundle.eval, opts);
  } else if (args.search == "anneal") {
    result = search::anneal(bundle.space, bundle.eval, opts);
  } else if (args.search == "evo") {
    result = search::evolve_one_plus_lambda(bundle.space, bundle.eval, opts);
  } else {
    std::fprintf(stderr, "unknown search: %s (uniform|anneal|evo)\n",
                 args.search.c_str());
    return 2;
  }

  std::printf(
      "hunt search: protocol=%s%s%s substrate=%s search=%s budget=%lld\n"
      "  evaluations=%lld to-best=%lld\n"
      "  worst fitness=%.6g violation=%d\n"
      "  worst plan: %s\n"
      "  sched_seed: %llu\n",
      args.protocol.c_str(), args.ablation.empty() ? "" : " ablation=",
      args.ablation.c_str(), bundle.substrate.c_str(), args.search.c_str(),
      static_cast<long long>(args.budget),
      static_cast<long long>(result.evaluations),
      static_cast<long long>(result.evaluations_to_best),
      result.best_eval.fitness, result.best_eval.violation ? 1 : 0,
      result.best.plan.serialize().c_str(),
      static_cast<unsigned long long>(result.best.sched_seed));
  if (result.best_eval.violation)
    std::printf("  VIOLATION: %s\n", result.best_eval.violation_what.c_str());

  if (!args.plan_out.empty()) {
    search::WorstPlanArtifact artifact = search::make_artifact(
        result, args.protocol, bundle.substrate, args.ablation, args.search,
        bundle.space.num_processes, bundle.inputs);
    artifact.eval_steps = args.eval_steps;
    if (bundle.substrate == "msg") artifact.tolerance = ben_or_t(args);
    if (!search::write_artifact_file(args.plan_out, artifact)) return 2;
    std::printf("  worst plan written to %s\n", args.plan_out.c_str());
  }

  if (!args.events_out.empty()) {
    if (bundle.substrate != "sim") {
      std::fprintf(stderr,
                   "--events-out: only the sim substrate streams events\n");
      return 2;
    }
    // Re-run the worst genome with a streaming JSONL sink attached — the
    // events hit disk as they are emitted, not after the run.
    obs::JsonlStreamSink stream(args.events_out);
    EvalBundle replay_bundle;
    if (!make_eval_bundle(args, &stream, {}, replay_bundle)) return 2;
    replay_bundle.eval(result.best);
    if (!stream.close()) return 2;
    std::printf("  %lld events streamed to %s\n",
                static_cast<long long>(stream.events_written()),
                args.events_out.c_str());
  }
  return 0;
}

int run_replay(const Args& args) {
  search::WorstPlanArtifact artifact;
  try {
    artifact = search::load_artifact_file(args.replay);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hunt --replay: %s\n", e.what());
    return 2;
  }

  Args replay_args = args;
  replay_args.protocol = artifact.protocol;
  replay_args.ablation = artifact.ablation;
  replay_args.n = artifact.num_processes;
  replay_args.t = artifact.tolerance;
  replay_args.eval_steps = artifact.eval_steps;

  std::unique_ptr<obs::JsonlStreamSink> stream;
  if (!args.events_out.empty())
    stream = std::make_unique<obs::JsonlStreamSink>(args.events_out);

  EvalBundle bundle;
  if (!make_eval_bundle(replay_args, stream.get(), artifact.inputs, bundle))
    return 2;

  const search::ReplayOutcome outcome =
      search::replay_artifact(artifact, bundle.eval);
  if (stream && !stream->close()) return 2;

  std::printf(
      "hunt replay: %s (protocol=%s%s%s substrate=%s)\n"
      "  claimed: fitness=%.6g violation=%d\n"
      "  replay : fitness=%.6g violation=%d\n"
      "  match=%d\n",
      args.replay.c_str(), artifact.protocol.c_str(),
      artifact.ablation.empty() ? "" : " ablation=",
      artifact.ablation.c_str(), artifact.substrate.c_str(), artifact.fitness,
      artifact.violation ? 1 : 0, outcome.eval.fitness,
      outcome.eval.violation ? 1 : 0, outcome.matches ? 1 : 0);
  if (outcome.eval.violation)
    std::printf("  VIOLATION: %s\n", outcome.eval.violation_what.c_str());
  return outcome.matches ? 0 : 1;
}

int run_classic(const Args& args) {
  std::int64_t violations = 0, undecided = 0;
  for (std::uint64_t seed = 0; seed < static_cast<std::uint64_t>(args.seeds);
       ++seed) {
    const auto protocol = make_protocol(args);
    if (!protocol) {
      std::fprintf(stderr, "unknown protocol: %s\n", args.protocol.c_str());
      return 2;
    }
    std::vector<Value> inputs;
    for (int i = 0; i < protocol->num_processes(); ++i)
      inputs.push_back(static_cast<Value>((seed >> i) & 1));
    if (args.protocol == "one-bit") inputs = {0, 1};
    if (args.protocol == "multivalued")
      inputs = {static_cast<Value>(seed % 16),
                static_cast<Value>((seed * 7 + 3) % 16),
                static_cast<Value>((seed * 13 + 5) % 16)};

    SimOptions options;
    options.seed = seed;
    options.max_total_steps = args.steps;
    options.record_schedule = true;
    options.check_nontriviality =
        args.protocol != "one-bit" && args.protocol != "naive";
    Simulation sim(*protocol, inputs, options);

    std::unique_ptr<Scheduler> sched;
    if (args.adversary == "random") {
      sched = std::make_unique<RandomScheduler>(seed ^ 0xd00d);
    } else if (args.adversary == "rr") {
      sched = std::make_unique<RoundRobinScheduler>();
    } else if (args.adversary == "avoid") {
      sched = std::make_unique<DecisionAvoidingAdversary>(seed + 9);
    } else if (args.adversary == "starve") {
      sched = std::make_unique<StarvingScheduler>(
          std::vector<ProcessId>{protocol->num_processes() - 1}, seed);
    } else if (args.adversary == "split") {
      // SplitKeepingAdversary takes a plain function pointer; dispatch on
      // the register family.
      if (protocol->name().find("bounded three") != std::string::npos) {
        sched = std::make_unique<SplitKeepingAdversary>(
            seed + 9, +[](Word w) -> Value {
              const auto r = BoundedThreeProtocol::unpack(w);
              return r.started() ? r.pref : kNoValue;
            });
      } else {
        sched = std::make_unique<SplitKeepingAdversary>(
            seed + 9, &UnboundedProtocol::unpack_pref);
      }
    }
    if (!sched) {
      std::fprintf(stderr, "unknown adversary: %s\n", args.adversary.c_str());
      return 2;
    }

    try {
      if (args.drain) {
        const long k =
            20 + static_cast<long>((seed * 2654435761ULL) % 400);
        for (long i = 0; i < k && sim.step_once(*sched); ++i) {
        }
        RoundRobinScheduler rr;
        const auto r = sim.run(rr);
        undecided += !r.all_decided;
      } else {
        const auto r = sim.run(*sched);
        undecided += !r.all_decided;
      }
    } catch (const CoordinationViolation& e) {
      ++violations;
      std::printf("VIOLATION seed %llu: %s\n",
                  static_cast<unsigned long long>(seed), e.what());
      std::printf("%s\n", trace_run(*protocol, inputs, sim.result().schedule,
                                    options)
                              .c_str());
      break;
    }
  }

  std::printf("hunt: protocol=%s adversary=%s seeds=%lld drain=%d -> "
              "violations=%lld undecided-at-budget=%lld\n",
              args.protocol.c_str(), args.adversary.c_str(),
              static_cast<long long>(args.seeds), args.drain ? 1 : 0,
              static_cast<long long>(violations),
              static_cast<long long>(undecided));
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (args.help) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (!args.replay.empty()) return run_replay(args);
  if (!args.search.empty()) return run_search(args);
  return run_classic(args);
}
