// sweep — the crash-tolerant distributed sweep driver.
//
// Runs a seed sweep of a chosen protocol/scheduler pair as a supervised
// fleet of forked worker processes (src/fabric): the seed range is cut into
// fixed-size shards, each shard runs through BatchRunner inside its own
// child process, and each finished shard is persisted atomically into a
// checkpoint directory and committed into a manifest. Workers that crash,
// hang, or are chaos-killed are retried with exponential backoff; a shard
// that exhausts its retry budget degrades the sweep to an explicit partial
// result instead of poisoning it. Re-running the same command against the
// same --checkpoint directory resumes: committed shards are skipped, and
// the final merged summary is bit-identical to an uninterrupted run — which
// --serial + --verify-against can prove from a second process.
//
//   # a 4-worker sweep, checkpointed, with fault injection:
//   ./tools/sweep --protocol=unbounded --n=3 --seeds=240 --workers=4 \
//       --checkpoint=ckpt --chaos-kill-prob=0.3 --retries=12
//   # the same range in one process; verify bit-identity with the above:
//   ./tools/sweep --protocol=unbounded --n=3 --seeds=240 --serial \
//       --out=serial.json --verify-against=ckpt/summary.json
//
// Flags:
//   --protocol=two|unbounded|bounded   --n=<procs>   (unbounded only)
//   --adversary=random|avoid
//   --fault-plan=SPEC       apply a shared fault schedule to every run
//                           (FaultPlan::serialize form, e.g.
//                           "fp1;seed=1;crash=0@2;recover=0@8"). Part of
//                           the checkpoint identity: resuming a directory
//                           under a different plan is refused.
//   --seeds=<count>         (default 200)     --first-seed=<s> (default 1)
//   --steps=<per-run cap>   (default 1000000) --check-every=<k> (default 1)
//   --shard-size=<runs>     (default 0: seeds / (4 * workers), min 1)
//   --workers=<procs>       (default 2)
//   --threads=<per-worker BatchRunner threads> (default 1)
//   --timeout-s=<per-shard wall clock>  (default 120; <= 0 disables)
//   --retries=<per-shard budget>        (default 3)
//   --backoff-ms=<initial>              (default 100)
//   --checkpoint=DIR        (default "sweep_ckpt")
//   --out=FILE              (default <checkpoint>/summary.json)
//   --chaos-kill-prob=<p>   each shard attempt _exit()s mid-shard with
//                           probability p (deterministic per attempt)
//   --chaos-seed=<s>        (default 1)
//   --serial                run in-process, no fork/checkpoint required
//   --verify-against=FILE   compare this run's summary with an artifact
//   --verbose
//
// Every shard runs through BatchRunner's lane engine. Figure 1 under random
// scheduling takes its lockstep kernels (bitsliced when fault-free, the
// column kernel under a representable crash/recovery plan); everything
// else takes its per-seed path. Summaries are bit-identical either way.
//
// Exit codes: 0 complete (and verified, when asked); 1 verification
// mismatch; 2 usage/config error; 3 sweep incomplete (budget exhausted).
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "core/bounded_three.h"
#include "core/two_process.h"
#include "core/unbounded.h"
#include "fabric/checkpoint.h"
#include "fabric/summary.h"
#include "fabric/supervisor.h"
#include "fault/fault_plan.h"
#include "obs/export.h"
#include "sched/batch.h"
#include "sched/lane_engine.h"
#include "tools/cli_util.h"
#include "util/check.h"
#include "util/rng.h"

using namespace cil;

namespace {

struct Args {
  std::string protocol = "unbounded";
  int n = 3;
  std::string adversary = "random";
  std::string fault_plan;  ///< FaultPlan::serialize form; empty = fault-free
  std::int64_t seeds = 200;
  std::uint64_t first_seed = 1;
  std::int64_t steps = 1'000'000;
  std::int64_t check_every = 1;
  std::int64_t shard_size = 0;  ///< 0: auto
  int workers = 2;
  int threads = 1;
  double timeout_s = 120.0;
  int retries = 3;
  std::int64_t backoff_ms = 100;
  std::string checkpoint = "sweep_ckpt";
  std::string out;
  double chaos_kill_prob = 0.0;
  std::uint64_t chaos_seed = 1;
  bool serial = false;
  std::string verify_against;
  bool verbose = false;
};

/// The adversaries a sweep can name, as the lane engine's scheduler specs
/// (the seed derivations every sweep artifact was made with); nullopt for
/// an unknown name.
std::optional<LaneSchedSpec> lane_sched_spec(const std::string& adversary) {
  if (adversary == "random")
    return LaneSchedSpec{LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  if (adversary == "avoid")
    return LaneSchedSpec{LaneSchedSpec::Kind::kAvoid, 0, 17};
  return std::nullopt;
}

bool parse(int argc, char** argv, Args& args) {
  cli::FlagSet flags(argc, argv);
  flags.take_string("protocol", args.protocol);
  flags.take_int("n", args.n);
  flags.take_string("adversary", args.adversary);
  flags.take_string("fault-plan", args.fault_plan);
  flags.take_int("seeds", args.seeds);
  flags.take_uint64("first-seed", args.first_seed);
  flags.take_int("steps", args.steps);
  flags.take_int("check-every", args.check_every);
  flags.take_int("shard-size", args.shard_size);
  flags.take_int("workers", args.workers);
  flags.take_int("threads", args.threads);
  flags.take_double("timeout-s", args.timeout_s);
  flags.take_int("retries", args.retries);
  flags.take_int("backoff-ms", args.backoff_ms);
  flags.take_string("checkpoint", args.checkpoint);
  flags.take_string("out", args.out);
  flags.take_double("chaos-kill-prob", args.chaos_kill_prob);
  flags.take_uint64("chaos-seed", args.chaos_seed);
  args.serial = flags.take_switch("serial");
  flags.take_string("verify-against", args.verify_against);
  args.verbose = flags.take_switch("verbose");
  if (!flags.finish()) return false;
  if (args.seeds < 1 || args.workers < 1 || args.threads < 0 ||
      args.retries < 0 || args.shard_size < 0 || args.chaos_kill_prob < 0.0 ||
      args.chaos_kill_prob > 1.0) {
    std::fprintf(stderr, "sweep: flag value out of range\n");
    return false;
  }
  if (!lane_sched_spec(args.adversary)) {
    std::fprintf(stderr, "sweep: unknown adversary %s\n",
                 args.adversary.c_str());
    return false;
  }
  if (args.out.empty()) args.out = args.checkpoint + "/summary.json";
  return true;
}

/// Atomic writes need the destination directory to exist first.
bool ensure_out_dir(const std::string& out) {
  const auto parent = std::filesystem::path(out).parent_path();
  if (parent.empty()) return true;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  return std::filesystem::is_directory(parent);
}

std::unique_ptr<Protocol> make_protocol(const Args& args) {
  if (args.protocol == "two") return std::make_unique<TwoProcessProtocol>(1);
  if (args.protocol == "unbounded")
    return std::make_unique<UnboundedProtocol>(args.n, 1);
  if (args.protocol == "bounded")
    return std::make_unique<BoundedThreeProtocol>();
  return nullptr;
}

fabric::SweepConfig make_config(const Args& args, std::int64_t shard_size) {
  fabric::SweepConfig config;
  config.protocol = args.protocol;
  config.num_processes = args.n;
  config.scheduler = args.adversary;
  config.range = {args.first_seed, args.seeds};
  config.shard_size = shard_size;
  config.max_total_steps = args.steps;
  config.check_every = args.check_every;
  config.fault_plan = args.fault_plan;
  return config;
}

/// Parse + validate --fault-plan, or leave `plan` empty when the flag is.
/// Throws (caught in main, exit 2) on a malformed spec.
void parse_plan(const Args& args, const Protocol& protocol,
                std::optional<fault::FaultPlan>& plan) {
  if (args.fault_plan.empty()) return;
  plan = fault::FaultPlan::parse(args.fault_plan);
  plan->validate(protocol.num_processes());
}

std::vector<Value> sweep_inputs(const Protocol& protocol) {
  std::vector<Value> inputs;
  for (int i = 0; i < protocol.num_processes(); ++i)
    inputs.push_back(static_cast<Value>(i & 1));
  return inputs;
}

BatchSummary run_shard(const Args& args, const Protocol& protocol,
                       const fault::FaultPlan* plan, const SeedRange& range,
                       const RunHook& hook) {
  BatchRunner runner(protocol, sweep_inputs(protocol));
  BatchOptions bo;
  bo.first_seed = range.first_seed;
  bo.num_runs = range.num_runs;
  bo.threads = args.threads;
  bo.max_total_steps = args.steps;
  bo.check_every = args.check_every;
  bo.fault_plan = plan;
  bo.lane_sched = *lane_sched_spec(args.adversary);
  return runner.run(bo, nullptr, nullptr, hook);
}

/// The SIMD width this sweep's lane kernels run at on this host — what the
/// artifact records, so --verify-against can flag a cross-width comparison.
/// 1 for configurations the lane engine serves on its per-seed path.
int sweep_simd_width(const Args& args, const Protocol& protocol,
                     const fault::FaultPlan* plan) {
  LaneEngine probe(protocol, sweep_inputs(protocol));
  LaneRunOptions lo;
  lo.sched = *lane_sched_spec(args.adversary);
  lo.fault_plan = plan;
  return probe.selected_simd_width(lo);
}

/// One 64-bit identity per (chaos_seed, shard, attempt): a retried shard
/// draws a fresh kill decision instead of dying identically forever.
std::uint64_t chaos_stream_seed(const Args& args, int shard, int attempt) {
  SplitMix64 sm(args.chaos_seed ^
                (static_cast<std::uint64_t>(shard) << 20) ^
                static_cast<std::uint64_t>(attempt));
  return sm.next();
}

/// Artifact written to --out: the merged summary in batch_summary.v1 form
/// plus a "sweep" object describing how it was produced (fleet shape,
/// retries, and any gaps — so a partial result is never mistaken for a
/// complete one).
std::string sweep_artifact_json(const fabric::SweepConfig& config,
                                const fabric::SweepSummary& merged,
                                const fabric::SweepOutcome* outcome,
                                int num_shards, int simd_width) {
  fabric::ShardSummary top;
  top.range.first_seed =
      merged.empty() ? config.range.first_seed : merged.span().first_seed;
  top.range.num_runs = merged.num_runs();
  top.summary = merged.to_partial_batch_summary();
  obs::Json doc = fabric::shard_summary_to_json(top);

  obs::Json sweep = obs::Json::object();
  sweep["config"] = fabric::sweep_config_to_json(config);
  sweep["shards_total"] = obs::Json(num_shards);
  sweep["shards_completed"] = obs::Json(static_cast<int>(merged.num_shards()));
  sweep["contiguous"] = obs::Json(merged.contiguous());
  obs::Json incomplete = obs::Json::array();
  std::int64_t retries = 0;
  if (outcome != nullptr) {
    for (const int i : outcome->incomplete_shards)
      incomplete.push_back(obs::Json(i));
    retries = outcome->retries;
  }
  sweep["incomplete_shards"] = std::move(incomplete);
  sweep["retries"] = obs::Json(retries);
  // Summaries are bit-identical across SIMD widths by contract; recording
  // the width lets --verify-against say "and that identity held across a
  // width-1 vs width-4 pair" instead of silently comparing same-width runs.
  sweep["simd_width"] = obs::Json(simd_width);
  doc["sweep"] = std::move(sweep);
  return doc.dump() + "\n";
}

void print_summary(const BatchSummary& s) {
  std::printf("runs             %lld\n",
              static_cast<long long>(s.num_runs));
  std::printf("decided          %lld\n",
              static_cast<long long>(s.decided_runs));
  for (const auto& [value, count] : s.decision_counts)
    std::printf("decision %-8d %lld\n", value,
                static_cast<long long>(count));
  std::printf("total steps      %lld\n",
              static_cast<long long>(s.total_steps));
  std::printf("recoveries       %lld\n",
              static_cast<long long>(s.recoveries));
  if (s.steps.count() > 0)
    std::printf("steps/run        p50=%lld p99=%lld max=%lld\n",
                static_cast<long long>(s.steps.percentile(0.5)),
                static_cast<long long>(s.steps.percentile(0.99)),
                static_cast<long long>(s.steps.max()));
}

/// --verify-against: both sides must cover the same seed range and agree on
/// every deterministic field. Returns the process exit code.
int verify_against(const Args& args, const fabric::ShardSummary& ours,
                   int our_simd_width) {
  std::string text;
  {
    std::FILE* f = std::fopen(args.verify_against.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "sweep: cannot read %s\n",
                   args.verify_against.c_str());
      return 2;
    }
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  const obs::Json doc = obs::Json::parse(text);
  const fabric::ShardSummary theirs = fabric::shard_summary_from_json(doc);
  // A width skew is not a failure — summaries are width-invariant by
  // contract — but it is worth a line: a match across widths is the
  // strongest form of this check, and a mismatch after a kernel change
  // points straight at the vector path.
  if (const obs::Json* sweep = doc.find("sweep")) {
    if (const obs::Json* w = sweep->find("simd_width")) {
      const int their_width = static_cast<int>(w->as_int());
      if (their_width != our_simd_width)
        std::fprintf(stderr,
                     "sweep: note: comparing across SIMD widths "
                     "(ours %d vs theirs %d)\n",
                     our_simd_width, their_width);
    }
  }
  if (!(theirs.range == ours.range)) {
    std::fprintf(stderr,
                 "sweep: VERIFY MISMATCH: seed ranges differ "
                 "(ours [%llu,+%lld) vs theirs [%llu,+%lld))\n",
                 static_cast<unsigned long long>(ours.range.first_seed),
                 static_cast<long long>(ours.range.num_runs),
                 static_cast<unsigned long long>(theirs.range.first_seed),
                 static_cast<long long>(theirs.range.num_runs));
    return 1;
  }
  if (!fabric::deterministic_fields_equal(ours.summary, theirs.summary)) {
    std::fprintf(stderr,
                 "sweep: VERIFY MISMATCH: deterministic fields differ\n");
    return 1;
  }
  std::printf("verify: OK — summaries bit-identical over [%llu, +%lld)\n",
              static_cast<unsigned long long>(ours.range.first_seed),
              static_cast<long long>(ours.range.num_runs));
  return 0;
}

int run_serial(const Args& args) {
  const auto protocol = make_protocol(args);
  if (!protocol) {
    std::fprintf(stderr, "sweep: unknown protocol %s\n", args.protocol.c_str());
    return 2;
  }
  std::optional<fault::FaultPlan> plan;
  parse_plan(args, *protocol, plan);
  const fault::FaultPlan* plan_ptr = plan ? &*plan : nullptr;

  fabric::ShardSummary whole;
  whole.range = {args.first_seed, args.seeds};
  whole.summary = run_shard(args, *protocol, plan_ptr, whole.range, nullptr);

  fabric::SweepSummary merged;
  merged.add(whole);
  const fabric::SweepConfig config =
      make_config(args, std::max<std::int64_t>(args.seeds, 1));
  if (!ensure_out_dir(args.out) ||
      !obs::write_text_file_atomic(
          args.out, sweep_artifact_json(config, merged, nullptr, 1,
                                        whole.summary.simd_width))) {
    std::fprintf(stderr, "sweep: cannot write %s\n", args.out.c_str());
    return 2;
  }
  print_summary(whole.summary);
  std::printf("summary: %s\n", args.out.c_str());
  if (!args.verify_against.empty())
    return verify_against(args, whole, whole.summary.simd_width);
  return 0;
}

int run_fleet(const Args& args) {
  const auto protocol = make_protocol(args);
  if (!protocol) {
    std::fprintf(stderr, "sweep: unknown protocol %s\n", args.protocol.c_str());
    return 2;
  }
  std::optional<fault::FaultPlan> plan;
  parse_plan(args, *protocol, plan);
  const fault::FaultPlan* plan_ptr = plan ? &*plan : nullptr;

  const std::int64_t shard_size =
      args.shard_size > 0
          ? args.shard_size
          : std::max<std::int64_t>(
                1, args.seeds / (4 * static_cast<std::int64_t>(args.workers)));
  const fabric::SweepConfig config = make_config(args, shard_size);

  fabric::CheckpointStore store(args.checkpoint);
  const std::vector<int> done = store.open(config);
  if (args.verbose && !done.empty())
    std::fprintf(stderr, "sweep: resuming, %d/%d shards already committed\n",
                 static_cast<int>(done.size()), store.num_shards());

  std::vector<fabric::ShardTask> tasks;
  for (int i = 0; i < store.num_shards(); ++i)
    tasks.push_back({i, store.shard_range(i)});

  fabric::SupervisorOptions sup;
  sup.workers = args.workers;
  sup.shard_timeout_seconds = args.timeout_s;
  sup.retry_budget = args.retries;
  sup.backoff_initial_seconds =
      static_cast<double>(args.backoff_ms) / 1000.0;
  sup.verbose = args.verbose;

  const fabric::ShardWorker worker = [&](const fabric::ShardTask& task,
                                         int attempt) {
    RunHook hook = nullptr;
#ifndef _WIN32
    if (args.chaos_kill_prob > 0.0) {
      Rng chaos(chaos_stream_seed(args, task.index, attempt));
      if (chaos.with_probability(args.chaos_kill_prob)) {
        // Die after a uniformly chosen run of this shard — mid-shard, so a
        // kill can land after some work is done but before write_shard.
        const std::uint64_t kill_seed =
            task.range.first_seed +
            chaos.below(static_cast<std::uint64_t>(task.range.num_runs));
        hook = [kill_seed](std::uint64_t seed) {
          if (seed == kill_seed) ::_exit(86);
        };
      }
    }
#endif
    const BatchSummary summary =
        run_shard(args, *protocol, plan_ptr, task.range, hook);
    return store.write_shard(task.index, {task.range, summary}) ? 0 : 4;
  };

  const fabric::SweepOutcome outcome =
      fabric::run_supervised(tasks, sup, store, worker);

  const fabric::SweepSummary merged = store.merged();
  // Shard summaries travel as batch_summary.v1 (schema unchanged), so the
  // driver recomputes the width its workers ran at: same binary, same
  // protocol, same options — the probe resolves identically in-process.
  const int simd_width = sweep_simd_width(args, *protocol, plan_ptr);
  if (!ensure_out_dir(args.out) ||
      !obs::write_text_file_atomic(
          args.out, sweep_artifact_json(config, merged, &outcome,
                                        store.num_shards(), simd_width))) {
    std::fprintf(stderr, "sweep: cannot write %s\n", args.out.c_str());
    return 2;
  }

  const BatchSummary partial = merged.to_partial_batch_summary();
  print_summary(partial);
  std::printf("shards           %d/%d committed, %lld retries\n",
              static_cast<int>(merged.num_shards()), store.num_shards(),
              static_cast<long long>(outcome.retries));
  if (!outcome.complete()) {
    std::printf("INCOMPLETE shards:");
    for (const int i : outcome.incomplete_shards) std::printf(" %d", i);
    std::printf("\n");
  }
  std::printf("summary: %s\n", args.out.c_str());

  if (!args.verify_against.empty()) {
    if (!outcome.complete()) return 3;
    return verify_against(args, merged.to_shard(), simd_width);
  }
  return outcome.complete() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return 2;
  try {
    return args.serial ? run_serial(args) : run_fleet(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep: %s\n", e.what());
    return 2;
  }
}
