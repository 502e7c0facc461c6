// sweep — the crash-tolerant distributed sweep driver.
//
// Runs a seed sweep of a chosen protocol/scheduler pair as a supervised
// fleet of forked worker processes (src/fabric): the seed range is cut into
// fixed-size shards, each shard runs through BatchRunner inside its own
// child process, and each finished shard is persisted atomically into a
// checkpoint directory; that shard file is the shard's commit. Workers that
// crash, hang, or are chaos-killed are retried with exponential backoff; a
// shard that exhausts its retry budget degrades the sweep to an explicit
// partial result instead of poisoning it. Re-running the same command
// against the same --checkpoint directory resumes: committed shards are
// skipped, and the final merged summary is bit-identical to an
// uninterrupted run — which --serial + --verify-against can prove from a
// second process.
//
//   # a 4-worker sweep, checkpointed, with fault injection:
//   ./tools/sweep --protocol=unbounded --n=3 --seeds=240 --workers=4 \
//       --checkpoint=ckpt --chaos-kill-prob=0.3 --retries=12
//   # the same range in one process; verify bit-identity with the above:
//   ./tools/sweep --protocol=unbounded --n=3 --seeds=240 --serial \
//       --out=serial.json --verify-against=ckpt/summary.json
//
// `sweep --help` lists every flag and the exit codes.
//
// The flags from --protocol to --shard-size are one fabric::SweepConfig,
// the spec coordd's sweep jobs and the fleet's shards run too; a
// fabric::Sweep (src/fabric/sweep.h) refuses it naming the first bad field
// (exit 2), or runs every shard through BatchRunner's lane engine. Figure 1
// under random scheduling takes its bitsliced lockstep kernel, fault-free
// or under a representable crash/recovery plan; everything else takes its
// per-seed path. Summaries are bit-identical either way.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "fabric/checkpoint.h"
#include "fabric/summary.h"
#include "fabric/supervisor.h"
#include "fabric/sweep.h"
#include "obs/export.h"
#include "sched/batch.h"
#include "tools/cli_util.h"
#include "util/rng.h"

using namespace cil;

namespace {

constexpr const char* kUsage =
    "usage: sweep [flags]\n"
    "sweep:\n"
    "  --protocol=two|unbounded|bounded  (default unbounded)\n"
    "  --n=<procs>              process count (unbounded only; default 3)\n"
    "  --adversary=random|avoid (default random)\n"
    "  --fault-plan=SPEC        a shared fault schedule for every run, in\n"
    "                           FaultPlan::serialize form, e.g.\n"
    "                           \"fp1;seed=1;crash=0@2;recover=0@8\"\n"
    "  --seeds=<count>          (default 200)\n"
    "  --first-seed=<s>         (default 1)\n"
    "  --steps=<per-run cap>    (>= 1; default 1000000)\n"
    "  --check-every=<k>        (>= 1; default 1)\n"
    "  --shard-size=<runs>      (default 0: seeds / (4 * workers), min 1)\n"
    "fabric:\n"
    "  --workers=<procs>        forked workers (default 2)\n"
    "  --threads=<n>            BatchRunner threads per worker (default 1)\n"
    "  --timeout-s=<secs>       per-shard wall clock; the worker is\n"
    "                           SIGKILLed and the shard retried\n"
    "                           (default 120; <= 0 disables)\n"
    "  --retries=<n>            retries per shard after its first attempt;\n"
    "                           a shard that fails n+1 times is reported\n"
    "                           incomplete (default 3)\n"
    "  --backoff-ms=<ms>        gate before a shard's first retry; it\n"
    "                           doubles per retry, up to 5 s (default 100)\n"
    "  --checkpoint=DIR         (default sweep_ckpt) holds manifest.json,\n"
    "                           the sweep's identity, written once, and one\n"
    "                           shard_<i>.json per finished shard. The\n"
    "                           atomically written shard file is the\n"
    "                           shard's commit: rerunning the command\n"
    "                           resumes from every valid shard file, and\n"
    "                           reruns any shard whose file is missing.\n"
    "                           A directory written by a different sweep\n"
    "                           (any sweep: flag, or a shard size --workers\n"
    "                           resolves differently) is refused.\n"
    "  --out=FILE               (default <checkpoint>/summary.json)\n"
    "  --chaos-kill-prob=<p>    each shard attempt _exit()s mid-shard with\n"
    "                           probability p (deterministic per attempt)\n"
    "  --chaos-seed=<s>         (default 1)\n"
    "  --serial                 run in-process: no fork, no checkpoint\n"
    "  --verify-against=FILE    compare this run's summary with an artifact\n"
    "  --verbose                per-shard events on stderr\n"
    "  --help                   this text\n"
    "exit: 0 complete (and verified); 1 verify mismatch; 2 usage or config\n"
    "error; 3 incomplete (a shard spent its retries)\n";

struct Args {
  /// The sweep the flags describe. shard_size 0 is resolved per mode:
  /// seeds / (4 * workers) when forked, the whole range with --serial.
  fabric::SweepConfig sweep;
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
  bool help = false;
};

bool parse(int argc, char** argv, Args& args) {
  fabric::SweepConfig& sweep = args.sweep;
  sweep.protocol = "unbounded";
  sweep.num_processes = 3;
  sweep.scheduler = "random";
  sweep.range = {1, 200};
  cli::FlagSet flags(argc, argv);
  args.help = flags.take_switch("help");
  if (args.help) return true;
  flags.take_string("protocol", sweep.protocol);
  flags.take_int("n", sweep.num_processes);
  flags.take_string("adversary", sweep.scheduler);
  flags.take_string("fault-plan", sweep.fault_plan);
  flags.take_int("seeds", sweep.range.num_runs);
  flags.take_uint64("first-seed", sweep.range.first_seed);
  flags.take_int("steps", sweep.max_total_steps);
  flags.take_int("check-every", sweep.check_every);
  flags.take_int("shard-size", sweep.shard_size);
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
  if (args.workers < 1 || args.threads < 0 || args.retries < 0 ||
      args.chaos_kill_prob < 0.0 || args.chaos_kill_prob > 1.0) {
    std::fprintf(stderr, "sweep: flag value out of range\n");
    return false;
  }
  if (args.out.empty()) args.out = args.checkpoint + "/summary.json";
  return true;
}

/// Write `text` to `out` atomically, creating its directory first (atomic
/// writes need it to exist); reports a failure on stderr.
bool write_artifact(const std::string& out, const std::string& text) {
  const auto parent = std::filesystem::path(out).parent_path();
  std::error_code ec;
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  if ((parent.empty() || std::filesystem::is_directory(parent)) &&
      obs::write_text_file_atomic(out, text))
    return true;
  std::fprintf(stderr, "sweep: cannot write %s\n", out.c_str());
  return false;
}

/// One 64-bit identity per (chaos_seed, shard, attempt): a retried shard
/// draws a fresh kill decision instead of dying identically forever.
std::uint64_t chaos_stream_seed(const Args& args, int shard, int attempt) {
  SplitMix64 sm(args.chaos_seed ^
                (static_cast<std::uint64_t>(shard) << 20) ^
                static_cast<std::uint64_t>(attempt));
  return sm.next();
}

/// Artifact written to --out: the merged summary in batch_summary.v2 form
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
  fabric::SweepConfig config = args.sweep;
  config.shard_size = config.range.num_runs;  // one shard: the whole range
  const fabric::Sweep sweep(std::move(config));

  fabric::ShardSummary whole;
  whole.range = sweep.config().range;
  whole.summary = sweep.run(whole.range, args.threads);

  fabric::SweepSummary merged;
  merged.add(whole);
  if (!write_artifact(args.out,
                      sweep_artifact_json(sweep.config(), merged, nullptr, 1,
                                          whole.summary.simd_width)))
    return 2;
  print_summary(whole.summary);
  std::printf("summary: %s\n", args.out.c_str());
  if (!args.verify_against.empty())
    return verify_against(args, whole, whole.summary.simd_width);
  return 0;
}

int run_fleet(const Args& args) {
  fabric::SweepConfig config = args.sweep;
  if (config.shard_size == 0)
    config.shard_size = std::max<std::int64_t>(
        1, config.range.num_runs / (4 * std::int64_t{args.workers}));
  // Built (and validated) before any worker forks; every child runs it.
  const fabric::Sweep sweep(std::move(config));

  fabric::CheckpointStore store(args.checkpoint);
  const std::vector<int> done = store.open(sweep.config());
  if (args.verbose && !done.empty())
    std::fprintf(stderr, "sweep: resuming, %d/%d shards already committed\n",
                 static_cast<int>(done.size()), store.num_shards());

  std::vector<fabric::ShardTask> tasks;
  for (int i = 0; i < store.num_shards(); ++i)
    tasks.push_back({i, store.shard_range(i)});

  fabric::SupervisorOptions sup;
  sup.workers = args.workers;
  sup.policy.timeout_seconds = args.timeout_s;
  sup.policy.retry_budget = args.retries;
  sup.policy.backoff_initial_seconds =
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
        sweep.run(task.range, args.threads, nullptr, hook);
    return store.write_shard(task.index, {task.range, summary}) ? 0 : 4;
  };

  const fabric::SweepOutcome outcome =
      fabric::run_supervised(tasks, sup, store, worker);

  const fabric::SweepSummary merged = store.merged();
  // Shard summaries do not record the SIMD width (it is not part of the
  // batch_summary.v2 schema), so the supervising process recomputes the
  // width its workers ran at: same binary, same sweep, so the probe
  // resolves identically in-process.
  const int simd_width = sweep.simd_width();
  if (!write_artifact(args.out,
                      sweep_artifact_json(sweep.config(), merged, &outcome,
                                          store.num_shards(), simd_width)))
    return 2;

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
  if (!parse(argc, argv, args)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (args.help) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  try {
    return args.serial ? run_serial(args) : run_fleet(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep: %s\n", e.what());
    return 2;
  }
}
