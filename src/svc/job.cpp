#include "svc/job.h"

#include <csignal>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/bounded_three.h"
#include "core/two_process.h"
#include "core/unbounded.h"
#include "fabric/summary.h"
#include "obs/export.h"
#include "sched/batch.h"
#include "search/artifact.h"
#include "search/evaluate.h"
#include "search/optimize.h"
#include "util/check.h"
#include "util/rng.h"

namespace cil::svc {

namespace {

/// The same protocol/ablation table tools/sweep and tools/hunt expose,
/// restricted to the three core protocols the service serves.
std::unique_ptr<Protocol> make_protocol(const std::string& name, int n,
                                        const std::string& ablation) {
  if (name == "two") {
    TwoProcessProtocol::Options o;
    o.buggy_warm_recovery = (ablation == "warm-recovery");
    return std::make_unique<TwoProcessProtocol>(1, o);
  }
  if (name == "unbounded") {
    UnboundedProtocol::Options o;
    o.literal_condition2 = (ablation == "literal-cond2");
    return std::make_unique<UnboundedProtocol>(n, 1, o);
  }
  if (name == "bounded") {
    BoundedThreeProtocol::Options o;
    o.naive_unanimity = (ablation == "naive-unanimity");
    o.no_blocker_guard = (ablation == "no-guard");
    return std::make_unique<BoundedThreeProtocol>(o);
  }
  CIL_CHECK_MSG(false, "unknown protocol '" + name + "'");
  return nullptr;
}

std::vector<Value> default_inputs(int n) {
  std::vector<Value> inputs;
  inputs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) inputs.push_back(static_cast<Value>(i & 1));
  return inputs;
}

void check_cancel(const std::atomic<bool>& cancel) {
  if (cancel.load(std::memory_order_relaxed)) throw JobCancelled();
}

/// The BatchOptions for one seed range of a sweep spec, shared by plain
/// and fleet sweeps so their shards are the same arithmetic. The adversary
/// maps to the same scheduler seeding tools/sweep uses, so service
/// artifacts verify against sweep artifacts.
BatchOptions sweep_options(const JobSpec& spec, const SeedRange& range,
                           const std::atomic<bool>& cancel) {
  BatchOptions bo;
  bo.first_seed = range.first_seed;
  bo.num_runs = range.num_runs;
  bo.threads = spec.threads;
  bo.max_total_steps = spec.steps;
  bo.check_every = spec.check_every;
  bo.cancel = &cancel;
  if (spec.adversary == "random") {
    bo.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  } else {
    CIL_CHECK_MSG(spec.adversary == "avoid",
                  "unknown adversary '" + spec.adversary + "'");
    bo.lane_sched = {LaneSchedSpec::Kind::kAvoid, 0, 17};
  }
  return bo;
}

/// The chaos-soak kill switch (JobLimits::chaos_kill_prob): a per-seed
/// coin, drawn after each completed run, that SIGKILLs the whole daemon.
/// Seed-keyed so a restarted daemon re-running the same shard dies at the
/// same run — and the retried shard only completes once reassignment or a
/// fresh seed path avoids the mine, which is exactly the behavior the
/// fleet soak wants to exercise. Returns an empty hook when disabled.
RunHook make_chaos_kill_hook(const JobLimits& limits) {
  if (limits.chaos_kill_prob <= 0.0) return nullptr;
  const double prob = std::min(limits.chaos_kill_prob, 1.0);
  const std::uint64_t key = limits.chaos_kill_seed;
  return [prob, key](std::uint64_t seed) {
    const std::uint64_t draw = SplitMix64(key ^ (seed * 0x9E3779B97F4A7C15ull))
                                   .next();
    const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
    if (u < prob) (void)::raise(SIGKILL);
  };
}

void run_sweep(const JobSpec& spec, const std::atomic<bool>& cancel,
               const JobLimits& limits, const EmitFrame& emit) {
  const auto protocol = make_protocol(spec.protocol, spec.n, "");
  const std::vector<Value> inputs =
      default_inputs(protocol->num_processes());

  const std::int64_t chunk_size =
      spec.chunk > 0 ? spec.chunk
                     : std::max<std::int64_t>(1, std::min(limits.default_chunk,
                                                          spec.seeds));
  const std::vector<SeedRange> chunks =
      shard_seed_range({spec.first_seed, spec.seeds}, chunk_size);
  const RunHook chaos = make_chaos_kill_hook(limits);

  BatchRunner runner(*protocol, inputs);
  fabric::SweepSummary merged;
  std::int64_t done = 0, decided = 0, total_steps = 0;
  for (const SeedRange& range : chunks) {
    check_cancel(cancel);
    BatchSummary summary;
    try {
      summary = runner.run(sweep_options(spec, range, cancel), nullptr,
                           nullptr, chaos);
    } catch (const BatchCancelled&) {
      throw JobCancelled();
    }
    done += range.num_runs;
    decided += summary.decided_runs;
    total_steps += summary.total_steps;
    merged.add({range, std::move(summary)});
    emit(frame_progress(spec.id, done, spec.seeds, decided, total_steps));
  }

  emit(frame_result(spec.id, "summary",
                    fabric::shard_summary_to_json(merged.to_shard())));
}

void run_hunt(const JobSpec& spec, const std::atomic<bool>& cancel,
              const JobLimits& limits, const EmitFrame& emit) {
  const auto protocol = make_protocol(spec.protocol, spec.n, spec.ablation);
  const int n = protocol->num_processes();
  const std::vector<Value> inputs = default_inputs(n);

  search::SimEvalOptions eval_opts;
  eval_opts.inputs = inputs;
  eval_opts.max_total_steps = spec.eval_steps;
  const search::Evaluator inner =
      search::make_sim_evaluator(*protocol, eval_opts);

  search::GenomeSpace space;
  space.num_processes = n;
  space.max_crashes = n - 1;
  space.crash_horizon = spec.horizon;
  space.allow_recovery = spec.recovery;
  space.allow_register_faults = spec.reg_faults;

  // Progress + cancellation ride on the evaluator: the optimizers know
  // nothing about the wire, they just call eval budget times.
  const std::int64_t every =
      std::max<std::int64_t>(1, spec.budget / std::max<std::int64_t>(
                                                  1, limits.progress_frames));
  std::int64_t evals = 0;
  const search::Evaluator eval =
      [&](const search::PlanGenome& genome) -> search::Evaluation {
    check_cancel(cancel);
    search::Evaluation e = inner(genome);
    if (++evals % every == 0)
      emit(frame_progress(spec.id, evals, spec.budget, 0, 0));
    return e;
  };

  search::SearchOptions so;
  so.budget = spec.budget;
  so.seed = spec.search_seed;
  search::SearchResult result;
  if (spec.search == "uniform")
    result = search::uniform_search(space, eval, so);
  else if (spec.search == "anneal")
    result = search::anneal(space, eval, so);
  else
    result = search::evolve_one_plus_lambda(space, eval, so);

  const search::WorstPlanArtifact artifact =
      search::make_artifact(result, spec.protocol, "sim", spec.ablation,
                            spec.search, n, inputs);
  emit(frame_result(spec.id, "worst_plan", search::artifact_to_json(artifact)));
}

void run_replay(const JobSpec& spec, const std::atomic<bool>& cancel,
                const JobLimits& limits, const EmitFrame& emit) {
  const search::WorstPlanArtifact artifact =
      search::artifact_from_json(spec.worst_plan);
  CIL_CHECK_MSG(artifact.substrate == "sim",
                "svc replay serves the sim substrate only");
  CIL_CHECK_MSG(artifact.protocol == "two" ||
                    artifact.protocol == "unbounded" ||
                    artifact.protocol == "bounded",
                "svc replay: unsupported protocol '" + artifact.protocol +
                    "'");
  check_cancel(cancel);

  const auto protocol = make_protocol(
      artifact.protocol, artifact.num_processes, artifact.ablation);

  // The sink-to-socket path: replay events render to JSONL lines and leave
  // as trace frames, batched so one emit (one outbox post) carries many.
  std::string batch;
  obs::LineCallbackSink trace_sink([&](std::string line) {
    batch += frame_trace(spec.id, line);
    if (batch.size() >= static_cast<std::size_t>(limits.trace_batch_lines) *
                            64) {  // ~64 bytes/line lower bound
      emit(std::move(batch));
      batch.clear();
    }
  });

  search::SimEvalOptions eval_opts;
  eval_opts.inputs = artifact.inputs;
  eval_opts.max_total_steps = artifact.eval_steps;
  if (spec.stream_events) eval_opts.extra_sink = &trace_sink;
  const search::Evaluator eval =
      search::make_sim_evaluator(*protocol, eval_opts);

  const search::ReplayOutcome outcome = search::replay_artifact(artifact, eval);
  if (!batch.empty()) emit(std::move(batch));

  obs::Json payload = obs::Json::object();
  payload["fitness"] = obs::Json(outcome.eval.fitness);
  payload["violation"] = obs::Json(outcome.eval.violation);
  payload["violation_what"] = obs::Json(outcome.eval.violation_what);
  payload["matches"] = obs::Json(outcome.matches);
  payload["events_streamed"] = obs::Json(trace_sink.events_seen());
  emit(frame_result(spec.id, "replay", std::move(payload)));
}

}  // namespace

void run_job(const JobSpec& spec, const std::atomic<bool>& cancel,
             const JobLimits& limits, const EmitFrame& emit,
             FleetRunner* fleet) {
  check_cancel(cancel);
  if (spec.kind == "sweep") {
    if (spec.fleet) {
      CIL_CHECK_MSG(fleet != nullptr,
                    "fleet sweep refused: this daemon is not in a fleet");
      fleet->run_fleet_sweep(spec, cancel, emit);
    } else {
      run_sweep(spec, cancel, limits, emit);
    }
  } else if (spec.kind == "hunt") {
    run_hunt(spec, cancel, limits, emit);
  } else if (spec.kind == "replay") {
    run_replay(spec, cancel, limits, emit);
  } else {
    CIL_CHECK_MSG(false, "unknown job kind '" + spec.kind + "'");
  }
}

fabric::ShardSummary run_sweep_shard(const JobSpec& spec,
                                     const SeedRange& range,
                                     const std::atomic<bool>& cancel) {
  const auto protocol = make_protocol(spec.protocol, spec.n, "");
  const std::vector<Value> inputs = default_inputs(protocol->num_processes());
  BatchRunner runner(*protocol, inputs);
  try {
    return {range, runner.run(sweep_options(spec, range, cancel), nullptr)};
  } catch (const BatchCancelled&) {
    throw JobCancelled();
  }
}

}  // namespace cil::svc
