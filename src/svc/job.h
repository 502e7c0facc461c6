// Job execution: one validated JobSpec in, a stream of wire frames out.
//
// run_job is the bridge between the protocol layer and the engine: it is
// called on a JobQueue worker thread, far from any socket, and talks back
// exclusively through the EmitFrame callback (which the queue routes to the
// owning session's write buffer via the server's outbox). Three kinds:
//
//   sweep  — the seed range is cut into chunks (shard_seed_range, the same
//            unit the fabric uses), each chunk runs through one pooled
//            BatchRunner, and chunk summaries fold into a SweepSummary.
//            Because the fold is the fabric's merge monoid, the final
//            streamed batch_summary.v1 is bit-identical to running the
//            whole range in one BatchRunner call — chunking buys streamed
//            progress and fast cancellation without costing determinism
//            (pinned by svc_test).
//   hunt   — a search (uniform/anneal/evo) over fault-plan genomes via the
//            src/search evaluators; emits progress as budget burns and a
//            replayable worst_plan.v1 artifact as the result.
//   replay — re-evaluates an inline worst_plan.v1 artifact and reports
//            whether the stored claim reproduced; optionally streams the
//            run's event stream as trace frames (obs::LineCallbackSink —
//            the sink-to-socket path).
//
// Cancellation: `cancel` is polled between chunks / evaluations and plumbed
// into BatchRunner (BatchOptions::cancel), so a disconnected client's job
// stops mid-sweep. A cancelled job throws JobCancelled; the queue eats it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "fabric/summary.h"
#include "sched/batch.h"
#include "svc/wire.h"

namespace cil::svc {

/// Thrown by run_job when `cancel` flipped true before completion.
class JobCancelled : public std::runtime_error {
 public:
  JobCancelled() : std::runtime_error("job cancelled") {}
};

/// Server-side execution knobs shared by all jobs.
struct JobLimits {
  std::int64_t default_chunk = 512;     ///< sweep progress granularity
  std::int64_t progress_frames = 20;    ///< target progress events per hunt
  std::int64_t trace_batch_lines = 256; ///< trace frames per emit batch

  // Fault-injection knobs for fleet chaos soaks: after each completed run
  // of a sweep, a per-seed coin with this probability SIGKILLs the daemon
  // mid-shard. Deterministic in (seed, chaos_kill_seed); 0 disables. This
  // exists so a peer daemon can be told to die under a dispatched shard —
  // exercising the frontend's retry/reassignment path — without any
  // test-only code in the data path.
  double chaos_kill_prob = 0.0;
  std::uint64_t chaos_kill_seed = 1;
};

/// Delivers one frame — or a batch of complete frames concatenated into one
/// string — toward the client. Called on the worker thread; must be
/// thread-safe against the server loop (the queue's outbox post is).
using EmitFrame = std::function<void(std::string frames)>;

/// The seam between the service and the fleet layer (src/fleet), shaped so
/// svc never depends on fleet: a daemon running as part of a fleet installs
/// an implementation via ServerOptions, and run_job routes sweeps tagged
/// "fleet":true through it instead of executing locally. Implementations
/// follow run_job's frame contract (progress/result only; no done/error).
class FleetRunner {
 public:
  virtual ~FleetRunner() = default;
  virtual void run_fleet_sweep(const JobSpec& spec,
                               const std::atomic<bool>& cancel,
                               const EmitFrame& emit) = 0;
};

/// Execute `spec`, emitting progress/trace/result frames. Does NOT emit
/// accepted (the session does, synchronously on submit) or done/error (the
/// queue does, so the terminal frame ordering is owned in one place).
/// Throws JobCancelled on cancellation and ContractViolation (or any other
/// exception) on failure. A fleet-tagged sweep with no `fleet` installed
/// fails (the daemon was not started in fleet mode).
void run_job(const JobSpec& spec, const std::atomic<bool>& cancel,
             const JobLimits& limits, const EmitFrame& emit,
             FleetRunner* fleet = nullptr);

/// Execute one contiguous sub-range of a sweep spec synchronously and
/// return its shard summary — the unit the fleet layer runs locally when
/// it degrades (dead peers, exhausted retries). Identical math to the
/// chunks of a plain run_job sweep, so a fleet merge stays bit-identical
/// to the serial run. Never chaos-kills (local execution is the
/// reliability floor). Throws JobCancelled on cancellation.
fabric::ShardSummary run_sweep_shard(const JobSpec& spec,
                                     const SeedRange& range,
                                     const std::atomic<bool>& cancel);

}  // namespace cil::svc
