// Seed-parallel batch execution.
//
// A sweep of independent runs — one per seed — is the workload behind every
// bench, tail plot, and fitness sweep in this repo. BatchRunner splits the
// seed range [first_seed, first_seed + num_runs) into contiguous shards,
// one per std::thread worker, and runs each shard through one LaneEngine
// (sched/lane_engine.h). The engine picks the kernel: W seeds in lockstep
// when the configuration allows it, otherwise one pooled Simulation re-armed
// per seed via Simulation::reset() (allocation-free for the core protocols
// after warmup; pinned by batch_test's counting allocator).
//
// Determinism is the contract that makes the parallelism invisible: a run's
// outcome is a pure function of (protocol, inputs, options, seed), because
// reset() restarts the PRNG stream and each worker's scheduler is re-armed
// per seed. Each worker folds every finished run into its own partial
// BatchSummary (add_run) as the engine harvests it, and the join merges the
// partials (merge). Every deterministic field is a commutative sum — counts,
// exact integer tallies, and a seed-keyed digest — so neither harvest order
// nor shard boundaries can reach the result: the BatchSummary is
// bit-identical whether the sweep ran on 1 thread or 16, with 1 lane or 64
// (pinned by batch_test), and a sweep holds O(distinct values) per worker,
// not O(runs).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sched/lane_engine.h"
#include "sched/simulation.h"
#include "util/stats.h"

namespace cil {

/// A contiguous range of per-run seeds: runs use first_seed + i for
/// i in [0, num_runs). The unit of sharding at every level — BatchRunner
/// splits one range across threads, the fabric (src/fabric) splits one
/// range across worker processes — so both levels agree on boundaries.
struct SeedRange {
  std::uint64_t first_seed = 1;
  std::int64_t num_runs = 0;

  friend bool operator==(const SeedRange&, const SeedRange&) = default;
};

/// Split into `parts` contiguous sub-ranges covering `range` in order;
/// earlier parts get the remainder (sizes differ by at most one). This is
/// exactly the split BatchRunner::run uses for its thread shards. Parts
/// beyond num_runs come back empty-free: the result has
/// min(parts, num_runs) entries (zero entries for an empty range).
std::vector<SeedRange> split_seed_range(const SeedRange& range, int parts);

/// Split into contiguous shards of `shard_size` runs (the last shard takes
/// the remainder). The fabric's process-level unit of work and checkpoint.
std::vector<SeedRange> shard_seed_range(const SeedRange& range,
                                        std::int64_t shard_size);

/// A test hook, not a knob: the summary is bit-identical either way
/// (pinned by batch_test). kScalar forces every run onto the engine's
/// per-seed path, even where the lockstep kernels could serve it. The
/// perfbench/ programs still assign kLane; this enum and the field go when
/// that benchmark next changes.
enum class BatchEngine {
  kScalar,  ///< every run on the per-seed path
  kLane,    ///< the engine picks its kernel (the default)
};

struct BatchOptions {
  std::uint64_t first_seed = 1;  ///< runs use seeds first_seed + i
  std::int64_t num_runs = 0;
  /// Worker threads; 0 = hardware concurrency. Clamped to num_runs. The
  /// summary does not depend on this (only the wall timings do).
  int threads = 1;
  BatchEngine engine = BatchEngine::kLane;
  /// Lockstep lanes per worker's LaneEngine, 1 to 64; the default fills a
  /// whole 64-bit plane. The summary never depends on it (nor on threads);
  /// only the rate does.
  int lanes = 64;
  /// Each run's scheduler when run() gets no scheduler factory.
  LaneSchedSpec lane_sched;
  /// Shared fault schedule applied to every run, or null for fault-free
  /// sweeps. LaneEngine carries representable crash/recovery plans in its
  /// lanes and wraps each seed's scheduler in a FaultPlanScheduler for the
  /// rest, with bit-identical summaries. Borrowed; must outlive run().
  const fault::FaultPlan* fault_plan = nullptr;
  // Per-run SimOptions (seed is supplied per run).
  std::int64_t max_total_steps = 1'000'000;
  std::int64_t check_every = 1;
  bool check_consistency = true;
  bool check_nontriviality = true;
  /// Optional cooperative cancellation, polled by each worker's engine
  /// (LaneRunOptions::cancel). When the flag flips true, workers finish
  /// their in-flight runs, stop, and run() throws BatchCancelled after
  /// joining — no partial summary escapes. Borrowed;
  /// must outlive run(). The coordination service (src/svc) points this at
  /// a job ticket so a disconnected client stops burning cores mid-sweep.
  const std::atomic<bool>* cancel = nullptr;
};

/// Thrown by BatchRunner::run when BatchOptions::cancel flipped true before
/// the sweep finished. Deliberately NOT a ContractViolation: cancellation
/// is a normal control-flow outcome, not a bug.
class BatchCancelled : public std::runtime_error {
 public:
  BatchCancelled() : std::runtime_error("batch cancelled") {}
};

/// Called once per worker (and once on the serial path) to build that
/// worker's private SchedulerProvider (sched/lane_engine.h). Workers never
/// share scheduler state, so the factory's products need no
/// synchronization of their own:
///
///   batch.run(opts, [] {
///     auto s = std::make_shared<RandomScheduler>(0);
///     return [s](std::uint64_t seed) -> Scheduler& {
///       s->reseed(seed ^ 0x1234);
///       return *s;
///     };
///   });
using SchedulerFactory = std::function<SchedulerProvider()>;

/// Optional per-run hook, called on the worker thread after each finished
/// run (after the probe) with that run's seed. NOT part of the summary —
/// it exists for side effects: progress reporting, and the fabric's
/// chaos-kill injection (a hook that _exit()s the worker process mid-shard).
/// Must be thread-safe: workers call it concurrently. Within a shard the
/// hook fires in harvest order — block by block, ascending lane order
/// inside a block — not seed order; callers keying side effects on the
/// seed (every existing user) are unaffected.
using RunHook = std::function<void(std::uint64_t seed)>;

/// The facts one finished run contributes to a BatchSummary.
struct RunRecord {
  std::int64_t total_steps = 0;
  std::int64_t steps_p0 = 0;  ///< own steps of pid 0
  std::int64_t steps_p1 = 0;  ///< own steps of pid 1 (0 when n == 1)
  std::int64_t recoveries = 0;
  int max_register_bits = 0;
  Value decision = kNoValue;  ///< first decided pid's value
  bool all_decided = false;
  std::optional<std::int64_t> probe;  ///< RunProbe's value; empty without one
};

/// H(seed, record): one run's term of BatchSummary::run_digest, covering
/// every RunRecord field. Part of the cilcoord.batch_summary.v2 schema
/// (fabric/summary.h): artifacts written by different builds compare equal
/// only if this function does not change.
std::uint64_t run_digest_term(std::uint64_t seed, const RunRecord& record);

/// The deterministic reduction of a batch: every field above the
/// wall-clock block is a pure function of (protocol, inputs, options, seed
/// range). All of them are commutative sums over runs, so add_run and
/// merge form one monoid — the reduction BatchRunner's workers, the fabric's
/// shards, the service's chunks and the fleet's peers all use.
struct BatchSummary {
  std::int64_t num_runs = 0;
  std::int64_t decided_runs = 0;  ///< runs with SimResult::all_decided
  /// Decision value -> number of runs deciding it (runs that reached at
  /// least one decision; kNoValue never appears as a key).
  std::map<Value, std::int64_t> decision_counts;
  std::int64_t total_steps = 0;  ///< summed over runs
  std::int64_t recoveries = 0;   ///< summed over runs
  Tally steps;                   ///< total steps per run
  Tally steps_p0;                ///< own-steps of pid 0 per run
  Tally steps_p1;                ///< own-steps of pid 1 (n >= 2)
  Tally max_register_bits;       ///< Theorem 9 high-water mark per run
  Tally probe;                   ///< RunProbe values; empty without a probe
  /// Sum over runs of run_digest_term(seed, record), mod 2^64. The tallies
  /// forget which seed produced which value; the digest keeps per-seed
  /// identity: it needs no ordering, yet a change to any one run (or two
  /// seeds trading records) moves it.
  std::uint64_t run_digest = 0;

  // Machine/engine metadata — NOT part of the deterministic contract (the
  // values above never depend on them; pinned by batch_test). construct/run
  // are summed across workers (CPU-seconds-like); wall is end-to-end.
  /// The SIMD width the lane kernels ran at (after $CIL_SIMD_WIDTH and the
  /// runtime CPU clamp); 1 when the sweep took the per-seed path. Reported
  /// so artifacts record which vector ISA computed them (see tools/sweep
  /// --verify-against).
  int simd_width = 1;
  double wall_seconds = 0.0;
  /// LaneEngine construction only. Per-seed Simulation reset and scheduler
  /// arming happen inside the engine's run and count as run_seconds.
  double construct_seconds = 0.0;
  double run_seconds = 0.0;  ///< LaneEngine::run, the whole shard

  /// Fold one finished run in. O(1) and allocation-free once the tallies
  /// have grown to the run's values.
  void add_run(std::uint64_t seed, const RunRecord& record);
  /// Fold another summary in: deterministic fields add (the monoid
  /// operation, commutative and associative); the wall-clock block is
  /// summed and simd_width takes the larger width.
  void merge(const BatchSummary& other);
};

class BatchRunner {
 public:
  /// Every run uses the same protocol and inputs; only the seed varies.
  BatchRunner(const Protocol& protocol, std::vector<Value> inputs);

  /// Execute the sweep. A non-null `make_scheduler` sets every run's
  /// schedule (called once per worker); otherwise options.lane_sched does.
  /// A probe's values land in BatchSummary::probe. Throws the earliest-seed
  /// CoordinationViolation (or other error) a serial sweep would have hit,
  /// after all workers joined.
  BatchSummary run(const BatchOptions& options,
                   const SchedulerFactory& make_scheduler,
                   const RunProbe& probe = nullptr,
                   const RunHook& after_run = nullptr);

 private:
  const Protocol& protocol_;
  std::vector<Value> inputs_;
};

}  // namespace cil
