// The lane-parallel engine: W independent seeds advancing in lockstep.
//
// A sweep's runs share everything except their seed, so one core can carry W
// of them at once. The lockstep kernel bitslices the whole Figure 1
// automaton: every per-lane field (pc, preference, register word, decision,
// liveness, fault state) is one bit in a 64-bit plane, bit l = lane l, so a
// round is a few dozen word-wide boolean ops for all W lanes together. Only
// the per-lane PRNG states stay in column form, SoA word arrays stepped by
// the same xoshiro256** recurrence as util/rng.h; own-step counts are
// vertical bit-plane counters (fault-free, P1's is the run's total minus
// P0's), and the set of lanes still hosting a run is one word-wide mask. Register-access permissions and widths are
// validated once at setup (the registers and access sites are the same in
// every lane), and the consistency / nontriviality checks run only on
// decision events. The per-seed bookkeeping works on whole masks too: the
// lanes whose runs end in a round are handed to the harvest callback as one
// block and reloaded with the next seeds by one op per plane, so W = 64
// (every bit of a plane) is the default.
//
// The contract that keeps the speedup honest is BIT-IDENTITY: every lane
// produces exactly the run a scalar `Simulation` with the same seed and an
// equivalently-seeded scheduler produces — same PRNG streams (one scheduler
// word per step including single-active picks, coin words only at
// coin-flip steps), same schedule, decisions, step counts, recoveries, and
// max_register_bits. engine_golden_test pins this per lane over the whole
// golden corpus at W in {1,4,8,64}, on the same kernel sweeps run.
//
// The lockstep kernel serves the hot case: TwoProcessProtocol (default
// mode) with binary inputs under uniformly random scheduling, with no
// observation sink and a step budget of at least 1. Everything else —
// adaptive adversaries, other protocols, wider input domains, observed
// runs, probed runs, caller-supplied schedulers, custom rigs — DIVERGES to
// the per-seed path: one pooled Simulation per engine, reset per seed and
// run against a real Scheduler, so divergent lanes are bit-identical by
// construction rather than by reimplementation. It is the only per-seed
// loop a sweep has: BatchRunner runs every shard through a LaneEngine.
// `soa_supported()` reports which path a configuration takes; sweeps need
// not care.
//
// Three dimensions of the kernel are decided per run() call:
//
//  * SIMD WIDTH. The round loop batch-advances the W lanes' xoshiro256**
//    scheduler states (and, masked, the coin states of the lanes about to
//    flip) through util/simd.h's u64x<N> kernels — N in {1, 2, 4} compiled
//    into every binary, the widest CPU-supported one picked at runtime
//    (LaneRunOptions::simd_width and $CIL_SIMD_WIDTH force it down). Width
//    never changes results: a u64x<N> batch update is exactly N scalar
//    updates, so bit-identity holds at every (W, N) combination.
//
//  * FAULTS. A LaneRunOptions::fault_plan brings crash/recovery sweeps
//    into the lanes. The plan's one crash and its victim's one recovery
//    become four planes (crash pending, victim crashed, recovery armed,
//    recovered) plus a per-lane due round; each round opens with the plan's
//    events in step_once order, and recovery applies the protocol's
//    conservative re-read (persisted own word; ⊥ → cold restart) — the
//    exact event semantics of FaultPlanScheduler + Simulation::crash /
//    recover, including idle clock ticks while every live processor is
//    done but a restart is still due. Plans the kernel cannot represent
//    (stalls, word faults, multi-crash, a second recovery of the victim,
//    non-conservative recovery protocols) diverge to the per-seed path,
//    which wraps each seed's scheduler in a real FaultPlanScheduler.
//
//  * SCHEDULE RECORDING. With record_schedule, each stepping lane appends
//    its pick to its own schedule; the sweep path compiles without it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault_plan.h"
#include "sched/simulation.h"

namespace cil {

/// How each lane's scheduler is derived from the lane's run seed. This is a
/// value (not a Scheduler&) so one spec can arm any number of lanes and
/// cross thread boundaries; the two built-in kinds mirror the scheduler
/// factories every sweep in this repo uses.
struct LaneSchedSpec {
  enum class Kind {
    kRandom,  ///< RandomScheduler(seed ^ seed_xor) — lockstep-eligible
    kAvoid,   ///< DecisionAvoidingAdversary(seed + seed_add) — scalar path
  };
  Kind kind = Kind::kRandom;
  std::uint64_t seed_xor = 0x1234;  ///< kRandom: scheduler seed = seed ^ this
  std::uint64_t seed_add = 17;      ///< kAvoid: scheduler seed = seed + this
};

/// Arms and returns the scheduler for one run, given that run's seed. The
/// returned reference must stay valid until the next call. A typical
/// provider owns one pooled scheduler and reseeds it:
///
///   [s = std::make_shared<RandomScheduler>(0)](std::uint64_t seed)
///       -> Scheduler& {
///     s->reseed(seed ^ 0x1234);
///     return *s;
///   };
using SchedulerProvider = std::function<Scheduler&(std::uint64_t seed)>;

/// Optional per-run probe, called right after each run with the finished
/// pooled Simulation still holding the run's final state (e.g. peek final
/// register contents for the Theorem 9 num-field tail).
using RunProbe =
    std::function<std::int64_t(const Simulation&, const SimResult&)>;

/// The scheduler `spec` describes, as a provider owning one pooled
/// scheduler re-armed per seed — what the per-seed path runs when
/// LaneRunOptions::scheduler is unset.
SchedulerProvider spec_scheduler(const LaneSchedSpec& spec);

struct LaneRunOptions {
  /// W, the lockstep lanes (>= 1); capped at 64 and at the number of runs.
  /// Results never depend on it. The default fills every bit of a plane.
  int lanes = 64;
  // Per-run SimOptions fields (seed is supplied per run).
  std::int64_t max_total_steps = 1'000'000;
  std::int64_t check_every = 1;  ///< >= 1 on every path
  bool check_consistency = true;
  bool check_nontriviality = true;
  bool record_schedule = false;
  LaneSchedSpec sched;
  /// Each seed's scheduler, in place of `sched`. Only the per-seed path can
  /// run an arbitrary Scheduler, so setting this takes it; the fault plan,
  /// if any, still wraps what it returns.
  SchedulerProvider scheduler;
  /// Called on the pooled Simulation after each run; the value is reported
  /// as LaneRunView::probe. Takes the per-seed path (the lockstep lanes have
  /// no Simulation to hand it). Must be thread-safe: BatchRunner's workers
  /// share one.
  RunProbe probe;
  /// Custom scalar runner for rigs a scheduler cannot express (per-seed
  /// register-fault hooks, per-seed fault plans). When set, every lane runs
  /// through it and `sched` is ignored; the engine is then purely a
  /// harvesting loop. Must be a pure function of the seed. Excludes
  /// `scheduler`, `probe` and `fault_plan`: it owns its whole rig.
  std::function<SimResult(std::uint64_t seed)> scalar_run;
  /// Observation forces the scalar fallback for all lanes (the lockstep
  /// kernel has no event stream), so an observed lane run emits exactly the
  /// scalar engine's stream — including the kActiveSet counter samples.
  obs::ObsOptions obs;
  /// Optional cooperative cancellation, polled after each harvested block
  /// (per-seed path: before each run). A cancelled poll starts no further
  /// run: in-flight lanes finish their current run first and are harvested,
  /// and run() then returns false without the unstarted remainder.
  const std::atomic<bool>* cancel = nullptr;
  /// Shared fault schedule applied to every run, or null for fault-free
  /// runs. Representable plans (crash/recovery only — see the header
  /// comment) run on the lockstep kernel; the rest take the per-seed
  /// path, which wraps each seed's scheduler in a FaultPlanScheduler (plus
  /// SimRegisterFaults when the plan carries word-fault rates), keyed by
  /// the plan's own seed so every run sees the same fault stream.
  /// Borrowed; must outlive run().
  const fault::FaultPlan* fault_plan = nullptr;
  /// SIMD width for the lockstep kernel: 0 picks the widest compiled width
  /// the CPU supports (downgradable via $CIL_SIMD_WIDTH); 1/2/4 force that
  /// width, clamped to what this process can execute. Results are
  /// bit-identical at every width — the knob exists for the golden-matrix
  /// tests and for pinning cross-width artifact comparisons.
  int simd_width = 0;
};

/// One finished run, as the engine hands it to the harvest callback. The
/// view and everything its pointers reach are valid only during that call:
/// the kernel reuses its view storage for the next block and recycles the
/// lane right after.
struct LaneRunView {
  std::uint64_t seed = 0;
  std::int64_t total_steps = 0;
  std::int64_t steps_p0 = 0;
  std::int64_t steps_p1 = 0;
  std::int64_t recoveries = 0;
  int max_register_bits = 0;
  std::int64_t probe = 0;  ///< LaneRunOptions::probe's value; 0 without one
  bool all_decided = false;
  Value decision = kNoValue;        ///< first decided pid's value
  const Value* decisions = nullptr; ///< per process, kNoValue if undecided
  const std::int64_t* steps_per_process = nullptr;  ///< per process
  int num_processes = 0;
  const ProcessId* schedule = nullptr;  ///< iff record_schedule
  std::int64_t schedule_len = 0;
};

/// Called with each block of finished runs. The lockstep kernel hands over
/// one block per round (under a fault plan, the runs that ended at the
/// round's event phase are a block of their own) holding every lane that
/// finished, in ascending lane order: 1 to W runs. The per-seed path hands
/// over blocks of one run. Across blocks the order is harvest order, NOT
/// seed order — lanes finish when their runs do. BatchRunner folds each
/// run into an order-insensitive summary; callers wanting seed order write
/// into seed-indexed slots, as run_collect does.
using LaneHarvest = std::function<void(std::span<const LaneRunView>)>;

class LaneEngine {
 public:
  /// Every run uses the same protocol and inputs; only the seed varies.
  LaneEngine(const Protocol& protocol, std::vector<Value> inputs);
  ~LaneEngine();

  /// True iff (protocol, options) take the lockstep kernel; false means
  /// run() still works, through the per-seed path.
  bool soa_supported(const LaneRunOptions& options) const;

  /// The SIMD width the lockstep kernel will run at under `options` — after the
  /// simd_width/$CIL_SIMD_WIDTH override and the runtime CPU clamp — or 1
  /// when the configuration takes the per-seed path (scalar math IS the
  /// width-1 kernel). What BatchSummary::simd_width reports.
  int selected_simd_width(const LaneRunOptions& options) const;

  /// Sweep seeds [first_seed, first_seed + num_runs), W at a time, calling
  /// `harvest` with every finished run exactly once, in blocks. Returns
  /// false iff options.cancel flipped true before every run was harvested
  /// (the remainder is skipped; harvested runs stay valid). Property
  /// violations throw CoordinationViolation, after the finished runs of the
  /// violating round's lower lanes are delivered; failed_run_index() then
  /// names the run a serial sweep would blame.
  bool run(std::uint64_t first_seed, std::int64_t num_runs,
           const LaneRunOptions& options, const LaneHarvest& harvest);

  /// Convenience for tests: run and collect full SimResults in seed order.
  std::vector<SimResult> run_collect(std::uint64_t first_seed,
                                     std::int64_t num_runs,
                                     const LaneRunOptions& options);

  /// After a throwing run(): the 0-based run index (seed - first_seed) of
  /// the failing run.
  std::int64_t failed_run_index() const { return failed_run_index_; }

 private:
  struct Soa;  // the kernel's per-lane PRNG columns (lane_engine.cpp)

  bool run_soa(std::uint64_t first_seed, std::int64_t num_runs,
               const LaneRunOptions& options, const LaneHarvest& harvest);
  /// The lockstep kernel: the whole Figure 1 automaton bitsliced to one bit
  /// per lane in 64-bit planes, so a round costs a few dozen word-wide
  /// boolean ops for all W lanes together. Specialized at compile time on
  /// whether the pid schedule is recorded (the sweep path carries no
  /// push_back code) and on whether a fault plan is armed (the fault-free
  /// path carries no fault planes and no per-round event phase).
  template <bool kRecordSchedule, bool kFaults>
  bool run_soa_sliced(std::uint64_t first_seed, std::int64_t num_runs,
                      const LaneRunOptions& options,
                      const LaneHarvest& harvest);
  bool run_scalar(std::uint64_t first_seed, std::int64_t num_runs,
                  const LaneRunOptions& options, const LaneHarvest& harvest);

  const Protocol& protocol_;
  std::vector<Value> inputs_;
  bool two_process_default_mode_ = false;  ///< lockstep kernel precondition
  std::unique_ptr<Soa> soa_;               ///< lazily sized to options.lanes
  std::int64_t failed_run_index_ = -1;
};

}  // namespace cil
