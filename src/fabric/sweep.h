// One sweep spec: what a seed sweep is, for every surface that runs one.
//
// `sweep`, coordd's sweep jobs and the fleet's shards all describe a sweep
// as a SweepConfig and run it through a Sweep, so their artifacts are the
// same arithmetic by construction: the protocol table below, inputs
// 0, 1, 0, ..., and the scheduler map "random" -> LaneSchedSpec{kRandom},
// "avoid" -> LaneSchedSpec{kAvoid}, whose defaults are the per-seed
// scheduler seeding (sched/lane_engine.h). SweepConfig is also the
// checkpoint identity (manifest v1, fabric/checkpoint.h) and the `config`
// object of `sweep` artifacts, and its JSON codec below is the only one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "obs/json.h"
#include "sched/batch.h"

namespace cil::fabric {

/// Everything that determines a sweep's deterministic outcome — the
/// identity of a checkpoint directory. Two configs that differ in ANY field
/// would produce different shard summaries, so CheckpointStore::open
/// refuses to resume across a mismatch.
struct SweepConfig {
  std::string protocol;   ///< "two" | "unbounded" | "bounded"
  int num_processes = 2;
  std::string scheduler;  ///< "random" | "avoid"
  SeedRange range;        ///< the full sweep range
  std::int64_t shard_size = 0;  ///< runs per shard (>= 1)
  std::int64_t max_total_steps = 1'000'000;
  std::int64_t check_every = 1;
  /// Shared fault schedule in FaultPlan::serialize form; empty = fault-free.
  /// Part of the identity: the same seeds under a different plan produce
  /// different summaries, so a resume across plans must be refused.
  std::string fault_plan;

  friend bool operator==(const SweepConfig&, const SweepConfig&) = default;
};

obs::Json sweep_config_to_json(const SweepConfig& config);
SweepConfig sweep_config_from_json(const obs::Json& j);

/// The protocol table: `two`, `unbounded` (n processes) or `bounded`, with
/// that protocol's planted bug when `ablation` names it ("warm-recovery",
/// "literal-cond2", "naive-unanimity", "no-guard"; any other name plants
/// none). Throws ContractViolation on an unknown protocol.
std::unique_ptr<Protocol> make_protocol(const std::string& name, int n,
                                        const std::string& ablation = "");

/// The input rule: pid i proposes i & 1.
std::vector<Value> sweep_inputs(int num_processes);

/// A validated sweep, ready to run any sub-range of its seed range.
class Sweep {
 public:
  /// Normalizes num_processes (2 for `two`, 3 for `bounded`) and checks
  /// every field: known protocol and scheduler, num_processes >= 2 for
  /// `unbounded`, num_runs >= 1 with the whole range below 2^64,
  /// shard_size, max_total_steps and check_every >= 1, and a fault plan
  /// that parses and validates for num_processes. Throws ContractViolation
  /// naming the first field that fails.
  explicit Sweep(SweepConfig config);

  /// The normalized config: the checkpoint identity and artifact `config`.
  const SweepConfig& config() const { return config_; }

  /// The SIMD width this sweep's lane kernels run at on this host, as
  /// BatchSummary::simd_width reports it; 1 on the per-seed path.
  int simd_width() const;

  /// Run `range`, which must lie inside config().range, on `threads`
  /// BatchRunner threads (0 = hardware concurrency). `cancel` and
  /// `after_run` are BatchOptions::cancel and BatchRunner's RunHook; a
  /// cancelled run throws BatchCancelled.
  BatchSummary run(const SeedRange& range, int threads,
                   const std::atomic<bool>* cancel = nullptr,
                   const RunHook& after_run = nullptr) const;

 private:
  SweepConfig config_;
  std::unique_ptr<Protocol> protocol_;
  std::vector<Value> inputs_;
  LaneSchedSpec sched_;
  std::optional<fault::FaultPlan> plan_;
};

}  // namespace cil::fabric
