#include "fabric/sweep.h"

#include <limits>

#include "core/bounded_three.h"
#include "core/two_process.h"
#include "core/unbounded.h"
#include "util/check.h"

namespace cil::fabric {

namespace {

using obs::Json;

[[noreturn]] void spec_fail(const std::string& what) {
  throw ContractViolation("sweep spec: " + what);
}

void require_positive(const char* field, std::int64_t value) {
  if (value < 1)
    spec_fail(std::string(field) + " must be >= 1 (got " +
              std::to_string(value) + ")");
}

}  // namespace

Json sweep_config_to_json(const SweepConfig& config) {
  Json j = Json::object();
  j["protocol"] = Json(config.protocol);
  j["num_processes"] = Json(config.num_processes);
  j["scheduler"] = Json(config.scheduler);
  j["first_seed"] = Json(std::to_string(config.range.first_seed));
  j["num_runs"] = Json(config.range.num_runs);
  j["shard_size"] = Json(config.shard_size);
  j["max_total_steps"] = Json(config.max_total_steps);
  j["check_every"] = Json(config.check_every);
  // Written only when set: fault-free manifests keep their historical shape,
  // so pre-fault checkpoints stay resumable by this binary and vice versa.
  if (!config.fault_plan.empty()) j["fault_plan"] = Json(config.fault_plan);
  return j;
}

SweepConfig sweep_config_from_json(const Json& j) {
  SweepConfig c;
  c.protocol = j.at("protocol").as_string();
  c.num_processes = static_cast<int>(j.at("num_processes").as_int());
  c.scheduler = j.at("scheduler").as_string();
  c.range.first_seed = std::stoull(j.at("first_seed").as_string());
  c.range.num_runs = j.at("num_runs").as_int();
  c.shard_size = j.at("shard_size").as_int();
  c.max_total_steps = j.at("max_total_steps").as_int();
  c.check_every = j.at("check_every").as_int();
  if (const Json* v = j.find("fault_plan")) c.fault_plan = v->as_string();
  return c;
}

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
  throw ContractViolation("unknown protocol '" + name + "'");
}

std::vector<Value> sweep_inputs(int num_processes) {
  std::vector<Value> inputs;
  for (int i = 0; i < num_processes; ++i)
    inputs.push_back(static_cast<Value>(i & 1));
  return inputs;
}

Sweep::Sweep(SweepConfig config) : config_(std::move(config)) {
  SweepConfig& c = config_;
  if (c.protocol == "two" || c.protocol == "bounded")
    c.num_processes = c.protocol == "two" ? 2 : 3;
  else if (c.protocol != "unbounded")
    spec_fail("protocol '" + c.protocol +
              "' is not one of two, unbounded, bounded");
  if (c.scheduler != "random" && c.scheduler != "avoid")
    spec_fail("scheduler '" + c.scheduler + "' is not random or avoid");
  sched_.kind = c.scheduler == "random" ? LaneSchedSpec::Kind::kRandom
                                        : LaneSchedSpec::Kind::kAvoid;
  if (c.num_processes < 2)
    spec_fail("num_processes must be >= 2 for unbounded (got " +
              std::to_string(c.num_processes) + ")");
  require_positive("num_runs", c.range.num_runs);
  if (static_cast<std::uint64_t>(c.range.num_runs - 1) >
      std::numeric_limits<std::uint64_t>::max() - c.range.first_seed)
    spec_fail("first_seed " + std::to_string(c.range.first_seed) + " + " +
              std::to_string(c.range.num_runs) + " runs goes past 2^64");
  require_positive("shard_size", c.shard_size);
  require_positive("max_total_steps", c.max_total_steps);
  require_positive("check_every", c.check_every);
  if (!c.fault_plan.empty()) {
    try {
      plan_ = fault::FaultPlan::parse(c.fault_plan);
      plan_->validate(c.num_processes);
    } catch (const ContractViolation& e) {
      spec_fail(std::string("fault_plan: ") + e.what());
    }
  }
  protocol_ = make_protocol(c.protocol, c.num_processes);
  inputs_ = sweep_inputs(c.num_processes);
}

int Sweep::simd_width() const {
  LaneRunOptions lo;
  lo.sched = sched_;
  lo.fault_plan = plan_ ? &*plan_ : nullptr;
  return LaneEngine(*protocol_, inputs_).selected_simd_width(lo);
}

BatchSummary Sweep::run(const SeedRange& range, int threads,
                        const std::atomic<bool>* cancel,
                        const RunHook& after_run) const {
  CIL_EXPECTS(range.num_runs >= 0 &&
              range.num_runs <= config_.range.num_runs &&
              range.first_seed >= config_.range.first_seed &&
              range.first_seed - config_.range.first_seed <=
                  static_cast<std::uint64_t>(config_.range.num_runs -
                                             range.num_runs));
  BatchOptions bo;
  bo.first_seed = range.first_seed;
  bo.num_runs = range.num_runs;
  bo.threads = threads;
  bo.lane_sched = sched_;
  bo.fault_plan = plan_ ? &*plan_ : nullptr;
  bo.max_total_steps = config_.max_total_steps;
  bo.check_every = config_.check_every;
  bo.cancel = cancel;
  return BatchRunner(*protocol_, inputs_).run(bo, nullptr, nullptr, after_run);
}

}  // namespace cil::fabric
