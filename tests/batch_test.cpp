// Pooled-simulation and BatchRunner pins:
//
//   * reset-vs-fresh bit-identity, replayed over the SAME corpus
//     engine_golden_test uses (tests/data/engine_goldens.txt): a pooled
//     Simulation that already ran a different seed, then reset(), must
//     reproduce every corpus line byte-for-byte;
//   * BatchRunner thread-count invariance: the BatchSummary (counts,
//     sample vectors in seed order, probe values) is identical on 1 and 4
//     worker threads;
//   * the reset path is allocation-free after warmup for the core
//     protocols (counting global operator new);
//   * a multi-thread smoke with crash/recovery fault schedules — the
//     TSan CI job runs this binary to pin BatchRunner's data-race freedom.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bounded_three.h"
#include "core/two_process.h"
#include "core/unbounded.h"
#include "fault/fault_plan.h"
#include "fault/sim_faults.h"
#include "sched/adversary.h"
#include "sched/batch.h"
#include "sched/schedulers.h"
#include "sched/simulation.h"
#include "util/simd.h"

// ---------------------------------------------------------------------------
// Counting allocator: every global allocation bumps a counter, so a test can
// assert that a code region performs none. Kept trivially simple (malloc +
// relaxed atomic) so it is safe under TSan too.

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cil {
namespace {

#ifndef CIL_GOLDENS_PATH
#define CIL_GOLDENS_PATH "tests/data/engine_goldens.txt"
#endif

// -- reset-vs-fresh over the golden corpus ---------------------------------
// Mirrors engine_golden_test's replay_case, except every run happens on a
// POOLED Simulation that first ran a decoy seed (seed + 1000th prime away)
// and was then reset() — so a byte-equal corpus proves reset ≡ fresh.

std::string format_run(const std::string& name, std::uint64_t seed,
                       const SimResult& r) {
  std::ostringstream os;
  os << name << " seed=" << seed << " total=" << r.total_steps
     << " recoveries=" << r.recoveries << " bits=" << r.max_register_bits
     << " dec=";
  for (std::size_t i = 0; i < r.decisions.size(); ++i)
    os << (i == 0 ? "" : ",") << r.decisions[i];
  os << " sched=";
  for (std::size_t i = 0; i < r.schedule.size(); ++i)
    os << (i == 0 ? "" : ",") << r.schedule[i];
  return os.str();
}

SimOptions base_options(std::uint64_t seed) {
  SimOptions options;
  options.seed = seed;
  options.max_total_steps = 200'000;
  options.record_schedule = true;
  return options;
}

/// Run the corpus case on a pooled Simulation: construct with a decoy seed,
/// run it to pollute all internal state, then reset() to the real seed.
std::string replay_case_pooled(const std::string& name, std::uint64_t seed) {
  const std::uint64_t decoy = seed + 7919;

  const auto run = [&](const Protocol& protocol,
                       const std::vector<Value>& inputs,
                       const std::function<std::unique_ptr<Scheduler>(
                           std::uint64_t)>& make_sched) -> std::string {
    Simulation sim(protocol, inputs, base_options(decoy));
    (void)sim.run(*make_sched(decoy));
    sim.reset(inputs, base_options(seed));
    return format_run(name, seed, sim.run(*make_sched(seed)));
  };

  const std::string proto = name.substr(0, name.find('/'));
  const std::string kind = name.substr(name.find('/') + 1);

  if (kind == "random" || kind == "adversary") {
    const auto make_sched =
        [&kind](std::uint64_t s) -> std::unique_ptr<Scheduler> {
      if (kind == "random") return std::make_unique<RandomScheduler>(s ^ 0x1234);
      return std::make_unique<DecisionAvoidingAdversary>(s + 17);
    };
    if (proto == "two") return run(TwoProcessProtocol(), {0, 1}, make_sched);
    if (proto == "unbounded3")
      return run(UnboundedProtocol(3), {0, 1, 0}, make_sched);
    if (proto == "bounded3")
      return run(BoundedThreeProtocol(), {1, 0, 1}, make_sched);
  }
  if (name == "unbounded3/split") {
    return run(UnboundedProtocol(3), {0, 1, 0},
               [](std::uint64_t s) -> std::unique_ptr<Scheduler> {
                 return std::make_unique<SplitKeepingAdversary>(
                     s + 3, &UnboundedProtocol::unpack_pref);
               });
  }
  if (name == "unbounded3/faults+adversary") {
    fault::RegisterFaultConfig config;
    config.stale_prob = 0.2;
    config.stale_depth = 2;
    config.delay_prob = 0.1;
    config.delay_window = 2;
    UnboundedProtocol protocol(3);
    Simulation sim(protocol, {0, 1, 0}, base_options(decoy));
    {
      fault::SimRegisterFaults hook(config, decoy ^ 0xfa, sim.regs().size());
      sim.mutable_regs().set_fault_hook(&hook);
      DecisionAvoidingAdversary sched(decoy + 5);
      (void)sim.run(sched);
    }
    sim.reset({0, 1, 0}, base_options(seed));  // also drops the stale hook
    fault::SimRegisterFaults hook(config, seed ^ 0xfa, sim.regs().size());
    sim.mutable_regs().set_fault_hook(&hook);
    DecisionAvoidingAdversary sched(seed + 5);
    return format_run(name, seed, sim.run(sched));
  }
  if (name == "unbounded4/crash+recovery") {
    const auto make_plan = [](std::uint64_t s) {
      fault::FaultPlan plan;
      plan.seed = s;
      plan.crashes.push_back({1, 3});
      plan.crashes.push_back({2, 5});
      plan.recoveries.push_back({1, 40});
      plan.stalls.push_back({0, 2, 6});
      return plan;
    };
    UnboundedProtocol protocol(4);
    Simulation sim(protocol, {0, 1, 1, 0}, base_options(decoy));
    {
      RandomScheduler inner(decoy ^ 0x77);
      fault::FaultPlanScheduler sched(inner, make_plan(decoy));
      (void)sim.run(sched);
    }
    sim.reset({0, 1, 1, 0}, base_options(seed));
    RandomScheduler inner(seed ^ 0x77);
    fault::FaultPlanScheduler sched(inner, make_plan(seed));
    return format_run(name, seed, sim.run(sched));
  }
  if (name == "two/crashrec" || name == "two/crashrec-late") {
    const auto make_plan = [&name](std::uint64_t s) {
      fault::FaultPlan plan;
      plan.seed = s;
      if (name == "two/crashrec") {
        plan.crashes.push_back({0, 2});
        plan.recoveries.push_back({0, 8});
      } else {
        plan.crashes.push_back({1, 3});
        plan.recoveries.push_back({1, 48});
      }
      return plan;
    };
    TwoProcessProtocol protocol;
    Simulation sim(protocol, {0, 1}, base_options(decoy));
    {
      RandomScheduler inner(decoy ^ 0x77);
      fault::FaultPlanScheduler sched(inner, make_plan(decoy));
      (void)sim.run(sched);
    }
    sim.reset({0, 1}, base_options(seed));
    RandomScheduler inner(seed ^ 0x77);
    fault::FaultPlanScheduler sched(inner, make_plan(seed));
    return format_run(name, seed, sim.run(sched));
  }
  ADD_FAILURE() << "golden corpus names unknown case: " << name;
  return {};
}

TEST(PooledReset, ReplaysTheGoldenCorpusBitForBit) {
  std::ifstream is(CIL_GOLDENS_PATH);
  ASSERT_TRUE(is) << "cannot open " << CIL_GOLDENS_PATH;
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    const std::size_t sp = line.find(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string name = line.substr(0, sp);
    unsigned long long seed = 0;
    ASSERT_EQ(std::sscanf(line.c_str() + sp, " seed=%llu", &seed), 1) << line;
    EXPECT_EQ(replay_case_pooled(name, seed), line)
        << "pooled reset diverged from fresh construction: " << name
        << " seed=" << seed;
  }
  EXPECT_GE(lines, 50);
}

// -- BatchRunner determinism -----------------------------------------------

void expect_equal_summaries(const BatchSummary& a, const BatchSummary& b) {
  EXPECT_EQ(a.num_runs, b.num_runs);
  EXPECT_EQ(a.decided_runs, b.decided_runs);
  EXPECT_EQ(a.decision_counts, b.decision_counts);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.steps.samples(), b.steps.samples());
  EXPECT_EQ(a.steps_p0.samples(), b.steps_p0.samples());
  EXPECT_EQ(a.steps_p1.samples(), b.steps_p1.samples());
  EXPECT_EQ(a.max_register_bits.samples(), b.max_register_bits.samples());
  EXPECT_EQ(a.probe.samples(), b.probe.samples());
}

SchedulerFactory random_factory(std::uint64_t salt) {
  return [salt] {
    auto s = std::make_shared<RandomScheduler>(0);
    return [s, salt](std::uint64_t seed) -> Scheduler& {
      s->reseed(seed ^ salt);
      return *s;
    };
  };
}

TEST(BatchRunner, SummaryIsThreadCountInvariant) {
  UnboundedProtocol protocol(3);
  BatchRunner batch(protocol, {0, 1, 0});
  BatchOptions opts;
  opts.first_seed = 0;
  opts.num_runs = 400;
  // Probe the final register state on the worker — also pins that probes
  // see the run the summary slot describes, regardless of sharding.
  const RunProbe probe = [](const Simulation& sim, const SimResult&) {
    std::int64_t m = 0;
    for (RegisterId reg = 0; reg < 3; ++reg)
      m = std::max(m, UnboundedProtocol::unpack_num(sim.regs().peek(reg)));
    return m;
  };

  opts.threads = 1;
  const BatchSummary serial = batch.run(opts, random_factory(0xbeef), probe);
  opts.threads = 4;
  const BatchSummary sharded = batch.run(opts, random_factory(0xbeef), probe);

  EXPECT_EQ(serial.num_runs, 400);
  EXPECT_EQ(serial.decided_runs, 400);
  EXPECT_GT(serial.probe.count(), 0);
  expect_equal_summaries(serial, sharded);
}

TEST(BatchRunner, MatchesSerialFreshConstructions) {
  // The batched sweep must equal the plain loop everyone wrote before it.
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 0;
  opts.num_runs = 300;
  opts.threads = 3;
  const BatchSummary b = batch.run(opts, random_factory(0x1234));

  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    SimOptions so;
    so.seed = seed;
    Simulation sim(protocol, {0, 1}, so);
    RandomScheduler sched(seed ^ 0x1234);
    const SimResult r = sim.run(sched);
    const auto i = static_cast<std::size_t>(seed);
    ASSERT_EQ(b.steps.samples()[i], r.total_steps) << "seed " << seed;
    ASSERT_EQ(b.steps_p0.samples()[i], r.steps_per_process[0]);
    ASSERT_EQ(b.steps_p1.samples()[i], r.steps_per_process[1]);
  }
}

TEST(BatchRunner, EmptyAndSingleRunEdges) {
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.num_runs = 0;
  const BatchSummary none = batch.run(opts, random_factory(1));
  EXPECT_EQ(none.num_runs, 0);
  EXPECT_EQ(none.steps.count(), 0);

  opts.num_runs = 1;
  opts.threads = 16;  // clamped to num_runs
  const BatchSummary one = batch.run(opts, random_factory(1));
  EXPECT_EQ(one.num_runs, 1);
  EXPECT_EQ(one.decided_runs, 1);
}

// -- allocation-free reset path --------------------------------------------

TEST(PooledReset, AllocationFreeAfterWarmupForCoreProtocols) {
  const auto check = [](const Protocol& protocol,
                        const std::vector<Value>& inputs) {
    SimOptions so;
    so.seed = 1;
    Simulation sim(protocol, inputs, so);
    RandomScheduler sched(1);
    // Warm up: a few full cycles let every internal vector reach its
    // high-water capacity.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      so.seed = seed;
      sim.reset(inputs, so);
      sched.reseed(seed ^ 0x1234);
      (void)sim.run(sched);
    }
    // Measured region: reset() and reseed() must not allocate at all.
    for (std::uint64_t seed = 6; seed <= 30; ++seed) {
      so.seed = seed;
      const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
      sim.reset(inputs, so);
      sched.reseed(seed ^ 0x1234);
      const std::int64_t after = g_allocations.load(std::memory_order_relaxed);
      EXPECT_EQ(after, before)
          << protocol.name() << ": reset allocated at seed " << seed;
      (void)sim.run(sched);
    }
  };
  check(TwoProcessProtocol(), {0, 1});
  check(UnboundedProtocol(3), {0, 1, 0});
  check(BoundedThreeProtocol(), {1, 0, 1});
}

// -- multi-thread fault smoke (the TSan job runs this binary) ---------------

TEST(BatchRunner, MultiThreadCrashRecoverySmoke) {
  UnboundedProtocol protocol(4);
  BatchRunner batch(protocol, {0, 1, 1, 0});
  BatchOptions opts;
  opts.first_seed = 1;
  opts.num_runs = 48;
  opts.max_total_steps = 200'000;

  const SchedulerFactory factory = [] {
    struct Rig {
      RandomScheduler inner{0};
      std::optional<fault::FaultPlanScheduler> sched;
    };
    auto rig = std::make_shared<Rig>();
    return [rig](std::uint64_t seed) -> Scheduler& {
      rig->inner.reseed(seed ^ 0x77);
      rig->sched.emplace(rig->inner,
                         fault::FaultPlan::random(
                             seed, /*num_processes=*/4, /*num_crashes=*/2,
                             /*num_stalls=*/1, /*horizon=*/12,
                             /*max_stall_duration=*/50, {}, /*recoveries=*/2,
                             /*max_recovery_delay=*/32));
      return *rig->sched;
    };
  };

  opts.threads = 1;
  const BatchSummary serial = batch.run(opts, factory);
  opts.threads = 4;
  const BatchSummary sharded = batch.run(opts, factory);

  EXPECT_GT(serial.total_steps, 0);
  EXPECT_GT(serial.recoveries, 0);
  expect_equal_summaries(serial, sharded);
}

// -- the lane engine: every BatchRunner shard runs through one -------------
// A scheduler factory or a probe sends runs down the engine's per-seed
// path; a bare lane_sched lets the lockstep kernels take the runs they
// can. Both must reduce identically. The TSan CI job runs this suite
// (--gtest_filter='BatchLane.*') at 4 threads x 8 lanes to pin the lane
// workers' data-race freedom.

SchedulerFactory avoid_factory(std::uint64_t add) {
  return [add] {
    auto s = std::make_shared<DecisionAvoidingAdversary>(0);
    return [s, add](std::uint64_t seed) -> Scheduler& {
      s->reseed(seed + add);
      return *s;
    };
  };
}

TEST(BatchLane, RandomTwoProcessMatchesScalarEngine) {
  // The SoA kernel path: TwoProcessProtocol under the random spec, against
  // the per-seed path a factory forces. Same BatchSummary, sample for
  // sample.
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 0;
  opts.num_runs = 400;
  opts.threads = 2;
  const BatchSummary scalar = batch.run(opts, random_factory(0x1234));

  opts.lanes = 8;
  opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  const BatchSummary lane = batch.run(opts, /*make_scheduler=*/nullptr);

  EXPECT_EQ(lane.num_runs, 400);
  EXPECT_EQ(lane.decided_runs, 400);
  expect_equal_summaries(scalar, lane);
}

TEST(BatchLane, FallbackPathsMatchScalarEngine) {
  // Configurations the SoA kernel cannot serve — a three-process protocol,
  // and the adaptive adversary — must flow through the lane engine's
  // per-seed path from the spec and still reduce identically.
  {
    UnboundedProtocol protocol(3);
    BatchRunner batch(protocol, {0, 1, 0});
    BatchOptions opts;
    opts.first_seed = 0;
    opts.num_runs = 200;
    opts.threads = 3;
    const BatchSummary scalar = batch.run(opts, random_factory(0x1234));
    opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};
    const BatchSummary lane = batch.run(opts, nullptr);
    expect_equal_summaries(scalar, lane);
  }
  {
    TwoProcessProtocol protocol;
    BatchRunner batch(protocol, {0, 1});
    BatchOptions opts;
    opts.first_seed = 0;
    opts.num_runs = 120;
    opts.threads = 2;
    const BatchSummary scalar = batch.run(opts, avoid_factory(17));
    opts.lane_sched = {LaneSchedSpec::Kind::kAvoid, 0, 17};
    const BatchSummary lane = batch.run(opts, nullptr);
    expect_equal_summaries(scalar, lane);
  }
}

TEST(BatchLane, SummaryIsThreadAndLaneCountInvariant) {
  // The per-worker reseeding contract, re-verified on the lockstep kernel:
  // one thread with one lane vs four threads with eight lanes each must
  // produce the identical BatchSummary — no shard boundary or lane-refill
  // order can leak into the reduction.
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 5;
  opts.num_runs = 400;
  opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};

  opts.threads = 1;
  opts.lanes = 1;
  const BatchSummary serial = batch.run(opts, nullptr);
  opts.threads = 4;
  opts.lanes = 8;
  const BatchSummary sharded = batch.run(opts, nullptr);

  EXPECT_EQ(serial.num_runs, 400);
  EXPECT_EQ(serial.decided_runs, 400);
  expect_equal_summaries(serial, sharded);
}

TEST(BatchLane, RunHookSeesEverySeedExactlyOnce) {
  // The RunHook contract on the lockstep kernel: harvest order differs from
  // seed order, but every seed fires exactly once (the fabric keys
  // chaos-kill injection on this).
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 100;
  opts.num_runs = 64;
  opts.threads = 2;
  opts.lanes = 8;
  opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};

  std::mutex mu;
  std::vector<std::uint64_t> seen;
  const RunHook hook = [&](std::uint64_t seed) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(seed);
  };
  (void)batch.run(opts, nullptr, nullptr, hook);

  ASSERT_EQ(seen.size(), 64u);
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], 100 + static_cast<std::uint64_t>(i));
}

TEST(BatchLane, FaultSweepBitIdentity) {
  // A shared crash/recovery plan on both paths: the per-seed path wraps the
  // factory's scheduler in a FaultPlanScheduler per seed, the lockstep
  // kernel runs per-lane fault cursors — and the summaries must be
  // bit-identical. 4 threads x 8 lanes so the TSan CI arm pins the fault
  // cursors' data-race freedom too.
  fault::FaultPlan plan;
  plan.crashes.push_back({0, 2});
  plan.recoveries.push_back({0, 8});

  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 1;
  opts.num_runs = 400;
  opts.threads = 2;
  opts.fault_plan = &plan;
  const BatchSummary scalar = batch.run(opts, random_factory(0x1234));

  opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  opts.threads = 4;
  opts.lanes = 8;
  const BatchSummary lane = batch.run(opts, nullptr);

  EXPECT_EQ(lane.num_runs, 400);
  EXPECT_GT(lane.recoveries, 0);
  expect_equal_summaries(scalar, lane);

  // And the lane reduction itself is thread/lane-count invariant under the
  // plan: the per-lane fault cursors cannot leak across shard boundaries.
  opts.threads = 1;
  opts.lanes = 1;
  expect_equal_summaries(lane, batch.run(opts, nullptr));
}

TEST(BatchLane, ProbedSweepMatchesFreshSimulations) {
  // A probe takes the per-seed path, which hands it the pooled Simulation
  // right after each run: every probe value (and every run) must equal
  // what a freshly built Simulation of the same seed yields. Three threads
  // and a three-process protocol, so the probe sees real register state
  // across shard boundaries.
  UnboundedProtocol protocol(3);
  BatchRunner batch(protocol, {0, 1, 0});
  BatchOptions opts;
  opts.first_seed = 0;
  opts.num_runs = 150;
  opts.threads = 3;
  opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  const RunProbe probe = [](const Simulation& sim, const SimResult& r) {
    std::int64_t m = 0;
    for (RegisterId reg = 0; reg < 3; ++reg)
      m = std::max(m, UnboundedProtocol::unpack_num(sim.regs().peek(reg)));
    return 1000 * m + r.total_steps;
  };
  const BatchSummary b = batch.run(opts, nullptr, probe);

  ASSERT_EQ(b.probe.count(), 150);
  EXPECT_EQ(b.simd_width, 1);  // probed runs never reach the vector kernels
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    SimOptions so;
    so.seed = seed;
    Simulation sim(protocol, {0, 1, 0}, so);
    RandomScheduler sched(seed ^ 0x1234);
    const SimResult r = sim.run(sched);
    const auto i = static_cast<std::size_t>(seed);
    ASSERT_EQ(b.probe.samples()[i], probe(sim, r)) << "seed " << seed;
    ASSERT_EQ(b.steps.samples()[i], r.total_steps) << "seed " << seed;
  }
}

TEST(BatchLane, SuppliedFactoryDecidesTheSchedule) {
  // A factory is never second-guessed by lane_sched: default BatchOptions
  // carry the {kRandom, 0x1234} spec, yet a salt-0xbeef factory must yield
  // the salt-0xbeef runs, seed for seed.
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 0;
  opts.num_runs = 200;
  opts.threads = 2;
  const BatchSummary b = batch.run(opts, random_factory(0xbeef));

  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SimOptions so;
    so.seed = seed;
    Simulation sim(protocol, {0, 1}, so);
    RandomScheduler sched(seed ^ 0xbeef);
    const SimResult r = sim.run(sched);
    const auto i = static_cast<std::size_t>(seed);
    ASSERT_EQ(b.steps.samples()[i], r.total_steps) << "seed " << seed;
    ASSERT_EQ(b.steps_p0.samples()[i], r.steps_per_process[0]);
    ASSERT_EQ(b.steps_p1.samples()[i], r.steps_per_process[1]);
  }
}

TEST(BatchLane, ReportsSimdWidth) {
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 0;
  opts.num_runs = 32;
  opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};

  // A factory's runs take the per-seed path: no vector kernel runs.
  EXPECT_EQ(batch.run(opts, random_factory(0x1234)).simd_width, 1);

  // The SoA path reports the host's active width.
  EXPECT_EQ(batch.run(opts, nullptr).simd_width, simd::active_width());

  // The kScalar test hook forces the same spec onto the per-seed path.
  opts.engine = BatchEngine::kScalar;
  EXPECT_EQ(batch.run(opts, nullptr).simd_width, 1);
  opts.engine = BatchEngine::kLane;

  // A configuration served by the per-seed path (adaptive adversary)
  // reports width 1: no vector kernel ran.
  opts.lane_sched = {LaneSchedSpec::Kind::kAvoid, 0, 17};
  EXPECT_EQ(batch.run(opts, nullptr).simd_width, 1);
}

}  // namespace
}  // namespace cil
