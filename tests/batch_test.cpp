// Pooled-simulation and BatchRunner pins:
//
//   * reset-vs-fresh bit-identity, replayed over the SAME corpus
//     engine_golden_test uses (tests/data/engine_goldens.txt): a pooled
//     Simulation that already ran a different seed, then reset(), must
//     reproduce every corpus line byte-for-byte;
//   * BatchRunner thread-count invariance: the BatchSummary (counts,
//     exact tallies, probe values, and the seed-keyed run digest) is
//     identical on any number of worker threads and lanes;
//   * per-seed identity: fresh Simulations folded through
//     BatchSummary::add_run reproduce the sweep's whole summary, and two
//     seeds trading records move the digest but no tally;
//   * a million seeds of the lockstep kernel pinned to fixed digests,
//     fault-free and under a crash/recovery plan;
//   * the reset path is allocation-free after warmup for the core
//     protocols, and a sweep's allocated bytes do not grow with its run
//     count (counting global operator new);
//   * a multi-thread smoke with crash/recovery fault schedules — the
//     TSan CI job runs this binary to pin BatchRunner's data-race freedom.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <span>
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
#include "util/check.h"
#include "util/simd.h"

// ---------------------------------------------------------------------------
// Counting allocator: every global allocation bumps a counter and a byte
// total, so a test can assert that a code region performs none, or that
// its allocations do not scale with its input. Kept trivially simple
// (malloc + relaxed atomics) so it is safe under TSan too.

namespace {
std::atomic<std::int64_t> g_allocations{0};
std::atomic<std::int64_t> g_allocated_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<std::int64_t>(size),
                              std::memory_order_relaxed);
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
  EXPECT_EQ(a.steps.bins(), b.steps.bins());
  EXPECT_EQ(a.steps_p0.bins(), b.steps_p0.bins());
  EXPECT_EQ(a.steps_p1.bins(), b.steps_p1.bins());
  EXPECT_EQ(a.max_register_bits.bins(), b.max_register_bits.bins());
  EXPECT_EQ(a.probe.bins(), b.probe.bins());
  EXPECT_EQ(a.run_digest, b.run_digest);
}

/// The record a BatchRunner run folds for this result (and probe value).
RunRecord record_of(const SimResult& r,
                    std::optional<std::int64_t> probe = std::nullopt) {
  RunRecord rec;
  rec.total_steps = r.total_steps;
  rec.steps_p0 = r.steps_per_process[0];
  if (r.steps_per_process.size() > 1) rec.steps_p1 = r.steps_per_process[1];
  rec.recoveries = r.recoveries;
  rec.max_register_bits = r.max_register_bits;
  rec.decision = r.decision.value_or(kNoValue);
  rec.all_decided = r.all_decided;
  rec.probe = probe;
  return rec;
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

  BatchSummary expected;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    SimOptions so;
    so.seed = seed;
    Simulation sim(protocol, {0, 1}, so);
    RandomScheduler sched(seed ^ 0x1234);
    expected.add_run(seed, record_of(sim.run(sched)));
  }
  expect_equal_summaries(b, expected);
}

TEST(BatchRunner, BlockFoldMatchesAddRunOnWideDecisions) {
  // BatchRunner's fold counts a block's decisions 0 and 1 locally and adds
  // them to decision_counts once per block; any other value goes to the map
  // per run. Both must equal add_run over fresh Simulations: Figure 1 over
  // a seven-value domain with non-binary inputs (the per-seed path, blocks
  // of one, where 3, 5 and 6 bypass the local counts), and binary Figure 1
  // on the lockstep kernel at W = 64, whose blocks hold many runs.
  struct Case {
    Value max_value;
    std::vector<Value> inputs;
  };
  const Case cases[] = {{7, {0, 5}}, {7, {3, 6}}, {1, {0, 1}}};
  constexpr std::int64_t kRuns = 500;
  for (const Case& k : cases) {
    SCOPED_TRACE(testing::Message()
                 << "inputs {" << k.inputs[0] << "," << k.inputs[1] << "}");
    TwoProcessProtocol protocol(k.max_value);
    BatchSummary expected;
    for (std::uint64_t seed = 1; seed <= kRuns; ++seed) {
      SimOptions so;
      so.seed = seed;
      Simulation sim(protocol, k.inputs, so);
      RandomScheduler sched(seed ^ 0x1234);
      expected.add_run(seed, record_of(sim.run(sched)));
    }
    const bool wide = k.max_value > 1;
    BatchRunner batch(protocol, k.inputs);
    for (const int threads : {1, 3}) {
      BatchOptions opts;
      opts.first_seed = 1;
      opts.num_runs = kRuns;
      opts.threads = threads;
      const BatchSummary b = batch.run(opts, nullptr);
      EXPECT_EQ(b.simd_width, wide ? 1 : simd::active_width());
      expect_equal_summaries(b, expected);
      const bool outside = std::any_of(
          b.decision_counts.begin(), b.decision_counts.end(),
          [](const auto& kv) { return kv.first != 0 && kv.first != 1; });
      EXPECT_EQ(outside, wide);
    }
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
  EXPECT_EQ(none.run_digest, 0u);

  opts.num_runs = 1;
  opts.threads = 16;  // clamped to num_runs
  const BatchSummary one = batch.run(opts, random_factory(1));
  EXPECT_EQ(one.num_runs, 1);
  EXPECT_EQ(one.decided_runs, 1);
}

TEST(BatchRunner, MillionSeedDigestsArePinned) {
  // Seeds 1..10^6 of Figure 1 with inputs {0, 1} under the default random
  // schedule, fault-free and under a crash of P0 at its second own step
  // with a recovery 8 steps later. The golden corpus compares the lockstep
  // kernel with Simulation on a few dozen seeds, and --serial against
  // --workers=4 compares the kernel with itself; these fixed values pin a
  // million of its runs, so a kernel change that is wrong on rare paths
  // but consistent with itself still fails here.
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 1;
  opts.num_runs = 1'000'000;
  opts.threads = 2;
  const BatchSummary fault_free = batch.run(opts, nullptr);
  EXPECT_EQ(fault_free.run_digest, 15801478385810820814ULL);
  EXPECT_EQ(fault_free.total_steps, 9149932);

  const fault::FaultPlan plan =
      fault::FaultPlan::parse("fp1;crash=0@2;recover=0@8");
  opts.fault_plan = &plan;
  const BatchSummary crash = batch.run(opts, nullptr);
  EXPECT_EQ(crash.run_digest, 16336475507074063927ULL);
  EXPECT_EQ(crash.total_steps, 13472540);
}

TEST(BatchSummary, SwappingTwoSeedsRecordsMovesOnlyTheDigest) {
  // The tallies forget which seed produced which value; the digest must
  // not. Two seeds trading their records keep every tally and count.
  RunRecord a;
  a.total_steps = 7;
  a.steps_p0 = 3;
  a.steps_p1 = 4;
  a.max_register_bits = 2;
  a.decision = 0;
  a.all_decided = true;
  RunRecord b = a;
  b.total_steps = 9;
  b.steps_p0 = 5;
  b.decision = 1;

  BatchSummary straight, swapped;
  straight.add_run(10, a);
  straight.add_run(11, b);
  swapped.add_run(10, b);
  swapped.add_run(11, a);
  EXPECT_EQ(straight.steps, swapped.steps);
  EXPECT_EQ(straight.steps_p0, swapped.steps_p0);
  EXPECT_EQ(straight.decision_counts, swapped.decision_counts);
  EXPECT_EQ(straight.total_steps, swapped.total_steps);
  EXPECT_NE(straight.run_digest, swapped.run_digest);

  // Every record field reaches the digest term.
  const std::uint64_t base = run_digest_term(10, a);
  const std::vector<std::function<void(RunRecord&)>> edits = {
      [](RunRecord& r) { ++r.total_steps; },
      [](RunRecord& r) { ++r.steps_p0; },
      [](RunRecord& r) { ++r.steps_p1; },
      [](RunRecord& r) { ++r.recoveries; },
      [](RunRecord& r) { ++r.max_register_bits; },
      [](RunRecord& r) { r.decision = kNoValue; },
      [](RunRecord& r) { r.all_decided = false; },
      [](RunRecord& r) { r.probe = 0; },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    RunRecord edited = a;
    edits[i](edited);
    EXPECT_NE(run_digest_term(10, edited), base) << "field edit " << i;
  }
  EXPECT_NE(run_digest_term(11, a), base);

  // Folding order does not matter: merge is a field-wise sum.
  BatchSummary left, right;
  left.add_run(10, a);
  right.add_run(11, b);
  BatchSummary merged = right;
  merged.merge(left);
  expect_equal_summaries(merged, straight);
}

TEST(BatchRunner, AllocatedBytesDoNotGrowWithNumRuns) {
  // A sweep reduces into per-worker tallies, so its allocations are set by
  // the distinct values it sees, not by how many runs it folds.
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  BatchOptions opts;
  opts.first_seed = 1;
  opts.lane_sched = {LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  const auto bytes_for = [&](std::int64_t runs) {
    opts.num_runs = runs;
    const std::int64_t before =
        g_allocated_bytes.load(std::memory_order_relaxed);
    const BatchSummary s = batch.run(opts, nullptr);
    EXPECT_EQ(s.num_runs, runs);
    return g_allocated_bytes.load(std::memory_order_relaxed) - before;
  };
  const std::int64_t small = bytes_for(10'000);
  const std::int64_t large = bytes_for(200'000);
  EXPECT_LT(std::abs(large - small), 64 * 1024)
      << "10k seeds allocated " << small << " bytes, 200k seeds " << large;
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
// (--gtest_filter='BatchLane.*'): its multi-thread sweeps and
// cancellations pin the lane workers' data-race freedom.

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
  // The lockstep kernel: TwoProcessProtocol under the random spec, against
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
  // Configurations the lockstep kernel cannot serve — a three-process
  // protocol, and the adaptive adversary — must flow through the lane engine's
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
  EXPECT_EQ(serial.num_runs, 400);
  EXPECT_EQ(serial.decided_runs, 400);
  for (const int threads : {1, 3, 8}) {
    for (const int lanes : {1, 8}) {
      SCOPED_TRACE(testing::Message() << threads << " threads x " << lanes
                                      << " lanes");
      opts.threads = threads;
      opts.lanes = lanes;
      expect_equal_summaries(serial, batch.run(opts, nullptr));
    }
  }
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

TEST(BatchLane, HarvestBlocksHoldOneToWRunsAndEverySeedOnce) {
  // The block-harvest contract at the engine, fault-free and under a
  // crash/recovery plan: the lockstep kernel hands over each round's
  // finished lanes as one block of 1 to W runs, the per-seed path (avoid
  // spec) blocks of exactly one run, and together the blocks hold every
  // seed exactly once. A view is read during its call: fault-free, its
  // schedule is its run, one pick per step; under the plan, idle ticks
  // count in total_steps but pick nothing.
  fault::FaultPlan plan;
  plan.crashes.push_back({0, 2});
  plan.recoveries.push_back({0, 8});
  const fault::FaultPlan* const plans[] = {nullptr, &plan};

  TwoProcessProtocol protocol;
  LaneEngine engine(protocol, {0, 1});
  constexpr std::uint64_t kFirst = 1000;
  for (const bool lockstep : {true, false}) {
    const std::int64_t runs = lockstep ? 2000 : 300;
    for (const fault::FaultPlan* fp : plans) {
      for (const int lanes : {1, 3, 64}) {
        SCOPED_TRACE(testing::Message()
                     << (lockstep ? "lockstep" : "per-seed") << " plan "
                     << (fp != nullptr ? fp->serialize() : "none")
                     << " W=" << lanes);
        LaneRunOptions lo;
        lo.lanes = lanes;
        lo.record_schedule = true;
        lo.fault_plan = fp;
        if (!lockstep) lo.sched = {LaneSchedSpec::Kind::kAvoid, 0, 17};
        ASSERT_EQ(engine.soa_supported(lo), lockstep);

        const std::size_t max_block = lockstep ? static_cast<std::size_t>(lanes)
                                               : 1;
        std::vector<int> seen(static_cast<std::size_t>(runs), 0);
        std::int64_t delivered = 0, multi_run_blocks = 0, idled = 0;
        ASSERT_TRUE(engine.run(
            kFirst, runs, lo, [&](std::span<const LaneRunView> block) {
              EXPECT_GE(block.size(), 1u);
              EXPECT_LE(block.size(), max_block);
              if (block.size() > 1) ++multi_run_blocks;
              delivered += static_cast<std::int64_t>(block.size());
              for (const LaneRunView& v : block) {
                ASSERT_GE(v.seed, kFirst);
                ASSERT_LT(v.seed - kFirst, static_cast<std::uint64_t>(runs));
                ++seen[static_cast<std::size_t>(v.seed - kFirst)];
                if (fp == nullptr) {
                  EXPECT_EQ(v.schedule_len, v.total_steps);
                } else {
                  EXPECT_LE(v.schedule_len, v.total_steps);
                  if (v.schedule_len < v.total_steps) ++idled;
                }
              }
            }));
        EXPECT_EQ(delivered, runs);
        for (std::size_t i = 0; i < seen.size(); ++i)
          ASSERT_EQ(seen[i], 1) << "seed " << kFirst + i;
        // Not vacuous: full-width rounds really finish several lanes, and
        // the plan really idles some runs.
        if (lockstep && lanes == 64) EXPECT_GT(multi_run_blocks, 0);
        if (fp != nullptr) EXPECT_GT(idled, 0);
      }
    }
  }
}

TEST(BatchLane, CancelStopsTheLockstepKernel) {
  // Cancellation flips after k harvested runs. The lockstep kernel polls
  // it once per harvested block, the per-seed path before each run.
  // Through BatchRunner the sweep throws BatchCancelled. At the engine,
  // run() returns false having harvested each seed at most once: at least
  // k runs, and at most k + W - 1 on the kernel (the lanes in flight finish
  // their runs), exactly k on the per-seed path.
  constexpr std::int64_t kRuns = 100'000;
  TwoProcessProtocol protocol;
  const LaneSchedSpec specs[] = {{LaneSchedSpec::Kind::kRandom, 0x1234, 0},
                                 {LaneSchedSpec::Kind::kAvoid, 0, 17}};
  for (const LaneSchedSpec& spec : specs) {
    const bool lockstep = spec.kind == LaneSchedSpec::Kind::kRandom;
    for (const std::int64_t k : {10, 1000}) {
      {
        SCOPED_TRACE(testing::Message()
                     << (lockstep ? "lockstep" : "per-seed")
                     << " BatchRunner k=" << k);
        BatchRunner batch(protocol, {0, 1});
        std::atomic<bool> cancel{false};
        std::atomic<std::int64_t> hooked{0};
        BatchOptions opts;
        opts.first_seed = 1;
        opts.num_runs = kRuns;
        opts.threads = 2;
        opts.lane_sched = spec;
        opts.cancel = &cancel;
        const RunHook hook = [&](std::uint64_t) {
          if (hooked.fetch_add(1, std::memory_order_relaxed) + 1 >= k)
            cancel.store(true, std::memory_order_relaxed);
        };
        EXPECT_THROW((void)batch.run(opts, nullptr, nullptr, hook),
                     BatchCancelled);
        EXPECT_LT(hooked.load(), kRuns);
      }
      for (const int lanes : {1, 8, 64}) {
        SCOPED_TRACE(testing::Message()
                     << (lockstep ? "lockstep" : "per-seed")
                     << " LaneEngine k=" << k << " W=" << lanes);
        LaneEngine engine(protocol, {0, 1});
        std::atomic<bool> cancel{false};
        LaneRunOptions lo;
        lo.lanes = lanes;
        lo.sched = spec;
        lo.cancel = &cancel;
        ASSERT_EQ(engine.soa_supported(lo), lockstep);
        std::vector<char> seen(static_cast<std::size_t>(kRuns), 0);
        std::int64_t harvested = 0;
        const bool complete = engine.run(
            1, kRuns, lo, [&](std::span<const LaneRunView> block) {
              for (const LaneRunView& v : block) {
                ASSERT_GE(v.seed, 1u);
                ASSERT_LE(v.seed, static_cast<std::uint64_t>(kRuns));
                EXPECT_EQ(seen[static_cast<std::size_t>(v.seed - 1)]++, 0)
                    << "seed " << v.seed << " harvested twice";
                if (++harvested == k)
                  cancel.store(true, std::memory_order_relaxed);
              }
            });
        EXPECT_FALSE(complete);
        EXPECT_GE(harvested, k);
        if (lockstep) {
          EXPECT_LE(harvested, k + lanes - 1);
        } else {
          EXPECT_EQ(harvested, k);
        }
      }
    }
  }
}

TEST(BatchLane, FaultSweepBitIdentity) {
  // A shared crash/recovery plan on both paths: the per-seed path wraps the
  // factory's scheduler in a FaultPlanScheduler per seed, the lockstep
  // kernel runs its fault planes — and the summaries must be bit-identical.
  // 4 threads x 8 lanes so the TSan CI arm pins the fault arm's data-race
  // freedom too.
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
  // plan: the per-lane fault state cannot leak across shard boundaries.
  opts.threads = 1;
  opts.lanes = 1;
  expect_equal_summaries(lane, batch.run(opts, nullptr));
}

TEST(BatchLane, LockstepKernelMatchesPerSeedPathOnPlanEdges) {
  // The lockstep kernel against the per-seed path (the kScalar hook), whole
  // summary for whole summary, over the edges of what the kernel serves:
  // no plan, or a crash of either pid at own step 0, 1, 2 or 5 with no
  // recovery, a recovery of the victim after 0, 1, 8 or 48 global steps,
  // or a recovery of the other pid (which never arms); step budgets from
  // below 1 (Simulation::run takes no step at all) up to INT64_MAX (no
  // lane's due round may wrap); all four binary input pairs; and W from
  // one lane to a full 64-lane word, with more seeds than lanes so every
  // width refills. W = 3 and 63 end in scalar tail lanes after the vector
  // chunks of the PRNG kernels. This runs at the process's SIMD width;
  // tests/CMakeLists.txt reruns it at $CIL_SIMD_WIDTH 1 and 2.
  std::vector<std::optional<fault::FaultPlan>> plans = {std::nullopt};
  for (const ProcessId victim : {0, 1}) {
    for (const std::int64_t at : {0, 1, 2, 5}) {
      fault::FaultPlan crash;
      crash.crashes.push_back({victim, at});
      plans.push_back(crash);
      for (const std::int64_t delay : {0, 1, 8, 48}) {
        fault::FaultPlan p = crash;
        p.recoveries.push_back({victim, delay});
        plans.push_back(p);
      }
      fault::FaultPlan other = crash;
      other.recoveries.push_back({1 - victim, 8});
      plans.push_back(other);
    }
  }

  const std::int64_t budgets[] = {
      -1, 0, 1, 2, 7, 1'000'000, std::numeric_limits<std::int64_t>::max()};

  TwoProcessProtocol protocol;
  for (const Value in0 : {0, 1}) {
    for (const Value in1 : {0, 1}) {
      BatchRunner batch(protocol, {in0, in1});
      LaneEngine engine(protocol, {in0, in1});
      for (const std::optional<fault::FaultPlan>& plan : plans) {
        for (const std::int64_t budget : budgets) {
          BatchOptions opts;
          opts.first_seed = 1;
          opts.num_runs = 80;
          opts.max_total_steps = budget;
          opts.fault_plan = plan ? &*plan : nullptr;
          opts.engine = BatchEngine::kScalar;
          const BatchSummary scalar = batch.run(opts, nullptr);
          opts.engine = BatchEngine::kLane;

          // Every plan here fits the kernel, so the grid is not vacuous;
          // only a budget below 1 must leave it for the per-seed path.
          LaneRunOptions lo;
          lo.max_total_steps = budget;
          lo.fault_plan = opts.fault_plan;
          EXPECT_EQ(engine.soa_supported(lo), budget >= 1);
          for (const int lanes : {1, 3, 8, 63, 64}) {
            SCOPED_TRACE(testing::Message()
                         << "inputs {" << in0 << "," << in1 << "} plan "
                         << (plan ? plan->serialize() : "none") << " budget "
                         << budget << " W=" << lanes);
            opts.lanes = lanes;
            expect_equal_summaries(scalar, batch.run(opts, nullptr));
          }
        }
      }
    }
  }
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
  BatchSummary expected;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    SimOptions so;
    so.seed = seed;
    Simulation sim(protocol, {0, 1, 0}, so);
    RandomScheduler sched(seed ^ 0x1234);
    const SimResult r = sim.run(sched);
    expected.add_run(seed, record_of(r, probe(sim, r)));
  }
  expect_equal_summaries(b, expected);
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

  BatchSummary expected;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SimOptions so;
    so.seed = seed;
    Simulation sim(protocol, {0, 1}, so);
    RandomScheduler sched(seed ^ 0xbeef);
    expected.add_run(seed, record_of(sim.run(sched)));
  }
  expect_equal_summaries(b, expected);
}

TEST(BatchLane, CheckEveryBelowOneIsRejectedOnEveryPath) {
  // The lockstep kernel never reads check_every and the per-seed path's
  // Simulation requires it >= 1; the engine refuses 0 on both, so whether
  // a sweep is accepted cannot depend on which kernel would serve it.
  TwoProcessProtocol protocol;
  BatchRunner batch(protocol, {0, 1});
  for (const LaneSchedSpec::Kind kind :
       {LaneSchedSpec::Kind::kRandom, LaneSchedSpec::Kind::kAvoid}) {
    BatchOptions opts;
    opts.first_seed = 0;
    opts.num_runs = 64;
    opts.lane_sched = LaneSchedSpec{kind};
    opts.check_every = 0;
    EXPECT_THROW(batch.run(opts, nullptr), ContractViolation)
        << (kind == LaneSchedSpec::Kind::kRandom ? "lockstep" : "per-seed");
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

  // The lockstep kernel reports the host's active width.
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
