#include "sched/batch.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <span>
#include <thread>

#include "util/check.h"
#include "util/rng.h"

namespace cil {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// BatchSummary::add_run without the decision count, which callers fold
/// on their own.
void add_run_except_decision(BatchSummary& s, std::uint64_t seed,
                             const RunRecord& r) {
  ++s.num_runs;
  if (r.all_decided) ++s.decided_runs;
  s.total_steps += r.total_steps;
  s.recoveries += r.recoveries;
  s.steps.add(r.total_steps);
  s.steps_p0.add(r.steps_p0);
  s.steps_p1.add(r.steps_p1);
  s.max_register_bits.add(r.max_register_bits);
  if (r.probe) s.probe.add(*r.probe);
  s.run_digest += run_digest_term(seed, r);
}

}  // namespace

std::uint64_t run_digest_term(std::uint64_t seed, const RunRecord& r) {
  // Each field enters the packed word through its own odd multiplier, so a
  // change to any one field changes the word; SplitMix64's finalizer then
  // mixes the word with the mixed seed, so the term is not a sum of a seed
  // part and a record part — two seeds trading records change the digest.
  const auto u = [](std::int64_t x) { return static_cast<std::uint64_t>(x); };
  const std::uint64_t fields =
      u(r.total_steps) * 0x9E3779B97F4A7C15ULL +
      u(r.steps_p0) * 0xC2B2AE3D27D4EB4FULL +
      u(r.steps_p1) * 0x165667B19E3779F9ULL +
      u(r.recoveries) * 0xD6E8FEB86659FD93ULL +
      u(r.max_register_bits) * 0xFF51AFD7ED558CCDULL +
      u(r.decision) * 0xC4CEB9FE1A85EC53ULL +
      (r.all_decided ? 0x2545F4914F6CDD1DULL : 0) +
      (r.probe ? u(*r.probe) * 0x5851F42D4C957F2DULL + 0x14057B7EF767814FULL
               : 0);
  return SplitMix64(SplitMix64(seed).next() ^ fields).next();
}

void BatchSummary::add_run(std::uint64_t seed, const RunRecord& r) {
  add_run_except_decision(*this, seed, r);
  if (r.decision != kNoValue) ++decision_counts[r.decision];
}

void BatchSummary::merge(const BatchSummary& other) {
  num_runs += other.num_runs;
  decided_runs += other.decided_runs;
  for (const auto& [value, count] : other.decision_counts)
    decision_counts[value] += count;
  total_steps += other.total_steps;
  recoveries += other.recoveries;
  steps.merge(other.steps);
  steps_p0.merge(other.steps_p0);
  steps_p1.merge(other.steps_p1);
  max_register_bits.merge(other.max_register_bits);
  probe.merge(other.probe);
  run_digest += other.run_digest;
  simd_width = std::max(simd_width, other.simd_width);
  wall_seconds += other.wall_seconds;
  construct_seconds += other.construct_seconds;
  run_seconds += other.run_seconds;
}

std::vector<SeedRange> split_seed_range(const SeedRange& range, int parts) {
  CIL_EXPECTS(range.num_runs >= 0);
  CIL_EXPECTS(parts >= 1);
  const std::int64_t n =
      std::min<std::int64_t>(parts, range.num_runs);
  std::vector<SeedRange> out;
  out.reserve(static_cast<std::size_t>(n));
  const std::int64_t base = n > 0 ? range.num_runs / n : 0;
  const std::int64_t rem = n > 0 ? range.num_runs % n : 0;
  std::uint64_t first = range.first_seed;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t len = base + (i < rem ? 1 : 0);
    out.push_back({first, len});
    first += static_cast<std::uint64_t>(len);
  }
  return out;
}

std::vector<SeedRange> shard_seed_range(const SeedRange& range,
                                        std::int64_t shard_size) {
  CIL_EXPECTS(range.num_runs >= 0);
  CIL_EXPECTS(shard_size >= 1);
  std::vector<SeedRange> out;
  std::uint64_t first = range.first_seed;
  for (std::int64_t done = 0; done < range.num_runs;) {
    const std::int64_t len = std::min(shard_size, range.num_runs - done);
    out.push_back({first, len});
    first += static_cast<std::uint64_t>(len);
    done += len;
  }
  return out;
}

BatchRunner::BatchRunner(const Protocol& protocol, std::vector<Value> inputs)
    : protocol_(protocol), inputs_(std::move(inputs)) {
  CIL_EXPECTS(static_cast<int>(inputs_.size()) == protocol_.num_processes());
}

BatchSummary BatchRunner::run(const BatchOptions& options,
                              const SchedulerFactory& make_scheduler,
                              const RunProbe& probe, const RunHook& after_run) {
  CIL_EXPECTS(options.num_runs >= 0);
  BatchSummary out;
  if (options.num_runs == 0) return out;

  const auto t_start = Clock::now();

  // Warm the protocol's lazily-built shared spec table on this thread:
  // Protocol::make_registers is not safe against concurrent FIRST calls.
  (void)protocol_.make_registers();

  int threads = options.threads != 0
                    ? options.threads
                    : static_cast<int>(std::thread::hardware_concurrency());
  threads = static_cast<int>(std::clamp<std::int64_t>(
      threads, 1, options.num_runs));

  std::atomic<bool> cancelled{false};  ///< any worker saw the cancel flag
  std::vector<BatchSummary> partial(static_cast<std::size_t>(threads));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::int64_t> error_run(
      static_cast<std::size_t>(threads),
      std::numeric_limits<std::int64_t>::max());

  // One shard, one LaneEngine, one partial summary. Each harvested run folds
  // into the worker's own summary (a local, so workers share no cache line
  // while they run) and a failure is attributed to its run index, so the
  // merge below cannot tell how the range was sharded or in which order the
  // lanes finished — the thread/lane-invariance contract. The fold is
  // add_run's, except that a block's decisions 0 and 1 are counted locally
  // and reach decision_counts once per block: a std::map lookup per run is
  // a large share of a lockstep-kernel run.
  const auto worker = [&](int w, std::int64_t begin, std::int64_t end) {
    BatchSummary part;
    try {
      const auto c0 = Clock::now();
      LaneEngine engine(protocol_, inputs_);
      LaneRunOptions lo;
      lo.lanes = options.lanes;
      lo.max_total_steps = options.max_total_steps;
      lo.check_every = options.check_every;
      lo.check_consistency = options.check_consistency;
      lo.check_nontriviality = options.check_nontriviality;
      lo.sched = options.lane_sched;
      lo.probe = probe;
      lo.cancel = options.cancel;
      lo.fault_plan = options.fault_plan;
      if (make_scheduler != nullptr) {
        lo.scheduler = make_scheduler();
        CIL_CHECK_MSG(lo.scheduler != nullptr,
                      "BatchRunner: scheduler factory returned null provider");
      } else if (options.engine == BatchEngine::kScalar) {
        lo.scheduler = spec_scheduler(options.lane_sched);
      }
      part.simd_width = engine.selected_simd_width(lo);
      const auto c1 = Clock::now();
      part.construct_seconds = seconds_between(c0, c1);
      bool complete = false;
      try {
        complete = engine.run(
            options.first_seed + static_cast<std::uint64_t>(begin),
            end - begin, lo, [&](std::span<const LaneRunView> block) {
              std::int64_t binary[2] = {0, 0};  // decisions 0 and 1
              for (const LaneRunView& v : block) {
                RunRecord rec;
                rec.total_steps = v.total_steps;
                rec.steps_p0 = v.steps_p0;
                rec.steps_p1 = v.steps_p1;
                rec.recoveries = v.recoveries;
                rec.max_register_bits = v.max_register_bits;
                rec.decision = v.decision;
                rec.all_decided = v.all_decided;
                if (probe != nullptr) rec.probe = v.probe;
                add_run_except_decision(part, v.seed, rec);
                if (v.decision == 0 || v.decision == 1)
                  ++binary[v.decision];
                else if (v.decision != kNoValue)
                  ++part.decision_counts[v.decision];
                if (after_run != nullptr) after_run(v.seed);
              }
              for (const Value d : {0, 1})
                if (binary[d] != 0) part.decision_counts[d] += binary[d];
            });
      } catch (...) {
        error_run[static_cast<std::size_t>(w)] =
            begin + std::max<std::int64_t>(0, engine.failed_run_index());
        throw;
      }
      part.run_seconds = seconds_between(c1, Clock::now());
      if (!complete) cancelled.store(true, std::memory_order_relaxed);
      partial[static_cast<std::size_t>(w)] = std::move(part);
    } catch (...) {
      errors[static_cast<std::size_t>(w)] = std::current_exception();
      if (error_run[static_cast<std::size_t>(w)] ==
          std::numeric_limits<std::int64_t>::max())
        error_run[static_cast<std::size_t>(w)] = begin;
    }
  };

  if (threads == 1) {
    worker(0, 0, options.num_runs);
  } else {
    // The shared shard/merge API defines the split; thread w owns the runs
    // of shards[w], addressed here as global run indices.
    const std::vector<SeedRange> shards =
        split_seed_range({options.first_seed, options.num_runs}, threads);
    std::vector<std::thread> pool;
    pool.reserve(shards.size());
    for (int w = 0; w < static_cast<int>(shards.size()); ++w) {
      const std::int64_t begin = static_cast<std::int64_t>(
          shards[static_cast<std::size_t>(w)].first_seed - options.first_seed);
      pool.emplace_back(worker, w, begin,
                        begin + shards[static_cast<std::size_t>(w)].num_runs);
    }
    for (auto& th : pool) th.join();
  }

  // Re-raise the failure a serial sweep would have hit first (the smallest
  // failing run index), regardless of which worker hit it.
  int first_error = -1;
  for (int w = 0; w < threads; ++w) {
    if (errors[static_cast<std::size_t>(w)] != nullptr &&
        (first_error < 0 ||
         error_run[static_cast<std::size_t>(w)] <
             error_run[static_cast<std::size_t>(first_error)]))
      first_error = w;
  }
  if (first_error >= 0)
    std::rethrow_exception(errors[static_cast<std::size_t>(first_error)]);

  // Cancellation wins over a summary: a worker that broke out folded only
  // part of its shard, so no partial reduction is offered — the caller
  // asked for the sweep to stop, not for an approximate answer.
  if (cancelled.load(std::memory_order_relaxed)) throw BatchCancelled();

  for (const BatchSummary& part : partial) out.merge(part);
  out.wall_seconds = seconds_between(t_start, Clock::now());
  return out;
}

}  // namespace cil
