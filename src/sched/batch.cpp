#include "sched/batch.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <thread>

#include "util/check.h"

namespace cil {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The per-run facts a worker records into its preallocated seed-order slot.
/// Plain data only — the reduction happens single-threaded afterwards.
struct RunRecord {
  std::int64_t total_steps = 0;
  std::int64_t steps_p0 = 0;
  std::int64_t steps_p1 = 0;
  std::int64_t recoveries = 0;
  int max_register_bits = 0;
  Value decision = kNoValue;
  bool all_decided = false;
  std::int64_t probe = 0;
};

struct WorkerTiming {
  double construct = 0.0;
  double run = 0.0;
};

}  // namespace

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
  std::vector<RunRecord> records(static_cast<std::size_t>(options.num_runs));
  std::vector<WorkerTiming> timing(static_cast<std::size_t>(threads));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::int64_t> error_run(
      static_cast<std::size_t>(threads),
      std::numeric_limits<std::int64_t>::max());

  // One shard, one LaneEngine. Runs land in seed-indexed record slots and a
  // failure is attributed to its run index, so the reduction below cannot
  // tell how the range was sharded — the thread/lane-invariance contract.
  const auto worker = [&](int w, std::int64_t begin, std::int64_t end) {
    WorkerTiming& wt = timing[static_cast<std::size_t>(w)];
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
      if (w == 0) out.simd_width = engine.selected_simd_width(lo);
      const auto c1 = Clock::now();
      wt.construct += seconds_between(c0, c1);
      bool complete = false;
      try {
        complete = engine.run(
            options.first_seed + static_cast<std::uint64_t>(begin),
            end - begin, lo, [&](const LaneRunView& v) {
              RunRecord& rec = records[static_cast<std::size_t>(
                  v.seed - options.first_seed)];
              rec.total_steps = v.total_steps;
              rec.steps_p0 = v.steps_p0;
              rec.steps_p1 = v.steps_p1;
              rec.recoveries = v.recoveries;
              rec.max_register_bits = v.max_register_bits;
              rec.decision = v.decision;
              rec.all_decided = v.all_decided;
              rec.probe = v.probe;
              if (after_run != nullptr) after_run(v.seed);
            });
      } catch (...) {
        error_run[static_cast<std::size_t>(w)] =
            begin + std::max<std::int64_t>(0, engine.failed_run_index());
        throw;
      }
      wt.run += seconds_between(c1, Clock::now());
      if (!complete) cancelled.store(true, std::memory_order_relaxed);
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

  // Cancellation wins over a summary: a worker that broke out left holes in
  // `records`, so no partial reduction is offered — the caller asked for
  // the sweep to stop, not for an approximate answer.
  if (cancelled.load(std::memory_order_relaxed)) throw BatchCancelled();

  // Seed-order reduction over the preallocated slots: thread-count never
  // changes what this loop sees. Decision values are tallied in a tiny
  // linear-scan accumulator first — distinct decisions are bounded by the
  // input set, so a map node lookup per run would be pure overhead.
  std::vector<std::pair<Value, std::int64_t>> decision_tally;
  for (const RunRecord& rec : records) {
    ++out.num_runs;
    if (rec.all_decided) ++out.decided_runs;
    if (rec.decision != kNoValue) {
      bool found = false;
      for (auto& [value, count] : decision_tally) {
        if (value == rec.decision) {
          ++count;
          found = true;
          break;
        }
      }
      if (!found) decision_tally.emplace_back(rec.decision, 1);
    }
    out.total_steps += rec.total_steps;
    out.recoveries += rec.recoveries;
    out.steps.add(rec.total_steps);
    out.steps_p0.add(rec.steps_p0);
    out.steps_p1.add(rec.steps_p1);
    out.max_register_bits.add(rec.max_register_bits);
    if (probe != nullptr) out.probe.add(rec.probe);
  }
  for (const auto& [value, count] : decision_tally)
    out.decision_counts[value] = count;
  for (const WorkerTiming& wt : timing) {
    out.construct_seconds += wt.construct;
    out.run_seconds += wt.run;
  }
  out.wall_seconds = seconds_between(t_start, Clock::now());
  return out;
}

}  // namespace cil
