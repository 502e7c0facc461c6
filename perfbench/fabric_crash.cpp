// fabric-fig1-crash: Figure 1 under the shared fault plan
// "fp1;crash=0@2;recover=0@8" (p0 crashes at its 2nd step and recovers at
// its 8th), swept by 4 forked workers through fabric::run_supervised into a
// fresh CheckpointStore, then CheckpointStore::merged() -> to_batch_summary
// -> the final artifact. This is the workload where the column fault kernel
// runs, shard files are fsync'd and committed, and every shard is parsed
// twice (commit_shard, then merged).
//
// One sweep is one job. Every sweep of a run covers the same seed range, so
// the in-process serial BatchRunner reference runs once, before the timed
// loop; its wall is the base of fabric.speedup_vs_serial.
//
// run_supervised forks: no thread other than the caller's may exist when it
// is called, and none does here (the reference runs on this thread).
#include <fcntl.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/two_process.h"
#include "fabric/checkpoint.h"
#include "fabric/summary.h"
#include "fabric/supervisor.h"
#include "fault/fault_plan.h"
#include "obs/export.h"
#include "perfbench.h"
#include "sched/batch.h"
#include "stats.h"
#include "util/net.h"

using cil::obs::Json;

namespace perfbench {

namespace {

constexpr const char* kPlan = "fp1;crash=0@2;recover=0@8";
constexpr int kWorkers = 4;

cil::BatchSummary run_lanes(const cil::Protocol& protocol,
                            const cil::fault::FaultPlan& plan,
                            const cil::SeedRange& range) {
  cil::BatchRunner runner(protocol, {0, 1});
  cil::BatchOptions bo;
  bo.first_seed = range.first_seed;
  bo.num_runs = range.num_runs;
  bo.threads = 1;
  bo.engine = cil::BatchEngine::kLane;
  bo.lane_sched = {cil::LaneSchedSpec::Kind::kRandom, 0x1234, 0};
  bo.fault_plan = &plan;
  return runner.run(bo, nullptr);
}

std::int64_t ns_since_epoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// One line per finished shard attempt, appended by the forked worker:
/// "<index> <kernel start> <kernel end> <write end>" in steady-clock ns.
/// steady_clock is CLOCK_MONOTONIC, shared by parent and children.
void append_worker_times(const std::string& path, int index,
                         Clock::time_point k0, Clock::time_point k1,
                         Clock::time_point w1) {
  const std::string line =
      std::to_string(index) + " " + std::to_string(ns_since_epoch(k0)) + " " +
      std::to_string(ns_since_epoch(k1)) + " " +
      std::to_string(ns_since_epoch(w1)) + "\n";
  const int fd =
      cil::net::open_retry(path.c_str(), O_WRONLY | O_CREAT | O_APPEND);
  if (fd < 0) return;
  (void)cil::net::write_all(fd, line);
  (void)cil::net::close_retry(fd);
}

/// Adds the workers' timings as spans under `parent`.
void add_worker_spans(Tracer& tracer, const std::string& path, int parent,
                      int run) {
  std::istringstream in(read_file(path));
  int index = 0;
  std::int64_t k0 = 0, k1 = 0, w1 = 0;
  const auto to_tracer = [&](std::int64_t ns) {
    return tracer.at(Clock::time_point(std::chrono::nanoseconds(ns)));
  };
  while (in >> index >> k0 >> k1 >> w1) {
    tracer.add("fabric.worker_kernel", parent, run, to_tracer(k0),
               to_tracer(k1));
    tracer.add("fabric.worker_write", parent, run, to_tracer(k1),
               to_tracer(w1));
  }
}

}  // namespace

Result run_fabric_crash(const Config& config, Tracer& tracer) {
  const std::int64_t seeds = config.smoke ? 20'000 : 1'000'000;
  // The `sweep` default: four shards per worker.
  const std::int64_t shard_size = seeds / (4 * kWorkers);
  Result r;
  std::vector<int> runs;
  std::vector<double> setup_s, job_ms, rate, bytes, kernel_s, reduce_s,
      attempts, speedups;

  cil::fabric::SupervisorOptions sup;
  sup.workers = kWorkers;

  // Every sweep covers the same seed range, so the serial reference is
  // computed once, before any timing (and before any fork).
  const cil::SeedRange range{first_seed_for(config.seed, 0), seeds};
  cil::BatchSummary reference;
  double reference_s = 0.0;
  {
    tracer.set_run(-1);
    ScopedSpan span(tracer, "reference");
    const cil::TwoProcessProtocol protocol(1);
    const auto t0 = Clock::now();
    reference = run_lanes(protocol, cil::fault::FaultPlan::parse(kPlan),
                          range);
    reference_s = seconds_between(t0, Clock::now());
  }

  const auto start = Clock::now();
  for (int it = 0; it == 0 || seconds_between(start, Clock::now()) <
                                  config.seconds;
       ++it) {
    tracer.set_run(it);
    runs.push_back(it);
    const std::string dir =
        config.workdir + "/fabric-fig1-crash-" + std::to_string(it);
    const std::string worker_times = dir + "/worker_times.txt";

    // Set-up: protocol, fault plan, the checkpoint directory and its store.
    std::unique_ptr<cil::TwoProcessProtocol> protocol;
    cil::fault::FaultPlan plan;
    std::unique_ptr<cil::fabric::CheckpointStore> store;
    std::vector<cil::fabric::ShardTask> tasks;
    for (int rep = 0; rep < kSetupsPerSweep; ++rep) {
      store.reset();
      tasks.clear();
      std::filesystem::remove_all(dir);
      ScopedSpan span(tracer, "setup");
      const auto t0 = Clock::now();
      protocol = std::make_unique<cil::TwoProcessProtocol>(1);
      plan = cil::fault::FaultPlan::parse(kPlan);
      plan.validate(protocol->num_processes());
      cil::fabric::SweepConfig sc;
      sc.protocol = "two";
      sc.num_processes = 2;
      sc.scheduler = "random";
      sc.range = range;
      sc.shard_size = shard_size;
      sc.fault_plan = plan.serialize();
      std::filesystem::create_directories(dir);
      store = std::make_unique<cil::fabric::CheckpointStore>(dir);
      store->open(sc);
      for (int i = 0; i < store->num_shards(); ++i)
        tasks.push_back({i, store->shard_range(i)});
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }

    const cil::fabric::ShardWorker worker =
        [&](const cil::fabric::ShardTask& task, int /*attempt*/) {
          const auto k0 = Clock::now();
          const cil::BatchSummary s = run_lanes(*protocol, plan, task.range);
          const auto k1 = Clock::now();
          const bool written = store->write_shard(task.index, {task.range, s});
          if (config.corrupt && it == 0 && task.index == 0) {
            std::string text = read_file(store->shard_path(0));
            corrupt_digit_after(text, "steps_p0");
            (void)cil::obs::write_text_file_atomic(store->shard_path(0), text);
          }
          if (tracer.enabled())
            append_worker_times(worker_times, task.index, k0, k1,
                                Clock::now());
          return written ? 0 : 4;
        };

    bool ok = true;
    std::string why;
    const auto t0 = Clock::now();
    cil::fabric::SweepOutcome outcome;
    cil::BatchSummary merged;
    double supervise = 0.0;
    try {
      {
        ScopedSpan span(tracer, "fabric.supervise");
        const auto s0 = Clock::now();
        outcome = cil::fabric::run_supervised(tasks, sup, *store, worker);
        supervise = seconds_between(s0, Clock::now());
        if (tracer.enabled())
          add_worker_spans(tracer, worker_times, span.id(), it);
      }
      {
        ScopedSpan span(tracer, "fabric.merge");
        merged = store->merged().to_batch_summary();
      }
      std::string text;
      {
        Json doc;
        {
          ScopedSpan span(tracer, "fabric.encode");
          doc = cil::fabric::shard_summary_to_json({range, merged});
        }
        ScopedSpan span(tracer, "obs.dump");
        text = doc.dump();
      }
      {
        ScopedSpan span(tracer, "fabric.write");
        if (!cil::obs::write_text_file_atomic(dir + "/summary.json", text)) {
          ok = false;
          why = "cannot write the final artifact";
        }
      }
      bytes.push_back(static_cast<double>(text.size()));
      ScopedSpan span(tracer, "fabric.verify");
      if (ok && !cil::fabric::deterministic_fields_equal(merged, reference)) {
        ok = false;
        why = "merged summary differs from the serial reference";
      }
    } catch (const std::exception& e) {
      ok = false;
      why = e.what();
    }
    const double wall = seconds_between(t0, Clock::now());
    ++r.attempted;  // the sweep's verification
    if (supervise > 0.0) speedups.push_back(speedup(reference_s, supervise));

    double launches = 0.0;
    for (const cil::fabric::ShardOutcome& so : outcome.shards) {
      ++r.attempted;
      launches += so.attempts;
      if (!so.completed)
        r.fail("shard " + std::to_string(so.index) + " of sweep " +
               std::to_string(it) + " incomplete: " + so.last_error);
    }
    attempts.push_back(outcome.shards.empty()
                           ? 0.0
                           : launches / static_cast<double>(tasks.size()));

    if (ok && !summary_invariants_hold(merged, why)) ok = false;
    if (!ok) r.fail("sweep " + std::to_string(it) + ": " + why);

    job_ms.push_back(wall * 1e3);
    rate.push_back(ok ? per_second(seeds, wall) : 0.0);
    kernel_s.push_back(merged.run_seconds);
    reduce_s.push_back(merged.wall_seconds - merged.construct_seconds -
                       merged.run_seconds);
    store.reset();
    std::filesystem::remove_all(dir);
  }

  const Tail p99 = supported_tail(job_ms, 0.99);
  r.e2e("seeds_per_s", median(rate), "1/s");
  r.e2e("job_mean_ms", mean(job_ms), "ms");
  r.e2e("job_p99_ms", p99.value, "ms");
  r.detail["job_p50_ms"] = Json(median(job_ms));
  r.e2e("artifact_bytes", bytes.empty() ? 0.0 : median(bytes), "bytes");
  r.e2e("peak_rss_mb", peak_rss_mb(true), "MB");
  r.e2e("setup_s", median(setup_s), "s");
  r.detail["jobs"] = Json(static_cast<int>(job_ms.size()));
  r.detail["job"] = Json("one supervised sweep of " + std::to_string(seeds) +
                         " seeds on " + std::to_string(kWorkers) +
                         " forked workers, merged and verified");
  r.detail["job_p99_quantile"] = Json(p99.q);
  r.detail["job_p99_beyond"] = Json(p99.beyond);
  r.detail["seeds_per_s_base"] = Json(
      "median over sweeps of verified seeds / (supervise + merge + final "
      "artifact + verify) wall");
  r.detail["peak_rss_mb_base"] =
      Json("this process + its largest reaped worker");
  r.detail["seeds_per_s"] = Json(median(rate));

  if (tracer.enabled()) {
    const double kernel = median(kernel_s);
    r.layer("sched.kernel_s", kernel, "s");
    r.layer("sched.ns_per_run", kernel / static_cast<double>(seeds) * 1e9,
            "ns");
    r.layer("sched.reduce_s", median(reduce_s), "s");
    r.layer("fabric.encode_s", median_span(tracer, "fabric.encode", runs), "s");
    r.layer("obs.dump_s", median_span(tracer, "obs.dump", runs), "s");
    r.layer("fabric.write_s", median_span(tracer, "fabric.write", runs), "s");
    r.layer("fabric.verify_s", median_span(tracer, "fabric.verify", runs), "s");
    const double supervise = median_span(tracer, "fabric.supervise", runs);
    r.layer("fabric.supervise_s", supervise, "s");
    r.layer("fabric.worker_kernel_s",
            median_span(tracer, "fabric.worker_kernel", runs), "s");
    r.layer("fabric.worker_write_s",
            median_span(tracer, "fabric.worker_write", runs), "s");
    r.layer("fabric.merge_s", median_span(tracer, "fabric.merge", runs), "s");
    r.layer("fabric.attempts_per_shard", median(attempts), "count");
    r.layer("fabric.speedup_vs_serial",
            speedups.empty() ? 0.0 : median(speedups), "x");
    r.detail["speedup_base"] = Json(
        "serial reference BatchRunner::run wall (1 thread, lane engine) / "
        "run_supervised wall");
    r.detail["serial_reference_s"] = Json(reference_s);
    r.detail["worker_times_base"] = Json("summed over the sweep's shards");
  }
  return r;
}

}  // namespace perfbench
