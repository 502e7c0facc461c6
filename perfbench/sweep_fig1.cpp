// sweep-fig1: Figure 1 under a uniformly random scheduler, fault-free, on
// the lane engine with one thread — the serial artifact path of
// `sweep --serial`, end to end:
//
//   BatchRunner::run -> shard_summary_to_json -> Json::dump ->
//   write_text_file_atomic -> read back -> Json::parse ->
//   shard_summary_from_json -> deterministic_fields_equal
//
// One operation is one whole sweep ("job"); the loop repeats sweeps over
// fresh seed ranges until the run's time is up.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/two_process.h"
#include "fabric/summary.h"
#include "obs/export.h"
#include "perfbench.h"
#include "sched/batch.h"
#include "sched/lane_engine.h"
#include "stats.h"

using cil::obs::Json;

namespace perfbench {

namespace {

constexpr cil::LaneSchedSpec kRandomLanes{cil::LaneSchedSpec::Kind::kRandom,
                                          0x1234, 0};

cil::BatchOptions lane_options(const cil::SeedRange& range) {
  cil::BatchOptions bo;
  bo.first_seed = range.first_seed;
  bo.num_runs = range.num_runs;
  bo.threads = 1;
  bo.engine = cil::BatchEngine::kLane;
  bo.lane_sched = kRandomLanes;
  return bo;
}

}  // namespace

Result run_sweep_fig1(const Config& config, Tracer& tracer) {
  const std::int64_t seeds = config.smoke ? 20'000 : 1'000'000;
  const std::vector<cil::Value> inputs = {0, 1};
  Result r;
  std::vector<int> runs;
  std::vector<double> setup_s, job_ms, rate, bytes, kernel_s, reduce_s;

  const auto start = Clock::now();
  for (int it = 0; it == 0 || seconds_between(start, Clock::now()) <
                                  config.seconds;
       ++it) {
    tracer.set_run(it);
    runs.push_back(it);
    ++r.attempted;
    const cil::SeedRange range{first_seed_for(config.seed, it), seeds};
    const std::string dir =
        config.workdir + "/sweep-fig1-" + std::to_string(it);
    const std::string path = dir + "/summary.json";

    // Set-up: protocol, runner and lane engine, and the output directory.
    std::unique_ptr<cil::TwoProcessProtocol> protocol;
    std::unique_ptr<cil::BatchRunner> runner;
    for (int rep = 0; rep < kSetupsPerSweep; ++rep) {
      runner.reset();  // before the protocol it refers to
      protocol.reset();
      std::filesystem::remove_all(dir);
      ScopedSpan span(tracer, "setup");
      const auto t0 = Clock::now();
      protocol = std::make_unique<cil::TwoProcessProtocol>(1);
      runner = std::make_unique<cil::BatchRunner>(*protocol, inputs);
      cil::LaneEngine engine(*protocol, inputs);
      cil::LaneRunOptions lo;
      lo.sched = kRandomLanes;
      (void)engine.selected_simd_width(lo);
      std::filesystem::create_directories(dir);
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }

    const auto t0 = Clock::now();
    bool ok = true;
    std::string why;
    cil::fabric::ShardSummary shard{range, {}};
    try {
      {
        ScopedSpan span(tracer, "sched.batch");
        shard.summary = runner->run(lane_options(range), nullptr);
      }
      std::string text;
      {
        Json doc;
        {
          ScopedSpan span(tracer, "fabric.encode");
          doc = cil::fabric::shard_summary_to_json(shard);
        }
        ScopedSpan span(tracer, "obs.dump");
        text = doc.dump();
      }
      {
        ScopedSpan span(tracer, "fabric.write");
        ok = cil::obs::write_text_file_atomic(path, text);
        if (!ok) why = "cannot write " + path;
      }
      {
        ScopedSpan span(tracer, "fabric.read");
        text = read_file(path);
      }
      if (config.corrupt && it == 0) corrupt_digit_after(text, "steps_p0");
      Json parsed;
      {
        ScopedSpan span(tracer, "obs.parse");
        parsed = Json::parse(text);
      }
      cil::fabric::ShardSummary back;
      {
        ScopedSpan span(tracer, "fabric.decode");
        back = cil::fabric::shard_summary_from_json(parsed);
      }
      {
        ScopedSpan span(tracer, "fabric.verify");
        if (ok && !(back.range == shard.range &&
                    cil::fabric::deterministic_fields_equal(back.summary,
                                                            shard.summary))) {
          ok = false;
          why = "parsed artifact differs from the in-memory summary";
        }
      }
      bytes.push_back(static_cast<double>(text.size()));
    } catch (const std::exception& e) {
      ok = false;
      why = e.what();
    }
    const double wall = seconds_between(t0, Clock::now());

    const cil::BatchSummary& s = shard.summary;
    if (ok && !summary_invariants_hold(s, why)) ok = false;
    // Corollary 7: p0 takes at most 10 own steps in expectation.
    if (ok && s.steps_p0.mean() > 10.0) {
      ok = false;
      why = "mean own-steps of p0 is " + std::to_string(s.steps_p0.mean());
    }
    if (!ok) r.fail("sweep " + std::to_string(it) + ": " + why);

    job_ms.push_back(wall * 1e3);
    rate.push_back(ok ? per_second(seeds, wall) : 0.0);
    kernel_s.push_back(s.run_seconds);
    reduce_s.push_back(s.wall_seconds - s.construct_seconds - s.run_seconds);
    std::filesystem::remove_all(dir);
  }

  const Tail p99 = supported_tail(job_ms, 0.99);
  r.e2e("seeds_per_s", median(rate), "1/s");
  r.e2e("job_mean_ms", mean(job_ms), "ms");
  r.e2e("job_p99_ms", p99.value, "ms");
  r.detail["job_p50_ms"] = Json(median(job_ms));
  r.e2e("artifact_bytes", bytes.empty() ? 0.0 : median(bytes), "bytes");
  r.e2e("peak_rss_mb", peak_rss_mb(false), "MB");
  r.e2e("setup_s", median(setup_s), "s");
  r.detail["jobs"] = Json(static_cast<int>(job_ms.size()));
  r.detail["job"] = Json("one whole sweep of " + std::to_string(seeds) +
                         " seeds, verified");
  r.detail["job_p99_quantile"] = Json(p99.q);
  r.detail["job_p99_beyond"] = Json(p99.beyond);
  r.detail["seeds_per_s_base"] =
      Json("median over sweeps of verified seeds / sweep wall");

  if (tracer.enabled()) {
    const double kernel = median(kernel_s);
    r.layer("sched.kernel_s", kernel, "s");
    r.layer("sched.ns_per_run", kernel / static_cast<double>(seeds) * 1e9,
            "ns");
    r.layer("sched.reduce_s", median(reduce_s), "s");
    r.layer("fabric.encode_s", median_span(tracer, "fabric.encode", runs), "s");
    r.layer("obs.dump_s", median_span(tracer, "obs.dump", runs), "s");
    r.layer("fabric.write_s", median_span(tracer, "fabric.write", runs), "s");
    r.layer("obs.parse_s", median_span(tracer, "obs.parse", runs), "s");
    r.layer("fabric.decode_s", median_span(tracer, "fabric.decode", runs), "s");
    r.layer("fabric.verify_s", median_span(tracer, "fabric.verify", runs), "s");
    r.detail["fabric.read_s"] =
        Json(median_span(tracer, "fabric.read", runs));
    r.detail["sched.batch_s"] =
        Json(median_span(tracer, "sched.batch", runs));
  }
  r.detail["seeds_per_s"] = Json(median(rate));
  return r;
}

}  // namespace perfbench
