// Shared helpers for the experiment-reproduction benches: fixed-width table
// printing, common measurement loops, the single summary/tail code path over
// util/stats, and the machine-readable run-report every bench emits through
// an obs::MetricsRegistry. Each bench binary reproduces one row of
// DESIGN.md §3 and prints paper-claim vs measured.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "sched/batch.h"
#include "sched/simulation.h"
#include "util/simd.h"
#include "util/stats.h"

namespace cil::bench {

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

inline std::string fmt_int(std::int64_t v) { return std::to_string(v); }

/// The one code path for mean/CI tables: a header row and, per
/// distribution, its Summary (util/stats) rendered as a row.
inline void summary_header(const std::string& first_col, int width = 14) {
  row({first_col, "mean", "ci95", "p50", "p99", "max"}, width);
}

inline void summary_row(const std::string& name, const Tally& s,
                        int width = 14) {
  const Summary m = summarize(s);
  row({name, fmt(m.mean), fmt(m.ci95), fmt_int(m.p50), fmt_int(m.p99),
       fmt_int(m.max)},
      width);
}

/// The one code path for survival-vs-bound tables: P[X >= k] next to a
/// closed-form bound, for each requested k.
inline void tail_table(const Tally& s, const std::vector<std::int64_t>& ks,
                       const std::string& k_col, const std::string& bound_col,
                       const std::function<double(std::int64_t)>& bound,
                       int width = 14) {
  row({k_col, "P[X>=k]", bound_col}, width);
  for (const std::int64_t k : ks)
    row({fmt_int(k), fmt(s.tail_at_least(k), 5), fmt(bound(k), 5)}, width);
}

/// Run `protocol` to completion under `sched`; throws CoordinationViolation
/// on any consistency/nontriviality breach (so a bench that finishes is
/// itself a correctness certificate for its runs).
inline SimResult run_once(const Protocol& protocol,
                          const std::vector<Value>& inputs, Scheduler& sched,
                          std::uint64_t seed,
                          std::int64_t max_steps = 1'000'000) {
  SimOptions options;
  options.seed = seed;
  options.max_total_steps = max_steps;
  Simulation sim(protocol, inputs, options);
  return sim.run(sched);
}

/// Worker-thread count for BatchRunner sweeps: min(8, hardware) so bench
/// numbers stay comparable across big and small machines, overridable via
/// CIL_BENCH_THREADS (CI smoke and local reproduction can pin it).
inline int bench_threads() {
  if (const char* env = std::getenv("CIL_BENCH_THREADS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min<unsigned>(8, hw == 0 ? 1 : hw));
}

/// Lane width W for the benches' lane-kernel series: default 8, the width
/// the committed baselines were measured and are gated at, although
/// BatchOptions and sweeps default to 64. Overridable via CIL_BENCH_LANES
/// for lane-width scaling runs (EXPERIMENTS.md X13 sweeps W in
/// {1,2,4,8,16}; X16 compares 1, 8 and 64).
inline int bench_lanes() {
  if (const char* env = std::getenv("CIL_BENCH_LANES")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 8;
}

/// Wall-clock throughput meter for a measurement loop. Start it, add the
/// step count of every run measured, and it yields steps/sec (for humans)
/// and ns/step (lower-is-better, the form the perf gate consumes).
class StepTimer {
 public:
  StepTimer() : t0_(std::chrono::steady_clock::now()) {}

  void add_steps(std::int64_t steps) { steps_ += steps; }

  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }
  std::int64_t steps() const { return steps_; }
  double steps_per_sec() const {
    const double s = seconds();
    return s > 0 ? static_cast<double>(steps_) / s : 0.0;
  }
  double ns_per_step() const {
    return steps_ > 0 ? 1e9 * seconds() / static_cast<double>(steps_) : 0.0;
  }

 private:
  std::chrono::steady_clock::time_point t0_;
  std::int64_t steps_ = 0;
};

/// Machine-readable companion to the printed tables. A bench creates one
/// BenchReport, mirrors its headline numbers into it (scalars, sample
/// distributions, registry metrics), and on destruction the report is
/// written as an obs::run_report_json document to the path named by the
/// CIL_RUN_REPORT environment variable — or nowhere, when unset, so
/// interactive runs stay file-free. CI sets the variable and uploads the
/// reports as artifacts; EXPERIMENTS.md X6 plots tails straight from them.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}
  ~BenchReport() { write(); }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  obs::MetricsRegistry& metrics() { return metrics_; }

  void set_meta(const std::string& key, const std::string& value) {
    meta_[key] = value;
  }

  /// A headline scalar ("values" object in the report).
  void set_value(const std::string& key, double v) {
    values_[key] = obs::Json(v);
  }

  /// Record a measurement loop's throughput as "wall.<key>.steps_per_sec"
  /// (human headline) and "wall.<key>.ns_per_step" (what the perf gate
  /// watches — lower is better).
  void add_throughput(const std::string& key, const StepTimer& t) {
    set_value("wall." + key + ".steps_per_sec", t.steps_per_sec());
    set_value("wall." + key + ".ns_per_step", t.ns_per_step());
  }

  /// A full distribution: its Summary under "samples.<key>" plus a
  /// power-of-two histogram in the registry (the tail-plot source).
  void add_samples(const std::string& key, const Tally& s) {
    const Summary m = summarize(s);
    obs::Json j = obs::Json::object();
    j["count"] = obs::Json(static_cast<double>(m.count));
    j["mean"] = obs::Json(m.mean);
    j["stddev"] = obs::Json(m.stddev);
    j["ci95"] = obs::Json(m.ci95);
    j["p50"] = obs::Json(static_cast<double>(m.p50));
    j["p99"] = obs::Json(static_cast<double>(m.p99));
    j["min"] = obs::Json(static_cast<double>(m.min));
    j["max"] = obs::Json(static_cast<double>(m.max));
    samples_[key] = std::move(j);
    auto& h = metrics_.histogram("samples." + key);
    for (const auto& [value, count] : s.bins())
      h.observe(static_cast<double>(value), count);
  }

  /// Write the report now (idempotent; the destructor calls it). No-op
  /// unless $CIL_RUN_REPORT names a path.
  void write() {
    if (written_) return;
    written_ = true;
    const char* path = std::getenv("CIL_RUN_REPORT");
    if (path == nullptr || *path == '\0') return;
    obs::Json extra = obs::Json::object();
    extra["values"] = values_;
    extra["samples"] = samples_;
    obs::write_text_file(
        path, obs::run_report_json(name_, meta_, metrics_, extra) + "\n");
  }

 private:
  std::string name_;
  obs::MetricsRegistry metrics_;
  std::map<std::string, std::string> meta_;
  obs::Json values_ = obs::Json::object();
  obs::Json samples_ = obs::Json::object();
  bool written_ = false;
};

/// Record a BatchRunner sweep in the run-report:
///   wall.<key>.steps_per_sec / .ns_per_step   — per-step throughput, the
///       same shape add_throughput emits for serial loops;
///   batch.<key>.runs_per_sec                  — the human headline rate;
///   batch.<key>.us_per_run                    — its lower-is-better form,
///       the one the perf gate watches;
///   wall.<key>.construct_s / .run_s           — the construct-vs-run wall
///       split, summed across workers, so a ctor-dominated sweep is visible
///       as data instead of polluting the per-step numbers.
inline void add_batch_report(BenchReport& report, const std::string& key,
                             const BatchSummary& b) {
  const double wall = b.wall_seconds > 0 ? b.wall_seconds : 1e-12;
  report.set_value("wall." + key + ".steps_per_sec",
                   static_cast<double>(b.total_steps) / wall);
  report.set_value(
      "wall." + key + ".ns_per_step",
      b.total_steps > 0 ? 1e9 * wall / static_cast<double>(b.total_steps)
                        : 0.0);
  report.set_value("batch." + key + ".runs_per_sec",
                   static_cast<double>(b.num_runs) / wall);
  report.set_value(
      "batch." + key + ".us_per_run",
      b.num_runs > 0 ? 1e6 * wall / static_cast<double>(b.num_runs) : 0.0);
  report.set_value("wall." + key + ".construct_s", b.construct_seconds);
  report.set_value("wall." + key + ".run_s", b.run_seconds);
}

/// The lane-kernel twin of add_batch_report, for a sweep of the SAME
/// workload rerun from a LaneSchedSpec: the summary is bit-identical
/// by contract (pinned by batch_test), so only rate metrics are emitted —
///   batch.<key>.lane_runs_per_sec            — the human headline rate;
///   batch.<key>.lane_us_per_run              — its lower-is-better form,
///       the one the strict release-perf gate watches;
///   wall.<key>.lane_steps_per_sec / .lane_ns_per_step — per-step framing.
inline void add_lane_batch_report(BenchReport& report, const std::string& key,
                                  const BatchSummary& b) {
  const double wall = b.wall_seconds > 0 ? b.wall_seconds : 1e-12;
  report.set_value("batch." + key + ".lane_runs_per_sec",
                   static_cast<double>(b.num_runs) / wall);
  report.set_value(
      "batch." + key + ".lane_us_per_run",
      b.num_runs > 0 ? 1e6 * wall / static_cast<double>(b.num_runs) : 0.0);
  report.set_value("wall." + key + ".lane_steps_per_sec",
                   static_cast<double>(b.total_steps) / wall);
  report.set_value(
      "wall." + key + ".lane_ns_per_step",
      b.total_steps > 0 ? 1e9 * wall / static_cast<double>(b.total_steps)
                        : 0.0);
  // The width this sweep's kernels actually ran at, so a lane number in a
  // report is never compared against one computed by a different vector
  // ISA without the difference being visible in the artifact.
  report.set_value("batch." + key + ".simd_width",
                   static_cast<double>(b.simd_width));
}

/// Stamp the process-wide SIMD selection into a report's meta block:
/// simd_width (what the lane kernels default to on this host, after the
/// $CIL_SIMD_WIDTH override) and simd_isa (its human name). Benches call
/// this once so run-reports are self-describing about the vector ISA.
inline void set_simd_meta(BenchReport& report) {
  report.set_meta("simd_width", std::to_string(simd::active_width()));
  report.set_meta("simd_isa", simd::width_isa(simd::active_width()));
}

}  // namespace cil::bench
