// Shared types of the end-to-end benchmark: the run configuration, the
// result every workload fills in, and the checks all workloads share.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "sched/batch.h"
#include "trace.h"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< how long the measuring loop runs
  bool trace = false;
  /// Tiny sizes, for the benchmark's own tests.
  bool smoke = false;
  /// Damage one artifact or result frame before it is checked, so the run
  /// must report a correctness failure.
  bool corrupt = false;
  std::string workdir;  ///< scratch space inside the checkout
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Sample counts, percentile actually reported, rate bases, and other
  /// context printed on the detail line.
  cil::obs::Json detail = cil::obs::Json::object();

  /// Count one failed operation and say why on stderr.
  void fail(const std::string& what);
  void e2e(const std::string& name, double value, const char* unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = {value, unit};
  }
};

Result run_sweep_fig1(const Config& config, Tracer& tracer);
Result run_fabric_crash(const Config& config, Tracer& tracer);
Result run_svc_avoid(const Config& config, Tracer& tracer);

/// Checks every workload applies to a summary: every run decided, and the
/// per-value decision counts sum to the decided runs. (A consistency
/// violation throws out of BatchRunner and is counted by the caller.)
/// Returns false, with the reason in `why`, on the first failed check.
bool summary_invariants_hold(const cil::BatchSummary& s, std::string& why);

/// A first_seed for unit `i` of a workload: seed-determined, below 2^40, so
/// consecutive units of `width` seeds never wrap.
std::uint64_t first_seed_for(std::uint64_t seed, std::uint64_t i);

/// Peak resident set size in MB of this process, plus (when asked) the
/// largest of its reaped child processes.
double peak_rss_mb(bool with_children);

/// Change one digit inside the first number array after `key` in a JSON
/// text, keeping it valid JSON. Returns false if no such digit exists.
bool corrupt_digit_after(std::string& text, const std::string& key);

std::string read_file(const std::string& path);

/// Set-up takes about a millisecond or less and has a long tail, so each
/// sweep sets up this many times (keeping the last) and setup_s is the
/// median over all of them.
inline constexpr int kSetupsPerSweep = 10;

/// Median of the per-run sums of span `name` (0 when the tracer is off).
double median_span(const Tracer& tracer, const std::string& name,
                   const std::vector<int>& runs);

}  // namespace perfbench
