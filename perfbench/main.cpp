// perfbench — the end-to-end benchmark of seed sweeps, the forked fabric and
// the coordination service. See README.md beside this file.
//
//   perfbench --workload sweep-fig1|fabric-fig1-crash|svc-fig2-avoid
//             --seed N --seconds S --trace 0|1 --workdir DIR
//             [--commit ID] [--smoke] [--corrupt]
//
// Prints a `meta:` line (machine, build, SIMD width), a `detail:` line (every
// measured number with its sample count and base), and, last, the result
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced. Exits 1 when any
// correctness check failed, 2 on bad usage or an unoptimised build.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "perfbench.h"
#include "stats.h"
#include "util/rng.h"
#include "util/simd.h"

using cil::obs::Json;

namespace perfbench {

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (tests/test_smoke.py checks it does).
constexpr MetricName kEndToEnd[] = {
    {"seeds_per_s", "1/s"},      {"job_mean_ms", "ms"},
    {"job_p99_ms", "ms"},        {"artifact_bytes", "bytes"},
    {"peak_rss_mb", "MB"},       {"setup_s", "s"},
};

constexpr MetricName kPerLayer[] = {
    {"sched.kernel_s", "s"},           {"sched.ns_per_run", "ns"},
    {"sched.reduce_s", "s"},           {"fabric.encode_s", "s"},
    {"obs.dump_s", "s"},               {"fabric.write_s", "s"},
    {"obs.parse_s", "s"},              {"fabric.decode_s", "s"},
    {"fabric.verify_s", "s"},          {"fabric.supervise_s", "s"},
    {"fabric.worker_kernel_s", "s"},   {"fabric.worker_write_s", "s"},
    {"fabric.merge_s", "s"},           {"fabric.attempts_per_shard", "count"},
    {"fabric.speedup_vs_serial", "x"}, {"svc.service_ms", "ms"},
    {"svc.queue_wait_ms", "ms"},       {"svc.frames_per_job", "count"},
    {"svc.bytes_per_job", "bytes"},    {"svc.jobs_failed", "count"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sweep-fig1|fabric-fig1-crash|"
               "svc-fig2-avoid --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--commit ID] [--smoke] [--corrupt]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Config& config, std::string& commit) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (flag == "--corrupt") {
      config.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        config.trace = value == "1";
      } else if (flag == "--workdir") {
        config.workdir = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !config.workload.empty() && !config.workdir.empty() &&
         config.seconds > 0.0;
}

Json metadata(const std::string& commit) {
  Json meta = Json::object();
  meta["nproc"] = Json(static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)));
  const int width = cil::simd::active_width();
  meta["simd_width"] = Json(width);
  meta["simd_isa"] = Json(cil::simd::width_isa(width));
#if defined(__clang__)
  meta["compiler"] = Json("clang " __clang_version__);
#elif defined(__GNUC__)
  meta["compiler"] = Json("gcc " __VERSION__);
#endif
  meta["build_type"] = Json(PERFBENCH_BUILD_TYPE);
  meta["commit"] = Json(commit);
  return meta;
}

Json metrics_json(const std::map<std::string, Metric>& metrics) {
  Json out = Json::object();
  for (const auto& [name, m] : metrics) {
    Json entry = Json::object();
    entry["value"] = Json(m.value);
    entry["unit"] = Json(m.unit);
    out[name] = std::move(entry);
  }
  return out;
}

}  // namespace

void Result::fail(const std::string& what) {
  ++failed;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

bool summary_invariants_hold(const cil::BatchSummary& s, std::string& why) {
  if (s.decided_runs != s.num_runs) {
    why = std::to_string(s.num_runs - s.decided_runs) + " of " +
          std::to_string(s.num_runs) + " runs undecided";
    return false;
  }
  std::int64_t sum = 0;
  for (const auto& [value, count] : s.decision_counts) sum += count;
  if (sum != s.decided_runs) {
    why = "decision counts sum to " + std::to_string(sum) + ", not " +
          std::to_string(s.decided_runs);
    return false;
  }
  return true;
}

std::uint64_t first_seed_for(std::uint64_t seed, std::uint64_t i) {
  return 1 + (cil::SplitMix64(seed * 0x9E3779B97F4A7C15ull + i).next() >> 24);
}

double peak_rss_mb(bool with_children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (with_children) {
    rusage children{};
    ::getrusage(RUSAGE_CHILDREN, &children);
    kb += static_cast<double>(children.ru_maxrss);
  }
  return kb / 1024.0;
}

bool corrupt_digit_after(std::string& text, const std::string& key) {
  const std::size_t at = text.find("\"" + key + "\":[");
  if (at == std::string::npos) return false;
  for (std::size_t i = at + key.size() + 4; i < text.size(); ++i) {
    const char c = text[i];
    if (c == ']') return false;
    // Never writes '0', so no number gains a leading zero.
    if (c >= '0' && c <= '9') {
      text[i] = c == '9' ? '8' : static_cast<char>(c + 1);
      return true;
    }
  }
  return false;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

double median_span(const Tracer& tracer, const std::string& name,
                   const std::vector<int>& runs) {
  if (!tracer.enabled() || runs.empty()) return 0.0;
  return median(tracer.sums_per_run(name, runs));
}

std::vector<double> Tracer::sums_per_run(const std::string& name,
                                         const std::vector<int>& runs) const {
  std::map<int, double> sums;
  for (const int r : runs) sums[r] = 0.0;
  for (const Span& s : spans_) {
    auto it = sums.find(s.run);
    if (it != sums.end() && name == s.name) it->second += s.t1 - s.t0;
  }
  std::vector<double> out;
  for (const auto& [run, sum] : sums) out.push_back(sum);
  return out;
}

bool Tracer::write(const std::string& path, const Json& meta) const {
  Json events = Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json e = Json::object();
    e["name"] = Json(s.name);
    e["ph"] = Json("X");
    e["pid"] = Json(1);
    e["tid"] = Json(1);
    e["ts"] = Json(s.t0 * 1e6);
    e["dur"] = Json((s.t1 - s.t0) * 1e6);
    Json args = Json::object();
    args["id"] = Json(static_cast<int>(i));
    args["parent"] = Json(s.parent);
    args["run"] = Json(s.run);
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  doc["metadata"] = meta;
  std::ofstream out(path, std::ios::binary);
  out << doc.dump() << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "perfbench: refusing to run: built without optimisation "
               "(build type '%s'); configure with "
               "-DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  Config config;
  std::string commit = "unknown";
  if (!parse_args(argc, argv, config, commit)) return usage();

  Tracer tracer(config.trace);
  Result result;
  try {
    std::filesystem::create_directories(config.workdir);
    if (config.workload == "sweep-fig1") {
      result = run_sweep_fig1(config, tracer);
    } else if (config.workload == "fabric-fig1-crash") {
      result = run_fabric_crash(config, tracer);
    } else if (config.workload == "svc-fig2-avoid") {
      result = run_svc_avoid(config, tracer);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   config.workload.c_str());
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }

  // A layer the workload's path never calls reads 0 and is listed, so a
  // zero is never mistaken for a layer that got free.
  Json absent = Json::array();
  for (const MetricName& m : kPerLayer) {
    if (config.trace && result.per_layer.count(m.name) == 0) {
      result.layer(m.name, 0.0, m.unit);
      absent.push_back(Json(m.name));
    }
  }
  for (const MetricName& m : kEndToEnd) {
    if (result.end_to_end.count(m.name) == 0) {
      std::fprintf(stderr, "perfbench: workload did not measure %s\n",
                   m.name);
      return 3;
    }
  }
  for (auto* metrics : {&result.end_to_end, &result.per_layer}) {
    for (auto& [name, m] : *metrics) {
      if (!std::isfinite(m.value)) {
        result.fail(name + " is not finite");
        m.value = 0.0;
      }
    }
  }
  if (result.attempted < 1) result.fail("no operation attempted");
  result.attempted = std::max(result.attempted, result.failed);

  const Json meta = metadata(commit);
  result.detail["error_rate"] =
      Json(error_rate(result.failed, result.attempted));
  result.detail["end_to_end"] = metrics_json(result.end_to_end);
  if (tracer.enabled()) {
    result.detail["absent_layers"] = std::move(absent);
    result.detail["per_layer"] = metrics_json(result.per_layer);
    const std::string path = config.workdir + "/spans-" + config.workload +
                             "-" + std::to_string(config.seed) + ".json";
    if (tracer.write(path, meta)) result.detail["spans_file"] = Json(path);
  }

  Json out = Json::object();
  out["correct"] = Json(result.failed == 0);
  out["attempted"] = Json(result.attempted);
  out["failed"] = Json(result.failed);
  out["metrics"] = metrics_json(config.trace ? result.per_layer
                                             : result.end_to_end);
  std::printf("meta: %s\n", meta.dump().c_str());
  std::printf("detail: %s\n", result.detail.dump().c_str());
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return result.failed == 0 ? 0 : 1;
}
