// In-memory span recording for the traced run.
//
// A span is (name, start, end, parent, run id). Spans are recorded around
// the benchmark's own calls into each layer, kept in memory, and written
// once at exit as a Chrome/Perfetto trace. When tracing is off every call
// is a branch on one bool, so untraced runs measure the same code path.
//
// Single-threaded: the workloads record spans from their driving thread
// only (forked fabric workers hand their timings back through a file and
// are added with add()).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    const char* name;  ///< a string literal
    int parent;        ///< index of the enclosing span, -1 at top level
    int run;           ///< workload-run id: one sweep, or one job
    double t0;         ///< seconds since the tracer's epoch
    double t1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }
  double now() const { return seconds_between(epoch_, Clock::now()); }
  double at(Clock::time_point t) const { return seconds_between(epoch_, t); }

  /// Open a span nested in the innermost open one; -1 when disabled.
  int begin(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, open_, run_, now(), 0.0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].t1 = now();
    open_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  /// Record a finished span measured elsewhere (another process, or
  /// overlapping client requests).
  void add(const char* name, int parent, int run, double t0, double t1) {
    if (enabled_) spans_.push_back({name, parent, run, t0, t1});
  }

  /// Total duration of the spans named `name` within each run id, for the
  /// runs listed in `runs` (0 for a run with no such span).
  std::vector<double> sums_per_run(const std::string& name,
                                   const std::vector<int>& runs) const;

  /// Write every span as a Chrome trace ("X" events, microseconds) with
  /// `meta` attached. Returns false when the file cannot be written.
  bool write(const std::string& path, const cil::obs::Json& meta) const;

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  int open_ = -1;
  int run_ = 0;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
