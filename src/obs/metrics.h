// The metrics registry: named counters and fixed-bucket histograms.
//
// Where the event bus (obs/events.h) narrates *what happened*, the registry
// aggregates *how much* — steps-to-decide distributions, register-operation
// counts, fault tallies. Benches and tools/chaos publish their measurements
// through one MetricsRegistry and export it as a JSON run-report
// (obs/export.h), replacing per-binary ad-hoc printing with a single
// machine-readable artifact format every future perf PR can diff.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/json.h"

namespace cil::obs {

/// A monotonically increasing named tally.
class Counter {
 public:
  void inc(std::int64_t delta = 1) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Histogram over fixed, ascending bucket upper bounds declared at
/// construction; an implicit +inf bucket catches everything above the last
/// bound. Bucket i counts observations x with x <= bounds[i] (and greater
/// than the previous bound). Also tracks count/sum/min/max exactly.
class FixedHistogram {
 public:
  FixedHistogram() : FixedHistogram(default_bounds()) {}
  explicit FixedHistogram(std::vector<double> upper_bounds);

  /// Record `count` >= 1 observations of x.
  void observe(double x, std::int64_t count = 1);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  double min() const;  ///< requires count() > 0
  double max() const;  ///< requires count() > 0
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::int64_t>& bucket_counts() const { return counts_; }
  /// Empirical P[X >= x] at bucket granularity (every bucket whose range
  /// reaches x counts in full); exact when x lies just above a bound.
  double tail_at_least(double x) const;

  /// {first, first*factor, first*factor^2, ...} — the standard choice for
  /// step-count distributions with geometric tails.
  static std::vector<double> exponential_bounds(double first, double factor,
                                                int count);
  /// Powers of two 1..2^20: fits every steps-to-decide and num-field
  /// distribution in this repository.
  static std::vector<double> default_bounds();

  Json to_json() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::int64_t> counts_;
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Name -> counter/histogram map with get-or-create semantics. Names use
/// dotted paths ("events.step", "sim.steps_to_decide"). Deterministically
/// ordered so run-report JSON is diffable.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  /// Get-or-create. `bounds` applies only on creation; pass {} to accept
  /// the default power-of-two buckets or to look up an existing histogram.
  FixedHistogram& histogram(const std::string& name,
                            std::vector<double> bounds = {});

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, FixedHistogram>& histograms() const {
    return histograms_;
  }

  /// {"counters": {name: value}, "histograms": {name: {...}}}.
  Json to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, FixedHistogram> histograms_;
};

/// EventSink that tallies a stream into a registry:
///   * one counter per event kind     — "events.<kind>"
///   * register-operation counters    — "registers.reads" / ".writes"
///   * injected-fault total           — "faults.injected"
///   * steps-to-decide histogram      — "steps_to_decide" (per processor,
///     observed at its kDecision event)
/// Compose with RecordingSink via MultiSink to get both a log and metrics.
class MetricsSink final : public EventSink {
 public:
  explicit MetricsSink(MetricsRegistry& registry);
  void on_event(const Event& e) override;

 private:
  MetricsRegistry& registry_;
};

}  // namespace cil::obs
