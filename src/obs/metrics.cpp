#include "obs/metrics.h"

#include <algorithm>

#include "util/check.h"

namespace cil::obs {

FixedHistogram::FixedHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1, 0) {
  CIL_EXPECTS(!bounds_.empty());
  CIL_EXPECTS(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void FixedHistogram::observe(double x, std::int64_t count) {
  CIL_EXPECTS(count >= 1);
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  count_ += count;
  sum_ += x * static_cast<double>(count);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  counts_[static_cast<std::size_t>(it - bounds_.begin())] += count;
}

double FixedHistogram::mean() const {
  CIL_EXPECTS(count_ > 0);
  return sum_ / static_cast<double>(count_);
}

double FixedHistogram::min() const {
  CIL_EXPECTS(count_ > 0);
  return min_;
}

double FixedHistogram::max() const {
  CIL_EXPECTS(count_ > 0);
  return max_;
}

double FixedHistogram::tail_at_least(double x) const {
  if (count_ == 0) return 0.0;
  // Bucket-granular upper estimate of the tail: every bucket whose range
  // reaches x counts in full. Exact when x lies just above a bound.
  std::int64_t at_least = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const bool bucket_reaches_x =
        i == bounds_.size() || bounds_[i] >= x;
    if (bucket_reaches_x) at_least += counts_[i];
  }
  return static_cast<double>(at_least) / static_cast<double>(count_);
}

std::vector<double> FixedHistogram::exponential_bounds(double first,
                                                       double factor,
                                                       int count) {
  CIL_EXPECTS(first > 0 && factor > 1 && count >= 1);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(count));
  double b = first;
  for (int i = 0; i < count; ++i) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

std::vector<double> FixedHistogram::default_bounds() {
  return exponential_bounds(1.0, 2.0, 21);  // 1, 2, 4, ..., 2^20
}

Json FixedHistogram::to_json() const {
  Json j = Json::object();
  j["count"] = Json(count_);
  j["sum"] = Json(sum_);
  if (count_ > 0) {
    j["min"] = Json(min_);
    j["max"] = Json(max_);
    j["mean"] = Json(mean());
  }
  Json bounds = Json::array();
  for (const double b : bounds_) bounds.push_back(Json(b));
  j["bounds"] = std::move(bounds);
  Json buckets = Json::array();
  for (const std::int64_t c : counts_) buckets.push_back(Json(c));
  j["buckets"] = std::move(buckets);
  return j;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

FixedHistogram& MetricsRegistry::histogram(const std::string& name,
                                           std::vector<double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  if (bounds.empty()) bounds = FixedHistogram::default_bounds();
  return histograms_.emplace(name, FixedHistogram(std::move(bounds)))
      .first->second;
}

Json MetricsRegistry::to_json() const {
  Json j = Json::object();
  Json counters = Json::object();
  for (const auto& [name, c] : counters_) counters[name] = Json(c.value());
  j["counters"] = std::move(counters);
  Json histograms = Json::object();
  for (const auto& [name, h] : histograms_) histograms[name] = h.to_json();
  j["histograms"] = std::move(histograms);
  return j;
}

MetricsSink::MetricsSink(MetricsRegistry& registry) : registry_(registry) {}

void MetricsSink::on_event(const Event& e) {
  registry_.counter("events." + std::string(kind_name(e.kind))).inc();
  switch (e.kind) {
    case EventKind::kRegisterRead:
      registry_.counter("registers.reads").inc();
      break;
    case EventKind::kRegisterWrite:
      registry_.counter("registers.writes").inc();
      break;
    case EventKind::kFaultInjected:
      registry_.counter("faults.injected").inc(std::max<std::int64_t>(
          1, e.arg));
      break;
    case EventKind::kDecision:
      registry_.histogram("steps_to_decide")
          .observe(static_cast<double>(e.step));
      break;
    default:
      break;
  }
}

}  // namespace cil::obs
