// Statistics helpers for the benchmark: nearest-rank percentiles with a
// sample-count guard, rates with an explicit base, and the error rate.
//
// Header-only so tests/stats_test.cpp can pin them without linking the
// library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// The 1-based nearest rank of quantile q among n samples: ceil(q*n),
/// clamped to [1, n]. The epsilon keeps 0.99 * 1000 at rank 990 although
/// 0.99 has no exact binary form.
inline std::int64_t rank_of(std::size_t n, double q) {
  const auto r = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::int64_t>(r, 1, static_cast<std::int64_t>(n));
}

/// Nearest-rank percentile: the smallest sample with at least q*n samples at
/// or below it. q in (0, 1].
inline double nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<std::size_t>(rank_of(samples.size(), q) - 1)];
}

inline double median(const std::vector<double>& samples) {
  return nearest_rank(samples, 0.5);
}

/// The arithmetic mean. Where job latency is bimodal (a host that runs in
/// fast and slow stretches), the mean moves in proportion to the mix of the
/// two, while the median jumps from one mode to the other.
inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("mean of no samples");
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

/// A tail percentile as reported: which quantile it is, its value, and how
/// many samples lie beyond it.
struct Tail {
  double q = 0.5;
  double value = 0.0;
  std::int64_t beyond = 0;
};

/// The `want` percentile when at least `min_beyond` samples lie beyond its
/// rank; otherwise the highest percentile that has that many beyond it. A
/// tail is never reported below the median: with too few samples for any
/// supported tail (n < 2 * min_beyond) the median itself comes back.
inline Tail supported_tail(const std::vector<double>& samples, double want,
                           std::int64_t min_beyond = 10) {
  const auto n = static_cast<std::int64_t>(samples.size());
  if (n == 0) throw std::invalid_argument("percentile of no samples");
  double q = want;
  if (n - rank_of(samples.size(), q) < min_beyond)
    q = static_cast<double>(n - min_beyond) / static_cast<double>(n);
  if (q < 0.5) q = 0.5;
  Tail t;
  t.q = q;
  t.value = nearest_rank(samples, q);
  t.beyond = n - rank_of(samples.size(), q);
  return t;
}

/// Work per second over a wall-clock window. Only verified work counts, and
/// the base is the window the work took end to end, not any one layer's
/// share of it.
inline double per_second(std::int64_t verified_units, double window_seconds) {
  if (!(window_seconds > 0.0))
    throw std::invalid_argument("rate over an empty window");
  return static_cast<double>(verified_units) / window_seconds;
}

/// How many times faster `seconds` is than `base_seconds` (> 1: faster).
inline double speedup(double base_seconds, double seconds) {
  if (!(seconds > 0.0)) throw std::invalid_argument("speedup over no time");
  return base_seconds / seconds;
}

/// Failed operations over attempted ones.
inline double error_rate(std::int64_t failed, std::int64_t attempted) {
  if (attempted <= 0) throw std::invalid_argument("error rate of no attempts");
  if (failed < 0 || failed > attempted)
    throw std::invalid_argument("failed outside [0, attempted]");
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
