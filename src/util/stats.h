// Lightweight statistics used by sweep summaries, the bench harness and the
// tests: streaming moments, an exact integer distribution (Tally) that
// answers order statistics and tail tables, and a geometric-tail fit used
// to compare measured decision-time tails against the paper's exponential
// bounds (Theorems 7 and 9).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace cil {

/// Streaming mean/variance via Welford's algorithm, plus min/max.
class RunningStats {
 public:
  void add(double x);

  std::int64_t count() const { return n_; }
  double mean() const;
  /// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Half-width of the 95% confidence interval for the mean (normal approx).
  double ci95_halfwidth() const;

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// An exact integer distribution: value -> count. Used for steps-to-decision,
/// own-step, register-width and probe distributions, where it answers every
/// question a per-sample vector could (nearest-rank percentiles, P[X >= k]
/// tails, mean from the exact integer sum) in O(distinct values).
///
/// Storage: values in [0, kDenseLimit) — every field a sweep records — live
/// in dense bins that grow geometrically to the largest value seen, so once
/// a tally has seen its high-water value, add() is one increment with no
/// allocation. Negative and larger values (a probe may return any int64)
/// fall back to a sparse map. Which storage holds a value depends only on
/// the value, and equality and bins() depend only on the (value, count)
/// multiset, never on how far the dense bins happen to have grown.
class Tally {
 public:
  void add(std::int64_t x) {
    const auto i = static_cast<std::uint64_t>(x);
    if (i < dense_.size()) {
      ++dense_[i];
      ++count_;
    } else {
      add(x, 1);
    }
  }
  /// Count n >= 1 occurrences of x.
  void add(std::int64_t x, std::int64_t n);
  /// Fold another tally in: the multiset union. Commutative and associative.
  void merge(const Tally& other);

  std::int64_t count() const { return count_; }
  /// The exact sum of every value counted; throws ContractViolation if it
  /// does not fit in int64 (mean() stays exact either way).
  std::int64_t sum() const;
  double mean() const;    ///< exact integer sum / count; requires count() > 0
  double stddev() const;  ///< unbiased (n-1); 0 for fewer than 2 values
  std::int64_t min() const;  ///< requires count() > 0
  std::int64_t max() const;  ///< requires count() > 0
  /// q in [0,1]; nearest-rank percentile.
  std::int64_t percentile(double q) const;
  /// Empirical P[X >= k]; 0 when empty.
  double tail_at_least(std::int64_t k) const;
  /// Empirical survival table for k = 0..k_max: vector[k] = P[X >= k].
  std::vector<double> survival(std::int64_t k_max) const;
  /// Every (value, count) with count >= 1, values strictly ascending.
  std::vector<std::pair<std::int64_t, std::int64_t>> bins() const;

  friend bool operator==(const Tally& a, const Tally& b);

 private:
  static constexpr std::int64_t kDenseLimit = 1 << 12;

  /// f(value, count) for every bin in ascending value order; stops early
  /// when f returns false.
  template <typename F>
  void for_each_bin(F&& f) const;

  std::vector<std::int64_t> dense_;  ///< count of value i at index i
  std::map<std::int64_t, std::int64_t> sparse_;  ///< values outside dense
  std::int64_t count_ = 0;
};

/// One-stop summary of a Tally: the single code path behind every bench
/// mean/CI table and machine-readable run-report (bench/bench_util.h).
struct Summary {
  std::int64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< unbiased (n-1)
  double ci95 = 0.0;    ///< half-width of the 95% CI (normal approximation)
  std::int64_t p50 = 0;
  std::int64_t p99 = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
};

/// Requires at least one sample.
Summary summarize(const Tally& s);

/// Fit P[X >= k] ≈ C * r^k on the tail of a tally by least squares on
/// log-survival, ignoring bins with fewer than `min_count` samples. Returns
/// the estimated ratio r — e.g. the paper's Theorem 9 predicts r <= 3/4 for
/// the num-field distribution of the unbounded protocol.
double fit_geometric_tail_ratio(const Tally& s, std::int64_t k_min = 1,
                                std::int64_t min_count = 10);

}  // namespace cil
