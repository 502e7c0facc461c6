#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace cil {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  CIL_EXPECTS(n_ > 0);
  return mean_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  CIL_EXPECTS(n_ > 0);
  return min_;
}

double RunningStats::max() const {
  CIL_EXPECTS(n_ > 0);
  return max_;
}

double RunningStats::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

namespace {

// The exact sum of a tally can leave int64 (a probe may return any int64),
// so it is accumulated in 128 bits.
__extension__ using Int128 = __int128;

Int128 exact_sum(const Tally& t) {
  Int128 sum = 0;
  for (const auto& [value, n] : t.bins())
    sum += static_cast<Int128>(value) * static_cast<Int128>(n);
  return sum;
}

}  // namespace

void Tally::add(std::int64_t x, std::int64_t n) {
  CIL_EXPECTS(n >= 1);
  count_ += n;
  if (x >= 0 && x < kDenseLimit) {
    const auto i = static_cast<std::size_t>(x);
    if (i >= dense_.size())
      dense_.resize(std::clamp<std::size_t>(2 * i, 64, kDenseLimit), 0);
    dense_[i] += n;
  } else {
    sparse_[x] += n;
  }
}

void Tally::merge(const Tally& other) {
  if (other.dense_.size() > dense_.size()) dense_.resize(other.dense_.size(), 0);
  for (std::size_t i = 0; i < other.dense_.size(); ++i)
    dense_[i] += other.dense_[i];
  for (const auto& [value, n] : other.sparse_) sparse_[value] += n;
  count_ += other.count_;
}

template <typename F>
void Tally::for_each_bin(F&& f) const {
  // Sparse values lie below 0 or at/above kDenseLimit, so the ascending
  // order is: negative sparse, dense, large sparse.
  auto it = sparse_.begin();
  for (; it != sparse_.end() && it->first < 0; ++it)
    if (!f(it->first, it->second)) return;
  for (std::size_t i = 0; i < dense_.size(); ++i)
    if (dense_[i] != 0 && !f(static_cast<std::int64_t>(i), dense_[i])) return;
  for (; it != sparse_.end(); ++it)
    if (!f(it->first, it->second)) return;
}

std::vector<std::pair<std::int64_t, std::int64_t>> Tally::bins() const {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for_each_bin([&](std::int64_t value, std::int64_t n) {
    out.emplace_back(value, n);
    return true;
  });
  return out;
}

bool operator==(const Tally& a, const Tally& b) {
  if (a.count_ != b.count_ || a.sparse_ != b.sparse_) return false;
  // Dense bins beyond the shorter vector must be empty on the longer one.
  const auto& shorter = a.dense_.size() <= b.dense_.size() ? a.dense_ : b.dense_;
  const auto& longer = a.dense_.size() <= b.dense_.size() ? b.dense_ : a.dense_;
  return std::equal(shorter.begin(), shorter.end(), longer.begin()) &&
         std::all_of(longer.begin() + static_cast<std::ptrdiff_t>(shorter.size()),
                     longer.end(), [](std::int64_t n) { return n == 0; });
}

std::int64_t Tally::sum() const {
  const Int128 sum = exact_sum(*this);
  CIL_CHECK_MSG(sum >= std::numeric_limits<std::int64_t>::min() &&
                    sum <= std::numeric_limits<std::int64_t>::max(),
                "Tally: sum does not fit in int64");
  return static_cast<std::int64_t>(sum);
}

double Tally::mean() const {
  CIL_EXPECTS(count_ > 0);
  return static_cast<double>(exact_sum(*this)) / static_cast<double>(count_);
}

double Tally::stddev() const {
  if (count_ < 2) return 0.0;
  const double m = mean();
  double acc = 0;
  for_each_bin([&](std::int64_t value, std::int64_t n) {
    const double d = static_cast<double>(value) - m;
    acc += static_cast<double>(n) * d * d;
    return true;
  });
  return std::sqrt(acc / static_cast<double>(count_ - 1));
}

std::int64_t Tally::min() const {
  CIL_EXPECTS(count_ > 0);
  std::int64_t out = 0;
  for_each_bin([&](std::int64_t value, std::int64_t) {
    out = value;
    return false;
  });
  return out;
}

std::int64_t Tally::max() const {
  CIL_EXPECTS(count_ > 0);
  if (!sparse_.empty() && sparse_.rbegin()->first >= kDenseLimit)
    return sparse_.rbegin()->first;
  for (std::size_t i = dense_.size(); i-- > 0;)
    if (dense_[i] != 0) return static_cast<std::int64_t>(i);
  return sparse_.rbegin()->first;  // every value is negative
}

std::int64_t Tally::percentile(double q) const {
  CIL_EXPECTS(count_ > 0);
  CIL_EXPECTS(q >= 0.0 && q <= 1.0);
  // Nearest-rank: the smallest value with at least q*n values <= it, i.e.
  // the value at 0-based sorted index ceil(q*n) - 1 (clamped to [0, n-1]).
  std::int64_t rank =
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count_)));
  if (rank > 0) --rank;
  if (rank >= count_) rank = count_ - 1;
  std::int64_t out = 0;
  std::int64_t below = 0;  // values counted in the bins walked so far
  for_each_bin([&](std::int64_t value, std::int64_t n) {
    below += n;
    out = value;
    return below <= rank;
  });
  return out;
}

double Tally::tail_at_least(std::int64_t k) const {
  if (count_ == 0) return 0.0;
  std::int64_t below = 0;
  for_each_bin([&](std::int64_t value, std::int64_t n) {
    if (value >= k) return false;
    below += n;
    return true;
  });
  return static_cast<double>(count_ - below) / static_cast<double>(count_);
}

std::vector<double> Tally::survival(std::int64_t k_max) const {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(k_max) + 1);
  for (std::int64_t k = 0; k <= k_max; ++k) out.push_back(tail_at_least(k));
  return out;
}

Summary summarize(const Tally& s) {
  CIL_EXPECTS(s.count() > 0);
  Summary out;
  out.count = s.count();
  out.mean = s.mean();
  out.stddev = s.stddev();
  out.ci95 = s.count() >= 2 ? 1.96 * out.stddev /
                                  std::sqrt(static_cast<double>(s.count()))
                            : 0.0;
  out.p50 = s.percentile(0.5);
  out.p99 = s.percentile(0.99);
  out.min = s.min();
  out.max = s.max();
  return out;
}

double fit_geometric_tail_ratio(const Tally& s, std::int64_t k_min,
                                std::int64_t min_count) {
  CIL_EXPECTS(s.count() > 0);
  // Least squares on (k, log P[X >= k]) for the ks where the empirical tail
  // still has enough mass to be trustworthy.
  std::vector<std::pair<double, double>> pts;
  const std::int64_t k_max = s.max();
  for (std::int64_t k = k_min; k <= k_max; ++k) {
    const double p = s.tail_at_least(k);
    const double n_at_k = p * static_cast<double>(s.count());
    if (n_at_k < static_cast<double>(min_count)) break;
    pts.emplace_back(static_cast<double>(k), std::log(p));
  }
  if (pts.size() < 2) return 0.0;  // tail too short to fit
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (auto [x, y] : pts) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(pts.size());
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  return std::exp(slope);
}

}  // namespace cil
