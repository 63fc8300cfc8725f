#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace gf::util {

void Accumulator::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Accumulator::stdev() const noexcept { return std::sqrt(variance()); }

double mean(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stdev(const std::vector<double>& xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double percentile(std::vector<double> xs, double p) noexcept {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  p = std::clamp(p, 0.0, 100.0);
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double ci95_halfwidth(const std::vector<double>& xs) noexcept {
  if (xs.size() < 2) return 0.0;
  return 1.96 * stdev(xs) / std::sqrt(static_cast<double>(xs.size()));
}

}  // namespace gf::util
