// Small descriptive-statistics helpers used by the benchmark report layer.
#pragma once

#include <cstddef>
#include <vector>

namespace gf::util {

/// Online accumulator (Welford) for mean / variance / extrema.
class Accumulator {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  ///< sample variance (n-1)
  double stdev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Mean of a vector (0 for empty input).
double mean(const std::vector<double>& xs) noexcept;

/// Sample standard deviation (0 for n < 2).
double stdev(const std::vector<double>& xs) noexcept;

/// Percentile with linear interpolation, p in [0,100]. Copies + sorts.
double percentile(std::vector<double> xs, double p) noexcept;

/// Half-width of the ~95% confidence interval of the mean assuming
/// normality (1.96 * s / sqrt(n)); 0 for n < 2.
double ci95_halfwidth(const std::vector<double>& xs) noexcept;
}  // namespace gf::util
