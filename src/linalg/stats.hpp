// Descriptive statistics: Canny's adaptive thresholds use percentile(); the
// noise and filter tests measure with mean/variance/stddev.
#pragma once

#include <vector>

namespace qvg {

[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double variance(const std::vector<double>& v);   // population
[[nodiscard]] double stddev(const std::vector<double>& v);
/// Linear-interpolated percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);

}  // namespace qvg
