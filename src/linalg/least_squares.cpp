#include "linalg/least_squares.hpp"

#include "common/assert.hpp"
#include "common/error.hpp"
#include "linalg/decomposition.hpp"

#include <cmath>

namespace qvg {

std::vector<double> lstsq(const Matrix& a, const std::vector<double>& b) {
  return QrDecomposition(a).solve(b);
}

LineFit fit_line(const std::vector<double>& x, const std::vector<double>& y) {
  QVG_EXPECTS(x.size() == y.size());
  if (x.size() < 2) throw NumericalError("fit_line: need at least 2 points");

  const std::size_t n = x.size();
  Matrix a(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, 0) = x[i];
    a(i, 1) = 1.0;
  }
  const auto coef = lstsq(a, y);

  LineFit fit;
  fit.slope = coef[0];
  fit.intercept = coef[1];
  double ss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = y[i] - (fit.slope * x[i] + fit.intercept);
    ss += r * r;
  }
  fit.rms_residual = std::sqrt(ss / static_cast<double>(n));
  return fit;
}

}  // namespace qvg
