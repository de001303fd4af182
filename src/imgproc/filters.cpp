#include "imgproc/filters.hpp"

#include "common/assert.hpp"
#include "imgproc/convolve.hpp"
#include "imgproc/kernel.hpp"

#include <algorithm>

namespace qvg {

GridD gaussian_blur(const GridD& image, double sigma) {
  const auto taps = gaussian_taps(sigma);
  return correlate_separable(image, taps, taps, BorderMode::kReflect);
}

GridD normalize01(const GridD& image) {
  QVG_EXPECTS(!image.empty());
  const auto [lo_it, hi_it] =
      std::minmax_element(image.raw().begin(), image.raw().end());
  const double lo = *lo_it;
  const double hi = *hi_it;
  GridD out(image.width(), image.height());
  if (hi - lo < 1e-300) return out;  // constant image -> zeros
  const double scale = 1.0 / (hi - lo);
  for (std::size_t i = 0; i < image.raw().size(); ++i)
    out.raw()[i] = (image.raw()[i] - lo) * scale;
  return out;
}

}  // namespace qvg
