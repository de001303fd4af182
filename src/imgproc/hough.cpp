#include "imgproc/hough.hpp"

#include "common/assert.hpp"
#include "common/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

namespace qvg {

std::optional<double> HoughLine::slope() const {
  // Line: x cos(t) + y sin(t) = rho -> y = (rho - x cos t) / sin t.
  const double s = std::sin(theta);
  if (std::abs(s) < 1e-6) return std::nullopt;  // vertical
  return -std::cos(theta) / s;
}

std::optional<double> HoughLine::intercept() const {
  const double s = std::sin(theta);
  if (std::abs(s) < 1e-6) return std::nullopt;
  return rho / s;
}

HoughAccumulator hough_accumulate(const GridU8& edges, const HoughOptions& opt) {
  QVG_EXPECTS(opt.rho_resolution > 0.0);
  QVG_EXPECTS(opt.theta_resolution_deg > 0.0);

  const double diag = std::hypot(static_cast<double>(edges.width()),
                                 static_cast<double>(edges.height()));
  HoughAccumulator acc;
  acc.rho_min = -diag;
  acc.rho_step = opt.rho_resolution;
  acc.theta_step = opt.theta_resolution_deg * std::numbers::pi / 180.0;

  const auto n_rho =
      static_cast<std::size_t>(std::ceil(2.0 * diag / acc.rho_step)) + 1;
  const auto n_theta =
      static_cast<std::size_t>(std::ceil(std::numbers::pi / acc.theta_step));
  acc.votes = Grid2D<int>(n_theta, n_rho, 0);

  // Precompute trig tables.
  std::vector<double> cos_t(n_theta);
  std::vector<double> sin_t(n_theta);
  for (std::size_t t = 0; t < n_theta; ++t) {
    const double theta = acc.theta_of_bin(t);
    cos_t[t] = std::cos(theta);
    sin_t[t] = std::sin(theta);
  }

  // Gather the (usually sparse) edge pixels once, then vote point-major
  // within theta-parallel chunks. Each chunk owns a disjoint set of theta
  // columns of the accumulator, so the loop is race-free; integer vote
  // increments commute, so the counts are identical to the serial
  // pixel-major loop.
  std::vector<std::pair<double, double>> points;
  for (std::size_t y = 0; y < edges.height(); ++y)
    for (std::size_t x = 0; x < edges.width(); ++x)
      if (edges(x, y) != 0)
        points.emplace_back(static_cast<double>(x), static_cast<double>(y));

  parallel_for_rows(n_theta, [&](std::size_t t0, std::size_t t1) {
    for (const auto& [fx, fy] : points) {
      for (std::size_t t = t0; t < t1; ++t) {
        const double rho = fx * cos_t[t] + fy * sin_t[t];
        const auto bin = static_cast<std::ptrdiff_t>(
            std::round((rho - acc.rho_min) / acc.rho_step));
        if (bin < 0 || static_cast<std::size_t>(bin) >= n_rho) continue;
        ++acc.votes(t, static_cast<std::size_t>(bin));
      }
    }
  });
  return acc;
}

std::vector<HoughLine> hough_peaks(const HoughAccumulator& acc,
                                   const HoughOptions& opt) {
  const auto n_theta = acc.votes.width();
  const auto n_rho = acc.votes.height();

  int threshold = opt.votes_threshold;
  if (threshold <= 0) {
    int max_votes = 0;
    for (int v : acc.votes.raw()) max_votes = std::max(max_votes, v);
    threshold = std::max(
        2, static_cast<int>(opt.adaptive_threshold_fraction * max_votes));
  }

  struct Peak {
    std::size_t t;
    std::size_t r;
    int votes;
  };
  std::vector<Peak> peaks;
  for (std::size_t r = 0; r < n_rho; ++r) {
    for (std::size_t t = 0; t < n_theta; ++t) {
      const int v = acc.votes(t, r);
      if (v < threshold) continue;
      // Local-maximum test in the NMS window (theta wraps around pi with a
      // rho sign flip; we ignore the wrap here — transition lines sit far
      // from theta = 0/pi after edge detection on negatively sloped lines).
      bool is_max = true;
      for (int dr = -opt.nms_rho_radius; dr <= opt.nms_rho_radius && is_max; ++dr) {
        for (int dt = -opt.nms_theta_radius; dt <= opt.nms_theta_radius; ++dt) {
          if (dr == 0 && dt == 0) continue;
          const auto nr = static_cast<std::ptrdiff_t>(r) + dr;
          const auto nt = static_cast<std::ptrdiff_t>(t) + dt;
          if (nr < 0 || nt < 0 || static_cast<std::size_t>(nr) >= n_rho ||
              static_cast<std::size_t>(nt) >= n_theta)
            continue;
          const int nv = acc.votes(static_cast<std::size_t>(nt),
                                   static_cast<std::size_t>(nr));
          if (nv > v || (nv == v && (dr < 0 || (dr == 0 && dt < 0)))) {
            is_max = false;
            break;
          }
        }
      }
      if (is_max) peaks.push_back({t, r, v});
    }
  }

  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.votes > b.votes; });
  if (peaks.size() > static_cast<std::size_t>(opt.max_lines))
    peaks.resize(static_cast<std::size_t>(opt.max_lines));

  std::vector<HoughLine> lines;
  lines.reserve(peaks.size());
  for (const auto& p : peaks) {
    HoughLine line;
    line.rho = acc.rho_of_bin(p.r);
    line.theta = acc.theta_of_bin(p.t);
    line.votes = p.votes;
    lines.push_back(line);
  }
  return lines;
}

std::vector<HoughLine> hough_lines(const GridU8& edges, const HoughOptions& opt) {
  return hough_peaks(hough_accumulate(edges, opt), opt);
}

}  // namespace qvg
