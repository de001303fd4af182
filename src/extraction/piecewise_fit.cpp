#include "extraction/piecewise_fit.hpp"

#include "common/assert.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace qvg {

namespace {

double segment_distance(Point2 p, Point2 a, Point2 b) {
  const Point2 ab = b - a;
  const double len2 = ab.x * ab.x + ab.y * ab.y;
  if (len2 < 1e-300) return distance(p, a);
  double t = ((p.x - a.x) * ab.x + (p.y - a.y) * ab.y) / len2;
  t = std::clamp(t, 0.0, 1.0);
  return distance(p, {a.x + t * ab.x, a.y + t * ab.y});
}

Status fit_failure(const char* detail) {
  return Status::failure(ErrorCode::kFitFailed, "fit", detail);
}

// Nelder-Mead over the intersection point: a fixed 3-vertex simplex in the
// plane. Coefficients are the standard reflect/expand/contract/shrink set,
// written as the t of base + t * (dir - base).
constexpr double kInitialStep = 0.05;  // relative to |x0| + 1 per coordinate
constexpr double kReflect = -1.0;
constexpr double kExpand = -2.0;
constexpr double kContract = 0.5;
constexpr double kShrink = 0.5;
constexpr double kFTolerance = 1e-12;  // simplex function-value spread
constexpr double kXTolerance = 1e-9;   // simplex diameter

struct Vertex {
  Point2 p;
  double f = 0.0;
};
using Simplex = std::array<Vertex, 3>;

double diameter(const Simplex& s) {
  double worst = 0.0;
  for (std::size_t i = 1; i < s.size(); ++i) {
    const double dx = s[i].p.x - s[0].p.x;
    const double dy = s[i].p.y - s[0].p.y;
    worst = std::max(worst, std::sqrt(dx * dx + dy * dy));
  }
  return worst;
}

struct SimplexMinimum {
  Point2 p;
  int iterations = 0;
};

/// Minimize f(x, y) from x0; stops when both the f spread and the diameter
/// fall below tolerance, or after max_iterations steps.
template <class F>
SimplexMinimum minimize_simplex(const F& f, Point2 x0, int max_iterations) {
  QVG_EXPECTS(max_iterations > 0);
  const auto eval = [&f](Point2 p) { return Vertex{p, f(p.x, p.y)}; };
  Simplex s{eval(x0),
            eval({x0.x + kInitialStep * (std::abs(x0.x) + 1.0), x0.y}),
            eval({x0.x, x0.y + kInitialStep * (std::abs(x0.y) + 1.0)})};
  const auto by_f = [](const Vertex& a, const Vertex& b) { return a.f < b.f; };
  std::sort(s.begin(), s.end(), by_f);

  int iter = 0;
  for (; iter < max_iterations; ++iter) {
    if (s[2].f - s[0].f < kFTolerance && diameter(s) < kXTolerance) break;

    // Centroid of the two best vertices. Summing from 0.0 (which turns a
    // -0.0 sum into +0.0) is part of the operation order the fit pins fix.
    const Point2 c{(0.0 + s[0].p.x + s[1].p.x) / 2.0,
                   (0.0 + s[0].p.y + s[1].p.y) / 2.0};
    Vertex& worst = s[2];

    const Vertex r = eval(c + kReflect * (worst.p - c));
    if (r.f < s[0].f) {
      const Vertex e = eval(c + kExpand * (worst.p - c));
      worst = e.f < r.f ? e : r;
    } else if (r.f < s[1].f) {
      worst = r;
    } else {
      // Contraction (outside if the reflected point improved on the worst,
      // else inside), then shrink toward the best vertex if that fails.
      const bool outside = r.f < worst.f;
      const Point2 toward = outside ? r.p : worst.p;
      const Vertex k = eval(c + kContract * (toward - c));
      if (k.f < (outside ? r.f : worst.f)) {
        worst = k;
      } else {
        for (std::size_t i = 1; i < s.size(); ++i)
          s[i] = eval(s[0].p + kShrink * (s[i].p - s[0].p));
      }
    }
    std::sort(s.begin(), s.end(), by_f);
  }
  return {s[0].p, iter};
}

}  // namespace

double distance_to_path(Point2 p, Point2 a, Point2 vertex, Point2 b) {
  return std::min(segment_distance(p, a, vertex), segment_distance(p, vertex, b));
}

Result<PiecewiseFit> fit_piecewise_linear(const std::vector<Pixel>& points,
                                          Pixel anchor_a, Pixel anchor_b,
                                          const PiecewiseFitOptions& opt) {
  if (points.size() < 3)
    return fit_failure("piecewise fit needs at least 3 transition points");
  QVG_EXPECTS(anchor_a.x < anchor_b.x);
  QVG_EXPECTS(anchor_a.y > anchor_b.y);

  const Point2 a = anchor_a.center();
  const Point2 b = anchor_b.center();

  // Penalized objective: sum of squared residuals, with a quadratic penalty
  // that keeps the intersection strictly inside the anchor box
  // (a.x < px < b.x, b.y < py < a.y).
  auto objective = [&](double x, double y) {
    const Point2 vertex{x, y};
    double penalty = 0.0;
    auto violation = [](double v) { return v > 0.0 ? v * v : 0.0; };
    penalty += violation(a.x + 0.5 - vertex.x);
    penalty += violation(vertex.x - (b.x - 0.5));
    penalty += violation(b.y + 0.5 - vertex.y);
    penalty += violation(vertex.y - (a.y - 0.5));
    const double scale =
        static_cast<double>(points.size()) * 100.0;  // dominate residuals

    // Huber loss: quadratic within delta, linear beyond.
    const double delta = opt.huber_delta_px;
    auto loss = [delta](double r) {
      const double ar = std::abs(r);
      if (delta <= 0.0 || ar <= delta) return r * r;
      return 2.0 * delta * ar - delta * delta;
    };

    double ss = 0.0;
    if (opt.residual == FitResidual::kOrthogonal) {
      for (const Pixel& p : points) {
        ss += loss(distance_to_path(p.center(), a, vertex, b));
      }
    } else {
      // Vertical residual against the piecewise function y(x). The shallow
      // branch runs from A to the vertex, the steep branch from the vertex
      // to B.
      const double eps = 1e-9;
      const double m1 = (vertex.y - a.y) / std::max(vertex.x - a.x, eps);
      const double m2 = (b.y - vertex.y) / std::max(b.x - vertex.x, eps);
      for (const Pixel& p : points) {
        const Point2 q = p.center();
        const double predicted = q.x <= vertex.x
                                     ? a.y + m1 * (q.x - a.x)
                                     : vertex.y + m2 * (q.x - vertex.x);
        ss += loss(q.y - predicted);
      }
    }
    return ss + scale * penalty;
  };

  // Initial guess: inset from the right-angle vertex (b.x, a.y) toward the
  // triangle interior.
  const double inset = opt.initial_inset;
  const Point2 x0{b.x - inset * (b.x - a.x), a.y - inset * (a.y - b.y)};
  const SimplexMinimum solution =
      minimize_simplex(objective, x0, opt.max_iterations);

  PiecewiseFit fit;
  fit.intersection = solution.p;
  fit.iterations = solution.iterations;

  const double dx_shallow = fit.intersection.x - a.x;
  const double dx_steep = b.x - fit.intersection.x;
  if (dx_shallow < 0.25 || dx_steep < 0.25)
    return fit_failure("fitted intersection collapsed onto an anchor");

  fit.slope_shallow = (fit.intersection.y - a.y) / dx_shallow;
  fit.slope_steep = (b.y - fit.intersection.y) / dx_steep;

  if (!(fit.slope_shallow < 0.0) || !(fit.slope_steep < 0.0))
    return fit_failure("fitted transition lines must both have negative slope");
  if (!(fit.slope_steep < fit.slope_shallow))
    return fit_failure("steep/shallow slope ordering violated by the fit");

  double ss = 0.0;
  for (const Pixel& p : points) {
    const double d = distance_to_path(p.center(), a, fit.intersection, b);
    ss += d * d;
  }
  fit.rms_residual = std::sqrt(ss / static_cast<double>(points.size()));
  return fit;
}

}  // namespace qvg
