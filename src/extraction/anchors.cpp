#include "extraction/anchors.hpp"

#include "common/assert.hpp"
#include "extraction/feature_gradient.hpp"
#include "imgproc/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace qvg {

namespace {

/// The window-clamped voltage of a (possibly out-of-range) pixel.
Point2 clamped_voltage(const VoltageAxis& x_axis, const VoltageAxis& y_axis,
                       std::ptrdiff_t x, std::ptrdiff_t y) {
  const auto w = static_cast<std::ptrdiff_t>(x_axis.count());
  const auto h = static_cast<std::ptrdiff_t>(y_axis.count());
  const auto cx = std::clamp<std::ptrdiff_t>(x, 0, w - 1);
  const auto cy = std::clamp<std::ptrdiff_t>(y, 0, h - 1);
  return {x_axis.voltage(static_cast<double>(cx)),
          y_axis.voltage(static_cast<double>(cy))};
}

/// One batched mask sweep: every non-zero mask tap of every centre goes out
/// as a single serial batch, in the same (centre-major, row-major tap) order
/// the scalar sweep probed them, and one weighted response per centre is
/// accumulated — so a fault-free acquisition is bit-identical to the scalar
/// sweep.
Status mask_sweep(AsyncCurrentSource& driver, const VoltageAxis& x_axis,
                  const VoltageAxis& y_axis, const Kernel2D& mask,
                  const std::vector<Pixel>& centers,
                  const AcquisitionContext& context, long& probes,
                  std::vector<double>& responses) {
  const auto rx = static_cast<std::ptrdiff_t>(mask.width()) / 2;
  const auto ry = static_cast<std::ptrdiff_t>(mask.height()) / 2;
  std::vector<Point2> points;
  std::vector<double> weights;
  std::vector<std::size_t> offsets;  // per-centre start into points
  points.reserve(centers.size() * mask.width() * mask.height());
  weights.reserve(points.capacity());
  offsets.reserve(centers.size() + 1);
  for (const Pixel& center : centers) {
    offsets.push_back(points.size());
    for (std::size_t my = 0; my < mask.height(); ++my) {
      for (std::size_t mx = 0; mx < mask.width(); ++mx) {
        const double w = mask(mx, my);
        if (w == 0.0) continue;
        points.push_back(clamped_voltage(
            x_axis, y_axis, center.x + static_cast<std::ptrdiff_t>(mx) - rx,
            center.y + static_cast<std::ptrdiff_t>(my) - ry));
        weights.push_back(w);
      }
    }
  }
  offsets.push_back(points.size());

  std::vector<double> currents(points.size());
  const ProbeOutcome outcome =
      submit_and_wait(driver, points, currents, context, "anchors", probes);
  if (!outcome.ok()) return outcome.status;
  responses.assign(centers.size(), 0.0);
  for (std::size_t i = 0; i < centers.size(); ++i) {
    double acc = 0.0;
    for (std::size_t k = offsets[i]; k < offsets[i + 1]; ++k)
      acc += weights[k] * currents[k];
    responses[i] = acc;
  }
  return {};
}

/// Gaussian prior over [0, n), centred at the sweep *start* with
/// sigma = fraction * n. The sweep starts inside the empty (0,0) region, so
/// the first transition line encountered is the wanted one; the decaying
/// prior suppresses the (equally sharp) second-electron lines farther out.
std::vector<double> gaussian_prior(std::size_t n, double sigma_fraction) {
  std::vector<double> prior(n, 1.0);
  if (n < 2) return prior;
  const double sigma = std::max(sigma_fraction * static_cast<double>(n), 1e-9);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / sigma;
    prior[i] = std::exp(-0.5 * t * t);
  }
  return prior;
}

Status anchor_failure(std::string detail) {
  return Status::failure(ErrorCode::kAnchorNotFound, "anchors",
                         std::move(detail));
}

/// Prior-weighted argmax of a response array.
std::size_t weighted_argmax(const std::vector<double>& responses,
                            const std::vector<double>& prior) {
  std::size_t best = 0;
  double best_value = -1e300;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const double v = responses[i] * prior[i];
    if (v > best_value) {
      best_value = v;
      best = i;
    }
  }
  return best;
}

}  // namespace

Result<AnchorResult> find_anchor_points(AsyncCurrentSource& driver,
                                        const VoltageAxis& x_axis,
                                        const VoltageAxis& y_axis,
                                        const AnchorOptions& opt,
                                        const AcquisitionContext& context) {
  const auto w = static_cast<std::ptrdiff_t>(x_axis.count());
  const auto h = static_cast<std::ptrdiff_t>(y_axis.count());
  if (w < 12 || h < 12)
    return anchor_failure("scan window too small for anchor preprocessing");
  QVG_EXPECTS(opt.num_diagonal_points >= 2);

  // One interruption check before each probe batch. Batches are strictly
  // serial (each goes through submit_and_wait after the check that gates
  // it), so which batches a stopped job issued is the same at any depth.
  // `last_probes` mirrors source.probe_count() at the equivalent
  // synchronous boundary.
  long last_probes = driver.probes_completed();
  const auto check = [&] { return context.check("anchors", last_probes); };

  AnchorResult result;

  // 1. Diagonal probe: ten equally spaced points (one batched request), find
  //    the brightest.
  if (Status s = check(); !s.ok()) return s;
  const int nd = opt.num_diagonal_points;
  std::vector<Pixel> diagonal;
  diagonal.reserve(static_cast<std::size_t>(nd));
  std::vector<Point2> diagonal_probes;
  diagonal_probes.reserve(static_cast<std::size_t>(nd));
  for (int k = 0; k < nd; ++k) {
    const double frac = static_cast<double>(k) / static_cast<double>(nd - 1);
    const auto px = static_cast<std::ptrdiff_t>(
        std::llround(frac * static_cast<double>(w - 1)));
    const auto py = static_cast<std::ptrdiff_t>(
        std::llround(frac * static_cast<double>(h - 1)));
    diagonal.push_back({static_cast<int>(px), static_cast<int>(py)});
    diagonal_probes.push_back(clamped_voltage(x_axis, y_axis, px, py));
  }
  std::vector<double> diagonal_currents(diagonal_probes.size());
  if (const ProbeOutcome outcome =
          submit_and_wait(driver, diagonal_probes, diagonal_currents, context,
                          "anchors", last_probes);
      !outcome.ok())
    return outcome.status;
  Pixel brightest{0, 0};
  double brightest_current = -1e300;
  for (std::size_t k = 0; k < diagonal.size(); ++k) {
    if (diagonal_currents[k] > brightest_current) {
      brightest_current = diagonal_currents[k];
      brightest = diagonal[k];
    }
  }

  // 2. Starting point: brightest diagonal point or the 10%-width/height
  //    point, whichever is farther from the lower-left corner.
  const Pixel fallback{
      static_cast<int>(std::llround(opt.start_fraction * static_cast<double>(w - 1))),
      static_cast<int>(std::llround(opt.start_fraction * static_cast<double>(h - 1)))};
  const Pixel origin{0, 0};
  result.start =
      distance(brightest, origin) >= distance(fallback, origin) ? brightest
                                                                : fallback;

  // 3. Mask sweeps with a Gaussian prior.
  // Sweep Mask_x rightward along the starting row: anchor B (steep line).
  const std::ptrdiff_t x_lo = result.start.x;
  const std::ptrdiff_t x_hi = w - 1;
  if (x_hi <= x_lo) return anchor_failure("empty Mask_x sweep range");
  if (Status s = check(); !s.ok()) return s;
  {
    std::vector<Pixel> centers;
    for (std::ptrdiff_t x = x_lo; x <= x_hi; ++x)
      centers.push_back({static_cast<int>(x), result.start.y});
    if (Status s = mask_sweep(driver, x_axis, y_axis, paper_mask_x(), centers,
                              context, last_probes, result.response_x);
        !s.ok())
      return s;
    result.anchor_b = centers[weighted_argmax(
        result.response_x,
        gaussian_prior(centers.size(), opt.gaussian_sigma_fraction))];
  }

  // Sweep Mask_y upward along the starting column: anchor A (shallow line).
  const std::ptrdiff_t y_lo = result.start.y;
  const std::ptrdiff_t y_hi = h - 1;
  if (y_hi <= y_lo) return anchor_failure("empty Mask_y sweep range");
  if (Status s = check(); !s.ok()) return s;
  {
    std::vector<Pixel> centers;
    for (std::ptrdiff_t y = y_lo; y <= y_hi; ++y)
      centers.push_back({result.start.x, static_cast<int>(y)});
    if (Status s = mask_sweep(driver, x_axis, y_axis, paper_mask_y(), centers,
                              context, last_probes, result.response_y);
        !s.ok())
      return s;
    result.anchor_a = centers[weighted_argmax(
        result.response_y,
        gaussian_prior(centers.size(), opt.gaussian_sigma_fraction))];
  }

  // Snap each anchor to the nearby feature-gradient maximum so the fit's
  // fixed endpoints use the same bright-side pixel convention as the sweeps:
  // A along its column, then B along its row, one batch each.
  if (opt.snap_radius > 0) {
    FeatureGradientBatch batch;
    std::vector<int> candidates;
    const auto snap_offset = [&](Pixel anchor, bool along_y) -> Result<int> {
      batch.clear();
      candidates.clear();
      for (int d = -opt.snap_radius; d <= opt.snap_radius; ++d) {
        const int x = anchor.x + (along_y ? 0 : d);
        const int y = anchor.y + (along_y ? d : 0);
        if (x < 0 || x >= static_cast<int>(w) || y < 0 ||
            y >= static_cast<int>(h))
          continue;
        candidates.push_back(d);
        batch.add(x_axis.voltage(static_cast<double>(x)),
                  y_axis.voltage(static_cast<double>(y)));
      }
      const auto acquired = batch.acquire(driver, x_axis.step(),
                                          y_axis.step(), context, "anchors",
                                          last_probes);
      if (!acquired) return acquired.status();
      const std::span<const double> gradients = *acquired;
      int best = 0;
      double best_g = -1e300;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (gradients[i] > best_g) {
          best_g = gradients[i];
          best = candidates[i];
        }
      }
      return best;
    };

    if (Status s = check(); !s.ok()) return s;
    const Result<int> dy = snap_offset(result.anchor_a, true);
    if (!dy) return dy.status();
    result.anchor_a.y += *dy;
    if (Status s = check(); !s.ok()) return s;
    const Result<int> dx = snap_offset(result.anchor_b, false);
    if (!dx) return dx.status();
    result.anchor_b.x += *dx;
  }

  // The anchors must span a valid triangle: A strictly left of and above B.
  if (!(result.anchor_a.x < result.anchor_b.x &&
        result.anchor_a.y > result.anchor_b.y)) {
    return anchor_failure(
        "anchor points do not form a valid critical region (A must be left "
        "of and above B)");
  }
  return result;
}

Result<AnchorResult> find_anchor_points(CurrentSource& source,
                                        const VoltageAxis& x_axis,
                                        const VoltageAxis& y_axis,
                                        const AnchorOptions& opt,
                                        const AcquisitionContext& context) {
  const auto lane = make_lane(source, context);
  return find_anchor_points(*lane, x_axis, y_axis, opt, context);
}

}  // namespace qvg
