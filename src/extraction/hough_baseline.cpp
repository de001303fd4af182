#include "extraction/hough_baseline.hpp"

#include "common/stopwatch.hpp"
#include "imgproc/filters.hpp"
#include "linalg/least_squares.hpp"
#include "probe/raster.hpp"

#include <cmath>

namespace qvg {

namespace {

/// Pick the strongest line whose pixel-space slope falls in [lo, hi).
/// Returns false when no line qualifies.
bool pick_family(const std::vector<HoughLine>& lines, double lo, double hi,
                 int min_votes, HoughLine& out) {
  bool found = false;
  for (const auto& line : lines) {
    const auto slope = line.slope();
    if (!slope) continue;  // vertical: outside both families
    if (*slope < lo || *slope >= hi) continue;
    if (line.votes < min_votes) continue;
    if (!found || line.votes > out.votes) {
      out = line;
      found = true;
    }
  }
  return found;
}

/// Refine a Hough peak's slope by least-squares fitting the edge pixels
/// within `tol` pixels of the line (standard accumulator-quantization
/// polish). Steep lines are fitted as x(y) to stay well conditioned; the
/// returned value is always dy/dx.
double refine_slope(const GridU8& edges, const HoughLine& line, double tol) {
  const double c = std::cos(line.theta);
  const double s = std::sin(line.theta);
  std::vector<double> xs;
  std::vector<double> ys;
  for (std::size_t y = 0; y < edges.height(); ++y) {
    for (std::size_t x = 0; x < edges.width(); ++x) {
      if (edges(x, y) == 0) continue;
      const auto fx = static_cast<double>(x);
      const auto fy = static_cast<double>(y);
      if (std::abs(fx * c + fy * s - line.rho) > tol) continue;
      xs.push_back(fx);
      ys.push_back(fy);
    }
  }
  const auto fallback = line.slope();
  if (xs.size() < 4) return fallback.value_or(-1e9);
  const bool steep = !fallback || std::abs(*fallback) > 1.0;
  try {
    if (steep) {
      const LineFit fit = fit_line(ys, xs);  // x = m' y + c'
      if (std::abs(fit.slope) < 1e-9) return fallback.value_or(-1e9);
      return 1.0 / fit.slope;
    }
    return fit_line(xs, ys).slope;
  } catch (const NumericalError&) {
    return fallback.value_or(-1e9);
  }
}

}  // namespace

HoughBaselineResult analyze_csd_with_hough(const Csd& csd,
                                           const HoughBaselineOptions& opt) {
  HoughBaselineResult result;
  Stopwatch wall;

  result.acquired = csd;
  const GridD normalized = normalize01(csd.grid());
  const GridU8 edges = canny(normalized, opt.canny);
  for (auto v : edges.raw()) result.edge_pixels += v != 0 ? 1 : 0;

  result.lines = hough_lines(edges, opt.hough);

  const double diag = std::hypot(static_cast<double>(csd.width()),
                                 static_cast<double>(csd.height()));
  const int min_votes =
      static_cast<int>(opt.min_votes_diag_fraction * diag);

  const bool have_steep =
      pick_family(result.lines, -opt.max_abs_slope, opt.steep_threshold,
                  min_votes, result.steep_line);
  const bool have_shallow =
      pick_family(result.lines, opt.steep_threshold, -1.0 / opt.max_abs_slope,
                  min_votes, result.shallow_line);

  if (!have_steep || !have_shallow) {
    result.status = Status::failure(
        ErrorCode::kLineNotFound, "hough",
        !have_steep && !have_shallow
            ? "found no transition line in either family"
        : !have_steep ? "found no steep (0,0)->(1,0) transition line"
                      : "found no shallow (0,0)->(0,1) transition line");
    result.stats.compute_seconds = wall.elapsed_seconds();
    return result;
  }

  const double unit_ratio = csd.y_axis().step() / csd.x_axis().step();
  double steep_pix = *result.steep_line.slope();
  double shallow_pix = *result.shallow_line.slope();
  if (opt.refine_tolerance_px > 0.0) {
    steep_pix = refine_slope(edges, result.steep_line, opt.refine_tolerance_px);
    shallow_pix =
        refine_slope(edges, result.shallow_line, opt.refine_tolerance_px);
  }
  result.slope_steep = steep_pix * unit_ratio;
  result.slope_shallow = shallow_pix * unit_ratio;

  auto pair =
      virtualization_from_slopes(result.slope_steep, result.slope_shallow);
  if (!pair) {
    result.status = pair.status();
    result.stats.compute_seconds = wall.elapsed_seconds();
    return result;
  }
  result.virtual_gates = *pair;
  result.stats.compute_seconds = wall.elapsed_seconds();
  return result;
}

HoughBaselineResult run_hough_baseline(CurrentSource& source,
                                       const VoltageAxis& x_axis,
                                       const VoltageAxis& y_axis,
                                       const HoughBaselineOptions& opt,
                                       const AcquisitionContext& context) {
  const double sim_start = source.clock().elapsed_seconds();
  const long probes_start = source.probe_count();

  auto fill_stats = [&](HoughBaselineResult& result) {
    result.stats.unique_probes = source.probe_count() - probes_start;
    result.stats.total_requests = result.stats.unique_probes;
    result.stats.simulated_seconds =
        source.clock().elapsed_seconds() - sim_start;
  };
  auto interrupted = [&](Status status) {
    HoughBaselineResult result;
    result.status = std::move(status);
    fill_stats(result);
    return result;
  };

  // Acquisition, context-checked between row batches; on interruption the
  // partial probe accounting is still reported.
  Result<Csd> csd = acquire_full_csd(source, x_axis, y_axis, context);
  if (!csd) return interrupted(csd.status());
  // One cancel/deadline check between the acquisition and the
  // image-processing stage: a job that expired before the (probe-free)
  // analysis reports stage "hough". The probe budget is deliberately not
  // consulted here — it caps what the job may *issue*, and a raster that
  // completed within its batch-granular budget keeps its analysis.
  if (Status s = context.check("hough"); !s.ok())
    return interrupted(std::move(s));

  HoughBaselineResult result = analyze_csd_with_hough(*csd, opt);
  fill_stats(result);
  return result;
}

}  // namespace qvg
