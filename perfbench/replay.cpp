#include "replay.hpp"

#include "device/noise.hpp"
#include "extraction/postprocess.hpp"
#include "imgproc/filters.hpp"
#include "linalg/least_squares.hpp"
#include "probe/playback.hpp"
#include "probe/probe_cache.hpp"
#include "probe/raster.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

namespace perfbench {

using namespace qvg;

namespace {

/// The simulator a DeviceBackend describes, attached the way the engine
/// attaches it (frontier strategy, then white, pink, telegraph noise).
DeviceSimulator make_simulator(const DeviceBackend& backend) {
  DeviceSimulator sim = make_pair_simulator(*backend.device, backend.pair_index,
                                            backend.noise_seed,
                                            backend.dwell_seconds);
  ChargeSolverOptions solver = sim.solver_options();
  solver.frontier.strategy = backend.frontier;
  sim.set_solver_options(solver);
  if (backend.white_noise_sigma > 0.0)
    sim.add_noise(std::make_unique<WhiteNoise>(backend.white_noise_sigma));
  if (backend.pink_noise_sigma > 0.0)
    sim.add_noise(std::make_unique<PinkNoise>(backend.pink_noise_sigma, 0.2, 30.0));
  if (backend.telegraph_amplitude > 0.0)
    sim.add_noise(std::make_unique<TelegraphNoise>(backend.telegraph_amplitude,
                                                   backend.telegraph_rate_hz));
  return sim;
}

struct Outcome {
  Status status;
  double slope_steep = 0.0;
  double slope_shallow = 0.0;
  VirtualGatePair gates;
  long unique_probes = 0;
  double sim_seconds = 0.0;
};

Outcome replay_fast(const ExtractionRequest& request, CurrentSource& backend,
                    const VoltageAxis& x_axis, const VoltageAxis& y_axis,
                    const AcquisitionContext& context, JobTrace& trace) {
  const FastExtractorOptions& opt = request.fast;
  Outcome out;
  const double sim_start = backend.clock().elapsed_seconds();
  ProbeCache cache(backend, std::min(x_axis.step(), y_axis.step()));
  cache.reserve((x_axis.count() + y_axis.count()) * 8);
  SyncSourceAdapter adapter(cache);
  TracedLane lane(adapter, trace);
  ++trace.counters.fast_jobs;

  auto finish = [&](Status status) {
    out.status = std::move(status);
    out.unique_probes = cache.unique_probe_count();
    out.sim_seconds = backend.clock().elapsed_seconds() - sim_start;
    trace.counters.probe_requests += cache.probe_count();
    trace.counters.unique_probes += cache.unique_probe_count();
    trace.counters.cache_hits += cache.cache_hits();
    return out;
  };

  Result<AnchorResult> anchors = [&] {
    const JobTrace::Scope span(trace, SpanKind::kAnchors);
    return find_anchor_points(lane, x_axis, y_axis, opt.anchors, context);
  }();
  if (!anchors) return finish(anchors.status());
  if (Status s = context.check("sweeps", cache.probe_count()); !s.ok())
    return finish(std::move(s));

  SweepOptions sweep_opt = opt.sweep;
  sweep_opt.run_row_sweep = opt.enable_row_sweep;
  sweep_opt.run_col_sweep = opt.enable_col_sweep;
  const SweepResult sweeps = [&] {
    const JobTrace::Scope span(trace, SpanKind::kSweeps);
    return run_sweeps(lane, x_axis, y_axis, anchors.value().anchor_a,
                      anchors.value().anchor_b, sweep_opt, context);
  }();
  if (!sweeps.status.ok()) return finish(sweeps.status);
  std::vector<Pixel> raw_points;
  if (opt.enable_row_sweep)
    for (const auto& p : sweeps.row_points) raw_points.push_back(p.pixel);
  if (opt.enable_col_sweep)
    for (const auto& p : sweeps.col_points) raw_points.push_back(p.pixel);
  trace.counters.raw_points += static_cast<long>(raw_points.size());
  if (raw_points.size() < 3)
    return finish(Status::failure(ErrorCode::kInsufficientPoints, "sweeps",
                                  "located fewer than 3 transition points"));
  if (Status s = context.check("fit"); !s.ok()) return finish(std::move(s));

  const std::vector<Pixel> filtered = [&] {
    const JobTrace::Scope span(trace, SpanKind::kPostprocess);
    return opt.enable_postprocess ? postprocess_transition_points(raw_points)
                                  : raw_points;
  }();
  trace.counters.kept_points += static_cast<long>(filtered.size());

  const JobTrace::Scope span(trace, SpanKind::kFit);
  auto fit = fit_piecewise_linear(filtered, anchors.value().anchor_a,
                                  anchors.value().anchor_b, opt.fit);
  if (!fit) return finish(Status::failure(ErrorCode::kFitFailed, "fit", fit.reason()));
  const double unit_ratio = y_axis.step() / x_axis.step();
  out.slope_steep = fit.value().slope_steep * unit_ratio;
  out.slope_shallow = fit.value().slope_shallow * unit_ratio;
  auto pair = virtualization_from_slopes(out.slope_steep, out.slope_shallow);
  if (!pair)
    return finish(Status::failure(ErrorCode::kDegenerateVirtualization,
                                  "virtualization", pair.reason()));
  out.gates = *pair;
  return finish(Status{});
}

// Line picking and slope refinement of the Hough baseline
// (extraction/hough_baseline.cpp), around the imgproc calls the trace
// times on their own. The faithfulness check pins it to the engine.

bool pick_family(const std::vector<HoughLine>& lines, double lo, double hi,
                 int min_votes, HoughLine& out) {
  bool found = false;
  for (const auto& line : lines) {
    const auto slope = line.slope();
    if (!slope || *slope < lo || *slope >= hi || line.votes < min_votes) continue;
    if (!found || line.votes > out.votes) {
      out = line;
      found = true;
    }
  }
  return found;
}

double refine_slope(const GridU8& edges, const HoughLine& line, double tol) {
  const double c = std::cos(line.theta);
  const double s = std::sin(line.theta);
  std::vector<double> xs;
  std::vector<double> ys;
  for (std::size_t y = 0; y < edges.height(); ++y)
    for (std::size_t x = 0; x < edges.width(); ++x) {
      if (edges(x, y) == 0) continue;
      const auto fx = static_cast<double>(x);
      const auto fy = static_cast<double>(y);
      if (std::abs(fx * c + fy * s - line.rho) > tol) continue;
      xs.push_back(fx);
      ys.push_back(fy);
    }
  const auto fallback = line.slope();
  if (xs.size() < 4) return fallback.value_or(-1e9);
  const bool steep = !fallback || std::abs(*fallback) > 1.0;
  try {
    if (steep) {
      const LineFit fit = fit_line(ys, xs);
      if (std::abs(fit.slope) < 1e-9) return fallback.value_or(-1e9);
      return 1.0 / fit.slope;
    }
    return fit_line(xs, ys).slope;
  } catch (const NumericalError&) {
    return fallback.value_or(-1e9);
  }
}

Outcome replay_hough(const ExtractionRequest& request, CurrentSource& backend,
                     const VoltageAxis& x_axis, const VoltageAxis& y_axis,
                     const AcquisitionContext& context, JobTrace& trace) {
  const HoughBaselineOptions& opt = request.hough;
  Outcome out;
  const double sim_start = backend.clock().elapsed_seconds();
  const long probes_start = backend.probe_count();
  ++trace.counters.hough_jobs;
  auto finish = [&](Status status) {
    out.status = std::move(status);
    out.unique_probes = backend.probe_count() - probes_start;
    out.sim_seconds = backend.clock().elapsed_seconds() - sim_start;
    trace.counters.probe_requests += out.unique_probes;
    trace.counters.unique_probes += out.unique_probes;
    return out;
  };

  SyncSourceAdapter adapter(backend);
  TracedLane lane(adapter, trace);
  Result<Csd> csd = [&] {
    const JobTrace::Scope span(trace, SpanKind::kProbeRaster);
    return acquire_full_csd(lane, x_axis, y_axis, context);
  }();
  if (!csd) return finish(csd.status());
  if (Status s = context.check("hough"); !s.ok()) return finish(std::move(s));

  const JobTrace::Scope analysis(trace, SpanKind::kHoughAnalysis);
  const GridU8 edges = [&] {
    const JobTrace::Scope span(trace, SpanKind::kCanny);
    return canny(normalize01(csd.value().grid()), opt.canny);
  }();
  for (auto v : edges.raw()) trace.counters.edge_pixels += v != 0 ? 1 : 0;
  const std::vector<HoughLine> lines = [&] {
    const JobTrace::Scope span(trace, SpanKind::kHough);
    return hough_lines(edges, opt.hough);
  }();

  const double diag = std::hypot(static_cast<double>(csd.value().width()),
                                 static_cast<double>(csd.value().height()));
  const int min_votes = static_cast<int>(opt.min_votes_diag_fraction * diag);
  HoughLine steep;
  HoughLine shallow;
  const bool have_steep = pick_family(lines, -opt.max_abs_slope,
                                      opt.steep_threshold, min_votes, steep);
  const bool have_shallow =
      pick_family(lines, opt.steep_threshold, -1.0 / opt.max_abs_slope,
                  min_votes, shallow);
  if (!have_steep || !have_shallow)
    return finish(Status::failure(ErrorCode::kLineNotFound, "hough",
                                  "missing transition line family"));
  double steep_pix = *steep.slope();
  double shallow_pix = *shallow.slope();
  if (opt.refine_tolerance_px > 0.0) {
    steep_pix = refine_slope(edges, steep, opt.refine_tolerance_px);
    shallow_pix = refine_slope(edges, shallow, opt.refine_tolerance_px);
  }
  const double unit_ratio = y_axis.step() / x_axis.step();
  out.slope_steep = steep_pix * unit_ratio;
  out.slope_shallow = shallow_pix * unit_ratio;
  auto pair = virtualization_from_slopes(out.slope_steep, out.slope_shallow);
  if (!pair)
    return finish(Status::failure(ErrorCode::kDegenerateVirtualization,
                                  "virtualization", pair.reason()));
  out.gates = *pair;
  return finish(Status{});
}

}  // namespace

Fingerprint replay(const ExtractionRequest& request, JobTrace& trace) {
  if (request.faults.active() || request.transport.enabled())
    throw std::invalid_argument("replay covers the fault-free synchronous lane");
  const JobTrace::Scope root(trace, SpanKind::kJob);

  // A JobQueue job always carries a live cancel token, which routes
  // acquisition through the batched lane; the replay does the same.
  AcquisitionContext context;
  context.cancel = CancelToken::make();
  context.retry = request.retry;

  auto run = [&](CurrentSource& backend, const VoltageAxis& x,
                 const VoltageAxis& y) {
    return request.method == ExtractionMethod::kFast
               ? replay_fast(request, backend, x, y, context, trace)
               : replay_hough(request, backend, x, y, context, trace);
  };

  Outcome outcome;
  std::optional<TransitionTruth> truth;
  if (request.playback.csd != nullptr) {
    const Csd& csd = *request.playback.csd;
    CsdPlayback playback(csd, request.playback.dwell_seconds);
    TracedSource traced(playback, trace, SpanKind::kPlayback);
    outcome = run(traced, request.x_axis.value_or(csd.x_axis()),
                  request.y_axis.value_or(csd.y_axis()));
    truth = csd.truth();
  } else {
    DeviceSimulator sim = make_simulator(request.device);
    TracedSource traced(sim, trace, SpanKind::kDevice);
    const VoltageAxis axis =
        scan_axis(*request.device.device, request.device.pixels_per_axis);
    outcome = run(traced, request.x_axis.value_or(axis),
                  request.y_axis.value_or(axis));
    truth = sim.truth();
  }

  ExtractionReport report;
  report.method = request.method;
  report.status = outcome.status;
  report.slope_steep = outcome.slope_steep;
  report.slope_shallow = outcome.slope_shallow;
  report.stats.unique_probes = outcome.unique_probes;
  report.stats.simulated_seconds = outcome.sim_seconds;
  if (truth) {
    report.verdict = judge_extraction(outcome.status.ok(), outcome.gates,
                                      *truth, request.verdict);
    report.has_verdict = true;
  }
  return Fingerprint::of(report);
}

}  // namespace perfbench
