// Google-benchmark microbenchmarks of the implementation building blocks
// (DESIGN.md experiment E7): image pipeline stages, the charge-state solver,
// the feature gradient, and the piecewise fit.
//
// The BM_*Reference / BM_*Simd (and reference/fast) pairs are
// the PR 7 scalar-vs-vector ablation for each touched kernel; both variants
// live in one binary because the references are runtime-callable, so a
// single run shows the per-kernel gap on the host CPU.
#include "device/charge_state.hpp"
#include "device/dot_array.hpp"
#include "extraction/fast_extractor.hpp"
#include "extraction/piecewise_fit.hpp"
#include "imgproc/canny.hpp"
#include "imgproc/convolve.hpp"
#include "imgproc/filters.hpp"
#include "imgproc/hough.hpp"
#include "imgproc/kernel.hpp"
#include "imgproc/sobel.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace qvg;

GridD make_test_image(std::size_t n) {
  Rng rng(99);
  GridD image(n, n);
  for (std::size_t y = 0; y < n; ++y)
    for (std::size_t x = 0; x < n; ++x)
      image(x, y) = (x > n / 2 ? 0.2 : 0.8) + 0.05 * rng.normal();
  return image;
}

void BM_GaussianBlur(benchmark::State& state) {
  const auto image = make_test_image(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(gaussian_blur(image, 1.4));
}
BENCHMARK(BM_GaussianBlur)->Arg(63)->Arg(100)->Arg(200);

void BM_Canny(benchmark::State& state) {
  const auto image = make_test_image(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(canny(image));
}
BENCHMARK(BM_Canny)->Arg(63)->Arg(100)->Arg(200);

void BM_Hough(benchmark::State& state) {
  const auto image = make_test_image(static_cast<std::size_t>(state.range(0)));
  const auto edges = canny(image);
  for (auto _ : state) benchmark::DoNotOptimize(hough_lines(edges));
}
BENCHMARK(BM_Hough)->Arg(63)->Arg(100)->Arg(200);

void BM_CorrelateReference(benchmark::State& state) {
  const auto image = make_test_image(static_cast<std::size_t>(state.range(0)));
  const Kernel2D mask = paper_mask_x();
  for (auto _ : state)
    benchmark::DoNotOptimize(correlate_reference(image, mask));
}
BENCHMARK(BM_CorrelateReference)->Arg(100)->Arg(200);

void BM_CorrelateSimd(benchmark::State& state) {
  const auto image = make_test_image(static_cast<std::size_t>(state.range(0)));
  const Kernel2D mask = paper_mask_x();
  for (auto _ : state) benchmark::DoNotOptimize(correlate(image, mask));
}
BENCHMARK(BM_CorrelateSimd)->Arg(100)->Arg(200);

void BM_SeparableReference(benchmark::State& state) {
  const auto image = make_test_image(static_cast<std::size_t>(state.range(0)));
  const auto taps = gaussian_taps(1.4);
  for (auto _ : state)
    benchmark::DoNotOptimize(correlate_separable_reference(image, taps, taps));
}
BENCHMARK(BM_SeparableReference)->Arg(100)->Arg(200);

void BM_SeparableSimd(benchmark::State& state) {
  const auto image = make_test_image(static_cast<std::size_t>(state.range(0)));
  const auto taps = gaussian_taps(1.4);
  for (auto _ : state)
    benchmark::DoNotOptimize(correlate_separable(image, taps, taps));
}
BENCHMARK(BM_SeparableSimd)->Arg(100)->Arg(200);

void BM_SobelReference(benchmark::State& state) {
  const auto image = make_test_image(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(sobel_gradients_reference(image));
}
BENCHMARK(BM_SobelReference)->Arg(100)->Arg(200);

void BM_SobelSimd(benchmark::State& state) {
  const auto image = make_test_image(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(sobel_gradients(image));
}
BENCHMARK(BM_SobelSimd)->Arg(100)->Arg(200);

void BM_CannyReference(benchmark::State& state) {
  // Pre-PR 7 pipeline: reference convolutions, hypot magnitude, atan2 NMS.
  const auto image = make_test_image(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(canny_reference(image));
}
BENCHMARK(BM_CannyReference)->Arg(100)->Arg(200);

void BM_SolverBranchAndBound(benchmark::State& state) {
  // SIMD completion-bound batches drive the pruning; compare against
  // BM_SolverFullEnumeration for the bound's total effect.
  DotArrayParams params;
  params.n_dots = static_cast<std::size_t>(state.range(0));
  const auto device = build_dot_array(params);
  const auto drives =
      device.model.dot_drives(std::vector<double>(params.n_dots, 0.03));
  IncrementalGroundStateSolver solver(device.model);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        solver.solve(drives, 4, nullptr, ExhaustiveStrategy::kBranchAndBound));
}
BENCHMARK(BM_SolverBranchAndBound)->Arg(5)->Arg(6)->Arg(7);

void BM_SolverFullEnumeration(benchmark::State& state) {
  DotArrayParams params;
  params.n_dots = static_cast<std::size_t>(state.range(0));
  const auto device = build_dot_array(params);
  const auto drives =
      device.model.dot_drives(std::vector<double>(params.n_dots, 0.03));
  IncrementalGroundStateSolver solver(device.model);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        solver.solve(drives, 4, nullptr, ExhaustiveStrategy::kFullEnumeration));
}
BENCHMARK(BM_SolverFullEnumeration)->Arg(5)->Arg(6)->Arg(7);

void BM_GreedyReference(benchmark::State& state) {
  DotArrayParams params;
  params.n_dots = static_cast<std::size_t>(state.range(0));
  const auto device = build_dot_array(params);
  const auto drives =
      device.model.dot_drives(std::vector<double>(params.n_dots, 0.03));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        ground_state_greedy_reference(device.model, drives, 4));
}
BENCHMARK(BM_GreedyReference)->Arg(7)->Arg(9);

void BM_GreedyDelta(benchmark::State& state) {
  // Delta-ICM with the SIMD coupling-sum updates.
  DotArrayParams params;
  params.n_dots = static_cast<std::size_t>(state.range(0));
  const auto device = build_dot_array(params);
  const auto drives =
      device.model.dot_drives(std::vector<double>(params.n_dots, 0.03));
  for (auto _ : state)
    benchmark::DoNotOptimize(ground_state_greedy(device.model, drives, 4));
}
BENCHMARK(BM_GreedyDelta)->Arg(7)->Arg(9);

void BM_GroundState(benchmark::State& state) {
  DotArrayParams params;
  params.n_dots = static_cast<std::size_t>(state.range(0));
  const auto device = build_dot_array(params);
  const std::vector<double> voltages(params.n_dots, 0.03);
  for (auto _ : state)
    benchmark::DoNotOptimize(ground_state(device.model, voltages));
}
BENCHMARK(BM_GroundState)->Arg(2)->Arg(3)->Arg(4)->Arg(6)->Arg(8);

void BM_IdealCurrent(benchmark::State& state) {
  const auto device = build_dot_array(DotArrayParams{});
  auto sim = make_pair_simulator(device);
  double v = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.ideal_current(0.02 + v, 0.03));
    v = v < 0.02 ? v + 1e-5 : 0.0;
  }
}
BENCHMARK(BM_IdealCurrent);

void BM_DenseRasterNaive(benchmark::State& state) {
  // Pre-optimization reference path: per-pixel allocations + full-recompute
  // exhaustive solver (the ablation baseline for BM_DenseRasterFast).
  DotArrayParams params;
  params.n_dots = static_cast<std::size_t>(state.range(0));
  const auto device = build_dot_array(params);
  const auto sim = make_pair_simulator(device);
  const auto axis = scan_axis(device, 100);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sim.evaluate_raster(axis, axis, {RasterEvalMode::kNaive, false}));
}
BENCHMARK(BM_DenseRasterNaive)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_DenseRasterFast(benchmark::State& state) {
  // Incremental solver + warm starts + row-parallel batched evaluation.
  DotArrayParams params;
  params.n_dots = static_cast<std::size_t>(state.range(0));
  const auto device = build_dot_array(params);
  const auto sim = make_pair_simulator(device);
  const auto axis = scan_axis(device, 100);
  for (auto _ : state)
    benchmark::DoNotOptimize(sim.evaluate_raster(axis, axis));
}
BENCHMARK(BM_DenseRasterFast)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_PiecewiseFit(benchmark::State& state) {
  // Synthetic points along a 2-piecewise path.
  std::vector<Pixel> points;
  const Pixel a{10, 48};
  const Pixel b{55, 10};
  const Point2 vertex{50.0, 40.0};
  for (int x = a.x; x <= static_cast<int>(vertex.x); x += 2)
    points.push_back({x, static_cast<int>(48 - 0.2 * (x - a.x))});
  for (int y = b.y; y <= static_cast<int>(vertex.y); y += 2)
    points.push_back({static_cast<int>(55 - 0.25 * (y - b.y)), y});
  for (auto _ : state)
    benchmark::DoNotOptimize(fit_piecewise_linear(points, a, b));
}
BENCHMARK(BM_PiecewiseFit);

void BM_FastExtractionLive(benchmark::State& state) {
  // Full pipeline against the live simulator (dwell zeroed: compute only).
  const auto device = build_dot_array(DotArrayParams{});
  for (auto _ : state) {
    auto sim = make_pair_simulator(device, 0, 7, /*dwell_seconds=*/0.0);
    const auto axis = scan_axis(device, 100);
    benchmark::DoNotOptimize(run_fast_extraction(sim, axis, axis));
  }
}
BENCHMARK(BM_FastExtractionLive)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
