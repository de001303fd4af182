// Micro-benchmark harness for the fast paths the library ships: each
// scenario times a fast path against its reference ablation inside one
// binary and records whether the two agree. End-to-end and served numbers
// come from perfbench/, not from here.
//
// Scenario families:
//   dense_raster      — 100x100 window evaluation at 2-4 dots: naive vs
//                       incremental vs parallel (bit-identical check).
//   micro_solver      — per-solve charge-state timings at 2-4 dots:
//                       exhaustive reference vs incremental vs
//                       branch-and-bound.
//   solver_scaling    — 5-7 dot ground-state solves: exhaustive reference vs
//                       unpruned incremental vs branch-and-bound (cold and
//                       warm-started) vs delta-ICM greedy (single and
//                       multi-start), with visited-state fractions and
//                       exactness checks.
//   kernel_sweep      — single-threaded SIMD kernels vs their scalar
//                       references: correlate, separable, sobel (gradients
//                       bit-identical, magnitude max ULP recorded), canny at
//                       100 and 200 px, hough accumulation timing, and 5-7
//                       dot solver bound batches.
//   solver_frontier   — 8/12/16-dot stochastic search: multistart greedy vs
//                       annealing (with a restart ladder) vs tabu; exact
//                       recovery vs branch-and-bound at 8 dots, mean excess
//                       energy above.
//   array_sharded     — 10/16-dot array virtualization: serial vs
//                       one-shard-per-pair vs 4 shards (bit-identical check).
//   driver_latency_sweep — a 100 px playback raster over a wall-clock
//                       transport at 1 ms and 5 ms per batch: io_depth 1 vs
//                       io_depth 4 (bit-identical check).
//
// The top-level "metadata" object records the CPU model, compiler, SIMD
// configuration and build flags, so the numbers are attributable when the
// sweep is re-run on different hardware. Every scenario records the
// effective thread count (set QVG_THREADS=N to pin it).
//
// Usage: bench_json <output.json> [filter]
//   `filter` is an optional substring matched against scenario-family names;
//   only matching families run, e.g. `bench_json out.json solver_frontier`.
//   An unknown filter runs nothing and lists the family names.
#include "common/simd.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "device/dot_array.hpp"
#include "extraction/array_extractor.hpp"
#include "imgproc/canny.hpp"
#include "imgproc/convolve.hpp"
#include "imgproc/hough.hpp"
#include "imgproc/kernel.hpp"
#include "imgproc/sobel.hpp"
#include "probe/playback.hpp"
#include "probe/raster.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace qvg;

/// Best-of-`reps` wall-clock seconds of `fn`.
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Stopwatch w;
    fn();
    best = std::min(best, w.elapsed_seconds());
  }
  return best;
}

/// First "model name" line from /proc/cpuinfo, or "unknown" off-Linux.
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (line.compare(0, 10, "model name") == 0 && colon != std::string::npos) {
      auto start = line.find_first_not_of(" \t", colon + 1);
      if (start == std::string::npos) break;
      return line.substr(start);
    }
  }
  return "unknown";
}

struct JsonWriter {
  std::ostringstream out;
  bool first_scenario = true;

  void begin() {
    out << "{\n  \"bench\": \"bench_json\",\n  \"metadata\": {\n"
        << "    \"cpu\": \"" << cpu_model() << "\",\n"
        << "    \"compiler\": \"" << __VERSION__ << "\",\n"
#ifdef QVG_BUILD_FLAGS
        << "    \"build_flags\": \"" << QVG_BUILD_FLAGS << "\",\n"
#endif
        << "    \"simd_native\": " << (simd::kNative ? "true" : "false")
        << ",\n"
        << "    \"simd_double_lanes\": " << simd::kDoubleLanes << ",\n"
        << "    \"simd_float_lanes\": " << simd::kFloatLanes << "\n"
        << "  },\n  \"scenarios\": [\n";
  }
  void end() {
    out << "\n  ]\n}\n";
  }
  void begin_scenario(const std::string& name) {
    if (!first_scenario) out << ",\n";
    first_scenario = false;
    out << "    {\"name\": \"" << name << "\"";
    field("threads", static_cast<long>(ThreadPool::global().size()));
  }
  void field(const std::string& key, double value) {
    out << ", \"" << key << "\": " << value;
  }
  void field(const std::string& key, long value) {
    out << ", \"" << key << "\": " << value;
  }
  void field(const std::string& key, bool value) {
    out << ", \"" << key << "\": " << (value ? "true" : "false");
  }
  void end_scenario() { out << "}"; }
};

GridD make_test_image(std::size_t n) {
  Rng rng(99);
  GridD image(n, n);
  for (std::size_t y = 0; y < n; ++y)
    for (std::size_t x = 0; x < n; ++x)
      image(x, y) = (x > n / 2 ? 0.2 : 0.8) + 0.05 * rng.normal();
  return image;
}

void bench_dense_raster(JsonWriter& json) {
  // The PR 1 headline ablation: every pixel of a 100x100 window evaluated
  // through the naive per-pixel path vs the incremental/batched path. The
  // solver share of the per-pixel cost grows with dot count, so the
  // multi-dot scenarios show the full algorithmic gain.
  for (std::size_t n_dots : {2u, 3u, 4u}) {
    DotArrayParams params;
    params.n_dots = n_dots;
    const BuiltDevice device = build_dot_array(params);
    const DeviceSimulator sim = make_pair_simulator(device);
    const VoltageAxis axis = scan_axis(device, 100);

    RasterEvalOptions naive{RasterEvalMode::kNaive, false};
    RasterEvalOptions fast_serial{RasterEvalMode::kFast, false};
    RasterEvalOptions fast_parallel{RasterEvalMode::kFast, true};

    GridD naive_grid, fast_grid;
    const double naive_s = time_best(
        3, [&] { naive_grid = sim.evaluate_raster(axis, axis, naive); });
    const double serial_s = time_best(
        5, [&] { fast_grid = sim.evaluate_raster(axis, axis, fast_serial); });
    const bool identical = naive_grid == fast_grid;
    GridD parallel_grid;
    const double parallel_s = time_best(5, [&] {
      parallel_grid = sim.evaluate_raster(axis, axis, fast_parallel);
    });

    json.begin_scenario("micro_dense_raster_100x100_" +
                        std::to_string(n_dots) + "dot");
    json.field("pixels", static_cast<long>(axis.count() * axis.count()));
    json.field("naive_seconds", naive_s);
    json.field("fast_serial_seconds", serial_s);
    json.field("fast_parallel_seconds", parallel_s);
    json.field("speedup_serial", naive_s / serial_s);
    json.field("speedup_parallel", naive_s / parallel_s);
    json.field("results_identical", identical && fast_grid == parallel_grid);
    json.end_scenario();
  }
}

void bench_solver(JsonWriter& json) {
  for (std::size_t n_dots : {2u, 3u, 4u}) {
    DotArrayParams params;
    params.n_dots = n_dots;
    const BuiltDevice device = build_dot_array(params);
    Rng rng(7 + n_dots);
    const int solves = 2000;
    std::vector<std::vector<double>> drive_sets;
    drive_sets.reserve(solves);
    std::vector<double> voltages(n_dots);
    for (int s = 0; s < solves; ++s) {
      for (auto& v : voltages) v = rng.uniform(0.0, 0.06);
      drive_sets.push_back(device.model.dot_drives(voltages));
    }

    const double naive_s = time_best(3, [&] {
      for (const auto& d : drive_sets)
        (void)ground_state_exhaustive(device.model, d, 4);
    });
    IncrementalGroundStateSolver solver(device.model);
    const double fast_s = time_best(3, [&] {
      for (const auto& d : drive_sets)
        (void)solver.solve(d, 4, nullptr, ExhaustiveStrategy::kFullEnumeration);
    });
    const double bb_s = time_best(3, [&] {
      for (const auto& d : drive_sets)
        (void)solver.solve(d, 4, nullptr, ExhaustiveStrategy::kBranchAndBound);
    });

    json.begin_scenario("micro_solver_" + std::to_string(n_dots) + "dot");
    json.field("solves", static_cast<long>(solves));
    json.field("naive_us_per_solve", naive_s / solves * 1e6);
    json.field("incremental_us_per_solve", fast_s / solves * 1e6);
    json.field("bb_us_per_solve", bb_s / solves * 1e6);
    json.field("speedup", naive_s / fast_s);
    json.field("speedup_bb", naive_s / bb_s);
    json.end_scenario();
  }
}

// PR 2: the exact-solver frontier. Branch-and-bound makes exhaustive solves
// tractable where PR 1's full enumeration walks m^n states, and the
// delta-ICM greedy replaces the copy-based reference for arrays beyond the
// exhaustive limit. Accuracy fractions compare every approximate result
// against the exact ground state.
void bench_solver_scaling(JsonWriter& json) {
  for (std::size_t n_dots : {5u, 6u, 7u}) {
    DotArrayParams params;
    params.n_dots = n_dots;
    const BuiltDevice device = build_dot_array(params);
    Rng rng(31 + n_dots);
    const int solves = n_dots >= 7 ? 20 : 60;
    std::vector<std::vector<double>> drive_sets;
    drive_sets.reserve(solves);
    std::vector<double> voltages(n_dots);
    for (int s = 0; s < solves; ++s) {
      for (auto& v : voltages) v = rng.uniform(0.0, 0.06);
      drive_sets.push_back(device.model.dot_drives(voltages));
    }

    const double naive_s = time_best(2, [&] {
      for (const auto& d : drive_sets)
        (void)ground_state_exhaustive(device.model, d, 4);
    });
    IncrementalGroundStateSolver solver(device.model);
    const double full_s = time_best(2, [&] {
      for (const auto& d : drive_sets)
        (void)solver.solve(d, 4, nullptr, ExhaustiveStrategy::kFullEnumeration);
    });
    const double bb_s = time_best(2, [&] {
      for (const auto& d : drive_sets)
        (void)solver.solve(d, 4, nullptr, ExhaustiveStrategy::kBranchAndBound);
    });
    // Warm-started chain: each solve seeds the next (the raster pattern),
    // which is where the incumbent-driven pruning pays most.
    const double bb_warm_s = time_best(2, [&] {
      std::vector<int> prev;
      for (const auto& d : drive_sets) {
        prev = solver.solve(d, 4, prev.empty() ? nullptr : &prev,
                            ExhaustiveStrategy::kBranchAndBound);
      }
    });

    const double greedy_ref_s = time_best(2, [&] {
      for (const auto& d : drive_sets)
        (void)ground_state_greedy_reference(device.model, d, 4);
    });
    const double greedy_s = time_best(2, [&] {
      for (const auto& d : drive_sets)
        (void)ground_state_greedy(device.model, d, 4);
    });
    const int restarts = 8;
    const double multistart_s = time_best(2, [&] {
      for (const auto& d : drive_sets)
        (void)ground_state_greedy_multistart(device.model, d, 4, restarts);
    });

    // Exactness + pruning accounting (outside the timed loops).
    bool bb_matches_full = true;
    bool greedy_matches_reference = true;
    long greedy_exact = 0;
    long multistart_exact = 0;
    double visited_fraction_sum = 0.0;
    std::uint64_t total_states = 1;
    for (std::size_t j = 0; j < n_dots; ++j) total_states *= 5;  // m = 5
    for (const auto& d : drive_sets) {
      const auto exact = solver.solve(d, 4, nullptr,
                                      ExhaustiveStrategy::kBranchAndBound);
      visited_fraction_sum +=
          static_cast<double>(solver.last_stats().states_visited) /
          static_cast<double>(total_states);
      if (exact !=
          solver.solve(d, 4, nullptr, ExhaustiveStrategy::kFullEnumeration))
        bb_matches_full = false;
      const auto greedy = ground_state_greedy(device.model, d, 4);
      if (greedy != ground_state_greedy_reference(device.model, d, 4))
        greedy_matches_reference = false;
      if (greedy == exact) ++greedy_exact;
      if (ground_state_greedy_multistart(device.model, d, 4, restarts) == exact)
        ++multistart_exact;
    }

    json.begin_scenario("solver_scaling_" + std::to_string(n_dots) + "dot");
    json.field("solves", static_cast<long>(solves));
    json.field("states_total", static_cast<long>(total_states));
    json.field("naive_us_per_solve", naive_s / solves * 1e6);
    json.field("incremental_us_per_solve", full_s / solves * 1e6);
    json.field("bb_us_per_solve", bb_s / solves * 1e6);
    json.field("bb_warm_us_per_solve", bb_warm_s / solves * 1e6);
    json.field("bb_speedup_vs_incremental", full_s / bb_s);
    json.field("bb_warm_speedup_vs_incremental", full_s / bb_warm_s);
    json.field("bb_states_visited_fraction", visited_fraction_sum / solves);
    json.field("bb_matches_incremental", bb_matches_full);
    json.field("greedy_reference_us_per_solve", greedy_ref_s / solves * 1e6);
    json.field("greedy_delta_us_per_solve", greedy_s / solves * 1e6);
    json.field("greedy_delta_speedup", greedy_ref_s / greedy_s);
    json.field("greedy_matches_reference", greedy_matches_reference);
    json.field("greedy_exact_fraction",
               static_cast<double>(greedy_exact) / solves);
    json.field("multistart_restarts", static_cast<long>(restarts));
    json.field("multistart_us_per_solve", multistart_s / solves * 1e6);
    json.field("multistart_exact_fraction",
               static_cast<double>(multistart_exact) / solves);
    json.end_scenario();
  }
}
/// Deterministic extraction fields only (compute_seconds is wall time and
/// legitimately varies run to run).
bool array_results_identical(const ArrayExtractionResult& a,
                             const ArrayExtractionResult& b) {
  if (a.status != b.status || a.pairs.size() != b.pairs.size()) return false;
  if (a.band_max_error != b.band_max_error) return false;
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    const auto& pa = a.pairs[i];
    const auto& pb = b.pairs[i];
    if (pa.pair_index != pb.pair_index || pa.status != pb.status ||
        pa.gates.alpha12 != pb.gates.alpha12 ||
        pa.gates.alpha21 != pb.gates.alpha21 ||
        pa.stats.unique_probes != pb.stats.unique_probes ||
        pa.stats.total_requests != pb.stats.total_requests ||
        pa.stats.simulated_seconds != pb.stats.simulated_seconds)
      return false;
  }
  for (std::size_t i = 0; i < a.matrix.rows(); ++i)
    for (std::size_t j = 0; j < a.matrix.cols(); ++j)
      if (a.matrix(i, j) != b.matrix(i, j)) return false;
  return true;
}

/// Max ULP distance between two equal-sized grids of non-negative values.
std::uint64_t max_ulp(const GridD& a, const GridD& b) {
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < a.raw().size(); ++i) {
    std::uint64_t ua = 0;
    std::uint64_t ub = 0;
    std::memcpy(&ua, &a.raw()[i], sizeof(double));
    std::memcpy(&ub, &b.raw()[i], sizeof(double));
    worst = std::max(worst, ua > ub ? ua - ub : ub - ua);
  }
  return worst;
}

// PR 7: per-kernel before/after for the SIMD + cache-blocking pass, all
// single-threaded so the numbers capture the single-thread gap the pass
// closes (serial-vs-parallel equivalence is pinned by the test suite).
// Every scenario records whether the fast result is bit-identical to its
// reference; the sobel magnitude records its max ULP distance instead (the
// one documented tolerance case: sqrt-form magnitude vs hypot).
void bench_kernel_sweep(JsonWriter& json) {
  set_parallelism_enabled(false);
  const GridD image = make_test_image(200);

  {
    const Kernel2D mask = paper_mask_x();
    GridD ref, fast;
    const double ref_s =
        time_best(5, [&] { ref = correlate_reference(image, mask); });
    const double fast_s = time_best(5, [&] { fast = correlate(image, mask); });
    json.begin_scenario("kernel_correlate_200px");
    json.field("reference_ms", ref_s * 1e3);
    json.field("simd_ms", fast_s * 1e3);
    json.field("speedup", ref_s / fast_s);
    json.field("results_identical", ref == fast);
    json.end_scenario();
  }

  {
    const auto taps = gaussian_taps(1.4);
    GridD ref, fast;
    const double ref_s = time_best(
        5, [&] { ref = correlate_separable_reference(image, taps, taps); });
    const double fast_s =
        time_best(5, [&] { fast = correlate_separable(image, taps, taps); });
    json.begin_scenario("kernel_separable_200px");
    json.field("taps", static_cast<long>(taps.size()));
    json.field("reference_ms", ref_s * 1e3);
    json.field("simd_ms", fast_s * 1e3);
    json.field("speedup", ref_s / fast_s);
    json.field("results_identical", ref == fast);
    json.end_scenario();
  }

  {
    GradientField ref, fast;
    const double ref_s =
        time_best(5, [&] { ref = sobel_gradients_reference(image); });
    const double fast_s = time_best(5, [&] { fast = sobel_gradients(image); });
    json.begin_scenario("kernel_sobel_200px");
    json.field("reference_ms", ref_s * 1e3);
    json.field("simd_ms", fast_s * 1e3);
    json.field("speedup", ref_s / fast_s);
    json.field("gradients_identical", ref.gx == fast.gx && ref.gy == fast.gy);
    json.field("magnitude_max_ulp",
               static_cast<long>(max_ulp(ref.magnitude, fast.magnitude)));
    json.end_scenario();
  }

  for (std::size_t n : {100u, 200u}) {
    const GridD img = make_test_image(n);
    GridU8 ref, fast;
    const double ref_s = time_best(5, [&] { ref = canny_reference(img); });
    const double fast_s = time_best(5, [&] { fast = canny(img); });
    json.begin_scenario("kernel_canny_" + std::to_string(n) + "px");
    json.field("reference_ms", ref_s * 1e3);
    json.field("simd_ms", fast_s * 1e3);
    json.field("speedup", ref_s / fast_s);
    json.field("edges_identical", ref == fast);
    json.end_scenario();
  }

  {
    const GridU8 edges = canny(image);
    HoughAccumulator acc;
    const double hough_s =
        time_best(5, [&] { acc = hough_accumulate(edges); });
    long edge_points = 0;
    for (auto v : edges.raw()) edge_points += v != 0 ? 1 : 0;
    json.begin_scenario("kernel_hough_200px");
    json.field("edge_points", edge_points);
    json.field("hough_ms", hough_s * 1e3);
    json.end_scenario();
  }

  // Solver bound batches (SIMD completion bounds inside branch-and-bound,
  // SIMD coupling updates inside the delta-ICM greedy) at 5-7 dots. The
  // "before" is the same algorithm with its pre-PR 7 scalar recurrences —
  // not separately compilable, so the pin here is exactness vs the unpruned
  // enumeration / copy-based greedy, with timings that extend the
  // solver_scaling trajectory.
  for (std::size_t n_dots : {5u, 6u, 7u}) {
    DotArrayParams params;
    params.n_dots = n_dots;
    const BuiltDevice device = build_dot_array(params);
    Rng rng(131 + n_dots);
    const int solves = n_dots >= 7 ? 10 : 30;
    std::vector<std::vector<double>> drive_sets;
    std::vector<double> voltages(n_dots);
    for (int s = 0; s < solves; ++s) {
      for (auto& v : voltages) v = rng.uniform(0.0, 0.06);
      drive_sets.push_back(device.model.dot_drives(voltages));
    }

    IncrementalGroundStateSolver solver(device.model);
    const double bb_s = time_best(3, [&] {
      for (const auto& d : drive_sets)
        (void)solver.solve(d, 4, nullptr, ExhaustiveStrategy::kBranchAndBound);
    });
    const double greedy_s = time_best(3, [&] {
      for (const auto& d : drive_sets)
        (void)ground_state_greedy(device.model, d, 4);
    });
    bool bb_identical = true;
    bool greedy_identical = true;
    for (const auto& d : drive_sets) {
      if (solver.solve(d, 4, nullptr, ExhaustiveStrategy::kBranchAndBound) !=
          solver.solve(d, 4, nullptr, ExhaustiveStrategy::kFullEnumeration))
        bb_identical = false;
      if (ground_state_greedy(device.model, d, 4) !=
          ground_state_greedy_reference(device.model, d, 4))
        greedy_identical = false;
    }
    json.begin_scenario("kernel_solver_" + std::to_string(n_dots) + "dot");
    json.field("solves", static_cast<long>(solves));
    json.field("bb_us_per_solve", bb_s / solves * 1e6);
    json.field("greedy_us_per_solve", greedy_s / solves * 1e6);
    json.field("bb_matches_full_enumeration", bb_identical);
    json.field("greedy_matches_reference", greedy_identical);
    json.end_scenario();
  }

  set_parallelism_enabled(true);
}

// PR 9: the solver frontier at 8-16 dots — annealing and tabu vs the PR 2
// multistart-greedy ablation baseline, on random near-transition drive sets.
// At 8 dots branch-and-bound is still tractable, so the exact-recovery
// fraction of every stochastic strategy is measured against ground truth; at
// 12 and 16 dots quality is mean excess energy over the best state any
// strategy found. The anneal restart ladder (1/2/4 restarts) traces the
// quality-vs-time front one knob controls.
void bench_solver_frontier(JsonWriter& json) {
  for (std::size_t n_dots : {8u, 12u, 16u}) {
    DotArrayParams params;
    params.n_dots = n_dots;
    const BuiltDevice device = build_dot_array(params);
    Rng rng(900 + n_dots);
    const int solves = n_dots == 8 ? 16 : n_dots == 12 ? 10 : 6;
    std::vector<std::vector<double>> drive_sets;
    std::vector<double> voltages(n_dots);
    for (int s = 0; s < solves; ++s) {
      for (auto& v : voltages) v = rng.uniform(0.0, 0.06);
      drive_sets.push_back(device.model.dot_drives(voltages));
    }

    struct Variant {
      std::string label;
      FrontierOptions options;
    };
    std::vector<Variant> variants;
    {
      FrontierOptions greedy;
      greedy.strategy = FrontierStrategy::kMultistartGreedy;
      greedy.restarts = 8;
      variants.push_back({"greedy8", greedy});
      FrontierOptions anneal;  // production defaults
      variants.push_back({"anneal", anneal});
      FrontierOptions tabu;
      tabu.strategy = FrontierStrategy::kTabu;
      variants.push_back({"tabu", tabu});
      for (const int restarts : {1, 2, 4}) {
        FrontierOptions ladder;
        ladder.restarts = restarts;
        variants.push_back({"anneal_r" + std::to_string(restarts), ladder});
      }
    }

    // Exact ground-state energies via branch-and-bound where tractable.
    std::vector<double> exact_energy;
    double bb_s = 0.0;
    if (n_dots == 8) {
      IncrementalGroundStateSolver solver(device.model);
      bb_s = time_best(2, [&] {
        for (const auto& d : drive_sets)
          (void)solver.solve(d, 4, nullptr,
                             ExhaustiveStrategy::kBranchAndBound);
      });
      for (const auto& d : drive_sets)
        exact_energy.push_back(device.model.energy(
            solver.solve(d, 4, nullptr, ExhaustiveStrategy::kBranchAndBound),
            d));
    }

    // Energies per variant per drive set (outside the timed loops), plus the
    // best state any variant found — the 12/16-dot quality reference.
    std::vector<std::vector<double>> energies(variants.size());
    std::vector<double> best_energy(drive_sets.size(),
                                    std::numeric_limits<double>::infinity());
    std::vector<std::uint64_t> moves(variants.size(), 0);
    for (std::size_t v = 0; v < variants.size(); ++v) {
      for (std::size_t s = 0; s < drive_sets.size(); ++s) {
        SolveStats stats;
        const double e = device.model.energy(
            ground_state_frontier(device.model, drive_sets[s], 4,
                                  variants[v].options, &stats),
            drive_sets[s]);
        energies[v].push_back(e);
        best_energy[s] = std::min(best_energy[s], e);
        moves[v] += stats.moves_evaluated;
      }
    }
    if (!exact_energy.empty())
      for (std::size_t s = 0; s < drive_sets.size(); ++s)
        best_energy[s] = std::min(best_energy[s], exact_energy[s]);

    json.begin_scenario("solver_frontier_" + std::to_string(n_dots) + "dot");
    json.field("solves", static_cast<long>(solves));
    if (n_dots == 8) json.field("bb_us_per_solve", bb_s / solves * 1e6);
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const auto& variant = variants[v];
      const double wall_s = time_best(2, [&] {
        for (const auto& d : drive_sets)
          (void)ground_state_frontier(device.model, d, 4, variant.options);
      });
      json.field(variant.label + "_us_per_solve", wall_s / solves * 1e6);
      json.field(variant.label + "_moves_per_solve",
                 static_cast<double>(moves[v]) / solves);
      // Exact recovery against B&B truth at 8 dots; mean excess energy over
      // the best-of-all state above (0 = matched the best anyone found).
      int exact = 0;
      double excess = 0.0;
      for (std::size_t s = 0; s < drive_sets.size(); ++s) {
        const double reference =
            exact_energy.empty() ? best_energy[s] : exact_energy[s];
        if (energies[v][s] <= reference + 1e-12) ++exact;
        excess += energies[v][s] - best_energy[s];
      }
      if (n_dots == 8)
        json.field(variant.label + "_exact_fraction",
                   static_cast<double>(exact) / solves);
      json.field(variant.label + "_mean_excess_energy", excess / solves);
    }
    json.end_scenario();
  }
}

// PR 9: the sharded 10-16 dot array lane. The n-1 pair extractions run
// serially, one-shard-per-pair, and in 4 round-robin shards; all three must
// compose bit-identically (the pin), and the sharded walks show the
// wall-clock win per-shard ProbeCaches buy (no cross-shard lock contention).
void bench_array_sharded(JsonWriter& json) {
  for (std::size_t n_dots : {10u, 16u}) {
    DotArrayParams params;
    params.n_dots = n_dots;
    const BuiltDevice device = build_dot_array(params);

    ArrayExtractionOptions serial_opt;
    serial_opt.pixels_per_axis = 32;
    serial_opt.parallel = false;
    serial_opt.shards = 1;
    ArrayExtractionOptions per_pair_opt = serial_opt;
    per_pair_opt.parallel = true;
    per_pair_opt.shards = 0;  // one shard per pair
    ArrayExtractionOptions sharded_opt = per_pair_opt;
    sharded_opt.shards = 4;

    ArrayExtractionResult serial, per_pair, sharded;
    const double serial_s =
        time_best(2, [&] { serial = extract_array_virtualization(device, serial_opt); });
    const double per_pair_s = time_best(
        2, [&] { per_pair = extract_array_virtualization(device, per_pair_opt); });
    const double sharded_s = time_best(
        2, [&] { sharded = extract_array_virtualization(device, sharded_opt); });

    json.begin_scenario("array_sharded_" + std::to_string(n_dots) + "dot");
    json.field("pairs", static_cast<long>(n_dots - 1));
    json.field("pixels_per_axis", 32L);
    json.field("success", serial.status.ok());
    json.field("unique_probes", serial.total_stats.unique_probes);
    json.field("serial_seconds", serial_s);
    json.field("per_pair_shard_seconds", per_pair_s);
    json.field("sharded4_seconds", sharded_s);
    json.field("sharded4_speedup_vs_serial", serial_s / sharded_s);
    json.field("sharded4_shards", static_cast<long>(sharded.shards.size()));
    json.field("serial_sharded_identical",
               array_results_identical(serial, sharded) &&
                   array_results_identical(serial, per_pair));
    json.field("band_max_error", serial.band_max_error);
    json.end_scenario();
  }
}

// PR 10: the instrument-driver acquisition pipeline. A 100x100 playback
// raster goes out as 20 whole-row batches over a wall-clock transport link;
// the synchronous-submission lane (io_depth = 1) pays the full command
// latency per batch, the pipelined lane (io_depth = 4) overlaps it across
// in-flight transfers. Results must stay bit-identical — only the wall
// clock moves.
void bench_driver_latency_sweep(JsonWriter& json) {
  const Csd recorded = [] {
    const BuiltDevice device = build_dot_array(DotArrayParams{});
    const VoltageAxis axis = scan_axis(device, 100);
    DeviceSimulator sim = make_pair_simulator(device);
    return sim.generate_csd(axis, axis, "driver_latency");
  }();

  auto acquire = [&](long io_depth, double latency_us) {
    AcquisitionContext context;
    context.transport.io_depth = io_depth;
    context.transport.latency_us = latency_us;
    context.transport.wall_clock = true;
    CsdPlayback playback(recorded);
    return *acquire_full_csd(playback, recorded.x_axis(), recorded.y_axis(),
                             context);
  };

  for (const double latency_us : {1000.0, 5000.0}) {
    Csd sync_csd, pipelined_csd;
    const double sync_s =
        time_best(3, [&] { sync_csd = acquire(1, latency_us); });
    const double pipelined_s =
        time_best(3, [&] { pipelined_csd = acquire(4, latency_us); });
    json.begin_scenario("driver_latency_sweep_100px_" +
                        std::to_string(static_cast<long>(latency_us)) + "us");
    json.field("pixels",
               static_cast<long>(recorded.width() * recorded.height()));
    json.field("latency_us", latency_us);
    json.field("sync_seconds", sync_s);
    json.field("pipelined_seconds", pipelined_s);
    json.field("speedup", sync_s / pipelined_s);
    json.field("results_identical", sync_csd.grid() == pipelined_csd.grid());
    json.end_scenario();
  }
}

/// Scenario families, runnable individually via the optional filter
/// argument (substring match on the family name).
struct BenchFamily {
  const char* name;
  void (*run)(JsonWriter&);
};

constexpr BenchFamily kFamilies[] = {
    {"dense_raster", bench_dense_raster},
    {"micro_solver", bench_solver},
    {"solver_scaling", bench_solver_scaling},
    {"kernel_sweep", bench_kernel_sweep},
    {"solver_frontier", bench_solver_frontier},
    {"array_sharded", bench_array_sharded},
    {"driver_latency_sweep", bench_driver_latency_sweep},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: bench_json <output.json> [filter]\n";
    return 1;
  }
  const std::string out_path = argv[1];
  const std::string filter = argc > 2 ? argv[2] : "";

  int matched = 0;
  for (const BenchFamily& family : kFamilies)
    if (std::string(family.name).find(filter) != std::string::npos) ++matched;
  if (matched == 0) {
    std::cerr << "no scenario family matches '" << filter
              << "'; available families:\n";
    for (const BenchFamily& family : kFamilies)
      std::cerr << "  " << family.name << "\n";
    return 1;
  }

  // Open the output before the run, so a bad path fails in milliseconds.
  std::ofstream file(out_path);
  if (!file) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }

  JsonWriter json;
  json.out.precision(6);
  json.begin();
  for (const BenchFamily& family : kFamilies) {
    if (std::string(family.name).find(filter) == std::string::npos) continue;
    family.run(json);
  }
  json.end();

  file << json.out.str();
  std::cout << json.out.str();
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
