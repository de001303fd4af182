// Machine-readable perf harness seeding the repo's BENCH_*.json trajectory.
//
// Scenario families (PR 1/2 kept reproducible, PR 3 added on top):
//   bench_micro       — dense-raster evaluation (naive vs incremental vs
//                       parallel), per-solve charge-state solver timings,
//                       and the image pipeline.                       (PR 1)
//   bench_table1      — one fast extraction + one Canny/Hough baseline run
//                       (unique probes, cache hit rate, timings).     (PR 1)
//   bench_scaling     — 3-dot array virtualization, fast vs baseline. (PR 1)
//   solver_scaling    — 5-7 dot ground-state solves: exhaustive reference vs
//                       unpruned incremental vs branch-and-bound (cold and
//                       warm-started) vs delta-ICM greedy (single and
//                       multi-start), with visited/pruned state counts and
//                       exactness fractions.                          (PR 2)
//   array_scaling     — 3-8 dot array virtualization, serial vs parallel
//                       pair loop (bit-identical check) and fast vs
//                       baseline probe costs.                         (PR 2)
//   suite_generation  — the 12-diagram qflow suite, serial vs parallel
//                       build (bit-identical check).                  (PR 2)
//   probe_path        — full-CSD acquisition through the batched
//                       get_currents interface vs the scalar per-pixel
//                       loop, on the simulator and on playback
//                       (bit-identical check).                        (PR 3)
//   engine_overhead   — ExtractionEngine façade vs calling the extraction
//                       entry points directly, plus serial-vs-parallel
//                       batch submission.                             (PR 3)
//   cancellation_check_overhead — context-checked (row-batched, per-row
//                       interruption check) full-CSD acquisition vs the
//                       PR 3 single-batch path, simulator and playback
//                       (bit-identical check; expected <= 2% on the
//                       simulator).                                   (PR 4)
//   async_queue_throughput — N extraction jobs through the async JobQueue
//                       at fixed worker counts vs a serial engine.run
//                       loop (reports bit-identical).                 (PR 4)
//   async_parallel_raster — ONE raster-dominated job through the JobQueue:
//                       the cooperative-scheduler fix (a job's nested
//                       parallel_for fans out across the pool instead of
//                       running inline-serial on its worker) vs the PR 4
//                       serial-async behaviour, vs the synchronous
//                       serial/parallel engine runs (all four reports
//                       bit-identical).                               (PR 5)
//   priority_latency  — interactive-job completion latency under a
//                       saturating batch backlog on a single worker:
//                       priority scheduling vs FIFO submission order.
//                                                                     (PR 5)
//   fault_success_vs_rate — extraction success fronts under injected
//                       transient probe faults at 0-20% per-batch rates,
//                       8 deterministic seeds each, with the retry/backoff
//                       recovery vs retries disabled.                 (PR 6)
//   drift_recovery_raster — a deterministic telegraph charge jump mid-
//                       raster: targeted re-acquisition cost vs a full
//                       re-scan, recovered grid bit-identical to clean.
//                                                                     (PR 6)
//   retry_overhead_zero_fault — the fault-tolerant probe path (zero-fault
//                       injector + retry wrapper + recorder) vs the checked
//                       and plain acquisitions: what recovery plumbing
//                       costs when nothing ever fails.                (PR 6)
//   kernel_sweep      — per-kernel before/after for the SIMD + cache-blocking
//                       pass, all single-threaded: correlate / separable /
//                       sobel (reference vs SIMD, bit-identical except the
//                       documented sobel-magnitude ULP bound, which is
//                       recorded), canny at 100 and 200 px (atan2+hypot
//                       reference pipeline vs ladder+SIMD), hough
//                       accumulation timing, and 5-7 dot solver bound
//                       batches. Each scenario carries *_identical (or
//                       max-ULP) fields so the snapshot itself proves the
//                       fast paths are pinned.                        (PR 7)
//   server_submit_latency_1tenant
//                     — wire API end-to-end over real loopback sockets:
//                       submit -> job-id, submit -> first SSE progress
//                       event, submit -> final report (p50/p95 us), one
//                       64px fast job at a time on the default pool. (PR 8)
//   server_fairness_3tenants_weighted
//                     — deficit-weighted fairness under saturation:
//                       tenants with weights 3/2/1, equal open-loop
//                       backlogs on a single-worker pool; dispatch shares
//                       sampled while all tenants are backlogged, plus
//                       the max relative share error vs the configured
//                       weights and the drain throughput.            (PR 8)
//   server_load_shedding
//                     — admission control past a tenant's max_pending
//                       bound: accepted vs shed (HTTP 503 / kOverloaded)
//                       counts and the p50 shed-response latency (a shed
//                       must cost no probes and ~no time).           (PR 8)
//
// The top-level "metadata" object records the CPU model, compiler, SIMD
// configuration and build flags, so snapshot numbers are attributable when
// the sweep is re-run on different hardware.
//
// Extraction scenarios run through the ExtractionEngine façade (PR 3); the
// micro solver/imgproc scenarios have no extraction to route.
//
// Every scenario records the effective thread count (set QVG_THREADS=N to
// re-measure on multi-core hardware in one variable).
//
// Usage: bench_json [output.json] [filter]
//   (default output: BENCH_PR10.json in the CWD; `filter` is an optional
//   substring matched against scenario-family names — only matching families
//   run, e.g. `bench_json out.json solver_frontier`. An unknown filter runs
//   nothing and lists the family names.)
#include "common/simd.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "dataset/qflow_synth.hpp"
#include "device/dot_array.hpp"
#include "imgproc/canny.hpp"
#include "imgproc/convolve.hpp"
#include "imgproc/filters.hpp"
#include "imgproc/hough.hpp"
#include "imgproc/kernel.hpp"
#include "imgproc/sobel.hpp"
#include "probe/fault_injection.hpp"
#include "probe/playback.hpp"
#include "probe/probe_cache.hpp"
#include "probe/raster.hpp"
#include "server/extraction_server.hpp"
#include "server/http_client.hpp"
#include "service/job_queue.hpp"
#include "wire/json.hpp"
#include "wire/messages.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
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
    out << "{\n  \"bench\": \"PR10\",\n  \"metadata\": {\n"
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

void bench_imgproc(JsonWriter& json) {
  const GridD image = make_test_image(200);
  set_parallelism_enabled(false);
  const double blur_serial = time_best(3, [&] { (void)gaussian_blur(image, 1.4); });
  const double canny_serial = time_best(3, [&] { (void)canny(image); });
  const GridU8 edges = canny(image);
  const double hough_serial = time_best(3, [&] { (void)hough_lines(edges); });
  set_parallelism_enabled(true);
  const double blur_parallel = time_best(3, [&] { (void)gaussian_blur(image, 1.4); });
  const double canny_parallel = time_best(3, [&] { (void)canny(image); });
  const double hough_parallel = time_best(3, [&] { (void)hough_lines(edges); });

  json.begin_scenario("micro_imgproc_200px");
  json.field("gaussian_blur_serial_ms", blur_serial * 1e3);
  json.field("gaussian_blur_parallel_ms", blur_parallel * 1e3);
  json.field("canny_serial_ms", canny_serial * 1e3);
  json.field("canny_parallel_ms", canny_parallel * 1e3);
  json.field("hough_serial_ms", hough_serial * 1e3);
  json.field("hough_parallel_ms", hough_parallel * 1e3);
  json.end_scenario();
}

void bench_extraction(JsonWriter& json) {
  const BuiltDevice device = build_dot_array(DotArrayParams{});
  const VoltageAxis axis = scan_axis(device, 100);

  // PR 3: both Table-1 scenarios are served by the ExtractionEngine (results
  // are equivalence-tested bit-identical to the direct entry points).
  ExtractionEngine engine;
  ExtractionRequest request;
  request.device.device = &device;
  request.device.pixels_per_axis = 100;

  {
    request.method = ExtractionMethod::kFast;
    const ExtractionReport fast = engine.run(request);
    json.begin_scenario("table1_fast_extraction_100px");
    json.field("success", fast.status.ok());
    json.field("unique_probes", fast.stats.unique_probes);
    json.field("total_requests", fast.stats.total_requests);
    json.field("probe_fraction",
               static_cast<double>(fast.stats.unique_probes) /
                   static_cast<double>(axis.count() * axis.count()));
    json.field("compute_seconds", fast.stats.compute_seconds);
    json.field("simulated_seconds", fast.stats.simulated_seconds);
    json.field("wall_seconds", fast.wall_seconds);
    json.end_scenario();
  }
  {
    request.method = ExtractionMethod::kHoughBaseline;
    const ExtractionReport base = engine.run(request);
    json.begin_scenario("table1_hough_baseline_100px");
    json.field("success", base.status.ok());
    json.field("unique_probes", base.stats.unique_probes);
    json.field("compute_seconds", base.stats.compute_seconds);
    json.field("simulated_seconds", base.stats.simulated_seconds);
    json.field("wall_seconds", base.wall_seconds);
    json.end_scenario();
  }
  {
    // ProbeCache behaviour on a dense double raster: the second pass is
    // entirely cache hits.
    DeviceSimulator sim = make_pair_simulator(device);
    ProbeCache cache(sim, axis.step());
    cache.reserve(axis.count() * axis.count());
    (void)acquire_full_csd(cache, axis, axis);
    (void)acquire_full_csd(cache, axis, axis);
    json.begin_scenario("probe_cache_double_raster_100px");
    json.field("requests", cache.probe_count());
    json.field("unique_probes", cache.unique_probe_count());
    json.field("cache_hit_rate", cache.cache_hit_rate());
    json.end_scenario();
  }
}

void bench_scaling(JsonWriter& json) {
  DotArrayParams params;
  params.n_dots = 3;
  const BuiltDevice device = build_dot_array(params);
  const ExtractionEngine engine;

  ArrayExtractionOptions fast_opt;
  fast_opt.pixels_per_axis = 100;
  Stopwatch wf;
  const auto fast = engine.run_array(device, fast_opt);
  const double fast_wall = wf.elapsed_seconds();

  ArrayExtractionOptions base_opt = fast_opt;
  base_opt.method = ExtractionMethod::kHoughBaseline;
  Stopwatch wb;
  const auto base = engine.run_array(device, base_opt);
  const double base_wall = wb.elapsed_seconds();

  json.begin_scenario("scaling_array_3dot");
  json.field("fast_success", fast.status.ok());
  json.field("fast_unique_probes", fast.total_stats.unique_probes);
  json.field("fast_total_seconds", fast.total_stats.total_seconds());
  json.field("fast_wall_seconds", fast_wall);
  json.field("baseline_success", base.status.ok());
  json.field("baseline_unique_probes", base.total_stats.unique_probes);
  json.field("baseline_total_seconds", base.total_stats.total_seconds());
  json.field("baseline_wall_seconds", base_wall);
  json.field("probe_ratio",
             static_cast<double>(fast.total_stats.unique_probes) /
                 static_cast<double>(base.total_stats.unique_probes));
  json.end_scenario();
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

// PR 2: the paper's n-1 sequential pair extractions fanned out over the
// pool, 3-8 dots. Serial vs parallel must be bit-identical; the baseline
// comparison (full rasters per pair) runs at <= 5 dots where its cost stays
// reasonable on one core.
void bench_array_scaling(JsonWriter& json) {
  for (std::size_t n_dots : {3u, 4u, 5u, 6u, 7u, 8u}) {
    DotArrayParams params;
    params.n_dots = n_dots;
    const BuiltDevice device = build_dot_array(params);

    ArrayExtractionOptions serial_opt;
    serial_opt.pixels_per_axis = 64;
    serial_opt.parallel = false;
    ArrayExtractionOptions parallel_opt = serial_opt;
    parallel_opt.parallel = true;

    const ExtractionEngine engine;
    ArrayExtractionResult serial_result, parallel_result;
    const double serial_s = time_best(2, [&] {
      serial_result = engine.run_array(device, serial_opt);
    });
    const double parallel_s = time_best(2, [&] {
      parallel_result = engine.run_array(device, parallel_opt);
    });

    json.begin_scenario("array_scaling_" + std::to_string(n_dots) + "dot");
    json.field("pairs", static_cast<long>(n_dots - 1));
    json.field("fast_success", serial_result.status.ok());
    json.field("fast_unique_probes", serial_result.total_stats.unique_probes);
    json.field("fast_serial_seconds", serial_s);
    json.field("fast_parallel_seconds", parallel_s);
    json.field("fast_parallel_speedup", serial_s / parallel_s);
    json.field("serial_parallel_identical",
               array_results_identical(serial_result, parallel_result));
    if (n_dots <= 5) {
      ArrayExtractionOptions base_opt = parallel_opt;
      base_opt.method = ExtractionMethod::kHoughBaseline;
      ArrayExtractionResult base_result;
      const double base_s = time_best(2, [&] {
        base_result = engine.run_array(device, base_opt);
      });
      json.field("baseline_success", base_result.status.ok());
      json.field("baseline_unique_probes",
                 base_result.total_stats.unique_probes);
      json.field("baseline_seconds", base_s);
      json.field("probe_ratio",
                 static_cast<double>(serial_result.total_stats.unique_probes) /
                     static_cast<double>(base_result.total_stats.unique_probes));
    }
    json.end_scenario();
  }
}

// PR 3: full-CSD acquisition through the batched get_currents probe path vs
// the pre-redesign scalar per-pixel loop, on both backends. The simulator
// case shows the interface-level win (parallel physics behind the same
// CurrentSource API); playback shows the amortized-dispatch floor.
void bench_probe_path(JsonWriter& json) {
  const BuiltDevice device = build_dot_array(DotArrayParams{});
  const VoltageAxis axis = scan_axis(device, 100);

  // The scalar reference: what acquire_full_csd did before the batched
  // interface (per-pixel virtual get_current calls).
  auto acquire_scalar = [&](CurrentSource& source) {
    Csd csd(axis, axis);
    for (std::size_t y = 0; y < axis.count(); ++y) {
      const double vy = axis.voltage(static_cast<double>(y));
      for (std::size_t x = 0; x < axis.count(); ++x)
        csd.grid()(x, y) =
            source.get_current(axis.voltage(static_cast<double>(x)), vy);
    }
    return csd;
  };

  {
    Csd scalar_csd, batched_csd;
    const double scalar_s = time_best(3, [&] {
      DeviceSimulator sim = make_pair_simulator(device);
      scalar_csd = acquire_scalar(sim);
    });
    const double batched_s = time_best(3, [&] {
      DeviceSimulator sim = make_pair_simulator(device);
      batched_csd = acquire_full_csd(sim, axis, axis);
    });
    json.begin_scenario("probe_path_simulator_100px");
    json.field("pixels", static_cast<long>(axis.count() * axis.count()));
    json.field("scalar_seconds", scalar_s);
    json.field("batched_seconds", batched_s);
    json.field("batched_speedup", scalar_s / batched_s);
    json.field("results_identical", scalar_csd.grid() == batched_csd.grid());
    json.end_scenario();
  }
  {
    DeviceSimulator sim = make_pair_simulator(device);
    const Csd recorded = sim.generate_csd(axis, axis, "probe_path");
    Csd scalar_csd, batched_csd;
    const double scalar_s = time_best(3, [&] {
      CsdPlayback playback(recorded);
      scalar_csd = acquire_scalar(playback);
    });
    const double batched_s = time_best(3, [&] {
      CsdPlayback playback(recorded);
      batched_csd = acquire_full_csd(playback, axis, axis);
    });
    json.begin_scenario("probe_path_playback_100px");
    json.field("pixels", static_cast<long>(axis.count() * axis.count()));
    json.field("scalar_seconds", scalar_s);
    json.field("batched_seconds", batched_s);
    json.field("batched_speedup", scalar_s / batched_s);
    json.field("results_identical", scalar_csd.grid() == batched_csd.grid());
    json.end_scenario();
  }
}

// PR 3: what the ExtractionEngine façade costs over calling the extraction
// entry points directly (request validation + backend construction +
// report assembly), and what batch submission buys.
void bench_engine_overhead(JsonWriter& json) {
  const BuiltDevice device = build_dot_array(DotArrayParams{});
  const VoltageAxis axis = scan_axis(device, 64);

  const double direct_s = time_best(5, [&] {
    DeviceSimulator sim = make_pair_simulator(device);
    (void)run_fast_extraction(sim, axis, axis);
  });

  ExtractionEngine engine;
  ExtractionRequest request;
  request.device.device = &device;
  request.device.pixels_per_axis = 64;
  const double engine_s = time_best(5, [&] { (void)engine.run(request); });

  // Batch of one request per nearest-neighbour method/seed combination.
  std::vector<ExtractionRequest> batch;
  for (std::uint64_t seed = 42; seed < 46; ++seed) {
    ExtractionRequest r = request;
    r.device.noise_seed = seed;
    batch.push_back(r);
  }
  const ExtractionEngine serial_engine(EngineOptions{.parallel_batch = false});
  const double batch_serial_s =
      time_best(3, [&] { (void)serial_engine.run_batch(batch); });
  const ExtractionEngine parallel_engine(EngineOptions{.parallel_batch = true});
  const double batch_parallel_s =
      time_best(3, [&] { (void)parallel_engine.run_batch(batch); });

  json.begin_scenario("engine_overhead_fast_64px");
  json.field("direct_seconds", direct_s);
  json.field("engine_seconds", engine_s);
  json.field("overhead_seconds", engine_s - direct_s);
  json.field("overhead_fraction", engine_s / direct_s - 1.0);
  json.field("batch_requests", static_cast<long>(batch.size()));
  json.field("batch_serial_seconds", batch_serial_s);
  json.field("batch_parallel_seconds", batch_parallel_s);
  json.field("batch_parallel_speedup", batch_serial_s / batch_parallel_s);
  json.end_scenario();
}

// PR 4: what the cancellation machinery costs when nothing interrupts. A
// limited AcquisitionContext turns the single-batch 100x100 acquisition into
// row batches with one check (atomic load + steady_clock read) per row; the
// results must stay bit-identical and the overhead on the simulator's
// physics-dominated probe path is expected <= 2%. The playback variant shows
// the worst case (amortized-dispatch floor: lookup-dominated, so fixed
// per-row costs weigh the most).
void bench_cancellation_overhead(JsonWriter& json) {
  const BuiltDevice device = build_dot_array(DotArrayParams{});
  const VoltageAxis axis = scan_axis(device, 100);

  AcquisitionContext context;
  context.cancel = CancelToken::make();  // limited, but never fires

  {
    Csd plain_csd, checked_csd;
    const double plain_s = time_best(7, [&] {
      DeviceSimulator sim = make_pair_simulator(device);
      plain_csd = acquire_full_csd(sim, axis, axis);
    });
    const double checked_s = time_best(7, [&] {
      DeviceSimulator sim = make_pair_simulator(device);
      checked_csd = *acquire_full_csd(sim, axis, axis, context);
    });
    json.begin_scenario("cancellation_check_overhead_100px");
    json.field("pixels", static_cast<long>(axis.count() * axis.count()));
    json.field("plain_seconds", plain_s);
    json.field("checked_seconds", checked_s);
    json.field("overhead_fraction", checked_s / plain_s - 1.0);
    json.field("results_identical", plain_csd.grid() == checked_csd.grid());
    json.end_scenario();
  }
  {
    DeviceSimulator sim = make_pair_simulator(device);
    const Csd recorded = sim.generate_csd(axis, axis, "cancel_overhead");
    Csd plain_csd, checked_csd;
    const double plain_s = time_best(7, [&] {
      CsdPlayback playback(recorded);
      plain_csd = acquire_full_csd(playback, axis, axis);
    });
    const double checked_s = time_best(7, [&] {
      CsdPlayback playback(recorded);
      checked_csd = *acquire_full_csd(playback, axis, axis, context);
    });
    json.begin_scenario("cancellation_check_overhead_playback_100px");
    json.field("pixels", static_cast<long>(axis.count() * axis.count()));
    json.field("plain_seconds", plain_s);
    json.field("checked_seconds", checked_s);
    json.field("overhead_fraction", checked_s / plain_s - 1.0);
    json.field("results_identical", plain_csd.grid() == checked_csd.grid());
    json.end_scenario();
  }
}

// PR 4: async JobQueue throughput. N self-contained fast-extraction jobs
// drained through queues pinned to 1 and 4 workers vs a serial engine.run
// loop; uncancelled async reports must be bit-identical to the synchronous
// ones regardless of drain order.
void bench_async_queue(JsonWriter& json) {
  const BuiltDevice device = build_dot_array(DotArrayParams{});

  constexpr int kJobs = 8;
  std::vector<ExtractionRequest> requests;
  for (int i = 0; i < kJobs; ++i) {
    ExtractionRequest request;
    request.device.device = &device;
    request.device.pixels_per_axis = 64;
    request.device.noise_seed = 42 + static_cast<std::uint64_t>(i);
    request.device.white_noise_sigma = 0.02;
    request.label = "throughput-" + std::to_string(i);
    requests.push_back(std::move(request));
  }

  const ExtractionEngine engine;
  std::vector<ExtractionReport> serial(requests.size());
  const double serial_s = time_best(3, [&] {
    for (std::size_t i = 0; i < requests.size(); ++i)
      serial[i] = engine.run(requests[i]);
  });

  auto reports_identical = [&](const std::vector<ExtractionReport>& async) {
    for (std::size_t i = 0; i < serial.size(); ++i) {
      if (async[i].status != serial[i].status ||
          async[i].virtual_gates.alpha12 != serial[i].virtual_gates.alpha12 ||
          async[i].virtual_gates.alpha21 != serial[i].virtual_gates.alpha21 ||
          async[i].stats.unique_probes != serial[i].stats.unique_probes ||
          async[i].stats.simulated_seconds != serial[i].stats.simulated_seconds)
        return false;
    }
    return true;
  };

  bool identical = true;
  auto drain_with_pool = [&](ThreadPool& pool) {
    JobQueue queue(EngineOptions{}, &pool);
    std::vector<JobHandle> handles;
    handles.reserve(requests.size());
    for (const auto& request : requests) handles.push_back(queue.submit(request));
    std::vector<ExtractionReport> reports;
    reports.reserve(handles.size());
    for (const auto& handle : handles) reports.push_back(handle.wait());
    identical = identical && reports_identical(reports);
  };
  // Dedicated pools pin the concurrency independently of QVG_THREADS; they
  // live outside the timed region so the scenario measures submit+drain
  // throughput, not thread spawn/join.
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const double queue1_s = time_best(3, [&] { drain_with_pool(pool1); });
  const double queue4_s = time_best(3, [&] { drain_with_pool(pool4); });

  json.begin_scenario("async_queue_throughput_8jobs_64px");
  json.field("jobs", static_cast<long>(kJobs));
  json.field("serial_seconds", serial_s);
  json.field("queue_1worker_seconds", queue1_s);
  json.field("queue_4worker_seconds", queue4_s);
  json.field("queue_4worker_speedup", serial_s / queue4_s);
  json.field("reports_identical", identical);
  json.end_scenario();
}

// PR 5: the serial-async fix, measured end to end. ONE raster-dominated
// Hough job through the JobQueue: before the cooperative scheduler, the
// worker that picked the job up carried t_parallel_depth = 1, so the job's
// 100x100 raster ran inline-serial no matter how many workers the pool had —
// async jobs silently lost all the PR 1 intra-job parallelism that a
// synchronous engine.run enjoys. Now the job's nested parallel_for
// participates in the pool: one async job on a multi-worker pool approaches
// the synchronous *parallel* raster time, not the serial time. The PR 4
// behaviour is reproduced with the parallelism kill switch (which is exactly
// what the forced depth guard amounted to). All four reports must be
// bit-identical (the raster schedule never changes results). Run with
// QVG_THREADS=4 to see the fan-out on multi-core hardware; every variant
// records the effective thread count.
void bench_async_parallel_raster(JsonWriter& json) {
  const BuiltDevice device = build_dot_array(DotArrayParams{});

  ExtractionRequest request;
  request.method = ExtractionMethod::kHoughBaseline;  // full-raster dominated
  request.device.device = &device;
  request.device.pixels_per_axis = 100;
  request.label = "async-raster";

  const ExtractionEngine engine;
  ExtractionReport sync_serial, sync_parallel, async_serial, async_parallel;

  set_parallelism_enabled(false);
  const double sync_serial_s =
      time_best(3, [&] { sync_serial = engine.run(request); });
  set_parallelism_enabled(true);
  const double sync_parallel_s =
      time_best(3, [&] { sync_parallel = engine.run(request); });

  // PR 4 baseline: one queue worker, nested loops forced inline-serial.
  ThreadPool pool1(1);
  set_parallelism_enabled(false);
  const double async_serial_s = time_best(3, [&] {
    JobQueue queue(EngineOptions{}, &pool1);
    async_serial = queue.submit(request).wait();
  });
  set_parallelism_enabled(true);
  // The fix: the job runs on the global pool and its raster rows fan out
  // across that same pool's idle workers.
  const double async_parallel_s = time_best(3, [&] {
    JobQueue queue;
    async_parallel = queue.submit(request).wait();
  });

  auto identical = [&](const ExtractionReport& a, const ExtractionReport& b) {
    return a.status == b.status &&
           a.virtual_gates.alpha12 == b.virtual_gates.alpha12 &&
           a.virtual_gates.alpha21 == b.virtual_gates.alpha21 &&
           a.stats.unique_probes == b.stats.unique_probes &&
           a.stats.simulated_seconds == b.stats.simulated_seconds &&
           a.hough.acquired.grid() == b.hough.acquired.grid();
  };

  json.begin_scenario("async_parallel_raster_1job_100px");
  json.field("pixels", 100L * 100L);
  json.field("sync_serial_seconds", sync_serial_s);
  json.field("sync_parallel_seconds", sync_parallel_s);
  json.field("async_serial_1worker_seconds", async_serial_s);
  json.field("async_parallel_seconds", async_parallel_s);
  json.field("async_speedup_vs_serial_async", async_serial_s / async_parallel_s);
  json.field("async_over_sync_parallel", async_parallel_s / sync_parallel_s);
  json.field("reports_identical", identical(sync_serial, sync_parallel) &&
                                      identical(sync_serial, async_serial) &&
                                      identical(sync_serial, async_parallel));
  json.end_scenario();
}

// PR 5: what priority scheduling buys an interactive request stuck behind a
// bulk re-tuning backlog. One queue worker, kJobs batch jobs saturating it;
// the interactive job is submitted last. Under FIFO submission order
// (everything kNormal) it drains the whole backlog first; under priority
// scheduling it runs as soon as the in-flight job finishes. The latency is
// measured from its submission to its completion, and its report stays
// bit-identical to a synchronous run either way.
void bench_priority_latency(JsonWriter& json) {
  const BuiltDevice device = build_dot_array(DotArrayParams{});

  constexpr int kBacklog = 6;
  std::vector<ExtractionRequest> backlog;
  for (int i = 0; i < kBacklog; ++i) {
    ExtractionRequest request;
    request.device.device = &device;
    request.device.pixels_per_axis = 64;
    request.device.noise_seed = 42 + static_cast<std::uint64_t>(i);
    request.label = "backlog-" + std::to_string(i);
    backlog.push_back(std::move(request));
  }
  ExtractionRequest interactive;
  interactive.device.device = &device;
  interactive.device.pixels_per_axis = 64;
  interactive.device.noise_seed = 7;
  interactive.label = "interactive";

  ThreadPool pool1(1);
  ExtractionReport fifo_report, priority_report;
  auto drain_latency = [&](Priority backlog_priority,
                           Priority interactive_priority,
                           ExtractionReport& out) {
    JobQueue queue(EngineOptions{}, &pool1);
    std::vector<JobHandle> handles;
    handles.reserve(backlog.size());
    for (const auto& request : backlog)
      handles.push_back(
          queue.submit(request, SubmitOptions{.priority = backlog_priority}));
    Stopwatch latency;
    JobHandle urgent = queue.submit(
        interactive, SubmitOptions{.priority = interactive_priority});
    out = urgent.wait();
    const double seconds = latency.elapsed_seconds();
    queue.wait_all();
    return seconds;
  };

  // Best-of-3 on the *returned* latency (time_best would also time the
  // backlog drain after the interactive job finished).
  auto best_latency = [&](Priority backlog_priority,
                          Priority interactive_priority,
                          ExtractionReport& out) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < 3; ++r)
      best = std::min(
          best, drain_latency(backlog_priority, interactive_priority, out));
    return best;
  };
  const double fifo_s =
      best_latency(Priority::kNormal, Priority::kNormal, fifo_report);
  const double priority_s = best_latency(Priority::kBatch,
                                         Priority::kInteractive,
                                         priority_report);

  const ExtractionEngine engine;
  const ExtractionReport direct = engine.run(interactive);

  json.begin_scenario("priority_latency_interactive_under_batch");
  json.field("backlog_jobs", static_cast<long>(kBacklog));
  json.field("fifo_latency_seconds", fifo_s);
  json.field("priority_latency_seconds", priority_s);
  json.field("latency_speedup", fifo_s / priority_s);
  json.field("reports_identical",
             fifo_report.status == priority_report.status &&
                 fifo_report.virtual_gates.alpha12 ==
                     priority_report.virtual_gates.alpha12 &&
                 fifo_report.virtual_gates.alpha12 ==
                     direct.virtual_gates.alpha12 &&
                 fifo_report.stats.unique_probes ==
                     priority_report.stats.unique_probes &&
                 fifo_report.stats.unique_probes == direct.stats.unique_probes);
  json.end_scenario();
}

// PR 6: extraction success under injected transient probe faults. For each
// per-batch fault rate, the same 8 deterministic fault seeds run once with
// the retry/backoff recovery (default policy, 4 attempts) and once with
// retries disabled (max_attempts = 1: the first transient escalates to a
// hard fault). The front pins what recovery is worth: without retries the
// success fraction collapses as the rate grows; with them the extraction
// absorbs the weather at a bounded backoff cost.
void bench_fault_success_vs_rate(JsonWriter& json) {
  const BuiltDevice device = build_dot_array(DotArrayParams{});
  const VoltageAxis axis = scan_axis(device, 100);
  DeviceSimulator sim = make_pair_simulator(device);
  const Csd recorded = sim.generate_csd(axis, axis, "fault_front");

  const ExtractionEngine engine;
  constexpr int kSeeds = 8;
  constexpr std::uint64_t kFirstSeed = 100;  // seeds 100..107, recorded below
  for (const int rate_pct : {0, 5, 10, 20}) {
    int ok_with_retry = 0, ok_without_retry = 0;
    long transients = 0, retries = 0;
    double backoff = 0.0;
    double seconds = 0.0;
    for (int s = 0; s < kSeeds; ++s) {
      ExtractionRequest request;
      request.playback.csd = &recorded;
      request.faults.transient_rate = rate_pct / 100.0;
      request.faults.seed = kFirstSeed + static_cast<std::uint64_t>(s);
      Stopwatch w;
      const ExtractionReport with_retry = engine.run(request);
      seconds += w.elapsed_seconds();
      if (with_retry.status.ok()) ++ok_with_retry;
      transients += with_retry.fault_stats.transient_faults;
      retries += with_retry.fault_stats.retries;
      backoff += with_retry.fault_stats.backoff_seconds;

      ExtractionRequest no_retry = request;
      no_retry.retry.max_attempts = 1;
      if (engine.run(no_retry).status.ok()) ++ok_without_retry;
    }
    json.begin_scenario("fault_success_vs_transient_rate_" +
                        std::to_string(rate_pct) + "pct");
    json.field("seeds", static_cast<long>(kSeeds));
    json.field("first_seed", static_cast<long>(kFirstSeed));
    json.field("transient_rate", rate_pct / 100.0);
    json.field("success_with_retry",
               static_cast<double>(ok_with_retry) / kSeeds);
    json.field("success_without_retry",
               static_cast<double>(ok_without_retry) / kSeeds);
    json.field("transients_per_run",
               static_cast<double>(transients) / kSeeds);
    json.field("retries_per_run", static_cast<double>(retries) / kSeeds);
    json.field("backoff_sim_seconds_per_run", backoff / kSeeds);
    json.field("retry_wall_seconds_per_run", seconds / kSeeds);
    json.end_scenario();
  }
}

// PR 6: drift recovery cost. A deterministic telegraph charge jump lands
// after raster batch 8 on a noise-free 100x100 playback; the monitor reports
// one batch later and the raster re-probes only the stale row batch. The
// recovered grid must equal the clean acquisition bit for bit, at a probe
// cost far below the 2x of re-scanning the whole diagram.
void bench_drift_recovery(JsonWriter& json) {
  const BuiltDevice device = build_dot_array(DotArrayParams{});
  const VoltageAxis axis = scan_axis(device, 100);
  DeviceSimulator sim = make_pair_simulator(device);
  const Csd recorded = sim.generate_csd(axis, axis, "drift_recovery");

  CsdPlayback plain_playback(recorded);
  const Csd clean = acquire_full_csd(plain_playback, axis, axis);

  CsdPlayback playback(recorded);
  FaultSchedule schedule;
  schedule.jump_at_batch = 8;
  schedule.jump_magnitude_volts = 3.0 * axis.step();  // 3 px honeycomb shift
  FaultInjectingCurrentSource injected(playback, schedule);
  AcquisitionContext context;
  context.faults = FaultRecorder::make();
  Stopwatch w;
  const Result<Csd> recovered = acquire_full_csd(injected, axis, axis, context);
  const double wall_s = w.elapsed_seconds();

  const long pixels = static_cast<long>(axis.count() * axis.count());
  const FaultStats stats = context.faults.snapshot();
  json.begin_scenario("drift_recovery_raster_100px");
  json.field("pixels", pixels);
  json.field("jump_at_batch", schedule.jump_at_batch);
  json.field("success", recovered.ok());
  json.field("drift_events", stats.drift_events);
  json.field("reacquired_rows", stats.reacquired_rows);
  json.field("rows_total", static_cast<long>(axis.count()));
  json.field("probes_issued", playback.probe_count());
  json.field("full_reacquisition_probes", 2 * pixels);
  json.field("recovery_probe_overhead_fraction",
             static_cast<double>(playback.probe_count() - pixels) /
                 static_cast<double>(pixels));
  json.field("identical_to_clean",
             recovered.ok() && recovered->grid() == clean.grid());
  json.field("wall_seconds", wall_s);
  json.end_scenario();
}

// PR 6: what the fault-recovery plumbing costs when nothing ever fails. The
// full fault path (zero-fault injector + armed recorder + probe_with_retry
// around every row batch) vs the PR 4 checked path vs the plain single-batch
// acquisition, on the simulator's physics-dominated raster. All three grids
// must be bit-identical and the try path is expected within ~2% of checked.
void bench_retry_overhead_zero_fault(JsonWriter& json) {
  const BuiltDevice device = build_dot_array(DotArrayParams{});
  const VoltageAxis axis = scan_axis(device, 100);

  Csd plain_csd, checked_csd, fault_path_csd;
  const double plain_s = time_best(7, [&] {
    DeviceSimulator sim = make_pair_simulator(device);
    plain_csd = acquire_full_csd(sim, axis, axis);
  });
  AcquisitionContext checked_context;
  checked_context.cancel = CancelToken::make();  // limited, never fires
  const double checked_s = time_best(7, [&] {
    DeviceSimulator sim = make_pair_simulator(device);
    checked_csd = *acquire_full_csd(sim, axis, axis, checked_context);
  });
  FaultStats stats;
  const double fault_path_s = time_best(7, [&] {
    DeviceSimulator sim = make_pair_simulator(device);
    FaultInjectingCurrentSource injected(sim, FaultSchedule{});
    AcquisitionContext context;
    context.faults = FaultRecorder::make();
    fault_path_csd = *acquire_full_csd(injected, axis, axis, context);
    stats = context.faults.snapshot();
  });

  json.begin_scenario("retry_overhead_zero_fault_100px");
  json.field("pixels", static_cast<long>(axis.count() * axis.count()));
  json.field("plain_seconds", plain_s);
  json.field("checked_seconds", checked_s);
  json.field("fault_path_seconds", fault_path_s);
  json.field("fault_path_over_plain_fraction", fault_path_s / plain_s - 1.0);
  json.field("fault_path_over_checked_fraction",
             fault_path_s / checked_s - 1.0);
  json.field("faults_absorbed", stats.transient_faults + stats.drift_events);
  json.field("results_identical", plain_csd.grid() == checked_csd.grid() &&
                                      plain_csd.grid() == fault_path_csd.grid());
  json.end_scenario();
}

// PR 2: the 12-diagram qflow suite built serially vs fanned out over the
// pool (each diagram is deterministic given its spec).
void bench_suite_generation(JsonWriter& json) {
  std::vector<QflowBenchmark> serial_suite, parallel_suite;
  const double serial_s =
      time_best(2, [&] { serial_suite = build_qflow_suite(false); });
  const double parallel_s =
      time_best(2, [&] { parallel_suite = build_qflow_suite(true); });

  long pixels = 0;
  for (const auto& benchmark : serial_suite)
    pixels += static_cast<long>(benchmark.csd.width() *
                                benchmark.csd.height());
  bool identical = serial_suite.size() == parallel_suite.size();
  for (std::size_t i = 0; identical && i < serial_suite.size(); ++i)
    identical = serial_suite[i].csd.grid() == parallel_suite[i].csd.grid();

  json.begin_scenario("suite_generation_12csd");
  json.field("diagrams", static_cast<long>(serial_suite.size()));
  json.field("pixels", pixels);
  json.field("serial_seconds", serial_s);
  json.field("parallel_seconds", parallel_s);
  json.field("parallel_speedup", serial_s / parallel_s);
  json.field("serial_parallel_identical", identical);
  json.end_scenario();
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
// closes (serial-vs-parallel equivalence is pinned by the older scenarios).
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

// --- PR 8: wire API served over real loopback sockets ---------------------

using BenchClock = std::chrono::steady_clock;

double us_since(BenchClock::time_point t0) {
  return std::chrono::duration<double, std::micro>(BenchClock::now() - t0)
      .count();
}

/// The standard small served job: 64px fast extraction on a jittered
/// double dot — sub-millisecond of engine work so serving overhead shows.
wire::WireRequest served_request(const std::string& label) {
  wire::WireRequest r;
  r.method = ExtractionMethod::kFast;
  r.backend = wire::WireBackendKind::kDevice;
  r.device.params.n_dots = 2;
  r.device.params.cross_ratio = 0.25;
  r.device.params.jitter = 0.05;
  r.device.has_jitter = true;
  r.device.jitter_seed = 7;
  r.device.noise_seed = 123;
  r.device.pixels_per_axis = 64;
  r.device.white_noise_sigma = 0.02;
  r.label = label;
  return r;
}

/// POST a wire request; returns the HTTP status, job id via out-param.
int served_submit(std::uint16_t port, const wire::WireRequest& request,
                  const std::string& query, std::size_t* job_id) {
  const std::vector<std::uint8_t> bytes = wire::encode(request);
  Result<server::ClientResponse> response = server::http_call(
      port, "POST", "/v1/jobs" + query,
      {reinterpret_cast<const char*>(bytes.data()), bytes.size()});
  if (!response.ok()) return -1;
  if (response.value().status == 200 && job_id != nullptr) {
    Result<wire::JsonValue> doc =
        wire::parse_json(response.value().body);
    if (doc.ok())
      if (const wire::JsonValue* job = doc.value().find("job"))
        *job_id = static_cast<std::size_t>(job->as_u64());
  }
  return response.value().status;
}

double bench_percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - double(lo));
}

void bench_server_submit_latency(JsonWriter& json) {
  server::ExtractionServer srv;
  if (!srv.start().ok()) return;
  for (int i = 0; i < 4; ++i) {  // warm the accept path and engine caches
    std::size_t id = 0;
    (void)served_submit(srv.port(), served_request("warmup"), "", &id);
    (void)server::http_call(srv.port(), "GET",
                            "/v1/jobs/" + std::to_string(id) + "?wait=1");
  }

  constexpr int kJobs = 32;
  std::vector<double> submit_us, first_event_us, report_us;
  for (int i = 0; i < kJobs; ++i) {
    const BenchClock::time_point t0 = BenchClock::now();
    std::size_t id = 0;
    if (served_submit(srv.port(), served_request("lat"), "", &id) != 200)
      continue;
    submit_us.push_back(us_since(t0));
    // The event log replays from the start, so subscribing after submit
    // still times the first *produced* event relative to the submit call.
    server::SseClient sse;
    if (sse.connect(srv.port(), "/v1/jobs/" + std::to_string(id) + "/events")
            .ok()) {
      Result<std::optional<std::string>> event = sse.next_event();
      if (event.ok() && event.value().has_value())
        first_event_us.push_back(us_since(t0));
      sse.close();
    }
    Result<server::ClientResponse> report = server::http_call(
        srv.port(), "GET", "/v1/jobs/" + std::to_string(id) + "?wait=1");
    if (report.ok() && report.value().status == 200)
      report_us.push_back(us_since(t0));
  }
  srv.stop();

  json.begin_scenario("server_submit_latency_1tenant");
  json.field("jobs", static_cast<long>(kJobs));
  json.field("pixels_per_axis", 64L);
  json.field("submit_us_p50", bench_percentile(submit_us, 0.5));
  json.field("submit_us_p95", bench_percentile(submit_us, 0.95));
  json.field("first_event_us_p50", bench_percentile(first_event_us, 0.5));
  json.field("first_event_us_p95", bench_percentile(first_event_us, 0.95));
  json.field("report_us_p50", bench_percentile(report_us, 0.5));
  json.field("report_us_p95", bench_percentile(report_us, 0.95));
  json.end_scenario();
}

void bench_server_fairness(JsonWriter& json) {
  // A single-worker pool serialises dispatch so the deficit-weighted order
  // is exactly observable; equal open-loop backlogs keep every tenant
  // saturated until the heaviest (first) one drains.
  ThreadPool pool(1);
  server::ServerOptions options;
  options.pool = &pool;
  server::ExtractionServer srv(options);
  srv.configure_tenant("alpha", {.weight = 3.0});
  srv.configure_tenant("beta", {.weight = 2.0});
  srv.configure_tenant("gamma", {.weight = 1.0});
  if (!srv.start().ok()) return;

  constexpr int kJobsPerTenant = 48;
  const BenchClock::time_point t0 = BenchClock::now();
  for (int i = 0; i < kJobsPerTenant; ++i)
    for (const char* tenant : {"alpha", "beta", "gamma"})
      (void)served_submit(srv.port(), served_request(tenant),
                          std::string("?tenant=") + tenant, nullptr);

  // Sample dispatch shares while all three tenants are still backlogged:
  // alpha (share 1/2) drains first, at ~2*kJobsPerTenant completions —
  // snapshot at half that.
  double share_alpha = 0, share_beta = 0, share_gamma = 0, max_rel_error = 0;
  for (;;) {
    Result<server::ClientResponse> response =
        server::http_call(srv.port(), "GET", "/v1/stats");
    if (!response.ok() || response.value().status != 200) break;
    Result<wire::JsonValue> doc =
        wire::parse_json(response.value().body);
    if (!doc.ok()) break;
    const wire::JsonValue* completed = doc.value().find("completed");
    if (completed != nullptr &&
        completed->as_u64() >= static_cast<std::uint64_t>(kJobsPerTenant)) {
      const wire::JsonValue* tenants = doc.value().find("tenants");
      if (tenants == nullptr) break;
      double dispatched_sum = 0, weight_sum = 0;
      for (const wire::JsonValue& row : tenants->items()) {
        dispatched_sum += double(row.find("dispatched")->as_u64());
        weight_sum += row.find("weight")->as_double();
      }
      for (const wire::JsonValue& row : tenants->items()) {
        const double share =
            double(row.find("dispatched")->as_u64()) / dispatched_sum;
        const double expected = row.find("weight")->as_double() / weight_sum;
        max_rel_error =
            std::max(max_rel_error, std::abs(share - expected) / expected);
        const std::string name = row.find("tenant")->as_string();
        (name == "alpha" ? share_alpha
                         : name == "beta" ? share_beta : share_gamma) = share;
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  srv.queue().wait_all();
  const double total_seconds = us_since(t0) * 1e-6;
  srv.stop();

  json.begin_scenario("server_fairness_3tenants_weighted");
  json.field("jobs_per_tenant", static_cast<long>(kJobsPerTenant));
  json.field("weight_alpha", 3.0);
  json.field("weight_beta", 2.0);
  json.field("weight_gamma", 1.0);
  json.field("share_alpha", share_alpha);
  json.field("share_beta", share_beta);
  json.field("share_gamma", share_gamma);
  json.field("max_share_rel_error", max_rel_error);
  json.field("within_10pct_of_weights", max_rel_error <= 0.10);
  json.field("drained_jobs_per_sec", 3.0 * kJobsPerTenant / total_seconds);
  json.end_scenario();
}

void bench_server_load_shedding(JsonWriter& json) {
  ThreadPool pool(1);
  server::ServerOptions options;
  options.pool = &pool;
  server::ExtractionServer srv(options);
  srv.configure_tenant("burst", {.weight = 1.0, .max_pending = 8});
  if (!srv.start().ok()) return;

  constexpr int kJobs = 100;
  long accepted = 0, shed = 0;
  std::vector<double> shed_us;
  for (int i = 0; i < kJobs; ++i) {
    const BenchClock::time_point t0 = BenchClock::now();
    const int status = served_submit(srv.port(), served_request("burst"),
                                     "?tenant=burst", nullptr);
    if (status == 200) {
      ++accepted;
    } else if (status == 503) {
      ++shed;
      shed_us.push_back(us_since(t0));
    }
  }
  srv.queue().wait_all();
  srv.stop();

  json.begin_scenario("server_load_shedding");
  json.field("jobs_offered", static_cast<long>(kJobs));
  json.field("max_pending", 8L);
  json.field("accepted", accepted);
  json.field("shed_503", shed);
  json.field("shed_response_us_p50", bench_percentile(shed_us, 0.5));
  json.field("shed_response_us_p95", bench_percentile(shed_us, 0.95));
  json.end_scenario();
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

// PR 10: cancellation reaches the driver boundary. A raster rides a
// serialized link whose transfers take ~20 ms each; the cancel fires
// mid-raster and the job must stop within roughly one transfer (plus poll
// jitter), not run the remaining transfers out.
void bench_driver_cancel_latency(JsonWriter& json) {
  const Csd recorded = [] {
    const BuiltDevice device = build_dot_array(DotArrayParams{});
    const VoltageAxis axis = scan_axis(device, 100);
    DeviceSimulator sim = make_pair_simulator(device);
    return sim.generate_csd(axis, axis, "driver_cancel");
  }();
  constexpr double kTransferSeconds = 0.020;  // 500-point batch at 25k pts/s
  constexpr int kReps = 5;

  std::vector<double> cancel_to_stop(kReps);
  bool always_cancelled = true;
  for (int rep = 0; rep < kReps; ++rep) {
    AcquisitionContext context;
    context.cancel = CancelToken::make();
    context.transport.io_depth = 2;
    context.transport.bandwidth = 500.0 / kTransferSeconds;
    context.transport.wall_clock = true;

    std::chrono::steady_clock::time_point cancelled_at;
    std::thread canceller([&, token = context.cancel]() mutable {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      cancelled_at = std::chrono::steady_clock::now();
      token.cancel();
    });
    CsdPlayback playback(recorded);
    const Result<Csd> result = acquire_full_csd(
        playback, recorded.x_axis(), recorded.y_axis(), context);
    const auto stopped_at = std::chrono::steady_clock::now();
    canceller.join();
    always_cancelled &=
        result.status().code() == ErrorCode::kCancelled;
    cancel_to_stop[rep] =
        std::chrono::duration<double>(stopped_at - cancelled_at).count();
  }

  std::sort(cancel_to_stop.begin(), cancel_to_stop.end());
  json.begin_scenario("driver_cancel_latency");
  json.field("transfer_seconds", kTransferSeconds);
  json.field("cancel_to_stop_s_best", cancel_to_stop.front());
  json.field("cancel_to_stop_s_p50", cancel_to_stop[kReps / 2]);
  json.field("cancel_to_stop_s_worst", cancel_to_stop.back());
  json.field("stopped_within_one_transfer",
             cancel_to_stop.back() <= kTransferSeconds * 1.5);
  json.field("always_cancelled", always_cancelled);
  json.end_scenario();
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
    {"imgproc", bench_imgproc},
    {"table1", bench_extraction},
    {"scaling_array", bench_scaling},
    {"array_scaling", bench_array_scaling},
    {"suite_generation", bench_suite_generation},
    {"probe_path", bench_probe_path},
    {"engine_overhead", bench_engine_overhead},
    {"cancellation_overhead", bench_cancellation_overhead},
    {"async_queue", bench_async_queue},
    {"async_parallel_raster", bench_async_parallel_raster},
    {"priority_latency", bench_priority_latency},
    {"fault_success", bench_fault_success_vs_rate},
    {"drift_recovery", bench_drift_recovery},
    {"retry_overhead", bench_retry_overhead_zero_fault},
    {"kernel_sweep", bench_kernel_sweep},
    {"solver_frontier", bench_solver_frontier},
    {"array_sharded", bench_array_sharded},
    {"server_submit_latency", bench_server_submit_latency},
    {"server_fairness", bench_server_fairness},
    {"server_load_shedding", bench_server_load_shedding},
    {"driver_latency_sweep", bench_driver_latency_sweep},
    {"driver_cancel", bench_driver_cancel_latency},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_PR10.json";
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

  JsonWriter json;
  json.out.precision(6);
  json.begin();
  for (const BenchFamily& family : kFamilies) {
    if (std::string(family.name).find(filter) == std::string::npos) continue;
    family.run(json);
  }
  json.end();

  std::ofstream file(out_path);
  if (!file) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  file << json.out.str();
  std::cout << json.out.str();
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
