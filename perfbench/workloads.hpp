// The two workloads and what a run of one returns.
//
//   suite_fast    closed loop, 4 clients, JobQueue: the fast method on the
//                 paper's 12-CSD qflow suite replayed through PlaybackBackend
//   served_mixed  open loop over a fixed ladder of offered rates through an
//                 in-process ExtractionServer on loopback
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics (see README.md).
#pragma once

#include "common.hpp"
#include "trace.hpp"

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // span files and the full result document
};

/// Every per-layer metric name with its unit, in report order. A traced
/// run reports all of them; a layer that does not run on the workload
/// reads 0.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetricSpec>& layer_metric_specs();

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::string first_failure;
  /// The metrics of the result line: end-to-end (untraced) or per-layer
  /// (traced).
  MetricList metrics;
  /// Everything else worth reading: per-rate rows, counts, error_rate.
  MetricList details;
  /// Per-layer values by name (traced runs); emitted in spec order.
  std::map<std::string, double> layers;
  /// Human-readable table printed before the metrics: the per-layer self
  /// times (traced runs) or the per-rate rows (served ladder).
  std::string table;
};

[[nodiscard]] RunResult run_suite_fast(const RunOptions& options);
[[nodiscard]] RunResult run_served_mixed(const RunOptions& options);

/// Fold a client tally into the run's attempted / failed / correct.
void record_tally(RunResult& result, const Tally& tally);

/// Fill the extraction, probe, device and imgproc layers from replayed
/// jobs' self times and counters, and print their self-time table.
void add_stage_layers(RunResult& result, const LayerTotals& totals);

/// traced_job_ms, unattributed_ms and trace_overhead_fraction of the
/// traced jobs; prints their self-time table under `title` when not empty.
void add_job_accounting(RunResult& result, const LayerTotals& totals,
                        double untraced_p50_ms, double traced_p50_ms,
                        const std::string& title);

/// Write the span CSV next to the result document; returns its path.
std::string write_spans(const SpanStore& store, const RunOptions& options);

}  // namespace perfbench
