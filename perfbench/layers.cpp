// Per-layer metric names and the replayed jobs' contribution to them.
#include "workloads.hpp"

#include <cstdio>
#include <sstream>

namespace perfbench {

const std::vector<LayerMetricSpec>& layer_metric_specs() {
  static const std::vector<LayerMetricSpec> specs = {
      {"extraction.anchors_self_ms", "ms"},
      {"extraction.sweeps_self_ms", "ms"},
      {"extraction.postprocess_ms", "ms"},
      {"extraction.fit_ms", "ms"},
      {"extraction.hough_analysis_self_ms", "ms"},
      {"extraction.raw_points", "count"},
      {"extraction.kept_fraction", "fraction"},
      {"probe.requests_per_job", "count"},
      {"probe.unique_probes_per_job", "count"},
      {"probe.cache_hit_rate", "fraction"},
      {"probe.self_ms", "ms"},
      {"probe.playback_ms", "ms"},
      {"probe.retries", "count"},
      {"probe.driver_batches_per_job", "count"},
      {"probe.driver_max_inflight", "count"},
      {"probe.transport_stall_s_per_job", "s"},
      {"device.points_evaluated_per_job", "count"},
      {"device.busy_ms_per_job", "ms"},
      {"device.us_per_point", "us"},
      {"imgproc.canny_ms", "ms"},
      {"imgproc.hough_ms", "ms"},
      {"imgproc.edge_pixels", "count"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.queue_wait_ms_p90", "ms"},
      {"service.run_ms_p50", "ms"},
      {"service.cpu_busy_fraction", "fraction"},
      {"service.jobs_completed", "count"},
      {"service.jobs_rejected", "count"},
      {"service.jobs_cancelled", "count"},
      {"wire.binary.encode_request_us", "us"},
      {"wire.binary.decode_report_us", "us"},
      {"wire.binary.request_bytes", "bytes"},
      {"wire.binary.report_bytes", "bytes"},
      {"wire.json.encode_request_us", "us"},
      {"wire.json.decode_report_us", "us"},
      {"wire.json.request_bytes", "bytes"},
      {"wire.json.report_bytes", "bytes"},
      {"server.submit_rtt_ms_p50", "ms"},
      {"server.submit_rtt_ms_p99", "ms"},
      {"server.overhead_ms_p50", "ms"},
      {"server.http_503", "count"},
      {"server.sse_events_per_job", "count"},
      {"generator_lag_ms_p99", "ms"},
      {"traced_job_ms", "ms"},
      {"unattributed_ms", "ms"},
      {"trace_overhead_fraction", "fraction"},
  };
  return specs;
}

namespace {

double per(double total, long count) {
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

}  // namespace

void record_tally(RunResult& result, const Tally& tally) {
  result.attempted += tally.attempted;
  result.failed += tally.failed;
  if (tally.failed > 0) result.correct = false;
  if (result.first_failure.empty()) result.first_failure = tally.first_failure;
}

namespace {

/// Every span kind's mean self time per job, with its share of the job.
std::string self_time_table(const LayerTotals& t, const std::string& title) {
  std::ostringstream table;
  table << title << ", mean self time per traced job (" << t.jobs << " jobs)\n";
  const double job_ms = per(t.job_ms, t.jobs);
  double sum = 0.0;
  char line[128];
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    const double ms = per(t.self_ms[k], t.jobs);
    if (ms == 0.0) continue;
    sum += ms;
    std::snprintf(line, sizeof line, "  %-28s %10.4f ms  %5.1f%%\n",
                  k == 0 ? "unattributed" : span_name(static_cast<SpanKind>(k)),
                  ms, job_ms > 0.0 ? 100.0 * ms / job_ms : 0.0);
    table << line;
  }
  std::snprintf(line, sizeof line, "  %-28s %10.4f ms  (job %10.4f ms)\n",
                "sum of self times", sum, job_ms);
  table << line;
  return table.str();
}

}  // namespace

void add_stage_layers(RunResult& result, const LayerTotals& t) {
  auto self = [&](SpanKind kind) {
    return per(t.self_ms[static_cast<std::size_t>(kind)], t.jobs);
  };
  const JobCounters& c = t.counters;
  auto& l = result.layers;
  l["extraction.anchors_self_ms"] = self(SpanKind::kAnchors);
  l["extraction.sweeps_self_ms"] = self(SpanKind::kSweeps);
  l["extraction.postprocess_ms"] = self(SpanKind::kPostprocess);
  l["extraction.fit_ms"] = self(SpanKind::kFit);
  l["extraction.hough_analysis_self_ms"] = self(SpanKind::kHoughAnalysis);
  l["extraction.raw_points"] = per(static_cast<double>(c.raw_points), c.fast_jobs);
  l["extraction.kept_fraction"] =
      c.raw_points > 0 ? static_cast<double>(c.kept_points) / static_cast<double>(c.raw_points) : 0.0;
  l["probe.requests_per_job"] = per(static_cast<double>(c.probe_requests), t.jobs);
  l["probe.unique_probes_per_job"] = per(static_cast<double>(c.unique_probes), t.jobs);
  l["probe.cache_hit_rate"] =
      c.probe_requests > 0 ? static_cast<double>(c.cache_hits) / static_cast<double>(c.probe_requests) : 0.0;
  l["probe.self_ms"] = self(SpanKind::kProbeLane) + self(SpanKind::kProbeRaster);
  l["probe.playback_ms"] = self(SpanKind::kPlayback);
  l["probe.retries"] = 0.0;  // replays run fault-free: nothing to retry
  l["device.points_evaluated_per_job"] = per(static_cast<double>(c.device_points), t.jobs);
  l["device.busy_ms_per_job"] = self(SpanKind::kDevice);
  l["device.us_per_point"] =
      c.device_points > 0 ? 1e3 * t.self_ms[static_cast<std::size_t>(SpanKind::kDevice)] /
                                static_cast<double>(c.device_points)
                          : 0.0;
  l["imgproc.canny_ms"] = self(SpanKind::kCanny);
  l["imgproc.hough_ms"] = self(SpanKind::kHough);
  l["imgproc.edge_pixels"] = per(static_cast<double>(c.edge_pixels), c.hough_jobs);
  result.table += self_time_table(t, "replayed jobs");
}

void add_job_accounting(RunResult& result, const LayerTotals& t,
                        double untraced_p50_ms, double traced_p50_ms,
                        const std::string& title) {
  auto& l = result.layers;
  l["traced_job_ms"] = per(t.job_ms, t.jobs);
  l["unattributed_ms"] = per(t.self_ms[static_cast<std::size_t>(SpanKind::kJob)], t.jobs);
  l["trace_overhead_fraction"] =
      untraced_p50_ms > 0.0 ? traced_p50_ms / untraced_p50_ms - 1.0 : 0.0;
  if (!title.empty()) result.table += self_time_table(t, title);
}

std::string write_spans(const SpanStore& store, const RunOptions& options) {
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".csv";
  if (!store.write_csv(path)) return "(not written: " + path + ")";
  return path;
}

}  // namespace perfbench
