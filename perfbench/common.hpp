// Shared plumbing of the end-to-end benchmark: clocks, seed derivation,
// percentile summaries, process resource probes, the metric list every
// workload fills, and the correctness gate that compares each timed job
// against a serial ExtractionEngine::run reference.
#pragma once

#include "service/extraction_engine.hpp"
#include "wire/messages.hpp"

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return 1e3 * seconds_between(a, b);
}

/// splitmix64 of (seed, salt): independent, reproducible sub-seeds.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// The q-quantile, but only when at least 10 samples lie beyond it (the
/// reporting rule for tail percentiles); nullopt otherwise.
[[nodiscard]] std::optional<double> reportable_quantile(
    const std::vector<double>& values, double q);

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Peak resident set of this process, MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();
/// CPU time the hypervisor gave to other guests, summed over all CPUs
/// (/proc/stat steal), seconds; 0 where unavailable.
[[nodiscard]] double host_steal_seconds();
/// User + system CPU seconds consumed by this process so far.
[[nodiscard]] double process_cpu_seconds();

/// Ordered (name, value, unit) list: what one run reports.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
class MetricList {
 public:
  void add(std::string name, double value, std::string unit);
  /// One `name value unit` line per metric.
  [[nodiscard]] std::string table() const;
  /// {"name": {"value": v, "unit": "u"}, ...}
  [[nodiscard]] std::string json() const;
  /// The name of the first metric that is NaN or infinite; empty if none.
  [[nodiscard]] std::string first_non_finite() const;

 private:
  std::vector<Metric> items_;
};

/// JSON string literal with escapes.
[[nodiscard]] std::string json_string(const std::string& text);
/// Shortest round-tripping decimal form of a double.
[[nodiscard]] std::string json_number(double value);

// --- Correctness gate ------------------------------------------------------

/// The deterministic content of a report that every timed job must
/// reproduce: status code + stage, slope bits, unique probes, simulated
/// seconds (bits), and the verdict.
struct Fingerprint {
  int code = 0;
  std::string stage;
  std::uint64_t slope_steep_bits = 0;
  std::uint64_t slope_shallow_bits = 0;
  long unique_probes = 0;
  std::uint64_t sim_seconds_bits = 0;
  bool has_verdict = false;
  bool verdict_success = false;

  [[nodiscard]] static Fingerprint of(const qvg::ExtractionReport& report);
  [[nodiscard]] static Fingerprint of(const qvg::wire::WireReport& report);
  [[nodiscard]] double sim_seconds() const;
  /// Empty when equal; otherwise names the first field that differs.
  [[nodiscard]] std::string mismatch(const Fingerprint& expected) const;
};

/// Serial engine.run of each distinct request: the references.
[[nodiscard]] std::vector<Fingerprint> compute_references(
    const std::vector<qvg::ExtractionRequest>& requests);

/// Feeds the gate a deliberately corrupted reference and confirms the
/// mismatch is caught; false means the gate is broken.
[[nodiscard]] bool gate_self_check(const std::vector<Fingerprint>& references);

/// Outcome counts and gate results of one client thread; merged at the end.
/// On correct code no job fails, so any failed job fails the run.
struct Tally {
  long attempted = 0;
  long failed = 0;     // transport/HTTP failure, 503, lost job, mismatch
  long cancelled = 0;  // cancelled on purpose, not judged
  long judged = 0;     // completed and compared against the reference
  long successes = 0;  // judged jobs whose verdict is success
  double sim_seconds = 0.0;  // summed over judged jobs
  std::string first_failure;

  /// Judge one completed report against its reference.
  void judge(const Fingerprint& got, const Fingerprint& expected);
  /// A job that failed: no report to judge, or the wrong one.
  void fail(const std::string& why);
  void merge(const Tally& other);

  [[nodiscard]] double error_rate() const;
  [[nodiscard]] double success_rate() const;
  [[nodiscard]] double sim_s_per_job() const;
};

}  // namespace perfbench
