#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || values[hi] == values[lo]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;  // +inf stays +inf
}

std::optional<double> reportable_quantile(const std::vector<double>& values,
                                          double q) {
  const double beyond = (1.0 - q) * static_cast<double>(values.size());
  if (beyond < 10.0 - 1e-9) return std::nullopt;
  return quantile(values, q);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double host_steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0.0;
  double steal = 0.0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) steal = field;  // 8th: steal
  return cpu == "cpu" ? steal / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void MetricList::add(std::string name, double value, std::string unit) {
  items_.push_back({std::move(name), value, std::move(unit)});
}

std::string MetricList::table() const {
  std::ostringstream out;
  for (const Metric& m : items_) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-40s %16.6g  %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out << line;
  }
  return out.str();
}

std::string MetricList::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(items_[i].name) + ": {\"value\": " +
           json_number(items_[i].value) +
           ", \"unit\": " + json_string(items_[i].unit) + "}";
  }
  return out + "}";
}

std::string MetricList::first_non_finite() const {
  for (const Metric& m : items_)
    if (!std::isfinite(m.value)) return m.name;
  return {};
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

// --- Correctness gate ------------------------------------------------------

namespace {

template <typename Report>
Fingerprint fingerprint_of(const Report& report) {
  Fingerprint f;
  f.code = static_cast<int>(report.status.code());
  f.stage = report.status.stage();
  f.slope_steep_bits = std::bit_cast<std::uint64_t>(report.slope_steep);
  f.slope_shallow_bits = std::bit_cast<std::uint64_t>(report.slope_shallow);
  f.unique_probes = report.stats.unique_probes;
  f.sim_seconds_bits =
      std::bit_cast<std::uint64_t>(report.stats.simulated_seconds);
  f.has_verdict = report.has_verdict;
  f.verdict_success = report.has_verdict && report.verdict.success;
  return f;
}

}  // namespace

Fingerprint Fingerprint::of(const qvg::ExtractionReport& report) {
  return fingerprint_of(report);
}
Fingerprint Fingerprint::of(const qvg::wire::WireReport& report) {
  return fingerprint_of(report);
}

double Fingerprint::sim_seconds() const {
  return std::bit_cast<double>(sim_seconds_bits);
}

std::string Fingerprint::mismatch(const Fingerprint& expected) const {
  if (code != expected.code || stage != expected.stage)
    return "status " + std::to_string(code) + "/" + stage + " != " +
           std::to_string(expected.code) + "/" + expected.stage;
  if (slope_steep_bits != expected.slope_steep_bits ||
      slope_shallow_bits != expected.slope_shallow_bits)
    return "slope bits differ";
  if (unique_probes != expected.unique_probes)
    return "unique probes " + std::to_string(unique_probes) +
           " != " + std::to_string(expected.unique_probes);
  if (sim_seconds_bits != expected.sim_seconds_bits)
    return "sim seconds " + json_number(sim_seconds()) +
           " != " + json_number(expected.sim_seconds());
  if (has_verdict != expected.has_verdict ||
      verdict_success != expected.verdict_success)
    return "verdict differs";
  return {};
}

std::vector<Fingerprint> compute_references(
    const std::vector<qvg::ExtractionRequest>& requests) {
  const qvg::ExtractionEngine engine;
  std::vector<Fingerprint> references;
  references.reserve(requests.size());
  for (const qvg::ExtractionRequest& request : requests)
    references.push_back(Fingerprint::of(engine.run(request)));
  return references;
}

bool gate_self_check(const std::vector<Fingerprint>& references) {
  if (references.empty()) return false;
  Fingerprint corrupted = references.front();
  corrupted.slope_steep_bits ^= 1;  // one ulp: the smallest possible drift
  Tally tally;
  tally.judge(references.front(), corrupted);
  return tally.failed == 1;
}

void Tally::judge(const Fingerprint& got, const Fingerprint& expected) {
  if (const std::string why = got.mismatch(expected); !why.empty())
    return fail(why);
  ++judged;
  if (got.verdict_success) ++successes;
  sim_seconds += got.sim_seconds();
}

void Tally::fail(const std::string& why) {
  ++failed;
  if (first_failure.empty()) first_failure = why;
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  cancelled += other.cancelled;
  judged += other.judged;
  successes += other.successes;
  sim_seconds += other.sim_seconds;
  if (first_failure.empty()) first_failure = other.first_failure;
}

double Tally::error_rate() const {
  return attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
}

double Tally::success_rate() const {
  return judged > 0 ? static_cast<double>(successes) / static_cast<double>(judged) : 0.0;
}

double Tally::sim_s_per_job() const {
  return judged > 0 ? sim_seconds / static_cast<double>(judged) : 0.0;
}

}  // namespace perfbench
