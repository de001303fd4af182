// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <suite_fast|served_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints the run metadata, a metric table, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The full
// result document (metadata, metrics, details) and the traced run's span
// file go to --out-dir. Exits 1 when any job fails the correctness gate.
#include "metadata.hpp"
#include "workloads.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <suite_fast|served_mixed> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") options.seconds = std::atof(value.c_str());
    else if (key == "--trace") options.trace = value == "1";
    else if (key == "--out-dir") options.out_dir = value;
    else return usage();
  }
  if (argc % 2 != 1 || options.seconds <= 0.0) return usage();

  RunResult (*run)(const RunOptions&) = nullptr;
  if (options.workload == "suite_fast") run = run_suite_fast;
  else if (options.workload == "served_mixed") run = run_served_mixed;
  else return usage();

  std::filesystem::create_directories(options.out_dir);
  const std::string metadata =
      run_metadata(options.workload, options.seed, options.seconds, options.trace);
  std::printf("metadata: %s\n", metadata.c_str());

  RunResult result;
  const double steal_start = host_steal_seconds();
  const auto run_start = Clock::now();
  try {
    result = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  // Host interference: the share of this machine's CPU time the hypervisor
  // gave to other guests while the run was going on.
  result.details.add("host_steal_fraction",
                     (host_steal_seconds() - steal_start) /
                         (seconds_between(run_start, Clock::now()) *
                          static_cast<double>(std::thread::hardware_concurrency())),
                     "fraction");
  if (options.trace)
    for (const LayerMetricSpec& spec : layer_metric_specs()) {
      const auto it = result.layers.find(spec.name);
      result.metrics.add(spec.name, it == result.layers.end() ? 0.0 : it->second,
                         spec.unit);
    }

  std::printf("%s %s seed %llu, %s run\n", options.workload.c_str(),
              result.correct ? "ok" : "FAILED",
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced");
  if (!result.table.empty()) std::printf("%s", result.table.c_str());
  std::printf("metrics:\n%sdetails:\n%s", result.metrics.table().c_str(),
              result.details.table().c_str());
  if (!result.first_failure.empty())
    std::printf("first failure: %s\n", result.first_failure.c_str());
  // A failed job reads as an infinite latency: fail rather than print null.
  if (const std::string name = result.metrics.first_non_finite(); !name.empty()) {
    std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
    return 1;
  }

  const std::string line =
      std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) +
      ", \"metrics\": " + result.metrics.json() + "}";
  const std::string doc_path = options.out_dir + "/result-" + options.workload +
                               "-seed" + std::to_string(options.seed) +
                               (options.trace ? "-traced" : "") + ".json";
  std::ofstream(doc_path) << "{\"metadata\": " << metadata
                          << ", \"result\": " << line
                          << ", \"details\": " << result.details.json() << "}\n";
  std::printf("%s\n", line.c_str());
  return result.correct ? 0 : 1;
}
