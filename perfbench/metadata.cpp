// Run metadata. The CPU model, compiler, build flags and SIMD configuration
// come from bench_json's own metadata probe: its translation unit is
// compiled in here with its entry point renamed, so the probe is reused
// rather than forked.
#define main bench_json_main
#include "../bench/bench_json.cpp"
#undef main

#include "common.hpp"
#include "metadata.hpp"

#include <sched.h>
#include <unistd.h>

#include <cstdlib>

namespace perfbench {

std::string bench_json_metadata() {
  JsonWriter json;
  json.begin();
  const std::string doc = json.out.str();
  const std::string open = "\"metadata\": ";
  const auto from = doc.find(open);
  const auto to = doc.find("},", from);
  if (from == std::string::npos || to == std::string::npos) return "{}";
  // One line: the probe writes the object indented over several.
  std::string object;
  for (const char c : doc.substr(from + open.size(), to + 1 - from - open.size()))
    if (c != '\n' && !(c == ' ' && !object.empty() && object.back() == ' ')) object += c;
  return object;
}

std::string affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus += (cpus.empty() ? "" : ",") + std::to_string(cpu);
  return cpus;
}

std::string run_metadata(const std::string& workload, std::uint64_t seed,
                         double seconds, bool trace) {
  const char* threads_env = std::getenv("QVG_THREADS");
  const char* commit = std::getenv("PERFBENCH_GIT_COMMIT");
  std::string out = "{";
  out += "\"workload\": " + json_string(workload);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"seconds\": " + json_number(seconds);
  out += ", \"trace\": " + std::string(trace ? "true" : "false");
  out += ", \"git_commit\": " + json_string(commit != nullptr ? commit : "unknown");
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"affinity_cpus\": " + json_string(affinity_cpus());
  out += ", \"pool_threads\": " + std::to_string(qvg::ThreadPool::global().size());
  out += ", \"QVG_THREADS\": " + json_string(threads_env != nullptr ? threads_env : "");
  out += ", \"build\": " + bench_json_metadata();
  return out + "}";
}

}  // namespace perfbench
