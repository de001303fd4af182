#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// The run's metadata as a JSON object: workload, seed, git commit, nproc,
/// CPU affinity, pool size / QVG_THREADS, and bench_json's build probe.
[[nodiscard]] std::string run_metadata(const std::string& workload,
                                       std::uint64_t seed, double seconds,
                                       bool trace);

}  // namespace perfbench
