// The closed-loop workload, suite_fast: each of four clients submits its
// next job to the JobQueue only after the previous report came back. Requests cycle through a fixed set of distinct requests generated
// from the workload seed; every report is checked against that request's
// serial engine reference.
#include "replay.hpp"
#include "workloads.hpp"

#include "common/thread_pool.hpp"
#include "dataset/qflow_synth.hpp"
#include "service/job_queue.hpp"

#include <atomic>
#include <exception>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

namespace perfbench {

using namespace qvg;

namespace {

/// What set-up builds: the distinct requests, the backends they borrow,
/// and their references.
struct ClosedLoopInputs {
  std::vector<ExtractionRequest> requests;
  std::vector<Fingerprint> references;
  std::shared_ptr<const void> backends;
};

constexpr int kClients = 4;

/// One closed-loop phase: latencies and outcomes of the jobs it ran.
struct PhaseResult {
  std::vector<double> latency_ms;  // submit -> report, every completed job
  std::vector<double> run_ms;      // report wall_seconds (JobQueue phases)
  long completed_in_window = 0;
  double window_s = 0.0;   // the planned window
  double elapsed_s = 0.0;  // until the last client stopped
  double cpu_s = 0.0;
  Tally tally;
};

/// Run `job(index, tally)` from `clients` threads in a closed loop until
/// `seconds` have passed, extended (up to twice) until at least
/// `min_samples` jobs completed. `job` returns the job's run_ms (or < 0).
PhaseResult closed_loop(int clients, double seconds, long min_samples,
                        const std::function<double(std::size_t, Tally&)>& job) {
  PhaseResult phase;
  std::atomic<std::size_t> next{0};
  std::atomic<long> done{0};
  std::mutex merge_mutex;
  const double cpu_start = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const Clock::time_point hard_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(2.0 * seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&] {
      std::vector<double> latency;
      std::vector<double> run;
      long in_window = 0;
      Tally tally;
      for (;;) {
        const Clock::time_point now = Clock::now();
        if (now >= hard_end ||
            (now >= end && done.load(std::memory_order_relaxed) >= min_samples))
          break;
        const std::size_t index = next.fetch_add(1);
        const Clock::time_point t0 = Clock::now();
        double run_ms = -1.0;
        try {
          run_ms = job(index, tally);
        } catch (const std::exception& e) {
          tally.fail(std::string("job: ") + e.what());
          continue;
        }
        const Clock::time_point t1 = Clock::now();
        latency.push_back(ms_between(t0, t1));
        if (run_ms >= 0.0) run.push_back(run_ms);
        if (t1 <= end) ++in_window;
        done.fetch_add(1, std::memory_order_relaxed);
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      phase.latency_ms.insert(phase.latency_ms.end(), latency.begin(), latency.end());
      phase.run_ms.insert(phase.run_ms.end(), run.begin(), run.end());
      phase.completed_in_window += in_window;
      phase.tally.merge(tally);
    });
  for (std::thread& t : threads) t.join();
  phase.window_s = seconds;
  phase.elapsed_s = seconds_between(start, Clock::now());
  phase.cpu_s = process_cpu_seconds() - cpu_start;
  return phase;
}

/// Jobs needed for the p99 to have 10 samples beyond it.
constexpr long kTailSamples = 1000;
/// The untraced window runs as this many windows back to back;
/// jobs_per_s, the p50 and the p90 are medians over them, so a slow spell
/// of the host moves them little. The p99 pools every job.
constexpr int kWindows = 5;

/// Submit request `index % n` to the queue, wait, and judge the report.
double queue_job(JobQueue& queue, const ClosedLoopInputs& inputs,
                 std::size_t index, Tally& tally) {
  const std::size_t which = index % inputs.requests.size();
  ++tally.attempted;
  const ExtractionReport report = queue.submit(inputs.requests[which]).wait();
  tally.judge(Fingerprint::of(report), inputs.references[which]);
  return 1e3 * report.wall_seconds;
}

RunResult run_closed_loop(ClosedLoopInputs (*build)(std::uint64_t seed),
                          const RunOptions& options) {
  RunResult result;

  // Set-up, kSetups times, timed: inputs + references + a warm-up pass of
  // every distinct request through the queue. The last one is kept.
  constexpr int kSetups = 7;
  std::vector<double> setup_s;
  ClosedLoopInputs inputs;
  std::unique_ptr<JobQueue> queue;
  for (int s = 0; s < kSetups; ++s) {
    queue.reset();
    const Clock::time_point t0 = Clock::now();
    inputs = build(options.seed);
    queue = std::make_unique<JobQueue>();
    std::vector<JobHandle> warm;
    for (const ExtractionRequest& request : inputs.requests)
      warm.push_back(queue->submit(request));
    for (const JobHandle& handle : warm) (void)handle.wait();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  if (!gate_self_check(inputs.references)) {
    result.correct = false;
    result.first_failure = "gate self-check did not catch a corrupted reference";
    return result;
  }

  auto via_queue = [&](std::size_t index, Tally& tally) {
    return queue_job(*queue, inputs, index, tally);
  };

  if (!options.trace) {
    Tally t;
    std::vector<double> rates, p50s, p90s, latency;
    double cpu_s = 0.0, elapsed_s = 0.0;
    for (int w = 0; w < kWindows; ++w) {
      const PhaseResult phase = closed_loop(kClients, options.seconds / kWindows,
                                            kTailSamples / kWindows, via_queue);
      record_tally(result, phase.tally);
      t.merge(phase.tally);
      rates.push_back(static_cast<double>(phase.completed_in_window) / phase.window_s);
      p50s.push_back(quantile(phase.latency_ms, 0.5));
      p90s.push_back(reportable_quantile(phase.latency_ms, 0.9).value_or(0.0));
      latency.insert(latency.end(), phase.latency_ms.begin(), phase.latency_ms.end());
      cpu_s += phase.cpu_s;
      elapsed_s += phase.elapsed_s;
    }
    const double jobs_per_s = median(rates);
    MetricList& m = result.metrics;
    m.add("jobs_per_s", jobs_per_s, "jobs/s");
    m.add("latency_p50_ms", median(p50s), "ms");
    m.add("latency_p90_ms", median(p90s), "ms");
    m.add("latency_p99_ms", reportable_quantile(latency, 0.99).value_or(0.0), "ms");
    // A closed loop at fixed concurrency runs at the highest rate it sustains.
    m.add("max_rate_jobs_per_s", jobs_per_s, "jobs/s");
    m.add("sim_s_per_job", t.sim_s_per_job(), "s");
    m.add("success_rate", t.success_rate(), "fraction");
    m.add("setup_s", median(setup_s), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    MetricList& d = result.details;
    d.add("error_rate", t.error_rate(), "fraction");
    d.add("jobs_completed", static_cast<double>(latency.size()), "count");
    d.add("distinct_requests", static_cast<double>(inputs.requests.size()), "count");
    d.add("clients", kClients, "count");
    d.add("cpu_busy_fraction", cpu_s / (elapsed_s * static_cast<double>(ThreadPool::global().size())), "fraction");
    return result;
  }

  // Traced run: a third of the window through the queue for the service
  // layer, a third replaying untraced, a third replaying traced.
  const double third = options.seconds / 3.0;
  const PhaseResult service = closed_loop(kClients, third, 0, via_queue);
  record_tally(result, service.tally);
  std::vector<double> queue_wait;
  for (std::size_t i = 0; i < service.latency_ms.size(); ++i)
    queue_wait.push_back(service.latency_ms[i] - service.run_ms[i]);
  result.layers["service.queue_wait_ms_p50"] = quantile(queue_wait, 0.5);
  result.layers["service.queue_wait_ms_p90"] = quantile(queue_wait, 0.9);
  result.layers["service.run_ms_p50"] = quantile(service.run_ms, 0.5);
  result.layers["service.cpu_busy_fraction"] =
      service.cpu_s / (service.elapsed_s * static_cast<double>(ThreadPool::global().size()));
  result.layers["service.jobs_completed"] = static_cast<double>(service.latency_ms.size());
  result.layers["service.jobs_rejected"] = static_cast<double>(queue->stats().rejected);
  result.layers["service.jobs_cancelled"] = 0.0;

  std::mutex totals_mutex;
  LayerTotals totals;
  SpanStore store(1u << 18);
  auto via_replay = [&](bool traced) {
    return [&, traced](std::size_t index, Tally& tally) {
      const std::size_t which = index % inputs.requests.size();
      ++tally.attempted;
      JobTrace trace(static_cast<std::uint32_t>(index), traced);
      tally.judge(replay(inputs.requests[which], trace), inputs.references[which]);
      if (traced) {
        store.keep(trace);
        std::lock_guard<std::mutex> lock(totals_mutex);
        totals.add(trace);
      }
      return -1.0;
    };
  };
  const PhaseResult untraced = closed_loop(kClients, third, 0, via_replay(false));
  const PhaseResult traced = closed_loop(kClients, third, 0, via_replay(true));
  record_tally(result, untraced.tally);
  record_tally(result, traced.tally);
  add_stage_layers(result, totals);
  add_job_accounting(result, totals, quantile(untraced.latency_ms, 0.5),
                     quantile(traced.latency_ms, 0.5), "");
  const std::string path = write_spans(store, options);
  result.details.add("spans_kept", static_cast<double>(store.kept()), "count");
  result.details.add("spans_dropped", static_cast<double>(store.dropped()), "count");
  std::printf("span file: %s\n", path.c_str());
  return result;
}

// --- suite_fast ------------------------------------------------------------

/// Replicas of the 12-CSD suite per run; each replica re-derives every
/// spec's seed from the workload seed.
constexpr int kSuiteReplicas = 12;

ClosedLoopInputs build_suite(std::uint64_t seed) {
  struct Suite {
    std::vector<QflowBenchmark> csds;
  };
  auto suite = std::make_shared<Suite>();
  std::vector<QflowBenchmarkSpec> specs;
  for (int r = 0; r < kSuiteReplicas; ++r)
    for (QflowBenchmarkSpec spec : qflow_suite_specs()) {
      spec.seed = derive_seed(seed, static_cast<std::uint64_t>(r * 100 + spec.index));
      specs.push_back(spec);
    }
  std::vector<std::optional<QflowBenchmark>> built(specs.size());
  parallel_for_rows(specs.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) built[i].emplace(build_qflow_benchmark(specs[i]));
  }, 1);
  for (auto& b : built) suite->csds.push_back(std::move(*b));

  ClosedLoopInputs inputs;
  for (const QflowBenchmark& b : suite->csds) {
    ExtractionRequest request;
    request.method = ExtractionMethod::kFast;
    request.playback.csd = &b.csd;
    request.label = b.name();
    inputs.requests.push_back(request);
  }
  inputs.references = compute_references(inputs.requests);
  inputs.backends = suite;
  return inputs;
}

}  // namespace

RunResult run_suite_fast(const RunOptions& options) {
  return run_closed_loop(build_suite, options);
}

}  // namespace perfbench
