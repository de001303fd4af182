// served_mixed: load from four client threads through an in-process
// ExtractionServer on loopback. Jobs are small (64 px, jittered 2-dot devices, mostly fast, some
// Hough) and split across the binary and JSON lanes, three tenants weighted
// 3/2/1, and with / without transport options (io_depth 4, sim clock).
// Results come back by ?wait=1 polls and by SSE streams; a share of jobs is
// cancelled right after submit; any client reads /v1/stats every 250 ms.
// At an offered rate the clients send each job when it is due and time it
// from then, so a stalled generator shows as latency (and as generator lag).
//
// An untraced run is eight blocks of two windows: one unpaced (each client
// sends its next job as soon as its last one is back), whose jobs give the
// throughput and the latency metrics; and one rung of a ladder of offered
// rates at rising fractions of the throughput measured so far, each job
// timed from when it was due. The maximum rate is where the ladder's p99
// crosses the limit. Each window runs on a fresh server (see Load).
#include "replay.hpp"
#include "workloads.hpp"

#include "common/thread_pool.hpp"
#include "server/extraction_server.hpp"
#include "server/http_client.hpp"
#include "wire/json.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <stdexcept>
#include <memory>
#include <mutex>
#include <thread>

namespace perfbench {

using namespace qvg;
using namespace qvg::server;

namespace {

constexpr int kClients = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// The capacity ladder, one rung per block: offered rates as fractions of
/// the median throughput of the blocks so far, ascending, so that it
/// follows the program however fast it gets. Above 1 the backlog grows for
/// the whole rung, so the last rungs miss the limit (at 1.05, not always
/// within a rung's 3 s).
constexpr double kCapacityFractions[] = {0.6, 0.7, 0.8, 0.9, 1.0, 1.05, 1.1, 1.15};
/// Blocks, one per rung. The unpaced windows are spread over the whole
/// run, and the p50, the p90 and the throughput are medians over them, so
/// a slow spell of the host (one run saw the p50 at 4-6 ms instead of
/// 2.4 ms for 10-14 s) moves them little. The p99 pools their jobs.
constexpr int kBlocks = static_cast<int>(std::size(kCapacityFractions));
/// The p99 limit, timed from the due time, that a sustained rate meets. A
/// growing backlog shows as latency from the due time, so this also bounds
/// the backlog. At low load the p99 is about 30 ms (the SSE tick), and a
/// brief stall of the host adds tens of ms to a 3 s rate's p99 (a 50 ms
/// limit was crossed anywhere from 0.7 to 0.95 of the throughput). Near
/// capacity the p99 climbs steeply, so a limit well above both gives a
/// sharp crossing.
constexpr double kLatencyLimitMs = 100.0;
/// Shares of the untraced run's time: all unpaced windows and the whole
/// capacity ladder.
constexpr double kUnpacedShare = 0.44;
constexpr double kLadderShare = 0.56;
/// Rate of the traced run's untraced and traced thirds, well below
/// capacity.
constexpr double kTracedRate = 150.0;

// The traffic. The job is bench_server's small_request: 64 px fast
// extraction on a jittered 2-dot device (cross ratio 0.25, jitter 0.05,
// white noise 0.02), here on kDevices seeded devices (with 4, the seed
// moved the mean job cost enough to spread jobs_per_s by 15% over seeds). The tenants and their
// 3/2/1 weights, each sending an equal share, are bench_server's fairness
// scenario. The transport is the pipelined lane of bench_json's
// driver_latency_sweep_100px_1000us (1000 us command latency, unlimited
// bandwidth, io_depth 4), charged to the sim clock. The shares below are
// synthetic: each split exists because a per-layer metric needs it, and
// README.md gives the share of served time each part takes.
constexpr int kDevices = 16;
constexpr const char* kTenants[] = {"alpha", "beta", "gamma"};
constexpr double kTenantWeights[] = {3.0, 2.0, 1.0};
/// Hough jobs: the imgproc layer and the Hough analysis. "Mostly fast".
constexpr std::uint64_t kHoughPercent = 15;
/// Jobs with transport options: the probe/driver layer. Half, so both
/// sides get equal samples.
constexpr std::uint64_t kTransportPercent = 50;
/// JSON-lane jobs: wire.json.* against wire.binary.*, equal samples.
constexpr std::uint64_t kJsonPercent = 50;
/// Jobs read back through an SSE stream: server.sse_events_per_job. A
/// streamed job often waits out the server's 25 ms SSE tick (about 28 ms
/// against 2 ms for a polled job), so streamed jobs are kept a minority:
/// the p50 then lies among polled jobs and the p90 and p99 among streamed
/// ones, away from the gap between the two.
constexpr std::uint64_t kSsePercent = 25;
/// Jobs cancelled right after submit: service.jobs_cancelled. Few, so that
/// nearly every job is judged.
constexpr std::uint64_t kCancelPercent = 5;
/// How often some client reads /v1/stats, as a dashboard would.
constexpr std::int64_t kStatsPeriodNs = 250'000'000;

struct ServedInputs {
  std::vector<wire::WireRequest> requests;  // distinct: device x method x transport
  std::vector<wire::MaterializedRequest> local;  // the same, for local replay
  std::vector<Fingerprint> references;
};

std::size_t request_index(std::size_t device, bool hough, bool transport) {
  return device * 4 + (hough ? 2 : 0) + (transport ? 1 : 0);
}

ServedInputs build_inputs(std::uint64_t seed) {
  ServedInputs inputs;
  for (int d = 0; d < kDevices; ++d)
    for (const ExtractionMethod method :
         {ExtractionMethod::kFast, ExtractionMethod::kHoughBaseline})
      for (const bool transport : {false, true}) {
        wire::WireRequest r;
        r.method = method;
        r.backend = wire::WireBackendKind::kDevice;
        r.device.params.n_dots = 2;
        r.device.params.cross_ratio = 0.25;
        r.device.params.jitter = 0.05;
        r.device.has_jitter = true;
        r.device.jitter_seed = derive_seed(seed, 2000 + static_cast<std::uint64_t>(d));
        r.device.noise_seed = derive_seed(seed, 3000 + static_cast<std::uint64_t>(d));
        r.device.pixels_per_axis = 64;
        r.device.white_noise_sigma = 0.02;
        if (transport) {
          r.transport.io_depth = 4;
          r.transport.latency_us = 1000.0;
        }
        inputs.requests.push_back(r);
      }
  std::vector<ExtractionRequest> requests;
  for (const wire::WireRequest& r : inputs.requests) {
    Result<wire::MaterializedRequest> m = wire::materialize(r);
    if (!m.ok()) throw std::runtime_error("materialize: " + m.status().message());
    inputs.local.push_back(std::move(m).value());
    requests.push_back(inputs.local.back().request);
  }
  inputs.references = compute_references(requests);
  return inputs;
}

/// How one job travels: drawn from the workload seed and the job index.
struct Plan {
  std::size_t request = 0;
  bool hough = false;
  bool transport = false;
  bool json = false;
  int tenant = 0;
  bool sse = false;
  bool cancel = false;
};

Plan plan_job(std::uint64_t seed, std::size_t index) {
  const std::uint64_t job = derive_seed(seed, 1'000'000 + index);
  auto draw = [&](std::uint64_t salt, std::uint64_t n) {
    return derive_seed(job, salt) % n;
  };
  Plan plan;
  plan.hough = draw(0, 100) < kHoughPercent;
  plan.transport = draw(1, 100) < kTransportPercent;
  plan.request = request_index(draw(2, kDevices), plan.hough, plan.transport);
  plan.json = draw(3, 100) < kJsonPercent;
  plan.tenant = static_cast<int>(draw(4, std::size(kTenants)));
  plan.sse = draw(5, 100) < kSsePercent;
  plan.cancel = draw(6, 100) < kCancelPercent;
  return plan;
}

enum class Outcome { kJudged, kCancelled, kFailed };

struct JobRecord {
  Plan plan;
  Outcome outcome = Outcome::kFailed;
  double latency_ms = 0.0;     // from due time to report decoded
  double send_latency_ms = 0.0;  // from actual send
  double lag_ms = 0.0;
  double submit_rtt_ms = -1.0;
  double fetch_rtt_ms = -1.0;  // report fetch of an already-finished job (SSE)
  double run_ms = -1.0;
  bool http_503 = false;
  long sse_events = 0;
  // Traced runs only: codec timings and sizes.
  double encode_us = -1.0;
  double decode_us = -1.0;
  std::size_t request_bytes = 0;
  std::size_t report_bytes = 0;
};

std::string_view as_view(const std::vector<std::uint8_t>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

class Client {
 public:
  explicit Client(const ServedInputs& inputs) : inputs_(inputs) {}

  /// Send `record.plan`'s job to the server on `port` and read its result;
  /// fills `record` and judges into `tally`.
  void run(std::uint16_t port, bool traced, JobTrace& trace, JobRecord& record,
           Tally& tally) const {
    const Plan& plan = record.plan;
    ++tally.attempted;
    const wire::WireRequest& request = inputs_.requests[plan.request];
    const Clock::time_point sent = Clock::now();
    const JobTrace::Scope root(trace, SpanKind::kJob);

    std::string body;
    {
      const JobTrace::Scope span(trace, SpanKind::kWireEncode);
      const Clock::time_point t0 = traced ? Clock::now() : Clock::time_point{};
      body = plan.json ? wire::to_json(request) : std::string(as_view(wire::encode(request)));
      if (traced) record.encode_us = 1e3 * ms_between(t0, Clock::now());
    }
    record.request_bytes = body.size();

    const std::string query = std::string("?tenant=") + kTenants[plan.tenant];
    Result<ClientResponse> submitted = [&] {
      const JobTrace::Scope span(trace, SpanKind::kServerSubmit);
      const Clock::time_point t0 = Clock::now();
      auto response = http_call(port, "POST", "/v1/jobs" + query, body,
                                plan.json ? "application/json" : "application/octet-stream");
      record.submit_rtt_ms = ms_between(t0, Clock::now());
      return response;
    }();
    if (!submitted.ok() || submitted.value().status != 200) {
      record.http_503 = submitted.ok() && submitted.value().status == 503;
      return tally.fail("submit failed");
    }
    Result<wire::JsonValue> id_doc = wire::parse_json(submitted.value().body);
    const wire::JsonValue* id_field = id_doc.ok() ? id_doc.value().find("job") : nullptr;
    if (id_field == nullptr) return tally.fail("submit answered no job id");
    const std::string job = "/v1/jobs/" + std::to_string(id_field->as_u64());

    if (plan.cancel) {
      const JobTrace::Scope span(trace, SpanKind::kServerCancel);
      Result<ClientResponse> cancelled = http_call(port, "POST", job + "/cancel");
      if (!cancelled.ok() || cancelled.value().status != 200)
        return tally.fail("cancel failed");
    }

    Result<ClientResponse> report_response = [&] {
      const JobTrace::Scope span(trace, SpanKind::kServerResult);
      const std::string target = job + "?wait=1" + (plan.json ? "&format=json" : "");
      if (plan.sse) {
        SseClient events;
        if (Status s = events.connect(port, job + "/events"); !s.ok()) return Result<ClientResponse>(s);
        for (;;) {
          Result<std::optional<std::string>> frame = events.next_event();
          if (!frame.ok()) return Result<ClientResponse>(frame.status());
          if (!frame.value().has_value()) break;
          if (frame.value()->rfind("data:", 0) == 0) ++record.sse_events;
        }
        const Clock::time_point t0 = Clock::now();
        auto response = http_call(port, "GET", target);
        record.fetch_rtt_ms = ms_between(t0, Clock::now());
        return response;
      }
      return http_call(port, "GET", target);
    }();
    if (!report_response.ok() || report_response.value().status != 200)
      return tally.fail("report fetch failed");

    const std::string& payload = report_response.value().body;
    record.report_bytes = payload.size();
    Result<wire::WireReport> report = [&] {
      const JobTrace::Scope span(trace, SpanKind::kWireDecode);
      const Clock::time_point t0 = traced ? Clock::now() : Clock::time_point{};
      auto decoded = plan.json
                         ? wire::report_from_json(payload)
                         : wire::decode_report(std::span<const std::uint8_t>(
                               reinterpret_cast<const std::uint8_t*>(payload.data()),
                               payload.size()));
      if (traced) record.decode_us = 1e3 * ms_between(t0, Clock::now());
      return decoded;
    }();
    if (!report.ok()) return tally.fail("report decode failed");
    record.send_latency_ms = ms_between(sent, Clock::now());
    record.run_ms = 1e3 * report.value().wall_seconds;
    // Only a job this client cancelled may come back cancelled; any other
    // kCancelled report is judged (and fails) like a wrong result.
    if (plan.cancel && report.value().status.code() == ErrorCode::kCancelled) {
      ++tally.cancelled;
      record.outcome = Outcome::kCancelled;
      return;
    }
    const long failed_before = tally.failed;
    tally.judge(Fingerprint::of(report.value()), inputs_.references[plan.request]);
    record.outcome = tally.failed == failed_before ? Outcome::kJudged : Outcome::kFailed;
  }

 private:
  const ServedInputs& inputs_;
};

/// A started server with the three tenants configured.
std::unique_ptr<ExtractionServer> start_server() {
  auto server = std::make_unique<ExtractionServer>();
  for (std::size_t t = 0; t < std::size(kTenants); ++t) {
    TenantConfig tenant;
    tenant.weight = kTenantWeights[t];
    server->configure_tenant(kTenants[t], tenant);
  }
  if (Status started = server->start(); !started.ok())
    throw std::runtime_error("server start: " + started.message());
  return server;
}

/// One phase of offered load: what happened to every job it sent.
struct Rung {
  std::vector<JobRecord> jobs;
  double seconds = 0.0;  // rung start to its last job's completion
  Tally tally;
  LayerTotals totals;    // traced rungs only
  QueueStats queue;      // the rung's server, at its end
};

/// Shared by the client threads of a run: the server, the next job index,
/// and the periodic /v1/stats read.
///
/// Each rung gets a fresh server. The HTTP server keeps every finished
/// connection's thread, and with it the thread's stack mapping, until it
/// stops; at about 30k connections (some 13k jobs) thread creation fails
/// with EAGAIN and the process aborts. A rung stays far below that.
struct Load {
  std::unique_ptr<ExtractionServer> server;
  std::uint16_t port = 0;
  const Client* client = nullptr;
  std::uint64_t seed = 0;
  std::size_t next_index = 0;
  std::atomic<std::int64_t> last_stats_ns{0};
  std::atomic<long> stats_reads{0};

  void restart_server() {
    server.reset();
    server = start_server();
    port = server->port();
  }

  void maybe_read_stats() {
    const std::int64_t now = Clock::now().time_since_epoch().count();
    std::int64_t last = last_stats_ns.load();
    if (now - last < kStatsPeriodNs || !last_stats_ns.compare_exchange_strong(last, now))
      return;
    Result<ClientResponse> stats = http_call(port, "GET", "/v1/stats");
    if (stats.ok() && stats.value().status == 200) stats_reads.fetch_add(1);
  }
};

Clock::duration seconds_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Offer `rate` jobs/s for `seconds` through kClients threads: job k is due
/// k / rate after the rung starts and is timed from then. A rate of 0 sends
/// unpaced: each client sends its next job as soon as its last one is back,
/// until `seconds` have passed.
Rung run_rung(Load& load, double rate, double seconds, bool traced, SpanStore* store) {
  Rung rung;
  load.restart_server();
  const bool paced = rate > 0.0;
  const auto count = paced ? static_cast<std::size_t>(rate * seconds) : 0;
  std::vector<std::vector<JobRecord>> records(kClients);
  std::vector<Tally> tallies(kClients);
  std::atomic<std::size_t> next{0};
  std::mutex totals_mutex;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + seconds_duration(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      Tally& tally = tallies[static_cast<std::size_t>(c)];
      for (;;) {
        const std::size_t k = next.fetch_add(1);
        Clock::time_point due;
        if (paced) {
          if (k >= count) break;
          due = start + seconds_duration(static_cast<double>(k) / rate);
          std::this_thread::sleep_until(due);
        } else {
          due = Clock::now();
          if (due >= end) break;
        }
        JobRecord record;
        record.lag_ms = ms_between(due, Clock::now());
        load.maybe_read_stats();
        const std::size_t index = load.next_index + k;
        record.plan = plan_job(load.seed, index);
        JobTrace trace(static_cast<std::uint32_t>(index), traced);
        try {
          load.client->run(load.port, traced, trace, record, tally);
        } catch (const std::exception& e) {
          tally.fail(std::string("client: ") + e.what());
        }
        record.latency_ms = ms_between(due, Clock::now());
        if (traced) {
          store->keep(trace);
          std::lock_guard<std::mutex> lock(totals_mutex);
          rung.totals.add(trace);
        }
        records[static_cast<std::size_t>(c)].push_back(record);
      }
    });
  for (std::thread& t : threads) t.join();
  rung.seconds = seconds_between(start, Clock::now());
  rung.queue = load.server->queue().stats();
  load.next_index += next.load();
  for (int c = 0; c < kClients; ++c) {
    const auto& mine = records[static_cast<std::size_t>(c)];
    rung.jobs.insert(rung.jobs.end(), mine.begin(), mine.end());
    rung.tally.merge(tallies[static_cast<std::size_t>(c)]);
  }
  return rung;
}

struct RungSummary {
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  double lag_p99 = 0.0;
  long sent = 0, succeeded = 0, cancelled = 0, failed = 0;
  double completed_per_s = 0.0;
  bool sustained = false;
  std::vector<double> latency;  // failed jobs read as +inf: misses
};

RungSummary summarize(const Rung& rung) {
  RungSummary s;
  std::vector<double> lag;
  for (const JobRecord& job : rung.jobs) {
    ++s.sent;
    lag.push_back(job.lag_ms);
    switch (job.outcome) {
      case Outcome::kJudged: ++s.succeeded; break;
      case Outcome::kCancelled: ++s.cancelled; break;
      case Outcome::kFailed: ++s.failed; break;
    }
    s.latency.push_back(job.outcome == Outcome::kFailed
                            ? std::numeric_limits<double>::infinity()
                            : job.latency_ms);
  }
  s.p50 = quantile(s.latency, 0.5);
  s.p90 = quantile(s.latency, 0.9);
  s.p99 = quantile(s.latency, 0.99);
  s.lag_p99 = quantile(lag, 0.99);
  s.completed_per_s =
      rung.seconds > 0.0 ? static_cast<double>(s.succeeded + s.cancelled) / rung.seconds : 0.0;
  s.sustained = s.p99 <= kLatencyLimitMs;
  return s;
}

/// Print a rung's row and record its counts under `name.` in the details.
RungSummary report_rung(RunResult& result, const std::string& name, double offered,
                        const Rung& rung) {
  const RungSummary s = summarize(rung);
  char line[256];
  std::snprintf(line, sizeof line,
                "%-10s offered %7.1f/s: sent %5ld ok %5ld cancelled %4ld failed %4ld  "
                "done %7.1f/s  p50 %8.3f p90 %8.3f p99 %8.3f ms  lag p99 %8.3f ms  %s\n",
                name.c_str(), offered, s.sent, s.succeeded, s.cancelled, s.failed,
                s.completed_per_s, s.p50, s.p90, s.p99, s.lag_p99,
                s.sustained ? "sustained" : "NOT sustained");
  result.table += line;
  MetricList& d = result.details;
  d.add(name + ".offered_jobs_per_s", offered, "jobs/s");
  d.add(name + ".sent", static_cast<double>(s.sent), "count");
  d.add(name + ".succeeded", static_cast<double>(s.succeeded), "count");
  d.add(name + ".cancelled", static_cast<double>(s.cancelled), "count");
  d.add(name + ".failed", static_cast<double>(s.failed), "count");
  d.add(name + ".completed_jobs_per_s", s.completed_per_s, "jobs/s");
  d.add(name + ".latency_p50_ms", s.p50, "ms");
  d.add(name + ".latency_p99_ms", s.p99, "ms");
  d.add(name + ".generator_lag_ms_p99", s.lag_p99, "ms");
  return s;
}

/// The share of jobs and of summed client latency each part of the mix
/// takes, over `jobs`.
void report_mix(RunResult& result, const std::vector<JobRecord>& jobs) {
  struct Part {
    const char* name;
    bool (*in)(const Plan&);
  };
  const Part parts[] = {
      {"hough", [](const Plan& p) { return p.hough; }},
      {"transport", [](const Plan& p) { return p.transport; }},
      {"json", [](const Plan& p) { return p.json; }},
      {"sse", [](const Plan& p) { return p.sse; }},
      {"cancel", [](const Plan& p) { return p.cancel; }},
  };
  double total_ms = 0.0;
  for (const JobRecord& job : jobs) total_ms += job.latency_ms;
  result.table += "part of the mix   share of jobs  share of served time\n";
  for (const Part& part : parts) {
    double n = 0.0, ms = 0.0;
    for (const JobRecord& job : jobs)
      if (part.in(job.plan)) {
        n += 1.0;
        ms += job.latency_ms;
      }
    const double job_share = jobs.empty() ? 0.0 : n / static_cast<double>(jobs.size());
    const double time_share = total_ms > 0.0 ? ms / total_ms : 0.0;
    char line[128];
    std::snprintf(line, sizeof line, "  %-14s %13.3f %21.3f\n", part.name, job_share,
                  time_share);
    result.table += line;
    result.details.add(std::string("mix.") + part.name + ".job_share", job_share, "fraction");
    result.details.add(std::string("mix.") + part.name + ".time_share", time_share, "fraction");
  }
}

/// Per-layer metrics of a traced rung: codec costs and sizes per lane,
/// server round trips, and the client-side self-time table.
void add_served_layers(RunResult& result, const Rung& rung, double untraced_p50_ms) {
  auto& l = result.layers;
  for (const bool json : {false, true}) {
    std::vector<double> enc, dec, req_bytes, rep_bytes;
    for (const JobRecord& job : rung.jobs) {
      if (job.plan.json != json || job.encode_us < 0.0) continue;
      enc.push_back(job.encode_us);
      req_bytes.push_back(static_cast<double>(job.request_bytes));
      if (job.decode_us >= 0.0) {
        dec.push_back(job.decode_us);
        rep_bytes.push_back(static_cast<double>(job.report_bytes));
      }
    }
    const std::string lane = json ? "wire.json." : "wire.binary.";
    l[lane + "encode_request_us"] = median(enc);
    l[lane + "decode_report_us"] = median(dec);
    l[lane + "request_bytes"] = mean(req_bytes);
    l[lane + "report_bytes"] = mean(rep_bytes);
  }
  std::vector<double> submit_rtt, fetch_rtt, queue_wait;
  double http_503 = 0.0, sse_events = 0.0, sse_jobs = 0.0;
  for (const JobRecord& job : rung.jobs) {
    if (job.submit_rtt_ms >= 0.0) submit_rtt.push_back(job.submit_rtt_ms);
    if (job.fetch_rtt_ms >= 0.0) fetch_rtt.push_back(job.fetch_rtt_ms);
    if (job.http_503) http_503 += 1.0;
    if (job.plan.sse && job.outcome != Outcome::kFailed) {
      sse_events += static_cast<double>(job.sse_events);
      sse_jobs += 1.0;
    }
    if (!job.plan.sse && job.outcome == Outcome::kJudged)
      queue_wait.push_back(job.send_latency_ms - job.run_ms);
  }
  l["server.submit_rtt_ms_p50"] = quantile(submit_rtt, 0.5);
  l["server.submit_rtt_ms_p99"] = reportable_quantile(submit_rtt, 0.99).value_or(quantile(submit_rtt, 0.99));
  l["server.overhead_ms_p50"] = quantile(submit_rtt, 0.5) + quantile(fetch_rtt, 0.5);
  l["server.http_503"] = http_503;
  l["server.sse_events_per_job"] = sse_jobs > 0.0 ? sse_events / sse_jobs : 0.0;
  l["service.queue_wait_ms_p50"] = quantile(queue_wait, 0.5);
  l["service.queue_wait_ms_p90"] = quantile(queue_wait, 0.9);

  const RungSummary summary = summarize(rung);
  l["generator_lag_ms_p99"] = summary.lag_p99;
  add_job_accounting(result, rung.totals, untraced_p50_ms, summary.p50,
                     "served jobs, client side");
}

/// Replay the distinct requests without transport options locally through
/// the instrumented pipeline for `seconds`, one at a time, each checked
/// against its reference: the extraction, probe, device and imgproc layers
/// of the served traffic.
void replay_served(RunResult& result, const ServedInputs& inputs, double seconds,
                   SpanStore& store) {
  LayerTotals totals;
  Tally tally;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::size_t i = 0; Clock::now() < end; ++i) {
    const std::size_t r = i % inputs.requests.size();
    if (inputs.requests[r].transport.enabled()) continue;
    ++tally.attempted;
    JobTrace trace(static_cast<std::uint32_t>(i), true);
    tally.judge(replay(inputs.local[r].request, trace), inputs.references[r]);
    totals.add(trace);
    store.keep(trace);
  }
  record_tally(result, tally);
  add_stage_layers(result, totals);
}

}  // namespace

/// The offered rate at which the p99 reaches kLatencyLimitMs, from the
/// (rate, p99) of every rung in ascending rate. Noise can make the p99 dip
/// from one rung to the next, so it is first fitted by the closest
/// non-decreasing sequence (pool adjacent violators); the crossing is then
/// interpolated linearly between the two rungs around it. 0 when even the
/// lowest rate misses the limit; the highest rate when none does.
double limit_crossing(const std::vector<std::pair<double, double>>& rate_p99) {
  struct Block {
    double level;
    double weight;
  };
  std::vector<Block> blocks;
  for (const auto& point : rate_p99) {
    blocks.push_back({point.second, 1.0});
    while (blocks.size() > 1 && blocks[blocks.size() - 2].level > blocks.back().level) {
      const Block last = blocks.back();
      blocks.pop_back();
      Block& merged = blocks.back();
      merged.level = (merged.level * merged.weight + last.level * last.weight) /
                     (merged.weight + last.weight);
      merged.weight += last.weight;
    }
  }
  std::vector<double> fit;
  for (const Block& b : blocks)
    fit.insert(fit.end(), static_cast<std::size_t>(b.weight), b.level);
  for (std::size_t i = 0; i < fit.size(); ++i) {
    if (fit[i] <= kLatencyLimitMs) continue;
    if (i == 0) return 0.0;
    const double r0 = rate_p99[i - 1].first, r1 = rate_p99[i].first;
    if (!std::isfinite(fit[i])) return r0;
    return r0 + (r1 - r0) * (kLatencyLimitMs - fit[i - 1]) / (fit[i] - fit[i - 1]);
  }
  return rate_p99.empty() ? 0.0 : rate_p99.back().first;
}

RunResult run_served_mixed(const RunOptions& options) {
  RunResult result;

  // Set-up, kSetups times, timed: inputs + references, server start, and a
  // warm-up pass of every distinct request through both lanes from the
  // kClients client threads. The last inputs are kept. The warm-up polls: a
  // streamed job often waits out the server's SSE tick, which would make
  // setup_s a count of ticks.
  std::vector<double> setup_s;
  ServedInputs inputs;
  std::vector<Tally> warm_tallies;
  for (int s = 0; s < kSetups; ++s) {
    const Clock::time_point t0 = Clock::now();
    inputs = build_inputs(options.seed);
    const std::unique_ptr<ExtractionServer> server = start_server();
    const Client warm(inputs);
    warm_tallies.assign(kClients, Tally{});
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        for (std::size_t k = static_cast<std::size_t>(c); k < 2 * inputs.requests.size();
             k += kClients) {
          JobTrace trace(0, false);
          JobRecord record;
          record.plan = {.request = k / 2, .json = k % 2 == 1};
          warm.run(server->port(), false, trace, record,
                   warm_tallies[static_cast<std::size_t>(c)]);
        }
      });
    for (std::thread& t : threads) t.join();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  for (const Tally& t : warm_tallies) record_tally(result, t);
  if (!gate_self_check(inputs.references)) {
    result.correct = false;
    result.first_failure = "gate self-check did not catch a corrupted reference";
    return result;
  }

  const Client client(inputs);
  Load load;
  load.client = &client;
  load.seed = options.seed;

  if (options.trace) {
    // A third untraced, then a third traced, at one rate: the difference
    // is the tracing overhead; the traced third gives the serving layers.
    // The last third replays the jobs locally for the stage layers.
    const double third = options.seconds / 3.0;
    const double cpu_start = process_cpu_seconds();
    const Clock::time_point served_start = Clock::now();
    const Rung untraced = run_rung(load, kTracedRate, third, false, nullptr);
    SpanStore store(1u << 18);
    const Rung traced = run_rung(load, kTracedRate, third, true, &store);
    const double served_s = seconds_between(served_start, Clock::now());
    const double cpu_s = process_cpu_seconds() - cpu_start;
    record_tally(result, untraced.tally);
    record_tally(result, traced.tally);
    add_served_layers(result, traced, summarize(untraced).p50);

    // Run time, driver counters and CPU from the reports, the two rungs'
    // queues and the process.
    std::vector<double> run_ms;
    for (const JobRecord& job : traced.jobs)
      if (job.run_ms >= 0.0) run_ms.push_back(job.run_ms);
    const QueueStats& a = untraced.queue;
    const QueueStats& b = traced.queue;
    const double jobs = static_cast<double>(a.completed + b.completed);
    auto per_job = [&](double total) { return jobs > 0.0 ? total / jobs : 0.0; };
    auto& l = result.layers;
    l["service.run_ms_p50"] = quantile(run_ms, 0.5);
    l["service.cpu_busy_fraction"] =
        cpu_s / (served_s * static_cast<double>(ThreadPool::global().size()));
    l["service.jobs_completed"] = jobs;
    l["service.jobs_rejected"] = static_cast<double>(a.rejected + b.rejected);
    l["service.jobs_cancelled"] =
        static_cast<double>(untraced.tally.cancelled + traced.tally.cancelled);
    l["probe.driver_batches_per_job"] =
        per_job(static_cast<double>(a.driver_batches + b.driver_batches));
    l["probe.driver_max_inflight"] =
        static_cast<double>(std::max(a.driver_max_inflight, b.driver_max_inflight));
    l["probe.transport_stall_s_per_job"] =
        per_job(a.transport_stall_seconds + b.transport_stall_seconds);
    replay_served(result, inputs, third, store);
    const std::string path = write_spans(store, options);
    std::printf("span file: %s\n", path.c_str());
    return result;
  }

  Tally all;
  std::vector<std::pair<double, double>> rate_p99;  // every paced rung
  auto count = [&](const Rung& rung) {
    all.merge(rung.tally);
    record_tally(result, rung.tally);
  };

  // The blocks: an unpaced window (each client sends its next job as soon
  // as its last one is back) for throughput and latency, then a rung of
  // the ladder.
  std::vector<JobRecord> unpaced_jobs;
  std::vector<double> throughputs, p50s, p90s;
  for (int b = 0; b < kBlocks; ++b) {
    const std::string n = std::to_string(b);
    const Rung unpaced = run_rung(load, 0.0, kUnpacedShare * options.seconds / kBlocks,
                                  false, nullptr);
    count(unpaced);
    const RungSummary s = report_rung(result, "unpaced_" + n, 0.0, unpaced);
    throughputs.push_back(s.completed_per_s);
    p50s.push_back(s.p50);
    p90s.push_back(s.p90);
    unpaced_jobs.insert(unpaced_jobs.end(), unpaced.jobs.begin(), unpaced.jobs.end());

    const double rate = kCapacityFractions[b] * median(throughputs);
    const Rung rung = run_rung(load, rate, kLadderShare * options.seconds / kBlocks, false,
                               nullptr);
    count(rung);
    rate_p99.emplace_back(rate, report_rung(result, "ladder_" + n, rate, rung).p99);
  }
  Rung all_unpaced;
  all_unpaced.jobs = unpaced_jobs;
  const RungSummary pooled = summarize(all_unpaced);
  const double throughput = median(throughputs);
  std::sort(rate_p99.begin(), rate_p99.end());
  report_mix(result, unpaced_jobs);

  MetricList& m = result.metrics;
  m.add("jobs_per_s", throughput, "jobs/s");
  m.add("latency_p50_ms", median(p50s), "ms");
  m.add("latency_p90_ms", median(p90s), "ms");
  m.add("latency_p99_ms", reportable_quantile(pooled.latency, 0.99).value_or(0.0), "ms");
  m.add("max_rate_jobs_per_s", limit_crossing(rate_p99), "jobs/s");
  m.add("sim_s_per_job", all.sim_s_per_job(), "s");
  m.add("success_rate", all.success_rate(), "fraction");
  m.add("setup_s", median(setup_s), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.details.add("error_rate", all.error_rate(), "fraction");
  result.details.add("stats_reads", static_cast<double>(load.stats_reads.load()), "count");
  return result;
}

}  // namespace perfbench
