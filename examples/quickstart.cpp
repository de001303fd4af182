// Quickstart: extract virtual gates for a simulated double quantum dot.
//
// Builds a double-dot device with the constant-interaction model, then
// submits the paper's fast extraction (probing only ~10% of the pixels a
// full diagram would need) and the conventional full-CSD + Canny + Hough
// baseline as *async jobs* through the service layer's JobQueue — the fast
// job at interactive priority with streaming per-stage progress, the
// baseline as batch work — cancels a redundant third job, and compares the
// results with the analytic ground truth. Finally the same extraction is
// served over the wire API: an in-process ExtractionServer on a loopback
// socket, a binary wire submit, SSE progress, and a served report that
// matches the direct run bit for bit.
#include "common/strings.hpp"
#include "extraction/validation.hpp"
#include "server/extraction_server.hpp"
#include "server/http_client.hpp"
#include "service/job_queue.hpp"
#include "wire/json.hpp"
#include "wire/messages.hpp"

#include <iostream>
#include <memory>
#include <string>

int main() {
  using namespace qvg;

  // 1. A double-dot device: 25% cross-capacitance, mild measurement noise.
  DotArrayParams params;
  params.n_dots = 2;
  params.cross_ratio = 0.25;
  Rng jitter(/*seed=*/7);
  params.jitter = 0.05;
  const BuiltDevice device = build_dot_array(params, &jitter);

  const VoltageAxis axis = scan_axis(device, /*pixels=*/100);
  const TransitionTruth truth =
      device.model.pair_truth(0, 1, 0, 1, device.base_voltages);

  std::cout << "Ground truth:    m_steep = " << truth.slope_steep
            << ", m_shallow = " << truth.slope_shallow
            << ", alpha12 = " << truth.alpha12()
            << ", alpha21 = " << truth.alpha21() << "\n\n";

  // 2. One request per method against the same simulated backend. Each
  //    request is self-contained (the engine builds the device's simulator
  //    with the given seed and noise tier), so the jobs can run in any
  //    order — async reports are bit-identical to synchronous run() calls.
  ExtractionRequest request;
  request.device.device = &device;
  request.device.noise_seed = 123;
  request.device.pixels_per_axis = 100;
  request.device.white_noise_sigma = 0.02;

  JobQueue jobs;
  request.method = ExtractionMethod::kFast;
  request.label = "fast";
  // Interactive priority (an operator is watching) with streaming progress:
  // every pipeline stage boundary reports (stage, probes issued, elapsed).
  // Printing stage *transitions* keeps the stream readable — per-batch
  // events would be one line per raster row.
  SubmitOptions fast_options;
  fast_options.priority = Priority::kInteractive;
  fast_options.on_progress = [last = std::string()](
                                 const ProgressEvent& event) mutable {
    if (event.stage == last) return;
    last = event.stage;
    std::cout << "[progress] fast: stage=" << event.stage
              << " probes=" << event.probes_used << " elapsed="
              << format_fixed(event.elapsed_seconds * 1e3, 1) << " ms\n";
  };
  JobHandle fast_job = jobs.submit(request, std::move(fast_options));
  std::cout << "Submitted 'fast' at " << priority_name(Priority::kInteractive)
            << " priority (job " << fast_job.id() << ")\n";
  request.method = ExtractionMethod::kHoughBaseline;
  request.label = "hough";
  JobHandle hough_job = jobs.submit(request, {.priority = Priority::kBatch});
  std::cout << "Submitted 'hough' at " << priority_name(Priority::kBatch)
            << " priority (job " << hough_job.id() << ")\n\n";

  // A third request duplicates the baseline — redundant the moment it is
  // queued. Cancel it through a pre-wired token (deterministic even when the
  // queue degrades to synchronous execution on a single-threaded pool);
  // JobHandle::cancel() does the same for a job already in flight.
  CancelToken redundant_cancel = CancelToken::make();
  redundant_cancel.cancel();
  request.label = "hough-redundant";
  JobHandle redundant_job = jobs.submit(request, {.cancel = redundant_cancel});

  const ExtractionReport& fast = fast_job.wait();
  const ExtractionReport& baseline = hough_job.wait();
  const ExtractionReport& redundant = redundant_job.wait();
  std::cout << "Redundant job '" << redundant.label << "': "
            << error_code_name(redundant.status.code()) << " at stage '"
            << redundant.status.stage() << "' after "
            << redundant.stats.unique_probes << " probes\n\n";

  std::cout << "Fast extraction: "
            << (fast.status.ok() ? "success"
                                 : "FAILED: " + fast.status.message())
            << "\n";
  if (fast.status.ok()) {
    std::cout << "  slopes: steep " << fast.slope_steep << ", shallow "
              << fast.slope_shallow << "\n"
              << "  alpha12 = " << fast.virtual_gates.alpha12
              << ", alpha21 = " << fast.virtual_gates.alpha21 << "\n";
  }
  std::cout << "  probes: " << fast.stats.unique_probes << " unique ("
            << format_fixed(100.0 * static_cast<double>(fast.stats.unique_probes) /
                                static_cast<double>(axis.count() * axis.count()),
                            2)
            << "% of the full diagram), simulated time "
            << format_fixed(fast.stats.simulated_seconds, 2) << " s\n";
  std::cout << "  verdict vs truth: "
            << (fast.verdict.success ? "success" : fast.verdict.reason)
            << " (virtualized angle "
            << format_fixed(fast.verdict.virtualized_angle_deg, 1) << " deg)\n\n";

  // 3. Validate the extracted matrix on-device with four cheap line scans
  //    along the virtual axes (far cheaper than re-acquiring a diagram).
  if (fast.status.ok()) {
    DeviceSimulator sim = make_pair_simulator(device, 0, /*noise_seed=*/123);
    sim.add_noise(std::make_unique<WhiteNoise>(0.02));
    const ValidationResult validation = validate_virtual_gates(
        sim, axis, axis, fast.virtual_gates, fast.fast.intersection_voltage);
    std::cout << "On-device validation: "
              << (validation.accepted ? "accepted" : validation.reason)
              << " (residual cross-talk "
              << format_fixed(validation.steep_check.residual_crosstalk, 3)
              << " / "
              << format_fixed(validation.shallow_check.residual_crosstalk, 3)
              << ", " << validation.probes_used << " extra probes)\n\n";
  }

  // 4. Baseline: full CSD + Canny + Hough (ran as the second async job).
  std::cout << "Hough baseline:  "
            << (baseline.status.ok()
                    ? "success"
                    : "FAILED: " + baseline.status.message())
            << "\n";
  if (baseline.status.ok()) {
    std::cout << "  slopes: steep " << baseline.slope_steep << ", shallow "
              << baseline.slope_shallow << "\n"
              << "  alpha12 = " << baseline.virtual_gates.alpha12
              << ", alpha21 = " << baseline.virtual_gates.alpha21 << "\n";
  }
  std::cout << "  probes: " << baseline.stats.unique_probes
            << " unique (100%), simulated time "
            << format_fixed(baseline.stats.simulated_seconds, 2) << " s\n";
  std::cout << "  verdict vs truth: "
            << (baseline.verdict.success ? "success" : baseline.verdict.reason)
            << "\n\n";

  if (fast.stats.simulated_seconds > 0.0) {
    std::cout << "Speedup (simulated experiment time): "
              << format_fixed(baseline.stats.total_seconds() /
                                  fast.stats.total_seconds(),
                              2)
              << "x\n\n";
  }

  // 5. The same extraction served over the wire API (PR 8): an in-process
  //    server on a loopback socket. The wire request carries the *recipe*
  //    (device params + seeds), not the device object, so the server
  //    rebuilds the identical device and the served report matches a
  //    direct engine run exactly.
  {
    using namespace qvg::server;
    wire::WireRequest remote;
    remote.method = ExtractionMethod::kFast;
    remote.backend = wire::WireBackendKind::kDevice;
    remote.device.params = params;
    remote.device.has_jitter = true;
    remote.device.jitter_seed = 7;
    remote.device.noise_seed = 123;
    remote.device.pixels_per_axis = 100;
    remote.device.white_noise_sigma = 0.02;
    remote.label = "served-fast";

    ExtractionServer server;  // port 0: an ephemeral loopback port
    if (server.start().ok()) {
      const std::vector<std::uint8_t> bytes = wire::encode(remote);
      Result<ClientResponse> submitted = http_call(
          server.port(), "POST", "/v1/jobs?tenant=quickstart",
          {reinterpret_cast<const char*>(bytes.data()), bytes.size()});
      if (submitted.ok() && submitted.value().status == 200) {
        Result<wire::JsonValue> doc =
            wire::parse_json(submitted.value().body);
        const std::string id =
            std::to_string(doc.value().find("job")->as_u64());
        std::cout << "Wire API: job " << id << " submitted to 127.0.0.1:"
                  << server.port() << " (tenant 'quickstart')\n";

        // Stream progress over SSE until the done frame.
        SseClient sse;
        std::string last_stage;
        if (sse.connect(server.port(), "/v1/jobs/" + id + "/events").ok()) {
          for (;;) {
            Result<std::optional<std::string>> frame = sse.next_event();
            if (!frame.ok() || !frame.value().has_value()) break;
            if (frame.value()->rfind("event: done", 0) == 0) break;
            if (frame.value()->rfind("data: ", 0) != 0) continue;
            Result<ProgressEvent> event =
                wire::progress_from_json(frame.value()->substr(6));
            if (event.ok() && event.value().stage != last_stage) {
              last_stage = event.value().stage;
              std::cout << "[progress] served: stage=" << event.value().stage
                        << " probes=" << event.value().probes_used << "\n";
            }
          }
        }

        Result<ClientResponse> fetched =
            http_call(server.port(), "GET", "/v1/jobs/" + id + "?wait=1");
        if (fetched.ok() && fetched.value().status == 200) {
          const std::string& body = fetched.value().body;
          Result<wire::WireReport> served = wire::decode_report(
              {reinterpret_cast<const std::uint8_t*>(body.data()),
               body.size()});
          if (served.ok()) {
            std::cout << "Served report:   alpha12 = "
                      << served.value().virtual_gates.alpha12
                      << ", alpha21 = " << served.value().virtual_gates.alpha21
                      << " — " << (served.value().virtual_gates.alpha12 ==
                                           fast.virtual_gates.alpha12 &&
                                       served.value().virtual_gates.alpha21 ==
                                           fast.virtual_gates.alpha21
                                       ? "identical to the direct run"
                                       : "MISMATCH vs the direct run")
                      << "\n";
          }
        }
      }
      server.stop();
    }
  }
  return fast.verdict.success ? 0 : 1;
}
