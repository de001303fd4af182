// Spans for the traced run, recorded only from the benchmark's own code
// around calls into each layer's public functions. A JobTrace holds one
// job's spans (name, start, end, parent, job id) on the thread that runs
// the job; finished jobs are folded into LayerTotals and, up to a cap,
// kept in a SpanStore that is written out once when the run ends.
//
// The two forwarding decorators put the probe and device boundaries on the
// timeline without touching the program: TracedSource wraps the backend
// CurrentSource (DeviceSimulator or CsdPlayback), TracedLane wraps the
// AsyncCurrentSource lane the extraction stages submit probe batches to.
#pragma once

#include "common.hpp"
#include "probe/current_source.hpp"
#include "probe/driver/async_source.hpp"

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kJob,             // root of one job; its self time is unattributed
  kAnchors,         // extraction: find_anchor_points
  kSweeps,          // extraction: run_sweeps
  kPostprocess,     // extraction: postprocess_transition_points
  kFit,             // extraction: fit_piecewise_linear + virtualization
  kHoughAnalysis,   // extraction: line picking + refinement around imgproc
  kProbeLane,       // probe: one batch through the AsyncCurrentSource lane
  kProbeRaster,     // probe: acquire_full_csd
  kPlayback,        // probe: CsdPlayback backend calls
  kDevice,          // device: DeviceSimulator backend calls
  kCanny,           // imgproc: normalize01 + canny
  kHough,           // imgproc: hough_lines
  kWireEncode,      // wire: encode / to_json of the request (client side)
  kWireDecode,      // wire: decode_report / report_from_json (client side)
  kServerSubmit,    // server: POST /v1/jobs round trip
  kServerCancel,    // server: POST /v1/jobs/<id>/cancel round trip
  kServerResult,    // server: ?wait=1 poll, or SSE stream + report fetch
  kCount,
};
inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount);

[[nodiscard]] const char* span_name(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kJob;
  std::int32_t parent = -1;  // index within the job's spans; -1 for the root
  std::uint32_t job = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// Work counted at the same boundaries the spans sit on.
struct JobCounters {
  long device_points = 0;    // points the DeviceSimulator evaluated
  long probe_requests = 0;   // requests the extraction issued (incl. hits)
  long unique_probes = 0;
  long cache_hits = 0;
  long raw_points = 0;       // sweep transition points before filtering
  long kept_points = 0;      // after postprocess
  long edge_pixels = 0;      // Canny output size
  long hough_jobs = 0;
  long fast_jobs = 0;

  JobCounters& operator+=(const JobCounters& other);
};

class JobTrace {
 public:
  JobTrace(std::uint32_t job, bool enabled) : job_(job), enabled_(enabled) {}

  /// RAII span: opened on construction, closed on destruction. A disabled
  /// trace reads no clock.
  class Scope {
   public:
    Scope(JobTrace& trace, SpanKind kind);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    JobTrace& trace_;
    std::int32_t index_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  JobCounters counters;

 private:
  std::uint32_t job_;
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Per-kind self time summed over jobs (span minus its children's spans),
/// plus the job totals and counters. Self times of one job add up to its
/// root span exactly.
struct LayerTotals {
  std::array<double, kSpanKinds> self_ms{};
  double job_ms = 0.0;
  long jobs = 0;
  JobCounters counters;

  void add(const JobTrace& trace);
};

/// Spans of finished jobs, kept in memory up to `cap` spans and written
/// out once at the end as CSV (job,index,parent,name,start_us,end_us).
class SpanStore {
 public:
  explicit SpanStore(std::size_t cap) : cap_(cap) {}
  void keep(const JobTrace& trace);
  [[nodiscard]] bool write_csv(const std::string& path) const;
  [[nodiscard]] std::size_t kept() const;
  [[nodiscard]] std::size_t dropped() const;

 private:
  std::size_t cap_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

/// Forwarding CurrentSource that spans every backend call (and counts the
/// points a DeviceSimulator evaluates).
class TracedSource final : public qvg::CurrentSource {
 public:
  TracedSource(qvg::CurrentSource& inner, JobTrace& trace, SpanKind kind)
      : inner_(inner), trace_(trace), kind_(kind) {}

  double get_current(double v1, double v2) override;
  void get_currents(std::span<const qvg::Point2> points,
                    std::span<double> out) override;
  [[nodiscard]] qvg::Status try_get_currents(std::span<const qvg::Point2> points,
                                             std::span<double> out) override;
  [[nodiscard]] long drift_started_at_probe() const override {
    return inner_.drift_started_at_probe();
  }
  [[nodiscard]] qvg::SimClock& clock() override { return inner_.clock(); }
  [[nodiscard]] const qvg::SimClock& clock() const override {
    return inner_.clock();
  }
  [[nodiscard]] long probe_count() const override { return inner_.probe_count(); }

 private:
  qvg::CurrentSource& inner_;
  JobTrace& trace_;
  SpanKind kind_;
};

/// Forwarding AsyncCurrentSource that spans every submitted batch.
class TracedLane final : public qvg::AsyncCurrentSource {
 public:
  TracedLane(qvg::AsyncCurrentSource& inner, JobTrace& trace)
      : inner_(inner), trace_(trace) {}

  [[nodiscard]] qvg::CompletionHandle submit(
      std::span<const qvg::Point2> points, std::span<double> out,
      const qvg::AcquisitionContext& context, const char* stage) override;
  void abort_inflight() override { inner_.abort_inflight(); }
  void drain() override { inner_.drain(); }
  [[nodiscard]] long depth() const override { return inner_.depth(); }
  [[nodiscard]] long probes_completed() const override {
    return inner_.probes_completed();
  }

 private:
  qvg::AsyncCurrentSource& inner_;
  JobTrace& trace_;
};

}  // namespace perfbench
