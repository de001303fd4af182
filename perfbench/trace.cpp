#include "trace.hpp"

#include <fstream>

namespace perfbench {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kJob: return "job";
    case SpanKind::kAnchors: return "extraction.anchors";
    case SpanKind::kSweeps: return "extraction.sweeps";
    case SpanKind::kPostprocess: return "extraction.postprocess";
    case SpanKind::kFit: return "extraction.fit";
    case SpanKind::kHoughAnalysis: return "extraction.hough_analysis";
    case SpanKind::kProbeLane: return "probe.lane";
    case SpanKind::kProbeRaster: return "probe.raster";
    case SpanKind::kPlayback: return "probe.playback";
    case SpanKind::kDevice: return "device.simulator";
    case SpanKind::kCanny: return "imgproc.canny";
    case SpanKind::kHough: return "imgproc.hough";
    case SpanKind::kWireEncode: return "wire.encode";
    case SpanKind::kWireDecode: return "wire.decode";
    case SpanKind::kServerSubmit: return "server.submit";
    case SpanKind::kServerCancel: return "server.cancel";
    case SpanKind::kServerResult: return "server.result";
    case SpanKind::kCount: break;
  }
  return "?";
}

JobTrace::Scope::Scope(JobTrace& trace, SpanKind kind) : trace_(trace) {
  if (!trace_.enabled_) return;
  index_ = static_cast<std::int32_t>(trace_.spans_.size());
  const std::int32_t parent = trace_.open_.empty() ? -1 : trace_.open_.back();
  trace_.spans_.push_back({kind, parent, trace_.job_, Clock::now(), {}});
  trace_.open_.push_back(index_);
}

JobTrace::Scope::~Scope() {
  if (index_ < 0) return;
  trace_.spans_[static_cast<std::size_t>(index_)].end = Clock::now();
  trace_.open_.pop_back();
}

void LayerTotals::add(const JobTrace& trace) {
  const std::vector<Span>& spans = trace.spans();
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& span : spans)
    if (span.parent >= 0)
      child_ms[static_cast<std::size_t>(span.parent)] +=
          ms_between(span.start, span.end);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double ms = ms_between(spans[i].start, spans[i].end);
    self_ms[static_cast<std::size_t>(spans[i].kind)] += ms - child_ms[i];
    if (spans[i].parent < 0) job_ms += ms;
  }
  ++jobs;
  counters += trace.counters;
}

JobCounters& JobCounters::operator+=(const JobCounters& other) {
  device_points += other.device_points;
  probe_requests += other.probe_requests;
  unique_probes += other.unique_probes;
  cache_hits += other.cache_hits;
  raw_points += other.raw_points;
  kept_points += other.kept_points;
  edge_pixels += other.edge_pixels;
  hough_jobs += other.hough_jobs;
  fast_jobs += other.fast_jobs;
  return *this;
}

void SpanStore::keep(const JobTrace& trace) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() + trace.spans().size() > cap_) {
    dropped_ += trace.spans().size();
    return;
  }
  spans_.insert(spans_.end(), trace.spans().begin(), trace.spans().end());
}

std::size_t SpanStore::kept() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::size_t SpanStore::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool SpanStore::write_csv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "job,index,parent,name,start_us,end_us\n";
  // Spans of one job are contiguous and in open order, so the index within
  // the job is the distance from the job's first span.
  std::size_t job_first = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) job_first = i;
    out << s.job << ',' << (i - job_first) << ',' << s.parent << ','
        << span_name(s.kind) << ','
        << 1e3 * ms_between(epoch_, s.start) << ','
        << 1e3 * ms_between(epoch_, s.end) << '\n';
  }
  return static_cast<bool>(out);
}

double TracedSource::get_current(double v1, double v2) {
  const JobTrace::Scope scope(trace_, kind_);
  if (kind_ == SpanKind::kDevice) ++trace_.counters.device_points;
  return inner_.get_current(v1, v2);
}

void TracedSource::get_currents(std::span<const qvg::Point2> points,
                                std::span<double> out) {
  const JobTrace::Scope scope(trace_, kind_);
  if (kind_ == SpanKind::kDevice)
    trace_.counters.device_points += static_cast<long>(points.size());
  inner_.get_currents(points, out);
}

qvg::Status TracedSource::try_get_currents(std::span<const qvg::Point2> points,
                                           std::span<double> out) {
  const JobTrace::Scope scope(trace_, kind_);
  if (kind_ == SpanKind::kDevice)
    trace_.counters.device_points += static_cast<long>(points.size());
  return inner_.try_get_currents(points, out);
}

qvg::CompletionHandle TracedLane::submit(std::span<const qvg::Point2> points,
                                         std::span<double> out,
                                         const qvg::AcquisitionContext& context,
                                         const char* stage) {
  const JobTrace::Scope scope(trace_, SpanKind::kProbeLane);
  return inner_.submit(points, out, context, stage);
}

}  // namespace perfbench
