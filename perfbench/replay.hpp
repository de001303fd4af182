// Instrumented replay of one engine request, for the traced run. It walks
// the same public stage functions the engine does — anchors, sweeps,
// postprocess and fit over a bench-owned ProbeCache + SyncSourceAdapter
// for the fast method; acquire_full_csd, then canny / hough_lines on the
// acquired diagram for the Hough baseline — with a span around each call
// and the TracedSource / TracedLane decorators on the backend and the lane.
//
// The replay covers the fault-free synchronous lane (no FaultSchedule, no
// transport): what suite_fast submits, and the served requests without
// transport options. Its
// deterministic output is checked against the request's untraced engine
// reference, which proves the replay is faithful.
#pragma once

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// Run `request` through the instrumented pipeline, recording spans and
/// counters into `trace` (spans only when it is enabled).
[[nodiscard]] Fingerprint replay(const qvg::ExtractionRequest& request,
                                 JobTrace& trace);

}  // namespace perfbench
