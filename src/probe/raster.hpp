// Full-CSD acquisition by raster scan — the data-collection stage of the
// baseline method (every pixel is probed once).
#pragma once

#include "common/status.hpp"
#include "grid/csd.hpp"
#include "probe/acquisition_context.hpp"
#include "probe/current_source.hpp"
#include "probe/driver/async_source.hpp"

namespace qvg {

/// Probe every pixel of the window defined by the two axes (row-major,
/// bottom-to-top) and return the acquired diagram. Issued as one batched
/// get_currents request, so backends with a parallel probe path (the device
/// simulator) evaluate the physics concurrently — output stays bit-identical
/// to the scalar pixel-by-pixel loop.
[[nodiscard]] Csd acquire_full_csd(CurrentSource& source,
                                   const VoltageAxis& x_axis,
                                   const VoltageAxis& y_axis);

/// Context-aware acquisition. An unlimited context takes the single-batch
/// path above; a limited one issues the raster in whole-row batches of at
/// least ~512 probes and checks the context between them, so a cancelled or
/// expired job stops at the next batch boundary (never mid-batch) with the
/// probes already issued still counted on the source. Probe order is
/// identical either way, so an uninterrupted limited acquisition is
/// bit-identical to the unlimited one. On interruption returns the typed
/// Status (stage "raster"); the partially acquired pixels are discarded.
///
/// The limited path is also the fault-tolerant one: every batch goes
/// through probe_with_retry (transient faults retried per context.retry,
/// exhaustion escalating to kProbeHardFault), and a kDeviceDrifted report
/// triggers targeted re-acquisition — only the row batches probed since
/// drift_started_at_probe() are re-issued against the recalibrated source
/// (counted into FaultStats::reacquired_rows), bounded so pathological
/// schedules fail typed instead of looping. Drift recovery assumes the
/// source's probe_count() and drift_started_at_probe() share one numbering
/// (true of FaultInjectingCurrentSource and any real driver; a ProbeCache
/// invalidates its own stale region internally instead).
[[nodiscard]] Result<Csd> acquire_full_csd(CurrentSource& source,
                                           const VoltageAxis& x_axis,
                                           const VoltageAxis& y_axis,
                                           const AcquisitionContext& context);

/// The same checked acquisition over an explicit driver lane. Rows do not
/// depend on each other, so this is the one probe loop that pipelines: row
/// batches — sub-spans of one window-wide point list — are *submitted* to
/// the AsyncCurrentSource with up to driver.depth() transfers in flight
/// (hiding the transport's command latency), while drift re-issues run
/// serially through submit_and_wait. Every budget/drift decision is driven
/// by completion-carried probe counts, so results and check sequences are
/// deterministic at any depth and bit-identical across depths for
/// uninterrupted runs. The CurrentSource overload above routes here through
/// make_lane() (the SyncSourceAdapter lane is call-for-call the pre-driver
/// loop).
[[nodiscard]] Result<Csd> acquire_full_csd(AsyncCurrentSource& driver,
                                           const VoltageAxis& x_axis,
                                           const VoltageAxis& y_axis,
                                           const AcquisitionContext& context);

}  // namespace qvg
