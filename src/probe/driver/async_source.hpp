// The instrument-driver boundary of the acquisition path.
//
// Synchronous probe loops call probe_with_retry and block; a real instrument
// sits behind a command link, so the engine should *submit* transfers and
// consume completions — the producer/consumer shape of a DMA device driver.
// AsyncCurrentSource is that interface: submit(batch) returns a
// CompletionHandle immediately, up to depth() batches ride in flight, and
// every completion carries the ProbeOutcome plus the source's probe count
// observed right after the batch executed (so callers can evaluate budget
// checks deterministically without touching the source while transfers are
// in flight).
//
// Two implementations exist:
//   * SyncSourceAdapter — executes each batch inline at submit() (depth 1).
//     Every existing backend (DeviceSimulator, CsdPlayback, ProbeCache,
//     FaultInjectingCurrentSource) runs unchanged behind it, call for call
//     and bit for bit identical to the pre-driver loops. This is the default
//     lane (TransportOptions::io_depth == 0).
//   * InstrumentDriver (instrument_driver.hpp) — a dedicated driver thread
//     owning a bounded request ring and a simulated transport, for jobs
//     that model a slow link (io_depth >= 1).
// make_lane() picks between them for a job.
//
// The paper's fast method is serial by construction — each sweep segment's
// argmax shapes the next segment, each anchor scan the next scan — so every
// probe loop except the raster goes through submit_and_wait(), one batch at
// a time. Only the raster keeps up to depth() batches in flight.
#pragma once

#include "probe/acquisition_context.hpp"
#include "probe/current_source.hpp"
#include "probe/retry_policy.hpp"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>

namespace qvg {

/// One finished transfer. `outcome` is exactly what probe_with_retry
/// returned for the batch; `probes_after` is the driving source's
/// probe_count() sampled immediately after the successful attempt (0 when
/// the batch failed or was aborted before executing).
struct BatchCompletion {
  ProbeOutcome outcome;
  long probes_after = 0;
};

/// Waitable handle on one submitted batch (shared-state, copyable). A
/// default-constructed handle is invalid; wait() on it is a programming
/// error guarded by valid().
class CompletionHandle {
 public:
  CompletionHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Block until the batch completes (immediately for the sync adapter) and
  /// return the completion. The reference stays valid for the handle's
  /// lifetime; repeated calls return the same completion.
  [[nodiscard]] const BatchCompletion& wait() const;

 private:
  friend class SyncSourceAdapter;
  friend class InstrumentDriver;

  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    BatchCompletion completion;
  };

  explicit CompletionHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Asynchronous submission interface over a CurrentSource. Batches execute
/// in submission order (completions never reorder), each through
/// probe_with_retry under the submitting context, so the traffic an inner
/// source (or ProbeCache) observes is identical to the synchronous loops'.
class AsyncCurrentSource {
 public:
  virtual ~AsyncCurrentSource() = default;

  /// Submit one batch. `points` and `out` must stay valid (and `out` must
  /// not be written by the caller) until the returned handle's completion
  /// has been waited. Blocks only when depth() batches are already in
  /// flight (ring backpressure).
  [[nodiscard]] virtual CompletionHandle submit(
      std::span<const Point2> points, std::span<double> out,
      const AcquisitionContext& context, const char* stage) = 0;

  /// Abort everything currently in flight: queued batches complete with
  /// kCancelled without executing, and an in-flight wall-clock transfer is
  /// interrupted at its next poll. Later submissions run normally.
  virtual void abort_inflight() = 0;

  /// Block until no batch is queued or executing. After drain() the inner
  /// source is quiescent: reading its probe_count(), clock, or cache
  /// statistics from the calling thread is safe.
  virtual void drain() = 0;

  /// Maximum batches in flight at once (1 for the sync adapter).
  [[nodiscard]] virtual long depth() const = 0;

  /// The source's probe_count() after the last completed batch. Only
  /// meaningful when nothing is in flight (call after drain(), or at entry);
  /// probe loops track BatchCompletion::probes_after instead.
  [[nodiscard]] virtual long probes_completed() const = 0;
};

/// Depth-1 adapter: submit() runs probe_with_retry inline and returns an
/// already-completed handle. The default lane for every job without
/// transport options — behaviourally identical to calling probe_with_retry
/// directly, which is what the pre-driver loops did.
class SyncSourceAdapter final : public AsyncCurrentSource {
 public:
  explicit SyncSourceAdapter(CurrentSource& source) : source_(source) {}

  [[nodiscard]] CompletionHandle submit(std::span<const Point2> points,
                                        std::span<double> out,
                                        const AcquisitionContext& context,
                                        const char* stage) override;
  void abort_inflight() override {}
  void drain() override {}
  [[nodiscard]] long depth() const override { return 1; }
  [[nodiscard]] long probes_completed() const override {
    return source_.probe_count();
  }

 private:
  CurrentSource& source_;
};

/// The job's acquisition lane over `source`: an InstrumentDriver when
/// context.transport is enabled (its DriverStats flushed into
/// context.faults when the lane is destroyed), the SyncSourceAdapter
/// otherwise.
[[nodiscard]] std::unique_ptr<AsyncCurrentSource> make_lane(
    CurrentSource& source, const AcquisitionContext& context);

/// The serial acquisition step: submit one batch, wait for its completion,
/// and on success advance `probes` to the completion's probes_after. Returns
/// the batch's ProbeOutcome (its status is the failure otherwise, and
/// `probes` is left unchanged). `points` and `out` are released on return.
[[nodiscard]] ProbeOutcome submit_and_wait(AsyncCurrentSource& driver,
                                           std::span<const Point2> points,
                                           std::span<double> out,
                                           const AcquisitionContext& context,
                                           const char* stage, long& probes);

}  // namespace qvg
