// InstrumentDriver: a dedicated driver thread owning a bounded request ring
// and a simulated transport, behind the AsyncCurrentSource interface.
//
// The shape is a DMA device driver. submit() posts a transfer descriptor
// into a fixed-capacity ring (capacity = TransportOptions::io_depth) and
// returns a CompletionHandle; the driver thread pops descriptors in order,
// executes each batch against the inner CurrentSource through
// probe_with_retry, charges the transport cost, and fulfils the completion.
// Because one thread executes everything serially in submission order, the
// probe traffic the inner source sees — order, counts, retries, cache hits —
// is identical to the synchronous loops', which is what keeps the pipelined
// raster bit-identical to the SyncSourceAdapter lane.
//
// Transport accounting (see TransportOptions): every executed batch charges
// latency_us + points/bandwidth to the source's SimClock, an
// order-independent per-batch cost, so simulated_seconds is identical at
// any io_depth. In wall_clock mode the driver additionally waits the
// transport out for real: a batch's command latency runs from its submit
// time (overlapped across in-flight batches), transfers serialize on the
// link, and the wait polls cancellation/deadline/abort every millisecond —
// so cancelling a job stops it within one transfer, not one batch loop.
//
// Shutdown drains the ring: queued descriptors complete with kCancelled
// without executing, an in-flight wall-clock transfer aborts at its next
// poll, and the destructor joins the thread before flushing DriverStats
// into the owning job's FaultRecorder. No completion is ever leaked.
#pragma once

#include "probe/driver/async_source.hpp"
#include "probe/transport_options.hpp"

#include <chrono>
#include <cstdint>
#include <deque>
#include <thread>

namespace qvg {

/// What one driver absorbed over its lifetime, merged into
/// FaultStats::driver_* by the destructor (when a recorder is armed).
struct DriverStats {
  /// Transfers executed to completion (successful or failed by the source).
  long batches = 0;
  /// Transfers aborted at the driver boundary: queued descriptors failed by
  /// abort_inflight()/shutdown, plus in-flight wall-clock transfers
  /// interrupted by cancellation, deadline, or abort.
  long aborted_transfers = 0;
  /// Ring occupancy high-water mark (queued + executing).
  long max_inflight = 0;
  /// Nominal transport time charged across all executed batches (seconds):
  /// per-batch command latency plus size/bandwidth transfer time.
  double transport_seconds = 0.0;

  friend bool operator==(const DriverStats&, const DriverStats&) = default;
};

class InstrumentDriver final : public AsyncCurrentSource {
 public:
  /// `transport.io_depth` must be >= 1. The recorder (typically the job
  /// context's) receives this driver's DriverStats on destruction; an empty
  /// recorder discards them.
  InstrumentDriver(CurrentSource& source, const TransportOptions& transport,
                   FaultRecorder recorder = {});
  ~InstrumentDriver() override;

  InstrumentDriver(const InstrumentDriver&) = delete;
  InstrumentDriver& operator=(const InstrumentDriver&) = delete;

  [[nodiscard]] CompletionHandle submit(std::span<const Point2> points,
                                        std::span<double> out,
                                        const AcquisitionContext& context,
                                        const char* stage) override;
  void abort_inflight() override;
  void drain() override;
  [[nodiscard]] long depth() const override { return transport_.io_depth; }
  [[nodiscard]] long probes_completed() const override;

  /// Lifetime totals so far (thread-safe snapshot).
  [[nodiscard]] DriverStats stats() const;

 private:
  using WallClock = std::chrono::steady_clock;

  struct Request {
    std::span<const Point2> points;
    std::span<double> out;
    const AcquisitionContext* context = nullptr;
    const char* stage = "driver";
    std::shared_ptr<CompletionHandle::State> state;
    std::uint64_t epoch = 0;
    WallClock::time_point submitted_at;
  };

  void run();
  [[nodiscard]] long inflight_locked() const {
    return static_cast<long>(ring_.size()) + (executing_ ? 1 : 0);
  }
  /// Wall-clock transport wait for one executed batch (no-op in sim mode).
  /// Returns ok, or the typed interruption that aborted the transfer.
  [[nodiscard]] Status wall_wait(const Request& request);
  static void fulfil(const std::shared_ptr<CompletionHandle::State>& state,
                     BatchCompletion completion);

  CurrentSource& source_;
  const TransportOptions transport_;
  FaultRecorder recorder_;

  mutable std::mutex mutex_;
  std::condition_variable cv_worker_;  // driver thread: work available / stop
  std::condition_variable cv_submit_;  // producers: ring slot freed
  std::condition_variable cv_idle_;    // drain(): ring empty and not executing
  std::deque<Request> ring_;
  bool executing_ = false;
  bool stop_ = false;
  std::uint64_t abort_epoch_ = 0;
  long last_probes_ = 0;
  DriverStats stats_;

  // Driver-thread state: when the serialized link frees up (wall mode).
  WallClock::time_point link_free_at_{};

  std::thread thread_;
};

}  // namespace qvg
