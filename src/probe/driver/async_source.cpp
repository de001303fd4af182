#include "probe/driver/async_source.hpp"

#include "probe/driver/instrument_driver.hpp"

namespace qvg {

const BatchCompletion& CompletionHandle::wait() const {
  std::unique_lock lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->completion;
}

CompletionHandle SyncSourceAdapter::submit(std::span<const Point2> points,
                                           std::span<double> out,
                                           const AcquisitionContext& context,
                                           const char* stage) {
  auto state = std::make_shared<CompletionHandle::State>();
  state->completion.outcome =
      probe_with_retry(source_, points, out, context, stage);
  if (state->completion.outcome.ok())
    state->completion.probes_after = source_.probe_count();
  state->done = true;
  return CompletionHandle(std::move(state));
}

std::unique_ptr<AsyncCurrentSource> make_lane(
    CurrentSource& source, const AcquisitionContext& context) {
  if (context.transport.enabled())
    return std::make_unique<InstrumentDriver>(source, context.transport,
                                              context.faults);
  return std::make_unique<SyncSourceAdapter>(source);
}

ProbeOutcome submit_and_wait(AsyncCurrentSource& driver,
                             std::span<const Point2> points,
                             std::span<double> out,
                             const AcquisitionContext& context,
                             const char* stage, long& probes) {
  const CompletionHandle handle = driver.submit(points, out, context, stage);
  const BatchCompletion& completion = handle.wait();
  if (completion.outcome.ok()) probes = completion.probes_after;
  return completion.outcome;
}

}  // namespace qvg
