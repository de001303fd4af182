// Typed error vocabulary for *expected* domain failures.
//
// error.hpp's policy still holds: contract violations and environmental
// faults throw. But "extraction failed on this noisy device" is an ordinary,
// reportable outcome, and the pre-redesign convention — a `bool success`
// plus a free-form `failure_reason` string on every result struct — made
// callers parse prose to branch on the failure kind. Status replaces it with
// a machine-readable code, the pipeline stage that failed, and the
// human-readable detail; Result<T> carries a Status alongside an optional
// value for call-shaped APIs (the Status analogue of Expected<T>).
#pragma once

#include "common/error.hpp"

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace qvg {

/// Failure category. Codes are stable API: callers branch on these instead
/// of grepping failure strings.
enum class ErrorCode {
  kOk = 0,
  /// A request/argument was malformed (e.g. no backend on an
  /// ExtractionRequest).
  kInvalidRequest,
  /// Anchor preprocessing could not place a valid critical region.
  kAnchorNotFound,
  /// The sweeps located too few transition points to fit.
  kInsufficientPoints,
  /// The 2-piecewise fit rejected the points.
  kFitFailed,
  /// The extracted slopes do not yield an invertible virtualization matrix.
  kDegenerateVirtualization,
  /// The Hough baseline found no line in a required family.
  kLineNotFound,
  /// At least one pair of an array extraction failed.
  kPairFailed,
  /// File or stream I/O failed.
  kIoError,
  /// Input data could not be parsed.
  kParseError,
  /// The job was cancelled (CancelToken fired) before or during the run;
  /// Status::stage() records the pipeline stage at the interruption point.
  kCancelled,
  /// The job's deadline passed (including a Budget.max_wall_seconds folded
  /// into the deadline at job start); Status::stage() records the
  /// interrupting stage.
  kDeadlineExceeded,
  /// The job's probe budget (Budget.max_probes) was exhausted;
  /// Status::stage() records the interrupting stage. Distinct from
  /// kDeadlineExceeded so callers (and csd_tool's exit codes) can tell
  /// "ran out of time" from "ran out of probes".
  kBudgetExhausted,
  /// A probe batch failed transiently (instrument glitch, comm timeout):
  /// retrying the same batch may succeed. Surfaces from
  /// CurrentSource::try_get_currents; probe_with_retry absorbs it up to
  /// RetryPolicy::max_attempts before escalating to kProbeHardFault.
  kProbeTransient,
  /// A probe batch failed permanently (instrument fault, or a transient
  /// fault that persisted through every retry). The acquisition cannot
  /// continue; JobQueue can optionally re-run the whole job
  /// (SubmitOptions::max_job_retries).
  kProbeHardFault,
  /// The instrument reported that its gate offsets drifted (slow drift or a
  /// telegraph charge jump crossed the detection threshold): readings since
  /// CurrentSource::drift_started_at_probe() are stale. The source has
  /// recalibrated by the time this is reported; recovery invalidates the
  /// stale ProbeCache region and re-probes only the affected rows.
  kDeviceDrifted,
  /// The service shed this job at admission: the tenant's (or the queue's)
  /// pending backlog exceeded its configured bound. The job never ran and
  /// issued zero probes; clients should back off and resubmit. Maps to
  /// HTTP 503 at the wire API.
  kOverloaded,
  /// Unclassified internal failure.
  kInternal,
};

/// Stable snake_case code names, indexed by code value ("ok",
/// "invalid_request", ...), for logs and serialized reports.
inline constexpr std::array<std::string_view, 18> kErrorCodeNames = {
    "ok",
    "invalid_request",
    "anchor_not_found",
    "insufficient_points",
    "fit_failed",
    "degenerate_virtualization",
    "line_not_found",
    "pair_failed",
    "io_error",
    "parse_error",
    "cancelled",
    "deadline_exceeded",
    "budget_exhausted",
    "probe_transient",
    "probe_hard_fault",
    "device_drifted",
    "overloaded",
    "internal",
};
static_assert(kErrorCodeNames.size() ==
              static_cast<std::size_t>(ErrorCode::kInternal) + 1);

/// kErrorCodeNames[code], or "unknown" for a value outside the enum.
[[nodiscard]] const char* error_code_name(ErrorCode code) noexcept;

/// The outcome of an operation: ok, or a typed failure carrying the pipeline
/// stage that failed ("anchors", "fit", ...) and a human-readable detail.
class Status {
 public:
  /// Ok status.
  Status() = default;

  /// A failed status. `code` must not be kOk.
  [[nodiscard]] static Status failure(ErrorCode code, std::string stage,
                                      std::string detail);

  [[nodiscard]] bool ok() const noexcept { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& stage() const noexcept { return stage_; }
  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }

  /// "stage: detail" (or the non-empty half) — the legacy failure_reason
  /// string. Empty for an ok status.
  [[nodiscard]] std::string message() const;

  friend bool operator==(const Status&, const Status&) = default;

 private:
  Status(ErrorCode code, std::string stage, std::string detail)
      : code_(code), stage_(std::move(stage)), detail_(std::move(detail)) {}

  ErrorCode code_ = ErrorCode::kOk;
  std::string stage_;
  std::string detail_;
};

/// Status-carrying expected type: a value, or the Status explaining why
/// there is none. Mirrors Expected<T>'s surface (has_value/value/reason) so
/// migrating call sites is mechanical, and adds status() for typed handling.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Construct a failure. `status.ok()` is a contract violation.
  Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    if (status_.ok())
      throw ContractViolation("Result constructed from an ok Status");
  }

  [[nodiscard]] bool has_value() const noexcept { return value_.has_value(); }
  [[nodiscard]] bool ok() const noexcept { return has_value(); }
  explicit operator bool() const noexcept { return has_value(); }

  /// The failure Status (ok when the Result holds a value).
  [[nodiscard]] const Status& status() const noexcept { return status_; }

  /// Legacy-compatible failure message; empty when the Result holds a value.
  [[nodiscard]] std::string reason() const { return status_.message(); }

  [[nodiscard]] const T& value() const& {
    if (!value_)
      throw ContractViolation("Result::value() on failure: " + status_.message());
    return *value_;
  }
  [[nodiscard]] T& value() & {
    if (!value_)
      throw ContractViolation("Result::value() on failure: " + status_.message());
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    if (!value_)
      throw ContractViolation("Result::value() on failure: " + status_.message());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  [[nodiscard]] T value_or(T fallback) const {
    return value_ ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace qvg
