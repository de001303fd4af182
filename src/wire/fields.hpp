// The wire schema: one field list per message, read by both lanes.
//
// Each message, and each struct nested in one, has a Schema<T> whose
// `fields` tuple lists its fields in tag order: binary tag, JSON key and
// member. Four generic walkers read the lists (binary write and read in
// messages.cpp, JSON write and read in json.cpp) and pick the encoding from
// the member's C++ type:
//
//   member type          binary                 JSON
//   double               kF64 bit pattern       number, "nan", "inf", "-inf"
//   bool                 kU64 0 / 1             true / false
//   std::string          kBytes                 string
//   integer              kU64 (two's compl.)    exact integer
//   enum, or a .named()  kU64 value             name from the table
//   std::vector<double>  one packed kBytes      array of numbers
//   described struct     kMsg of its fields     object of its fields
//   std::optional<X>     as X when set, absent otherwise
//
// An integer that does not fit its member is a kParseError in both lanes,
// and so is an enum value outside its name table in binary; a named integer
// (frontier) travels unchecked in binary, for materialize() to validate.
//
// A new field is one line in its message's list. Tags are never reused:
// old writers still send them. JSON key order is not part of the contract.
//
// Hand-written code stays where a list cannot express the mapping:
// VoltageAxis (constructor invariants), Csd (one packed pixel field, the
// pixel-count check) and Status (code 0 means ok) travel as a Form struct
// their Schema converts to and from, and WireRequest sends only the active
// backend (Field::when).
#pragma once

#include "wire/messages.hpp"

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

namespace qvg::wire {

/// One entry of a field list. `path` is one member pointer, or two for a
/// field flattened out of a nested member (report alpha12, truth
/// triple_point_x).
template <typename Owner, typename... Path>
struct Field {
  std::uint8_t tag;
  std::string_view key;
  std::tuple<Path...> path;
  /// A named enum's vocabulary: value i travels as names[i] in JSON.
  std::span<const std::string_view> names = {};
  /// When set, the field is written only while this holds, and the JSON
  /// reader ignores the key otherwise. It may only read earlier fields. The
  /// binary reader decodes whatever tags arrive.
  bool (*when)(const Owner&) = nullptr;
  /// The JSON reader rejects a document without this key (while `when`
  /// holds). The binary lane leaves it default-valued instead.
  bool required_in_json = false;

  template <typename T>
  [[nodiscard]] constexpr auto& of(T& owner) const {
    return std::apply(
        [&owner](auto... member) -> auto& { return (owner .* ... .* member); },
        path);
  }

  [[nodiscard]] constexpr Field named(
      std::span<const std::string_view> table) const {
    Field f = *this;
    f.names = table;
    return f;
  }
  [[nodiscard]] constexpr Field only_if(bool (*predicate)(const Owner&)) const {
    Field f = *this;
    f.when = predicate;
    return f;
  }
  [[nodiscard]] constexpr Field required() const {
    Field f = *this;
    f.required_in_json = true;
    return f;
  }
};

template <typename Owner, typename M, typename... Inner>
constexpr auto field(std::uint8_t tag, std::string_view key, M Owner::*member,
                     Inner... inner) {
  return Field<Owner, M Owner::*, Inner...>{tag, key, {member, inner...}};
}

/// Specialised once per described type with its field list, or with a Form
/// and the conversions to and from it.
template <typename T>
struct Schema;

template <typename T>
concept HasForm = requires { typename Schema<T>::Form; };

template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

/// The wire integer `raw` (two's complement for a signed V) as a V, or
/// nullopt when it does not fit.
template <typename V>
[[nodiscard]] std::optional<V> narrow(std::uint64_t raw) {
  if constexpr (std::is_signed_v<V>) {
    const auto wide = static_cast<std::int64_t>(raw);
    if (wide < std::numeric_limits<V>::min() ||
        wide > std::numeric_limits<V>::max())
      return std::nullopt;
    return static_cast<V>(wide);
  } else {
    if (raw > std::numeric_limits<V>::max()) return std::nullopt;
    return static_cast<V>(raw);
  }
}

/// names[value]; names[0] for an unchecked integer outside the table.
[[nodiscard]] inline std::string_view name_of(
    std::span<const std::string_view> names, std::uint64_t value) {
  return value < names.size() ? names[value] : names[0];
}

inline constexpr std::string_view kMethodNames[] = {"fast", "hough_baseline"};
inline constexpr std::string_view kBackendNames[] = {"none", "device",
                                                     "playback"};
inline constexpr std::string_view kFrontierNames[] = {"anneal", "tabu",
                                                      "greedy"};

// ------------------------------------------------------ hand-written forms --

struct AxisForm {
  double start = 0.0;
  double step = 1.0;
  std::uint64_t count = 1;
};

template <>
struct Schema<AxisForm> {
  static constexpr auto fields = std::tuple{
      field(1, "start", &AxisForm::start),
      field(2, "step", &AxisForm::step),
      field(3, "count", &AxisForm::count),
  };
};

template <>
struct Schema<VoltageAxis> {
  using Form = AxisForm;
  static Form to_form(const VoltageAxis& axis) {
    return {axis.start(), axis.step(), axis.count()};
  }
  /// Empty on success, else why the form is rejected.
  static std::string from_form(Form&& form, VoltageAxis& out) {
    // The constructor's preconditions (the !(...) form also rejects NaN).
    if (!(form.step > 0.0) || form.count < 1 || form.count > (1u << 24))
      return "axis with invalid step/count";
    out = VoltageAxis(form.start, form.step,
                      static_cast<std::size_t>(form.count));
    return {};
  }
};

struct CsdForm {
  std::optional<VoltageAxis> x_axis;
  std::optional<VoltageAxis> y_axis;
  std::string name;
  std::optional<TransitionTruth> truth;
  std::vector<double> pixels;  // row-major, y outer
};

template <>
struct Schema<CsdForm> {
  static constexpr auto fields = std::tuple{
      field(1, "x_axis", &CsdForm::x_axis),
      field(2, "y_axis", &CsdForm::y_axis),
      field(3, "name", &CsdForm::name),
      field(4, "truth", &CsdForm::truth),
      field(5, "pixels", &CsdForm::pixels),
  };
};

template <>
struct Schema<Csd> {
  using Form = CsdForm;
  static Form to_form(const Csd& csd) {
    return {csd.x_axis(), csd.y_axis(), csd.name(), csd.truth(),
            csd.grid().raw()};
  }
  static std::string from_form(Form&& form, Csd& out) {
    if (!form.x_axis.has_value() || !form.y_axis.has_value())
      return "CSD without axes";
    if (form.pixels.size() != form.x_axis->count() * form.y_axis->count())
      return "CSD pixel count does not match its axes";
    out = Csd(*form.x_axis, *form.y_axis);
    out.grid().raw() = std::move(form.pixels);
    if (form.truth.has_value()) out.set_truth(*form.truth);
    out.set_name(std::move(form.name));
    return {};
  }
};

struct StatusForm {
  ErrorCode code = ErrorCode::kOk;
  std::string stage;
  std::string detail;
};

template <>
struct Schema<StatusForm> {
  static constexpr auto fields = std::tuple{
      field(1, "code", &StatusForm::code).named(kErrorCodeNames),
      field(2, "stage", &StatusForm::stage),
      field(3, "detail", &StatusForm::detail),
  };
};

template <>
struct Schema<Status> {
  using Form = StatusForm;
  static Form to_form(const Status& status) {
    return {status.code(), status.stage(), status.detail()};
  }
  static std::string from_form(Form&& form, Status& out) {
    out = form.code == ErrorCode::kOk
              ? Status()
              : Status::failure(form.code, std::move(form.stage),
                                std::move(form.detail));
    return {};
  }
};

// ------------------------------------------------------------ field lists --

template <>
struct Schema<TransitionTruth> {
  static constexpr auto fields = std::tuple{
      field(1, "slope_steep", &TransitionTruth::slope_steep),
      field(2, "slope_shallow", &TransitionTruth::slope_shallow),
      field(3, "triple_point_x", &TransitionTruth::triple_point, &Point2::x),
      field(4, "triple_point_y", &TransitionTruth::triple_point, &Point2::y),
  };
};

template <>
struct Schema<DotArrayParams> {
  using P = DotArrayParams;
  static constexpr auto fields = std::tuple{
      field(1, "n_dots", &P::n_dots),
      field(2, "window_lo", &P::window_lo),
      field(3, "window_hi", &P::window_hi),
      field(4, "base_voltage", &P::base_voltage),
      field(5, "alpha_self", &P::alpha_self),
      field(6, "cross_ratio", &P::cross_ratio),
      field(7, "cross_far_decay", &P::cross_far_decay),
      field(8, "charging_energy", &P::charging_energy),
      field(9, "mutual_coupling", &P::mutual_coupling),
      field(10, "transition_fraction_x", &P::transition_fraction_x),
      field(11, "transition_fraction_y", &P::transition_fraction_y),
      field(12, "sensor_beta", &P::sensor_beta),
      field(13, "sensor_beta_falloff", &P::sensor_beta_falloff),
      field(14, "sensor_gamma", &P::sensor_gamma),
      field(15, "sensor_gamma_decay", &P::sensor_gamma_decay),
      field(16, "peak_spacing", &P::peak_spacing),
      field(17, "peak_width", &P::peak_width),
      field(18, "peak_current", &P::peak_current),
      field(19, "flank_offset", &P::flank_offset),
      field(20, "jitter", &P::jitter),
  };
};

template <>
struct Schema<WireDeviceBackend> {
  using D = WireDeviceBackend;
  static constexpr auto fields = std::tuple{
      field(1, "params", &D::params),
      field(2, "has_jitter", &D::has_jitter),
      field(3, "jitter_seed", &D::jitter_seed),
      field(4, "pair_index", &D::pair_index),
      field(5, "noise_seed", &D::noise_seed),
      field(6, "dwell_seconds", &D::dwell_seconds),
      field(7, "pixels_per_axis", &D::pixels_per_axis),
      field(8, "white_noise_sigma", &D::white_noise_sigma),
      field(9, "pink_noise_sigma", &D::pink_noise_sigma),
      field(10, "telegraph_amplitude", &D::telegraph_amplitude),
      field(11, "telegraph_rate_hz", &D::telegraph_rate_hz),
      field(12, "frontier", &D::frontier).named(kFrontierNames),
  };
};

template <>
struct Schema<WirePlaybackBackend> {
  static constexpr auto fields = std::tuple{
      field(1, "csd", &WirePlaybackBackend::csd).required(),
      field(2, "dwell_seconds", &WirePlaybackBackend::dwell_seconds),
  };
};

template <>
struct Schema<Budget> {
  static constexpr auto fields = std::tuple{
      field(1, "max_probes", &Budget::max_probes),
      field(2, "max_wall_seconds", &Budget::max_wall_seconds),
  };
};

template <>
struct Schema<FaultSchedule> {
  using F = FaultSchedule;
  static constexpr auto fields = std::tuple{
      field(1, "seed", &F::seed),
      field(2, "transient_rate", &F::transient_rate),
      field(3, "transient_burst", &F::transient_burst),
      field(4, "hard_fault_rate", &F::hard_fault_rate),
      field(5, "stuck_rate", &F::stuck_rate),
      field(6, "stuck_probes", &F::stuck_probes),
      field(7, "latency_spike_rate", &F::latency_spike_rate),
      field(8, "latency_spike_seconds", &F::latency_spike_seconds),
      field(9, "drift_volts_per_second", &F::drift_volts_per_second),
      field(10, "jump_probability", &F::jump_probability),
      field(11, "jump_magnitude_volts", &F::jump_magnitude_volts),
      field(12, "jump_at_batch", &F::jump_at_batch),
      field(13, "drift_detect_threshold_volts",
            &F::drift_detect_threshold_volts),
      field(14, "drift_detect_lag_batches", &F::drift_detect_lag_batches),
  };
};

template <>
struct Schema<RetryPolicy> {
  static constexpr auto fields = std::tuple{
      field(1, "max_attempts", &RetryPolicy::max_attempts),
      field(2, "base_backoff_seconds", &RetryPolicy::base_backoff_seconds),
      field(3, "backoff_multiplier", &RetryPolicy::backoff_multiplier),
      field(4, "jitter_fraction", &RetryPolicy::jitter_fraction),
      field(5, "jitter_seed", &RetryPolicy::jitter_seed),
      field(6, "wall_clock_backoff", &RetryPolicy::wall_clock_backoff),
  };
};

template <>
struct Schema<TransportOptions> {
  static constexpr auto fields = std::tuple{
      field(1, "latency_us", &TransportOptions::latency_us),
      field(2, "bandwidth", &TransportOptions::bandwidth),
      field(3, "io_depth", &TransportOptions::io_depth),
      field(4, "wall_clock", &TransportOptions::wall_clock),
  };
};

template <>
struct Schema<WireRequest> {
  using R = WireRequest;
  static constexpr bool is_device(const R& r) {
    return r.backend == WireBackendKind::kDevice;
  }
  static constexpr bool is_playback(const R& r) {
    return r.backend == WireBackendKind::kPlayback;
  }
  static constexpr auto fields = std::tuple{
      field(1, "method", &R::method).named(kMethodNames),
      field(2, "backend", &R::backend).named(kBackendNames),
      field(3, "device", &R::device).only_if(is_device).required(),
      field(4, "playback", &R::playback).only_if(is_playback).required(),
      field(5, "x_axis", &R::x_axis),
      field(6, "y_axis", &R::y_axis),
      field(7, "deadline_ms", &R::deadline_ms),
      field(8, "budget", &R::budget),
      field(9, "faults", &R::faults),
      field(10, "retry", &R::retry),
      field(11, "label", &R::label),
      field(12, "transport", &R::transport),
  };
};

template <>
struct Schema<ProbeStats> {
  static constexpr auto fields = std::tuple{
      field(1, "unique_probes", &ProbeStats::unique_probes),
      field(2, "total_requests", &ProbeStats::total_requests),
      field(3, "simulated_seconds", &ProbeStats::simulated_seconds),
      field(4, "compute_seconds", &ProbeStats::compute_seconds),
  };
};

template <>
struct Schema<FaultStats> {
  using S = FaultStats;
  static constexpr auto fields = std::tuple{
      field(1, "transient_faults", &S::transient_faults),
      field(2, "drift_events", &S::drift_events),
      field(3, "retries", &S::retries),
      field(4, "backoff_seconds", &S::backoff_seconds),
      field(5, "reacquired_rows", &S::reacquired_rows),
      field(6, "driver_batches", &S::driver_batches),
      field(7, "driver_aborted_transfers", &S::driver_aborted_transfers),
      field(8, "driver_max_inflight", &S::driver_max_inflight),
      field(9, "transport_stall_seconds", &S::transport_stall_seconds),
  };
};

template <>
struct Schema<Verdict> {
  static constexpr auto fields = std::tuple{
      field(1, "success", &Verdict::success),
      field(2, "reason", &Verdict::reason),
      field(3, "alpha12_rel_error", &Verdict::alpha12_rel_error),
      field(4, "alpha21_rel_error", &Verdict::alpha21_rel_error),
      field(5, "virtualized_angle_deg", &Verdict::virtualized_angle_deg),
  };
};

template <>
struct Schema<WireReport> {
  using R = WireReport;
  static constexpr auto fields = std::tuple{
      field(1, "label", &R::label),
      field(2, "method", &R::method).named(kMethodNames),
      field(3, "status", &R::status),
      field(4, "alpha12", &R::virtual_gates, &VirtualGatePair::alpha12),
      field(5, "alpha21", &R::virtual_gates, &VirtualGatePair::alpha21),
      field(6, "slope_steep", &R::slope_steep),
      field(7, "slope_shallow", &R::slope_shallow),
      field(8, "stats", &R::stats),
      field(9, "fault_stats", &R::fault_stats),
      field(10, "job_attempts", &R::job_attempts),
      field(11, "wall_seconds", &R::wall_seconds),
      field(12, "verdict", &R::verdict),
      field(13, "has_verdict", &R::has_verdict),
  };
};

template <>
struct Schema<ProgressEvent> {
  static constexpr auto fields = std::tuple{
      field(1, "stage", &ProgressEvent::stage),
      field(2, "probes_used", &ProgressEvent::probes_used),
      field(3, "elapsed_seconds", &ProgressEvent::elapsed_seconds),
      field(4, "sequence", &ProgressEvent::sequence),
      field(5, "timestamp_seconds", &ProgressEvent::timestamp_seconds),
  };
};

}  // namespace qvg::wire
