#include "wire/messages.hpp"

#include "common/random.hpp"
#include "wire/fields.hpp"

#include <chrono>
#include <utility>

namespace qvg::wire {

namespace {

// The binary walkers over the field lists in wire/fields.hpp.

Status wrong_type(const WireField& f, const char* expected) {
  return wire_error("tag " + std::to_string(f.tag) + " is not " + expected);
}

template <typename T>
void write_fields(WireWriter& w, const T& message);
template <typename T>
Status read_fields(std::span<const std::uint8_t> payload, T& message);

template <typename F, typename V>
void write_value(WireWriter& w, const F& f, const V& value) {
  if constexpr (kIsOptional<V>) {
    if (value.has_value()) write_value(w, f, *value);
  } else if constexpr (std::is_same_v<V, double>) {
    w.f64(f.tag, value);
  } else if constexpr (std::is_same_v<V, bool>) {
    w.boolean(f.tag, value);
  } else if constexpr (std::is_same_v<V, std::string>) {
    w.str(f.tag, value);
  } else if constexpr (std::is_same_v<V, std::vector<double>>) {
    w.f64_array(f.tag, value);
  } else if constexpr (std::is_enum_v<V> || std::is_unsigned_v<V>) {
    w.u64(f.tag, static_cast<std::uint64_t>(value));
  } else if constexpr (std::is_integral_v<V>) {
    w.i64(f.tag, value);
  } else {
    WireWriter nested;
    write_fields(nested, value);
    w.msg(f.tag, nested);
  }
}

template <typename F, typename V>
Status read_value(const WireField& wire, const F& f, V& value) {
  if constexpr (kIsOptional<V>) {
    value.emplace();
    return read_value(wire, f, *value);
  } else if constexpr (std::is_same_v<V, double>) {
    if (wire.type != FieldType::kF64) return wrong_type(wire, "an f64");
    value = wire.as_f64();
  } else if constexpr (std::is_same_v<V, std::string>) {
    if (wire.type != FieldType::kBytes) return wrong_type(wire, "bytes");
    value = wire.as_string();
  } else if constexpr (std::is_same_v<V, std::vector<double>>) {
    Result<std::vector<double>> values = wire.as_f64_array();
    if (!values.ok()) return values.status();
    value = std::move(values).value();
  } else if constexpr (std::is_enum_v<V> || std::is_integral_v<V>) {
    if (wire.type != FieldType::kU64) return wrong_type(wire, "a u64");
    const std::uint64_t raw = wire.as_u64();
    if constexpr (std::is_same_v<V, bool>) {
      value = raw != 0;
    } else if constexpr (std::is_enum_v<V>) {
      if (raw >= f.names.size())
        return wire_error("unknown " + std::string(f.key) + " " +
                          std::to_string(raw));
      value = static_cast<V>(raw);
    } else {
      const std::optional<V> narrowed = narrow<V>(raw);
      if (!narrowed.has_value())
        return wire_error(std::string(f.key) + " " + std::to_string(raw) +
                          " is out of range");
      value = *narrowed;
    }
  } else {
    if (wire.type != FieldType::kMsg)
      return wrong_type(wire, "a nested message");
    return read_fields(wire.payload, value);
  }
  return Status();
}

template <typename T>
void write_fields(WireWriter& w, const T& message) {
  if constexpr (HasForm<T>) {
    write_fields(w, Schema<T>::to_form(message));
  } else {
    auto put = [&](const auto& f) {
      if (f.when == nullptr || f.when(message))
        write_value(w, f, f.of(message));
    };
    std::apply([&](const auto&... f) { (put(f), ...); }, Schema<T>::fields);
  }
}

template <typename T>
Status read_fields(std::span<const std::uint8_t> payload, T& message) {
  if constexpr (HasForm<T>) {
    typename Schema<T>::Form form;
    Status s = read_fields(payload, form);
    if (!s.ok()) return s;
    std::string why = Schema<T>::from_form(std::move(form), message);
    return why.empty() ? Status() : wire_error(std::move(why));
  } else {
    WireReader reader(payload);
    for (;;) {
      Result<std::optional<WireField>> next = reader.next();
      if (!next.ok()) return next.status();
      if (!next.value().has_value()) return Status();
      const WireField& wire = *next.value();
      // Decode into the entry with this tag; unknown tags (a newer writer)
      // match none and are skipped.
      Status s;
      std::apply(
          [&](const auto&... f) {
            (void)((wire.tag == f.tag &&
                    (s = read_value(wire, f, f.of(message)), true)) ||
                   ...);
          },
          Schema<T>::fields);
      if (!s.ok()) return s;
    }
  }
}

template <typename T>
std::vector<std::uint8_t> encode_message(MessageKind kind, const T& message) {
  WireWriter w;
  w.begin(kind);
  write_fields(w, message);
  return std::move(w).take();
}

template <typename T>
Result<T> decode_message(MessageKind kind,
                         std::span<const std::uint8_t> buffer) {
  WireReader reader(buffer);
  Status s = reader.expect_envelope(kind);
  if (!s.ok()) return s;
  T out;
  s = read_fields(buffer.subspan(4), out);
  if (!s.ok()) return s;
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode(const WireRequest& request) {
  return encode_message(MessageKind::kRequest, request);
}

Result<WireRequest> decode_request(std::span<const std::uint8_t> buffer) {
  return decode_message<WireRequest>(MessageKind::kRequest, buffer);
}

std::vector<std::uint8_t> encode(const WireReport& report) {
  return encode_message(MessageKind::kReport, report);
}

Result<WireReport> decode_report(std::span<const std::uint8_t> buffer) {
  return decode_message<WireReport>(MessageKind::kReport, buffer);
}

std::vector<std::uint8_t> encode(const ProgressEvent& event) {
  return encode_message(MessageKind::kProgress, event);
}

Result<ProgressEvent> decode_progress(std::span<const std::uint8_t> buffer) {
  return decode_message<ProgressEvent>(MessageKind::kProgress, buffer);
}

WireReport WireReport::from(const ExtractionReport& report) {
  WireReport out;
  out.label = report.label;
  out.method = report.method;
  out.status = report.status;
  out.virtual_gates = report.virtual_gates;
  out.slope_steep = report.slope_steep;
  out.slope_shallow = report.slope_shallow;
  out.stats = report.stats;
  out.fault_stats = report.fault_stats;
  out.job_attempts = report.job_attempts;
  out.wall_seconds = report.wall_seconds;
  out.verdict = report.verdict;
  out.has_verdict = report.has_verdict;
  return out;
}

// -------------------------------------------------------- materialize -----

Result<MaterializedRequest> materialize(const WireRequest& wire) {
  auto invalid = [](std::string detail) {
    return Status::failure(ErrorCode::kInvalidRequest, "wire",
                           std::move(detail));
  };

  MaterializedRequest m;
  m.request.method = wire.method;
  switch (wire.backend) {
    case WireBackendKind::kDevice: {
      // build_dot_array's preconditions, surfaced as typed errors (a wire
      // request is untrusted input; a contract abort is not an API).
      const DotArrayParams& p = wire.device.params;
      if (p.n_dots < 2 || p.n_dots > 64)
        return invalid("device n_dots must be in [2, 64]");
      if (!(p.window_hi > p.window_lo))
        return invalid("device window_hi must exceed window_lo");
      if (!(p.cross_ratio > 0.0 && p.cross_ratio < 1.0))
        return invalid("device cross_ratio must be in (0, 1)");
      if (!(p.alpha_self > 0.0)) return invalid("device alpha_self must be > 0");
      if (!(p.charging_energy > 0.0))
        return invalid("device charging_energy must be > 0");
      if (wire.device.pixels_per_axis > 4096)
        return invalid("device pixels_per_axis above the service bound 4096");
      if (wire.device.frontier >
          static_cast<std::uint64_t>(FrontierStrategy::kMultistartGreedy))
        return invalid("device frontier strategy out of range");
      if (wire.device.has_jitter) {
        Rng jitter_rng(wire.device.jitter_seed);
        m.device = std::make_unique<BuiltDevice>(build_dot_array(p, &jitter_rng));
      } else {
        m.device = std::make_unique<BuiltDevice>(build_dot_array(p));
      }
      DeviceBackend& d = m.request.device;
      d.device = m.device.get();
      d.pair_index = static_cast<std::size_t>(wire.device.pair_index);
      d.noise_seed = wire.device.noise_seed;
      d.dwell_seconds = wire.device.dwell_seconds;
      d.pixels_per_axis =
          static_cast<std::size_t>(wire.device.pixels_per_axis);
      d.white_noise_sigma = wire.device.white_noise_sigma;
      d.pink_noise_sigma = wire.device.pink_noise_sigma;
      d.telegraph_amplitude = wire.device.telegraph_amplitude;
      d.telegraph_rate_hz = wire.device.telegraph_rate_hz;
      d.frontier = static_cast<FrontierStrategy>(wire.device.frontier);
      break;
    }
    case WireBackendKind::kPlayback: {
      if (wire.playback.csd.width() == 0 || wire.playback.csd.height() == 0)
        return invalid("playback backend with an empty CSD");
      m.csd = std::make_unique<Csd>(wire.playback.csd);
      m.request.playback.csd = m.csd.get();
      m.request.playback.dwell_seconds = wire.playback.dwell_seconds;
      break;
    }
    case WireBackendKind::kNone:
      return invalid("request names no backend");
  }
  m.request.x_axis = wire.x_axis;
  m.request.y_axis = wire.y_axis;
  if (wire.deadline_ms > 0)
    m.request.deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(wire.deadline_ms);
  m.request.budget = wire.budget;
  m.request.faults = wire.faults;
  m.request.retry = wire.retry;
  if (wire.transport.io_depth < 0)
    return invalid("transport io_depth must be >= 0");
  if (wire.transport.io_depth > 256)
    return invalid("transport io_depth above the service bound 256");
  if (wire.transport.latency_us < 0.0)
    return invalid("transport latency_us must be >= 0");
  if (wire.transport.bandwidth < 0.0)
    return invalid("transport bandwidth must be >= 0");
  m.request.transport = wire.transport;
  m.request.label = wire.label;
  return m;
}

}  // namespace qvg::wire
