// Wire serialization: exact round trips for every message type over both
// lanes (binary wire/codec, JSON), golden pins of the exact bytes and JSON
// of a fixed message set, decoder robustness against
// truncation / bit-flips / version skew (typed kParseError, never UB — CI
// runs this file under ASan+UBSan), and materialize() turning untrusted
// WireRequests into engine-runnable requests with typed validation.
#include "wire/json.hpp"
#include "wire/messages.hpp"

#include "common/random.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace qvg::wire {
namespace {

// ------------------------------------------------------ sample builders ---

/// A device-backed request exercising every scalar field with
/// non-default values (so a dropped field cannot round-trip by accident).
WireRequest sample_device_request(std::uint64_t variant) {
  WireRequest r;
  r.method = variant % 2 == 0 ? ExtractionMethod::kFast
                              : ExtractionMethod::kHoughBaseline;
  r.backend = WireBackendKind::kDevice;
  r.device.params.n_dots = 2 + variant % 3;
  r.device.params.cross_ratio = 0.25 + 0.01 * static_cast<double>(variant % 5);
  r.device.params.jitter = 0.05;
  r.device.has_jitter = variant % 2 == 1;
  r.device.jitter_seed = 7 + variant;
  r.device.pair_index = variant % 2;
  r.device.noise_seed = 123 + variant;
  r.device.dwell_seconds = 0.031;
  r.device.pixels_per_axis = 48 + variant;
  // Noise tiers: clean, white-only, white+pink, full telegraph stack.
  switch (variant % 4) {
    case 3: r.device.telegraph_amplitude = 0.05;
            r.device.telegraph_rate_hz = 1.5;
            [[fallthrough]];
    case 2: r.device.pink_noise_sigma = 0.01;
            [[fallthrough]];
    case 1: r.device.white_noise_sigma = 0.02;
            break;
    default: break;
  }
  // Cycle the frontier strategy so round trips cover every enum value.
  r.device.frontier = variant % 3;
  r.deadline_ms = 5000 + variant;
  r.budget.max_probes = 100000 + static_cast<long>(variant);
  r.budget.max_wall_seconds = 12.5;
  // Fault configs: none, transient-heavy, drift+jump.
  switch (variant % 3) {
    case 1:
      r.faults.seed = 11 + variant;
      r.faults.transient_rate = 0.02;
      r.faults.transient_burst = 3;
      r.faults.hard_fault_rate = 1e-4;
      r.faults.stuck_rate = 1e-3;
      r.faults.stuck_probes = 17;
      r.faults.latency_spike_rate = 0.01;
      r.faults.latency_spike_seconds = 0.25;
      break;
    case 2:
      r.faults.seed = 13 + variant;
      r.faults.drift_volts_per_second = 1e-5;
      r.faults.jump_probability = 0.001;
      r.faults.jump_magnitude_volts = 0.002;
      r.faults.jump_at_batch = 4;
      r.faults.drift_detect_threshold_volts = 5e-4;
      r.faults.drift_detect_lag_batches = 2;
      break;
    default: break;
  }
  r.retry.max_attempts = 4;
  r.retry.base_backoff_seconds = 0.01;
  r.retry.backoff_multiplier = 2.5;
  r.retry.jitter_fraction = 0.1;
  r.retry.jitter_seed = 99;
  r.retry.wall_clock_backoff = variant % 2 == 0;
  // Transport tiers: disabled, serial link, pipelined wall-clock link.
  switch (variant % 3) {
    case 1:
      r.transport.io_depth = 1;
      r.transport.latency_us = 250.0;
      break;
    case 2:
      r.transport.io_depth = 4;
      r.transport.latency_us = 1500.0;
      r.transport.bandwidth = 2.5e5;
      r.transport.wall_clock = true;
      break;
    default: break;
  }
  r.label = "device-" + std::to_string(variant);
  return r;
}

WireRequest sample_playback_request() {
  testsupport::SyntheticCsdSpec spec;
  spec.pixels = 12;
  spec.noise_sigma = 0.01;
  WireRequest r;
  r.method = ExtractionMethod::kHoughBaseline;
  r.backend = WireBackendKind::kPlayback;
  r.playback.csd = testsupport::make_synthetic_csd(spec);
  r.playback.csd.set_name("synthetic-12");
  r.playback.dwell_seconds = 0.002;
  r.transport.io_depth = 2;
  r.transport.latency_us = 750.0;
  r.transport.bandwidth = 1.0e5;
  r.x_axis = VoltageAxis(-0.5, 0.001, 40);
  r.y_axis = VoltageAxis(-0.25, 0.002, 30);
  r.label = "playback";
  return r;
}

WireReport sample_report(ErrorCode code) {
  WireReport report;
  report.label = "report-" + std::string(error_code_name(code));
  report.method = ExtractionMethod::kHoughBaseline;
  report.status = code == ErrorCode::kOk
                      ? Status()
                      : Status::failure(code, "stage-x", "detail-y");
  report.virtual_gates.alpha12 = 0.251;
  report.virtual_gates.alpha21 = -0.125;
  report.slope_steep = -4.75;
  report.slope_shallow = -0.256;
  report.stats.unique_probes = 4096;
  report.stats.total_requests = 4201;
  report.stats.simulated_seconds = 210.05;
  report.stats.compute_seconds = 0.875;
  report.fault_stats.transient_faults = 3;
  report.fault_stats.drift_events = 1;
  report.fault_stats.retries = 5;
  report.fault_stats.backoff_seconds = 0.07;
  report.fault_stats.reacquired_rows = 2;
  report.fault_stats.driver_batches = 38;
  report.fault_stats.driver_aborted_transfers = 1;
  report.fault_stats.driver_max_inflight = 4;
  report.fault_stats.transport_stall_seconds = 0.0625;
  report.job_attempts = 2;
  report.wall_seconds = 1.625;
  report.verdict.success = code == ErrorCode::kOk;
  report.verdict.reason = "because";
  report.verdict.alpha12_rel_error = 0.001;
  report.verdict.alpha21_rel_error = 0.002;
  report.verdict.virtualized_angle_deg = 89.9;
  report.has_verdict = true;
  return report;
}

// ------------------------------------------------- binary round trips -----

TEST(WireCodecTest, DeviceRequestsRoundTripExactAcrossVariants) {
  // 12 variants cover both methods, all noise tiers, all fault configs, and
  // jittered/unjittered devices.
  for (std::uint64_t variant = 0; variant < 12; ++variant) {
    const WireRequest request = sample_device_request(variant);
    const std::vector<std::uint8_t> bytes = encode(request);
    Result<WireRequest> decoded = decode_request(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded.value(), request) << "variant " << variant;
  }
}

TEST(WireCodecTest, PlaybackRequestRoundTripsPixelsTruthAndAxes) {
  const WireRequest request = sample_playback_request();
  Result<WireRequest> decoded = decode_request(encode(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value(), request);
  // Spot-check the deep parts operator== already covered.
  const Csd& csd = decoded.value().playback.csd;
  EXPECT_EQ(csd.name(), "synthetic-12");
  ASSERT_TRUE(csd.truth().has_value());
  EXPECT_EQ(csd.truth()->slope_steep, request.playback.csd.truth()->slope_steep);
  EXPECT_EQ(csd.current(5, 7), request.playback.csd.current(5, 7));
}

TEST(WireCodecTest, NonFiniteDoublesRoundTripBitExactOnTheBinaryLane) {
  WireRequest request = sample_device_request(0);
  request.budget.max_wall_seconds = std::numeric_limits<double>::infinity();
  request.device.white_noise_sigma = -0.0;
  request.device.pink_noise_sigma = std::numeric_limits<double>::quiet_NaN();
  Result<WireRequest> decoded = decode_request(encode(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::isinf(decoded.value().budget.max_wall_seconds));
  EXPECT_TRUE(std::isnan(decoded.value().device.pink_noise_sigma));
  EXPECT_TRUE(std::signbit(decoded.value().device.white_noise_sigma));
}

TEST(WireCodecTest, ReportsRoundTripForEveryErrorCode) {
  for (int raw = 0; raw <= static_cast<int>(ErrorCode::kInternal); ++raw) {
    const ErrorCode code = static_cast<ErrorCode>(raw);
    const WireReport report = sample_report(code);
    Result<WireReport> decoded = decode_report(encode(report));
    ASSERT_TRUE(decoded.ok()) << error_code_name(code) << ": "
                              << decoded.status().message();
    EXPECT_EQ(decoded.value(), report) << error_code_name(code);
  }
}

TEST(WireCodecTest, PartialReportRoundTripsItsZeroes) {
  // An interrupted job's report: failure status, no verdict, partial stats.
  WireReport report;
  report.label = "partial";
  report.status = Status::failure(ErrorCode::kBudgetExhausted, "sweeps",
                                  "probe budget exhausted");
  report.stats.unique_probes = 120;
  report.stats.total_requests = 131;
  Result<WireReport> decoded = decode_report(encode(report));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), report);
  EXPECT_FALSE(decoded.value().has_verdict);
  EXPECT_EQ(decoded.value().virtual_gates.alpha12, 0.0);
}

TEST(WireCodecTest, ProgressEventRoundTrips) {
  ProgressEvent event;
  event.stage = "sweeps";
  event.probes_used = 777;
  event.elapsed_seconds = 0.125;
  event.sequence = 42;
  event.timestamp_seconds = 1.5e6;
  Result<ProgressEvent> progress = decode_progress(encode(event));
  ASSERT_TRUE(progress.ok());
  EXPECT_EQ(progress.value(), event);
}

// ----------------------------------------------------- decoder attacks ----

TEST(WireCodecTest, EnvelopeSkewIsATypedParseError) {
  std::vector<std::uint8_t> bytes = encode(sample_device_request(1));

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(decode_request(bad_magic).status().code(), ErrorCode::kParseError);

  std::vector<std::uint8_t> bad_version = bytes;
  bad_version[2] = kWireVersion + 1;
  Result<WireRequest> skewed = decode_request(bad_version);
  EXPECT_EQ(skewed.status().code(), ErrorCode::kParseError);
  EXPECT_EQ(skewed.status().stage(), "wire");

  // A request envelope fed to the report decoder (and vice versa).
  EXPECT_EQ(decode_report(bytes).status().code(), ErrorCode::kParseError);
  EXPECT_EQ(decode_request(encode(sample_report(ErrorCode::kOk))).status().code(),
            ErrorCode::kParseError);

  // Too short to even hold an envelope.
  EXPECT_EQ(decode_request(std::vector<std::uint8_t>{0x57}).status().code(),
            ErrorCode::kParseError);
  EXPECT_EQ(decode_request(std::vector<std::uint8_t>{}).status().code(),
            ErrorCode::kParseError);
}

TEST(WireCodecTest, EveryTruncationEitherFailsTypedOrDecodesCleanly) {
  // Chopping the buffer at every possible length must never read out of
  // bounds (ASan would catch it) and never produce anything but a clean
  // decode or a typed kParseError. Prefixes that end exactly on a field
  // boundary legitimately decode (fewer fields = defaults); everything else
  // must be rejected.
  const std::vector<std::uint8_t> bytes = encode(sample_playback_request());
  std::size_t rejected = 0;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Result<WireRequest> decoded = decode_request(
        std::span<const std::uint8_t>(bytes.data(), len));
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError)
          << "len " << len;
      EXPECT_EQ(decoded.status().stage(), "wire") << "len " << len;
      ++rejected;
    }
  }
  // The overwhelming majority of cut points land mid-field.
  EXPECT_GT(rejected, bytes.size() / 2);
}

TEST(WireCodecTest, RandomBitFlipsNeverCrashTheDecoders) {
  // Deterministic fuzz: flip 1-8 random bytes per round and run every
  // decoder over the result. Any outcome is acceptable except UB; typed
  // failures must come from the wire stage.
  const std::vector<std::uint8_t> request_bytes =
      encode(sample_device_request(2));
  const std::vector<std::uint8_t> report_bytes =
      encode(sample_report(ErrorCode::kPairFailed));
  Rng rng(20260808);
  for (int round = 0; round < 400; ++round) {
    std::vector<std::uint8_t> mutated =
        round % 2 == 0 ? request_bytes : report_bytes;
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
    for (const auto& status :
         {decode_request(mutated).status(), decode_report(mutated).status(),
          decode_progress(mutated).status()}) {
      if (!status.ok())
        EXPECT_EQ(status.code(), ErrorCode::kParseError) << status.message();
    }
  }
}

TEST(WireCodecTest, UnknownTagsAreSkippedForForwardCompatibility) {
  // A newer writer appends a field this decoder does not know; the decode
  // must succeed and return everything it does know.
  WireWriter w;
  w.begin(MessageKind::kProgress);
  w.str(1, "fit");
  w.i64(2, 55);
  w.f64(200, 1.25);           // future tag, f64
  w.str(201, "future-field"); // future tag, bytes
  w.u64(4, 9);
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  Result<ProgressEvent> decoded = decode_progress(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().stage, "fit");
  EXPECT_EQ(decoded.value().probes_used, 55);
  EXPECT_EQ(decoded.value().sequence, 9u);
}

TEST(WireCodecTest, WrongWireTypeForAKnownTagIsATypedParseError) {
  WireWriter w;
  w.begin(MessageKind::kProgress);
  w.f64(1, 3.5);  // tag 1 is the stage string
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  Result<ProgressEvent> decoded = decode_progress(bytes);
  EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);
}

TEST(WireCodecTest, OutOfRangeEnumsAreTypedParseErrors) {
  {
    WireWriter w;
    w.begin(MessageKind::kRequest);
    w.u64(1, 99);  // no such ExtractionMethod
    EXPECT_EQ(decode_request(std::move(w).take()).status().code(),
              ErrorCode::kParseError);
  }
  {
    WireWriter w;
    w.begin(MessageKind::kRequest);
    w.u64(2, 7);  // no such backend kind
    EXPECT_EQ(decode_request(std::move(w).take()).status().code(),
              ErrorCode::kParseError);
  }
  {
    WireWriter status;
    status.u64(1, 1000);  // no such ErrorCode
    WireWriter w;
    w.begin(MessageKind::kReport);
    w.msg(3, status);  // the report's nested status
    EXPECT_EQ(decode_report(std::move(w).take()).status().code(),
              ErrorCode::kParseError);
  }
}

TEST(WireCodecTest, OutOfRangeIntegersAreTypedParseErrorsInBothLanes) {
  // int-typed fields must reject a value that does not fit instead of
  // wrapping it (2^32 + 1 used to decode as 1).
  struct IntField {
    std::uint8_t message_tag;
    const char* message_key;
    std::uint8_t tag;
    const char* key;
  };
  const IntField fields[] = {{10, "retry", 1, "max_attempts"},
                             {9, "faults", 3, "transient_burst"},
                             {9, "faults", 6, "stuck_probes"},
                             {9, "faults", 14, "drift_detect_lag_batches"}};
  auto binary = [](const IntField& f, std::int64_t value) {
    WireWriter nested;
    nested.i64(f.tag, value);
    WireWriter w;
    w.begin(MessageKind::kRequest);
    w.msg(f.message_tag, nested);
    return decode_request(std::move(w).take());
  };
  auto json = [](const IntField& f, std::int64_t value) {
    return request_from_json("{\"v\":1,\"" + std::string(f.message_key) +
                             "\":{\"" + f.key +
                             "\":" + std::to_string(value) + "}}");
  };
  for (const IntField& f : fields) {
    for (std::int64_t value : {std::int64_t{4294967297}, std::int64_t{2147483648},
                               std::int64_t{-2147483649}}) {
      EXPECT_EQ(binary(f, value).status().code(), ErrorCode::kParseError)
          << f.key << " = " << value;
      EXPECT_EQ(json(f, value).status().code(), ErrorCode::kParseError)
          << f.key << " = " << value;
    }
    // The extremes that do fit still decode exactly.
    for (std::int64_t value : {std::int64_t{2147483647}, std::int64_t{-2147483648}}) {
      for (const Result<WireRequest>& decoded : {binary(f, value), json(f, value)}) {
        ASSERT_TRUE(decoded.ok()) << decoded.status().message();
        const WireRequest& r = decoded.value();
        const int got = f.message_tag == 10 ? r.retry.max_attempts
                        : f.tag == 3        ? r.faults.transient_burst
                        : f.tag == 6        ? r.faults.stuck_probes
                                            : r.faults.drift_detect_lag_batches;
        EXPECT_EQ(got, value) << f.key;
      }
    }
  }
}

// ------------------------------------------------------- JSON lane --------

TEST(WireJsonTest, RequestsRoundTripThroughJson) {
  for (std::uint64_t variant = 0; variant < 6; ++variant) {
    const WireRequest request = sample_device_request(variant);
    Result<WireRequest> decoded = request_from_json(to_json(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded.value(), request) << "variant " << variant;
  }
  const WireRequest playback = sample_playback_request();
  Result<WireRequest> decoded = request_from_json(to_json(playback));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value(), playback);
}

TEST(WireJsonTest, ReportsRoundTripThroughJsonForEveryErrorCode) {
  for (int raw = 0; raw <= static_cast<int>(ErrorCode::kInternal); ++raw) {
    const WireReport report = sample_report(static_cast<ErrorCode>(raw));
    Result<WireReport> decoded = report_from_json(to_json(report));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded.value(), report)
        << error_code_name(static_cast<ErrorCode>(raw));
  }
}

TEST(WireJsonTest, ProgressAndStatusRoundTripThroughJson) {
  ProgressEvent event;
  event.stage = "anchors";
  event.probes_used = 360;
  event.elapsed_seconds = 0.0625;
  event.sequence = 3;
  event.timestamp_seconds = 123456.789;
  Result<ProgressEvent> progress = progress_from_json(to_json(event));
  ASSERT_TRUE(progress.ok()) << progress.status().message();
  EXPECT_EQ(progress.value(), event);

  const Status status = Status::failure(ErrorCode::kOverloaded, "queue",
                                        "tenant backlog full");
  Status decoded_status;
  ASSERT_TRUE(status_from_json(status_to_json(status), decoded_status).ok());
  EXPECT_EQ(decoded_status, status);

}

TEST(WireJsonTest, NonFiniteDoublesSurviveTheJsonLane) {
  WireReport report = sample_report(ErrorCode::kOk);
  report.wall_seconds = std::numeric_limits<double>::quiet_NaN();
  report.slope_steep = std::numeric_limits<double>::infinity();
  report.slope_shallow = -std::numeric_limits<double>::infinity();
  Result<WireReport> decoded = report_from_json(to_json(report));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_TRUE(std::isnan(decoded.value().wall_seconds));
  EXPECT_EQ(decoded.value().slope_steep,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(decoded.value().slope_shallow,
            -std::numeric_limits<double>::infinity());
}

TEST(WireJsonTest, MalformedJsonAndVersionSkewAreTypedParseErrors) {
  for (const char* bad : {"", "{", "{\"v\":1", "[1,2", "{\"v\":1}extra",
                          "nope", "{\"v\":true}", "{\"label\":\"x\"}"}) {
    Result<WireRequest> decoded = request_from_json(bad);
    EXPECT_FALSE(decoded.ok()) << "input: " << bad;
    EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError)
        << "input: " << bad;
  }
  // Version skew: same document, wrong "v".
  std::string skewed = to_json(sample_device_request(0));
  const std::size_t at = skewed.find("\"v\":1");
  ASSERT_NE(at, std::string::npos);
  skewed.replace(at, 5, "\"v\":9");
  EXPECT_EQ(request_from_json(skewed).status().code(), ErrorCode::kParseError);
}

TEST(WireJsonTest, DeeplyNestedJsonIsRejectedNotOverflowed) {
  std::string evil(1000, '[');
  evil += std::string(1000, ']');
  Result<JsonValue> parsed = parse_json(evil);
  EXPECT_EQ(parsed.status().code(), ErrorCode::kParseError);
}

TEST(WireJsonTest, UnknownKeysAreIgnored) {
  std::string text = to_json(sample_device_request(3));
  ASSERT_EQ(text.back(), '}');
  text.insert(text.size() - 1, ",\"future_key\":{\"deep\":[1,2,3]}");
  Result<WireRequest> decoded = request_from_json(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value(), sample_device_request(3));
}

TEST(WireJsonTest, ExactIntegersSurviveTheDoubleThreshold) {
  // 2^63 + 9 is not representable as a double; the exact-integer lane must
  // carry it anyway.
  WireRequest request = sample_device_request(0);
  request.device.noise_seed = 9223372036854775817ull;
  request.device.jitter_seed = 0xFFFFFFFFFFFFFFFFull;
  Result<WireRequest> decoded = request_from_json(to_json(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().device.noise_seed, 9223372036854775817ull);
  EXPECT_EQ(decoded.value().device.jitter_seed, 0xFFFFFFFFFFFFFFFFull);
}

// ---------------------------------------------------------- materialize ---

TEST(WireMaterializeTest, DeviceRequestRebuildsABitIdenticalDevice) {
  // The wire carries params + jitter seed; materialize must reproduce the
  // exact device a direct build_dot_array call produces.
  WireRequest wire = sample_device_request(1);  // has_jitter = true
  ASSERT_TRUE(wire.device.has_jitter);
  Result<MaterializedRequest> m = materialize(wire);
  ASSERT_TRUE(m.ok()) << m.status().message();

  Rng jitter(wire.device.jitter_seed);
  const BuiltDevice direct = build_dot_array(wire.device.params, &jitter);
  ASSERT_NE(m.value().request.device.device, nullptr);
  const BuiltDevice& rebuilt = *m.value().request.device.device;
  ASSERT_EQ(rebuilt.base_voltages.size(), direct.base_voltages.size());
  for (std::size_t i = 0; i < direct.base_voltages.size(); ++i)
    EXPECT_EQ(rebuilt.base_voltages[i], direct.base_voltages[i]) << i;
  EXPECT_EQ(m.value().request.device.noise_seed, wire.device.noise_seed);
  EXPECT_EQ(m.value().request.label, wire.label);
}

TEST(WireMaterializeTest, PlaybackRequestBorrowsItsOwnedCsd) {
  const WireRequest wire = sample_playback_request();
  Result<MaterializedRequest> m = materialize(wire);
  ASSERT_TRUE(m.ok()) << m.status().message();
  ASSERT_NE(m.value().request.playback.csd, nullptr);
  EXPECT_EQ(m.value().request.playback.csd, m.value().csd.get());
  EXPECT_EQ(m.value().request.playback.csd->current(3, 4),
            wire.playback.csd.current(3, 4));
  ASSERT_TRUE(m.value().request.x_axis.has_value());
  EXPECT_EQ(m.value().request.x_axis->count(), wire.x_axis->count());
}

TEST(WireMaterializeTest, UntrustedInputFailsTypedNotAborted) {
  WireRequest none;
  EXPECT_EQ(materialize(none).status().code(), ErrorCode::kInvalidRequest);

  WireRequest bad_dots = sample_device_request(0);
  bad_dots.device.params.n_dots = 1;
  EXPECT_EQ(materialize(bad_dots).status().code(), ErrorCode::kInvalidRequest);
  bad_dots.device.params.n_dots = 65;
  EXPECT_EQ(materialize(bad_dots).status().code(), ErrorCode::kInvalidRequest);

  WireRequest bad_window = sample_device_request(0);
  bad_window.device.params.window_hi = bad_window.device.params.window_lo;
  EXPECT_EQ(materialize(bad_window).status().code(),
            ErrorCode::kInvalidRequest);

  WireRequest bad_ratio = sample_device_request(0);
  bad_ratio.device.params.cross_ratio = 1.5;
  EXPECT_EQ(materialize(bad_ratio).status().code(), ErrorCode::kInvalidRequest);
  bad_ratio.device.params.cross_ratio =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(materialize(bad_ratio).status().code(), ErrorCode::kInvalidRequest);

  WireRequest huge = sample_device_request(0);
  huge.device.pixels_per_axis = 1u << 20;
  EXPECT_EQ(materialize(huge).status().code(), ErrorCode::kInvalidRequest);

  WireRequest empty_csd;
  empty_csd.backend = WireBackendKind::kPlayback;
  EXPECT_EQ(materialize(empty_csd).status().code(),
            ErrorCode::kInvalidRequest);
}

TEST(WireMaterializeTest, TransportRidesIntoTheEngineRequestAndValidates) {
  // The transport model crosses materialize() intact...
  WireRequest request = sample_playback_request();
  request.transport.io_depth = 4;
  request.transport.latency_us = 500.0;
  request.transport.bandwidth = 1.0e6;
  request.transport.wall_clock = true;
  Result<MaterializedRequest> good = materialize(request);
  ASSERT_TRUE(good.ok()) << good.status().message();
  EXPECT_EQ(good.value().request.transport, request.transport);

  // ...and out-of-range fields are rejected typed, not clamped silently.
  WireRequest deep = sample_playback_request();
  deep.transport.io_depth = 257;
  EXPECT_EQ(materialize(deep).status().code(), ErrorCode::kInvalidRequest);
  WireRequest negative_latency = sample_playback_request();
  negative_latency.transport.latency_us = -1.0;
  EXPECT_EQ(materialize(negative_latency).status().code(),
            ErrorCode::kInvalidRequest);
  WireRequest negative_bandwidth = sample_playback_request();
  negative_bandwidth.transport.bandwidth = -0.5;
  EXPECT_EQ(materialize(negative_bandwidth).status().code(),
            ErrorCode::kInvalidRequest);
}

TEST(WireJsonTest, TransportObjectIsOptionalForOldClients) {
  // A request serialized before PR 10 has no "transport" object; decoding
  // must yield the disabled default (synchronous adapter lane).
  WireRequest request = sample_device_request(0);
  request.transport.io_depth = 8;  // must NOT survive the strip below
  std::string text = to_json(request);
  const std::size_t begin = text.find(",\"transport\":{");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = text.find('}', begin);  // flat object: first brace
  ASSERT_NE(end, std::string::npos);
  text.erase(begin, end - begin + 1);

  Result<WireRequest> decoded = request_from_json(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().transport, TransportOptions{});
  EXPECT_FALSE(decoded.value().transport.enabled());
  request.transport = {};
  EXPECT_EQ(decoded.value(), request);
}

TEST(WireMaterializeTest, FrontierStrategyRoundTripsAndValidates) {
  // Every strategy value survives both lanes and maps onto the engine
  // request's enum; anything past the enum range is rejected typed.
  for (std::uint64_t value : {0ull, 1ull, 2ull}) {
    WireRequest wire = sample_device_request(0);
    wire.device.frontier = value;
    const std::vector<std::uint8_t> bytes = encode(wire);
    Result<WireRequest> binary = decode_request(bytes);
    ASSERT_TRUE(binary.ok());
    EXPECT_EQ(binary.value().device.frontier, value);
    Result<WireRequest> json = request_from_json(to_json(wire));
    ASSERT_TRUE(json.ok()) << json.status().message();
    EXPECT_EQ(json.value().device.frontier, value);

    Result<MaterializedRequest> m = materialize(wire);
    ASSERT_TRUE(m.ok()) << m.status().message();
    EXPECT_EQ(m.value().request.device.frontier,
              static_cast<FrontierStrategy>(value));
  }

  WireRequest bad = sample_device_request(0);
  bad.device.frontier = 3;
  EXPECT_EQ(materialize(bad).status().code(), ErrorCode::kInvalidRequest);
}

TEST(WireJsonTest, FrontierStringIsOptionalAndValidated) {
  // Absent "frontier" key = the anneal default (old clients keep working);
  // an unknown string is a typed parse error, not a silent default.
  const WireRequest wire = sample_device_request(0);
  std::string json = to_json(wire);
  const auto pos = json.find(",\"frontier\":\"anneal\"");
  ASSERT_NE(pos, std::string::npos) << json;
  std::string without = json;
  without.erase(pos, std::string(",\"frontier\":\"anneal\"").size());
  Result<WireRequest> decoded = request_from_json(without);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().device.frontier, 0u);

  std::string bogus = json;
  bogus.replace(bogus.find("\"anneal\""), 8, "\"warp\"");
  EXPECT_FALSE(request_from_json(bogus).ok());
}

// ------------------------------------------------------- golden pins ------
//
// The exact binary bytes and JSON of a fixed message set, captured from the
// hand-written codecs the field lists replaced. The bytes must never change;
// JSON is compared as parsed objects (key order is not part of the
// contract), and the captured JSON text must keep decoding to the same
// structs.
//
// Every value is a literal constant: no arithmetic, no RNG, no synthetic CSD
// generator, so the doubles (and therefore the bytes) are identical in every
// build configuration (Debug, Release, NO_SIMD, sanitizers) regardless of
// fp contraction.

/// Device requests covering both methods, every frontier strategy, the
/// jittered/unjittered device, and the none / transient / drift fault, retry
/// and transport variants.
WireRequest golden_device_request(int variant) {
  WireRequest r;
  r.backend = WireBackendKind::kDevice;
  r.device.params.n_dots = 3;
  r.device.params.cross_ratio = 0.3;
  r.device.params.jitter = 0.05;
  r.device.noise_seed = 123;
  r.device.dwell_seconds = 0.031;
  r.device.pixels_per_axis = 48;
  r.label = "golden-device";
  switch (variant) {
    case 0:
      r.method = ExtractionMethod::kFast;
      r.device.frontier = 0;
      break;
    case 1:
      r.method = ExtractionMethod::kHoughBaseline;
      r.device.has_jitter = true;
      r.device.jitter_seed = 9;
      r.device.pair_index = 1;
      r.device.white_noise_sigma = 0.02;
      r.device.frontier = 1;
      r.deadline_ms = 5000;
      r.budget.max_probes = 100000;
      r.budget.max_wall_seconds = 12.5;
      r.faults.seed = 11;
      r.faults.transient_rate = 0.02;
      r.faults.transient_burst = 3;
      r.faults.hard_fault_rate = 1e-4;
      r.faults.stuck_rate = 1e-3;
      r.faults.stuck_probes = 17;
      r.faults.latency_spike_rate = 0.01;
      r.faults.latency_spike_seconds = 0.25;
      r.retry.max_attempts = 6;
      r.retry.base_backoff_seconds = 0.01;
      r.retry.backoff_multiplier = 2.5;
      r.retry.jitter_fraction = 0.1;
      r.retry.jitter_seed = 99;
      r.transport.io_depth = 1;
      r.transport.latency_us = 250.0;
      break;
    default:
      r.method = ExtractionMethod::kFast;
      r.device.pink_noise_sigma = 0.01;
      r.device.telegraph_amplitude = 0.05;
      r.device.telegraph_rate_hz = 1.5;
      r.device.frontier = 2;
      r.x_axis = VoltageAxis(-0.5, 0.001, 40);
      r.y_axis = VoltageAxis(-0.25, 0.002, 30);
      r.faults.seed = 13;
      r.faults.drift_volts_per_second = 1e-5;
      r.faults.jump_probability = 0.001;
      r.faults.jump_magnitude_volts = 0.002;
      r.faults.jump_at_batch = 4;
      r.faults.drift_detect_threshold_volts = 5e-4;
      r.faults.drift_detect_lag_batches = 2;
      r.retry.wall_clock_backoff = true;
      r.transport.io_depth = 4;
      r.transport.latency_us = 1500.0;
      r.transport.bandwidth = 2.5e5;
      r.transport.wall_clock = true;
      break;
  }
  return r;
}

/// A playback request with a 3 x 2 diagram, ground truth and a name.
WireRequest golden_playback_request() {
  WireRequest r;
  r.method = ExtractionMethod::kHoughBaseline;
  r.backend = WireBackendKind::kPlayback;
  Csd csd(VoltageAxis(0.01, 0.002, 3), VoltageAxis(-0.02, 0.004, 2));
  csd.current(0, 0) = 0.125;
  csd.current(1, 0) = -0.5;
  csd.current(2, 0) = 1.75;
  csd.current(0, 1) = 3e-9;
  csd.current(1, 1) = 0.0;
  csd.current(2, 1) = 42.0;
  TransitionTruth truth;
  truth.slope_steep = -4.5;
  truth.slope_shallow = -0.25;
  truth.triple_point = {0.0125, -0.0175};
  csd.set_truth(truth);
  csd.set_name("golden-csd");
  r.playback.csd = std::move(csd);
  r.playback.dwell_seconds = 0.002;
  r.label = "golden-playback";
  return r;
}

/// The same report for every ErrorCode: only the status differs.
WireReport golden_report(ErrorCode code) {
  WireReport report;
  report.label = "golden-report";
  report.method = ExtractionMethod::kHoughBaseline;
  report.status = code == ErrorCode::kOk
                      ? Status()
                      : Status::failure(code, "sweeps", "detail-y");
  report.virtual_gates.alpha12 = 0.251;
  report.virtual_gates.alpha21 = -0.125;
  report.slope_steep = -4.75;
  report.slope_shallow = -0.256;
  report.stats.unique_probes = 4096;
  report.stats.total_requests = 4201;
  report.stats.simulated_seconds = 210.05;
  report.stats.compute_seconds = 0.875;
  report.fault_stats.transient_faults = 3;
  report.fault_stats.drift_events = 1;
  report.fault_stats.retries = 5;
  report.fault_stats.backoff_seconds = 0.07;
  report.fault_stats.reacquired_rows = 2;
  report.fault_stats.driver_batches = 38;
  report.fault_stats.driver_aborted_transfers = 1;
  report.fault_stats.driver_max_inflight = 4;
  report.fault_stats.transport_stall_seconds = 0.0625;
  report.job_attempts = 2;
  report.wall_seconds = 1.625;
  report.verdict.success = true;
  report.verdict.reason = "because";
  report.verdict.alpha12_rel_error = 0.001;
  report.verdict.alpha21_rel_error = 0.002;
  report.verdict.virtualized_angle_deg = 89.9;
  report.has_verdict = true;
  return report;
}

ProgressEvent golden_progress() {
  ProgressEvent event;
  event.stage = "sweeps";
  event.probes_used = 777;
  event.elapsed_seconds = 0.125;
  event.sequence = 42;
  event.timestamp_seconds = 1.5e6;
  return event;
}

constexpr char kDeviceRequest0Hex[] =
    "57510101010000000000000000000200010000000000000003033c0100000103"
    "c800000001000300000000000000020100000000000000000301b81e85eb51b8"
    "ae3f04017b14ae47e17a743f05019a9999999999b93f0601333333333333d33f"
    "0701666666666666d63f0801613255302aa9633f09012d431cebe2361a3f0a01"
    "9a9999999999e13f0b01b81e85eb51b8de3f0c01fca9f1d24d6280bf0d01b81e"
    "85eb51b8ae3f0e0192cb7f48bf7d5d3f0f019a9999999999e13f1001fca9f1d2"
    "4d62903f11012f6ea301bc05623f1201000000000000f03f1301fa7e6abc7493"
    "58bf14019a9999999999a93f0200000000000000000003000000000000000000"
    "0400000000000000000005007b0000000000000006015839b4c876be9f3f0700"
    "300000000000000008010000000000000000090100000000000000000a010000"
    "0000000000000b01000000000000e03f0c000000000000000000070000000000"
    "0000000008031400000001000000000000000000020100000000000000000903"
    "8c000000010017faed5e00000000020100000000000000000300010000000000"
    "0000040100000000000000000501000000000000000006000800000000000000"
    "070100000000000000000801000000000000e03f090100000000000000000a01"
    "00000000000000000b0100000000000000000c00ffffffffffffffff0d01fca9"
    "f1d24d62503f0e0001000000000000000a033c00000001000400000000000000"
    "02019a9999999999a93f030100000000000000400401000000000000d03f0500"
    "157c4a7fb979379e060000000000000000000b020d000000676f6c64656e2d64"
    "65766963650c0328000000010100000000000000000201000000000000000003"
    "00000000000000000004000000000000000000";

constexpr char kDeviceRequest0Json[] = R"json(
{"v":1,"method":"fast","backend":"device","device":{"params":{"n_dots":3,
"window_lo":0,"window_hi":0.059999999999999998,
"base_voltage":0.0050000000000000001,"alpha_self":0.10000000000000001,
"cross_ratio":0.29999999999999999,"cross_far_decay":0.34999999999999998,
"charging_energy":0.0023999999999999998,"mutual_coupling":0.0001,
"transition_fraction_x":0.55000000000000004,
"transition_fraction_y":0.47999999999999998,
"sensor_beta":-0.0080000000000000002,
"sensor_beta_falloff":0.059999999999999998,"sensor_gamma":0.0018,
"sensor_gamma_decay":0.55000000000000004,"peak_spacing":0.016,
"peak_width":0.0022000000000000001,"peak_current":1,"flank_offset":-0.0015,
"jitter":0.050000000000000003},"has_jitter":false,"jitter_seed":0,
"pair_index":0,"noise_seed":123,"dwell_seconds":0.031,"pixels_per_axis":48,
"white_noise_sigma":0,"pink_noise_sigma":0,"telegraph_amplitude":0,
"telegraph_rate_hz":0.5,"frontier":"anneal"},"deadline_ms":0,
"budget":{"max_probes":0,"max_wall_seconds":0},"faults":{"seed":1592654359,
"transient_rate":0,"transient_burst":1,"hard_fault_rate":0,"stuck_rate":0,
"stuck_probes":8,"latency_spike_rate":0,"latency_spike_seconds":0.5,
"drift_volts_per_second":0,"jump_probability":0,"jump_magnitude_volts":0,
"jump_at_batch":-1,"drift_detect_threshold_volts":0.001,
"drift_detect_lag_batches":1},"retry":{"max_attempts":4,
"base_backoff_seconds":0.050000000000000003,"backoff_multiplier":2,
"jitter_fraction":0.25,"jitter_seed":11400714819323198485,
"wall_clock_backoff":false},"transport":{"latency_us":0,"bandwidth":0,
"io_depth":0,"wall_clock":false},"label":"golden-device"}
)json";

constexpr char kDeviceRequest1Hex[] =
    "57510101010001000000000000000200010000000000000003033c0100000103"
    "c800000001000300000000000000020100000000000000000301b81e85eb51b8"
    "ae3f04017b14ae47e17a743f05019a9999999999b93f0601333333333333d33f"
    "0701666666666666d63f0801613255302aa9633f09012d431cebe2361a3f0a01"
    "9a9999999999e13f0b01b81e85eb51b8de3f0c01fca9f1d24d6280bf0d01b81e"
    "85eb51b8ae3f0e0192cb7f48bf7d5d3f0f019a9999999999e13f1001fca9f1d2"
    "4d62903f11012f6ea301bc05623f1201000000000000f03f1301fa7e6abc7493"
    "58bf14019a9999999999a93f0200010000000000000003000900000000000000"
    "0400010000000000000005007b0000000000000006015839b4c876be9f3f0700"
    "300000000000000008017b14ae47e17a943f090100000000000000000a010000"
    "0000000000000b01000000000000e03f0c000100000000000000070088130000"
    "000000000803140000000100a086010000000000020100000000000029400903"
    "8c00000001000b0000000000000002017b14ae47e17a943f0300030000000000"
    "000004012d431cebe2361a3f0501fca9f1d24d62503f06001100000000000000"
    "07017b14ae47e17a843f0801000000000000d03f090100000000000000000a01"
    "00000000000000000b0100000000000000000c00ffffffffffffffff0d01fca9"
    "f1d24d62503f0e0001000000000000000a033c00000001000600000000000000"
    "02017b14ae47e17a843f0301000000000000044004019a9999999999b93f0500"
    "6300000000000000060000000000000000000b020d000000676f6c64656e2d64"
    "65766963650c032800000001010000000000406f400201000000000000000003"
    "00010000000000000004000000000000000000";

constexpr char kDeviceRequest1Json[] = R"json(
{"v":1,"method":"hough_baseline","backend":"device",
"device":{"params":{"n_dots":3,"window_lo":0,
"window_hi":0.059999999999999998,"base_voltage":0.0050000000000000001,
"alpha_self":0.10000000000000001,"cross_ratio":0.29999999999999999,
"cross_far_decay":0.34999999999999998,
"charging_energy":0.0023999999999999998,"mutual_coupling":0.0001,
"transition_fraction_x":0.55000000000000004,
"transition_fraction_y":0.47999999999999998,
"sensor_beta":-0.0080000000000000002,
"sensor_beta_falloff":0.059999999999999998,"sensor_gamma":0.0018,
"sensor_gamma_decay":0.55000000000000004,"peak_spacing":0.016,
"peak_width":0.0022000000000000001,"peak_current":1,"flank_offset":-0.0015,
"jitter":0.050000000000000003},"has_jitter":true,"jitter_seed":9,
"pair_index":1,"noise_seed":123,"dwell_seconds":0.031,"pixels_per_axis":48,
"white_noise_sigma":0.02,"pink_noise_sigma":0,"telegraph_amplitude":0,
"telegraph_rate_hz":0.5,"frontier":"tabu"},"deadline_ms":5000,
"budget":{"max_probes":100000,"max_wall_seconds":12.5},"faults":{"seed":11,
"transient_rate":0.02,"transient_burst":3,"hard_fault_rate":0.0001,
"stuck_rate":0.001,"stuck_probes":17,"latency_spike_rate":0.01,
"latency_spike_seconds":0.25,"drift_volts_per_second":0,
"jump_probability":0,"jump_magnitude_volts":0,"jump_at_batch":-1,
"drift_detect_threshold_volts":0.001,"drift_detect_lag_batches":1},
"retry":{"max_attempts":6,"base_backoff_seconds":0.01,
"backoff_multiplier":2.5,"jitter_fraction":0.10000000000000001,
"jitter_seed":99,"wall_clock_backoff":false},"transport":{"latency_us":250,
"bandwidth":0,"io_depth":1,"wall_clock":false},"label":"golden-device"}
)json";

constexpr char kDeviceRequest2Hex[] =
    "57510101010000000000000000000200010000000000000003033c0100000103"
    "c800000001000300000000000000020100000000000000000301b81e85eb51b8"
    "ae3f04017b14ae47e17a743f05019a9999999999b93f0601333333333333d33f"
    "0701666666666666d63f0801613255302aa9633f09012d431cebe2361a3f0a01"
    "9a9999999999e13f0b01b81e85eb51b8de3f0c01fca9f1d24d6280bf0d01b81e"
    "85eb51b8ae3f0e0192cb7f48bf7d5d3f0f019a9999999999e13f1001fca9f1d2"
    "4d62903f11012f6ea301bc05623f1201000000000000f03f1301fa7e6abc7493"
    "58bf14019a9999999999a93f0200000000000000000003000000000000000000"
    "0400000000000000000005007b0000000000000006015839b4c876be9f3f0700"
    "30000000000000000801000000000000000009017b14ae47e17a843f0a019a99"
    "99999999a93f0b01000000000000f83f0c00020000000000000005031e000000"
    "0101000000000000e0bf0201fca9f1d24d62503f030028000000000000000603"
    "1e0000000101000000000000d0bf0201fca9f1d24d62603f03001e0000000000"
    "0000070000000000000000000803140000000100000000000000000002010000"
    "00000000000009038c00000001000d0000000000000002010000000000000000"
    "0300010000000000000004010000000000000000050100000000000000000600"
    "0800000000000000070100000000000000000801000000000000e03f0901f168"
    "e388b5f8e43e0a01fca9f1d24d62503f0b01fca9f1d24d62603f0c0004000000"
    "000000000d01fca9f1d24d62403f0e0002000000000000000a033c0000000100"
    "040000000000000002019a9999999999a93f0301000000000000004004010000"
    "00000000d03f0500157c4a7fb979379e060001000000000000000b020d000000"
    "676f6c64656e2d6465766963650c032800000001010000000000709740020100"
    "00000080840e410300040000000000000004000100000000000000";

constexpr char kDeviceRequest2Json[] = R"json(
{"v":1,"method":"fast","backend":"device","device":{"params":{"n_dots":3,
"window_lo":0,"window_hi":0.059999999999999998,
"base_voltage":0.0050000000000000001,"alpha_self":0.10000000000000001,
"cross_ratio":0.29999999999999999,"cross_far_decay":0.34999999999999998,
"charging_energy":0.0023999999999999998,"mutual_coupling":0.0001,
"transition_fraction_x":0.55000000000000004,
"transition_fraction_y":0.47999999999999998,
"sensor_beta":-0.0080000000000000002,
"sensor_beta_falloff":0.059999999999999998,"sensor_gamma":0.0018,
"sensor_gamma_decay":0.55000000000000004,"peak_spacing":0.016,
"peak_width":0.0022000000000000001,"peak_current":1,"flank_offset":-0.0015,
"jitter":0.050000000000000003},"has_jitter":false,"jitter_seed":0,
"pair_index":0,"noise_seed":123,"dwell_seconds":0.031,"pixels_per_axis":48,
"white_noise_sigma":0,"pink_noise_sigma":0.01,
"telegraph_amplitude":0.050000000000000003,"telegraph_rate_hz":1.5,
"frontier":"greedy"},"x_axis":{"start":-0.5,"step":0.001,"count":40},
"y_axis":{"start":-0.25,"step":0.002,"count":30},"deadline_ms":0,
"budget":{"max_probes":0,"max_wall_seconds":0},"faults":{"seed":13,
"transient_rate":0,"transient_burst":1,"hard_fault_rate":0,"stuck_rate":0,
"stuck_probes":8,"latency_spike_rate":0,"latency_spike_seconds":0.5,
"drift_volts_per_second":1.0000000000000001e-05,"jump_probability":0.001,
"jump_magnitude_volts":0.002,"jump_at_batch":4,
"drift_detect_threshold_volts":0.00050000000000000001,
"drift_detect_lag_batches":2},"retry":{"max_attempts":4,
"base_backoff_seconds":0.050000000000000003,"backoff_multiplier":2,
"jitter_fraction":0.25,"jitter_seed":11400714819323198485,
"wall_clock_backoff":true},"transport":{"latency_us":1500,
"bandwidth":250000,"io_depth":4,"wall_clock":true},"label":"golden-device"}
)json";

constexpr char kEmptyRequestHex[] =
    "5751010101000000000000000000020000000000000000000700000000000000"
    "0000080314000000010000000000000000000201000000000000000009038c00"
    "0000010017faed5e000000000201000000000000000003000100000000000000"
    "0401000000000000000005010000000000000000060008000000000000000701"
    "00000000000000000801000000000000e03f090100000000000000000a010000"
    "0000000000000b0100000000000000000c00ffffffffffffffff0d01fca9f1d2"
    "4d62503f0e0001000000000000000a033c000000010004000000000000000201"
    "9a9999999999a93f030100000000000000400401000000000000d03f0500157c"
    "4a7fb979379e060000000000000000000b02000000000c032800000001010000"
    "0000000000000201000000000000000003000000000000000000040000000000"
    "00000000";

constexpr char kEmptyRequestJson[] = R"json(
{"v":1,"method":"fast","backend":"none","deadline_ms":0,
"budget":{"max_probes":0,"max_wall_seconds":0},"faults":{"seed":1592654359,
"transient_rate":0,"transient_burst":1,"hard_fault_rate":0,"stuck_rate":0,
"stuck_probes":8,"latency_spike_rate":0,"latency_spike_seconds":0.5,
"drift_volts_per_second":0,"jump_probability":0,"jump_magnitude_volts":0,
"jump_at_batch":-1,"drift_detect_threshold_volts":0.001,
"drift_detect_lag_batches":1},"retry":{"max_attempts":4,
"base_backoff_seconds":0.050000000000000003,"backoff_multiplier":2,
"jitter_fraction":0.25,"jitter_seed":11400714819323198485,
"wall_clock_backoff":false},"transport":{"latency_us":0,"bandwidth":0,
"io_depth":0,"wall_clock":false},"label":""}
)json";

constexpr char kPlaybackRequestHex[] =
    "5751010101000100000000000000020002000000000000000403cc0000000103"
    "bc00000001031e00000001017b14ae47e17a843f0201fca9f1d24d62603f0300"
    "030000000000000002031e00000001017b14ae47e17a94bf0201fca9f1d24d62"
    "703f0300020000000000000003020a000000676f6c64656e2d63736404032800"
    "0000010100000000000012c00201000000000000d0bf03019a9999999999893f"
    "0401ec51b81e85eb91bf050230000000000000000000c03f000000000000e0bf"
    "000000000000fc3fdf413adc11c5293e00000000000000000000000000004540"
    "0201fca9f1d24d62603f07000000000000000000080314000000010000000000"
    "000000000201000000000000000009038c000000010017faed5e000000000201"
    "0000000000000000030001000000000000000401000000000000000005010000"
    "0000000000000600080000000000000007010000000000000000080100000000"
    "0000e03f090100000000000000000a0100000000000000000b01000000000000"
    "00000c00ffffffffffffffff0d01fca9f1d24d62503f0e000100000000000000"
    "0a033c0000000100040000000000000002019a9999999999a93f030100000000"
    "000000400401000000000000d03f0500157c4a7fb979379e0600000000000000"
    "00000b020f000000676f6c64656e2d706c61796261636b0c0328000000010100"
    "0000000000000002010000000000000000030000000000000000000400000000"
    "0000000000";

constexpr char kPlaybackRequestJson[] = R"json(
{"v":1,"method":"hough_baseline","backend":"playback",
"playback":{"csd":{"x_axis":{"start":0.01,"step":0.002,"count":3},
"y_axis":{"start":-0.02,"step":0.0040000000000000001,"count":2},
"name":"golden-csd","truth":{"slope_steep":-4.5,"slope_shallow":-0.25,
"triple_point_x":0.012500000000000001,
"triple_point_y":-0.017500000000000002},"pixels":[0.125,-0.5,1.75,3e-09,0,
42]},"dwell_seconds":0.002},"deadline_ms":0,"budget":{"max_probes":0,
"max_wall_seconds":0},"faults":{"seed":1592654359,"transient_rate":0,
"transient_burst":1,"hard_fault_rate":0,"stuck_rate":0,"stuck_probes":8,
"latency_spike_rate":0,"latency_spike_seconds":0.5,
"drift_volts_per_second":0,"jump_probability":0,"jump_magnitude_volts":0,
"jump_at_batch":-1,"drift_detect_threshold_volts":0.001,
"drift_detect_lag_batches":1},"retry":{"max_attempts":4,
"base_backoff_seconds":0.050000000000000003,"backoff_multiplier":2,
"jitter_fraction":0.25,"jitter_seed":11400714819323198485,
"wall_clock_backoff":false},"transport":{"latency_us":0,"bandwidth":0,
"io_depth":0,"wall_clock":false},"label":"golden-playback"}
)json";

constexpr char kOkReportHex[] =
    "5751010201020d000000676f6c64656e2d7265706f7274020001000000000000"
    "00030316000000010000000000000000000202000000000302000000000401aa"
    "f1d24d6210d03f0501000000000000c0bf060100000000000013c00701fca9f1"
    "d24d62d0bf080328000000010000100000000000000200691000000000000003"
    "019a99999999416a400401000000000000ec3f09035a00000001000300000000"
    "00000002000100000000000000030005000000000000000401ec51b81e85ebb1"
    "3f05000200000000000000060026000000000000000700010000000000000008"
    "0004000000000000000901000000000000b03f0a0002000000000000000b0100"
    "0000000000fa3f0c033500000001000100000000000000020207000000626563"
    "617573650301fca9f1d24d62503f0401fca9f1d24d62603f05019a9999999979"
    "56400d000100000000000000";

constexpr char kOkReportJson[] = R"json(
{"v":1,"label":"golden-report","method":"hough_baseline",
"status":{"code":"ok","stage":"","detail":""},"alpha12":0.251,
"alpha21":-0.125,"slope_steep":-4.75,"slope_shallow":-0.25600000000000001,
"stats":{"unique_probes":4096,"total_requests":4201,
"simulated_seconds":210.05000000000001,"compute_seconds":0.875},
"fault_stats":{"transient_faults":3,"drift_events":1,"retries":5,
"backoff_seconds":0.070000000000000007,"reacquired_rows":2,
"driver_batches":38,"driver_aborted_transfers":1,"driver_max_inflight":4,
"transport_stall_seconds":0.0625},"job_attempts":2,"wall_seconds":1.625,
"verdict":{"success":true,"reason":"because","alpha12_rel_error":0.001,
"alpha21_rel_error":0.002,"virtualized_angle_deg":89.900000000000006},
"has_verdict":true}
)json";

constexpr char kFailedReportHex[] =
    "5751010201020d000000676f6c64656e2d7265706f7274020001000000000000"
    "000303240000000100XX00000000000000020206000000737765657073030208"
    "00000064657461696c2d790401aaf1d24d6210d03f0501000000000000c0bf06"
    "0100000000000013c00701fca9f1d24d62d0bf08032800000001000010000000"
    "0000000200691000000000000003019a99999999416a400401000000000000ec"
    "3f09035a00000001000300000000000000020001000000000000000300050000"
    "00000000000401ec51b81e85ebb13f0500020000000000000006002600000000"
    "00000007000100000000000000080004000000000000000901000000000000b0"
    "3f0a0002000000000000000b01000000000000fa3f0c03350000000100010000"
    "0000000000020207000000626563617573650301fca9f1d24d62503f0401fca9"
    "f1d24d62603f05019a999999997956400d000100000000000000";

constexpr char kFailedReportJson[] = R"json(
{"v":1,"label":"golden-report","method":"hough_baseline",
"status":{"code":"@code@","stage":"sweeps","detail":"detail-y"},
"alpha12":0.251,"alpha21":-0.125,"slope_steep":-4.75,
"slope_shallow":-0.25600000000000001,"stats":{"unique_probes":4096,
"total_requests":4201,"simulated_seconds":210.05000000000001,
"compute_seconds":0.875},"fault_stats":{"transient_faults":3,
"drift_events":1,"retries":5,"backoff_seconds":0.070000000000000007,
"reacquired_rows":2,"driver_batches":38,"driver_aborted_transfers":1,
"driver_max_inflight":4,"transport_stall_seconds":0.0625},"job_attempts":2,
"wall_seconds":1.625,"verdict":{"success":true,"reason":"because",
"alpha12_rel_error":0.001,"alpha21_rel_error":0.002,
"virtualized_angle_deg":89.900000000000006},"has_verdict":true}
)json";

constexpr char kProgressHex[] =
    "5751010301020600000073776565707302000903000000000000030100000000"
    "0000c03f04002a0000000000000005010000000060e33641";

constexpr char kProgressJson[] = R"json(
{"v":1,"stage":"sweeps","probes_used":777,"elapsed_seconds":0.125,
"sequence":42,"timestamp_seconds":1500000}
)json";

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  return out;
}

/// `text` with every `placeholder` replaced by `value`.
std::string substitute(std::string text, std::string_view placeholder,
                       std::string_view value) {
  for (std::size_t at = text.find(placeholder); at != std::string::npos;
       at = text.find(placeholder, at + value.size()))
    text.replace(at, placeholder.size(), value);
  return text;
}

/// The golden report bytes for `code`: the ok report has an empty status,
/// every failure shares one template whose "XX" is the code byte.
std::string report_hex(ErrorCode code) {
  if (code == ErrorCode::kOk) return kOkReportHex;
  return substitute(kFailedReportHex, "XX",
                    to_hex(std::vector<std::uint8_t>{
                        static_cast<std::uint8_t>(code)}));
}

std::string report_json(ErrorCode code) {
  if (code == ErrorCode::kOk) return kOkReportJson;
  return substitute(kFailedReportJson, "@code@", error_code_name(code));
}

/// Key-order-insensitive rendering of a parsed JSON value: object members
/// sorted by key, everything else as the writer prints it.
std::string canonical_json(const JsonValue& v) {
  if (v.kind() == JsonValue::Kind::kArray) {
    std::string out = "[";
    for (const JsonValue& item : v.items()) out += canonical_json(item) + ",";
    return out + "]";
  }
  if (v.kind() != JsonValue::Kind::kObject) return v.dump();
  std::vector<std::string> members;
  for (const auto& [key, member] : v.members())
    members.push_back(JsonValue::string(key).dump() + ":" +
                      canonical_json(member));
  std::sort(members.begin(), members.end());
  std::string out = "{";
  for (const std::string& m : members) out += m + ",";
  return out + "}";
}

void expect_same_json(std::string_view actual, std::string_view golden) {
  Result<JsonValue> a = parse_json(actual);
  Result<JsonValue> g = parse_json(golden);
  ASSERT_TRUE(a.ok()) << a.status().message();
  ASSERT_TRUE(g.ok()) << g.status().message();
  EXPECT_EQ(canonical_json(a.value()), canonical_json(g.value()));
}

struct GoldenRequest {
  WireRequest request;
  const char* hex;
  const char* json;
};

std::vector<GoldenRequest> golden_requests() {
  return {{golden_device_request(0), kDeviceRequest0Hex, kDeviceRequest0Json},
          {golden_device_request(1), kDeviceRequest1Hex, kDeviceRequest1Json},
          {golden_device_request(2), kDeviceRequest2Hex, kDeviceRequest2Json},
          {WireRequest{}, kEmptyRequestHex, kEmptyRequestJson},
          {golden_playback_request(), kPlaybackRequestHex,
           kPlaybackRequestJson}};
}

TEST(WireGoldenTest, BinaryBytesArePinned) {
  for (const GoldenRequest& golden : golden_requests()) {
    EXPECT_EQ(to_hex(encode(golden.request)), golden.hex)
        << golden.request.label;
    Result<WireRequest> decoded = decode_request(from_hex(golden.hex));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded.value(), golden.request) << golden.request.label;
  }
  for (int raw = 0; raw <= static_cast<int>(ErrorCode::kInternal); ++raw) {
    const ErrorCode code = static_cast<ErrorCode>(raw);
    EXPECT_EQ(to_hex(encode(golden_report(code))), report_hex(code))
        << error_code_name(code);
    Result<WireReport> decoded = decode_report(from_hex(report_hex(code)));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded.value(), golden_report(code)) << error_code_name(code);
  }
  EXPECT_EQ(to_hex(encode(golden_progress())), kProgressHex);
  Result<ProgressEvent> progress = decode_progress(from_hex(kProgressHex));
  ASSERT_TRUE(progress.ok()) << progress.status().message();
  EXPECT_EQ(progress.value(), golden_progress());
}

TEST(WireGoldenTest, JsonIsPinnedAsParsedObjects) {
  for (const GoldenRequest& golden : golden_requests())
    expect_same_json(to_json(golden.request), golden.json);
  for (int raw = 0; raw <= static_cast<int>(ErrorCode::kInternal); ++raw) {
    const ErrorCode code = static_cast<ErrorCode>(raw);
    SCOPED_TRACE(error_code_name(code));
    expect_same_json(to_json(golden_report(code)), report_json(code));
  }
  expect_same_json(to_json(golden_progress()), kProgressJson);
}

TEST(WireGoldenTest, PinnedJsonDecodesToTheGoldenStructs) {
  for (const GoldenRequest& golden : golden_requests()) {
    Result<WireRequest> decoded = request_from_json(golden.json);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded.value(), golden.request) << golden.request.label;
  }
  for (int raw = 0; raw <= static_cast<int>(ErrorCode::kInternal); ++raw) {
    const ErrorCode code = static_cast<ErrorCode>(raw);
    Result<WireReport> decoded = report_from_json(report_json(code));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded.value(), golden_report(code)) << error_code_name(code);
  }
  Result<ProgressEvent> progress = progress_from_json(kProgressJson);
  ASSERT_TRUE(progress.ok()) << progress.status().message();
  EXPECT_EQ(progress.value(), golden_progress());
}

}  // namespace
}  // namespace qvg::wire
