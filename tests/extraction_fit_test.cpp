#include "common/random.hpp"
#include "extraction/piecewise_fit.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qvg {
namespace {

struct PathSpec {
  Pixel anchor_a{10, 50};
  Pixel anchor_b{60, 8};
  Point2 vertex{52.0, 40.0};
};

/// Sample pixels along the A->vertex and vertex->B segments.
std::vector<Pixel> path_points(const PathSpec& spec, double jitter_sigma = 0.0,
                               std::uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<Pixel> points;
  const Point2 a = spec.anchor_a.center();
  const Point2 b = spec.anchor_b.center();
  for (int i = 1; i < 20; ++i) {
    const double t = i / 20.0;
    Point2 p{a.x + t * (spec.vertex.x - a.x), a.y + t * (spec.vertex.y - a.y)};
    if (jitter_sigma > 0) p.y += rng.normal(0.0, jitter_sigma);
    points.push_back({static_cast<int>(std::lround(p.x)),
                      static_cast<int>(std::lround(p.y))});
  }
  for (int i = 1; i < 20; ++i) {
    const double t = i / 20.0;
    Point2 p{spec.vertex.x + t * (b.x - spec.vertex.x),
             spec.vertex.y + t * (b.y - spec.vertex.y)};
    if (jitter_sigma > 0) p.x += rng.normal(0.0, jitter_sigma);
    points.push_back({static_cast<int>(std::lround(p.x)),
                      static_cast<int>(std::lround(p.y))});
  }
  return points;
}

TEST(DistanceToPathTest, KnownDistances) {
  const Point2 a{0, 10};
  const Point2 vertex{10, 10};
  const Point2 b{10, 0};
  EXPECT_DOUBLE_EQ(distance_to_path({5, 10}, a, vertex, b), 0.0);
  EXPECT_DOUBLE_EQ(distance_to_path({5, 8}, a, vertex, b), 2.0);
  EXPECT_DOUBLE_EQ(distance_to_path({12, 10}, a, vertex, b), 2.0);
  EXPECT_NEAR(distance_to_path({13, 14}, a, vertex, b), 5.0, 1e-12);
}

TEST(PiecewiseFitTest, RecoversCleanVertex) {
  const PathSpec spec;
  const auto fit =
      fit_piecewise_linear(path_points(spec), spec.anchor_a, spec.anchor_b);
  ASSERT_TRUE(fit.has_value()) << fit.reason();
  EXPECT_NEAR(fit->intersection.x, spec.vertex.x, 1.0);
  EXPECT_NEAR(fit->intersection.y, spec.vertex.y, 1.0);
  EXPECT_LT(fit->rms_residual, 0.6);
}

TEST(PiecewiseFitTest, SlopesMatchSegments) {
  const PathSpec spec;
  const auto fit =
      fit_piecewise_linear(path_points(spec), spec.anchor_a, spec.anchor_b);
  ASSERT_TRUE(fit.has_value());
  const double expected_shallow =
      (spec.vertex.y - spec.anchor_a.center().y) /
      (spec.vertex.x - spec.anchor_a.center().x);
  const double expected_steep =
      (spec.anchor_b.center().y - spec.vertex.y) /
      (spec.anchor_b.center().x - spec.vertex.x);
  EXPECT_NEAR(fit->slope_shallow, expected_shallow, 0.05);
  EXPECT_NEAR(fit->slope_steep, expected_steep, 0.8);
  EXPECT_LT(fit->slope_steep, fit->slope_shallow);
}

TEST(PiecewiseFitTest, ToleratesJitter) {
  const PathSpec spec;
  const auto fit = fit_piecewise_linear(path_points(spec, 0.8),
                                        spec.anchor_a, spec.anchor_b);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->intersection.x, spec.vertex.x, 2.5);
  EXPECT_NEAR(fit->intersection.y, spec.vertex.y, 2.5);
}

TEST(PiecewiseFitTest, HuberResistsOutliers) {
  const PathSpec spec;
  auto points = path_points(spec);
  // A handful of gross outliers in the triangle interior.
  points.push_back({30, 48});
  points.push_back({35, 47});
  points.push_back({55, 30});
  PiecewiseFitOptions robust;
  robust.huber_delta_px = 1.5;
  const auto fit =
      fit_piecewise_linear(points, spec.anchor_a, spec.anchor_b, robust);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->intersection.x, spec.vertex.x, 2.0);
  EXPECT_NEAR(fit->intersection.y, spec.vertex.y, 2.0);

  PiecewiseFitOptions plain;
  plain.huber_delta_px = 0.0;
  const auto lsq =
      fit_piecewise_linear(points, spec.anchor_a, spec.anchor_b, plain);
  ASSERT_TRUE(lsq.has_value());
  const double robust_err = std::hypot(fit->intersection.x - spec.vertex.x,
                                       fit->intersection.y - spec.vertex.y);
  const double plain_err = std::hypot(lsq->intersection.x - spec.vertex.x,
                                      lsq->intersection.y - spec.vertex.y);
  EXPECT_LE(robust_err, plain_err + 0.25);
}

TEST(PiecewiseFitTest, VerticalResidualModeWorksOnCleanPath) {
  const PathSpec spec;
  PiecewiseFitOptions opt;
  opt.residual = FitResidual::kVertical;
  const auto fit =
      fit_piecewise_linear(path_points(spec), spec.anchor_a, spec.anchor_b, opt);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->intersection.x, spec.vertex.x, 2.0);
}

// Bit-level pins: the exact optimum and iteration count the fit reaches on
// fixed inputs. Any change to the simplex's coefficients, operation order or
// tie-breaking moves these, so a solver rewrite that keeps them is
// bit-identical, not merely verdict-identical.
struct FitPin {
  int iterations;
  double x, y, slope_shallow, slope_steep;
};

void expect_pinned(const Result<PiecewiseFit>& fit, const FitPin& pin) {
  ASSERT_TRUE(fit.has_value()) << fit.reason();
  EXPECT_EQ(fit->iterations, pin.iterations);
  EXPECT_DOUBLE_EQ(fit->intersection.x, pin.x);
  EXPECT_DOUBLE_EQ(fit->intersection.y, pin.y);
  EXPECT_DOUBLE_EQ(fit->slope_shallow, pin.slope_shallow);
  EXPECT_DOUBLE_EQ(fit->slope_steep, pin.slope_steep);
}

TEST(PiecewiseFitPinTest, CleanVertex) {
  const PathSpec spec;
  expect_pinned(
      fit_piecewise_linear(path_points(spec), spec.anchor_a, spec.anchor_b),
      {72, 51.847794972419251, 40.473225526822368, -0.22765296186947176,
       -3.9833671279068819});
}

TEST(PiecewiseFitPinTest, Jittered) {
  const PathSpec spec;
  expect_pinned(fit_piecewise_linear(path_points(spec, 0.8), spec.anchor_a,
                                     spec.anchor_b),
                {71, 52.569228874230717, 39.411169320399118,
                 -0.24874377477884807, -4.2271749174816931});
}

TEST(PiecewiseFitPinTest, HuberWithOutliers) {
  const PathSpec spec;
  auto points = path_points(spec);
  points.push_back({30, 48});
  points.push_back({35, 47});
  points.push_back({55, 30});
  PiecewiseFitOptions robust;
  robust.huber_delta_px = 1.5;
  expect_pinned(
      fit_piecewise_linear(points, spec.anchor_a, spec.anchor_b, robust),
      {71, 51.8377938361429, 40.732732596120215, -0.22150468641283766,
       -4.0102800565199352});
}

TEST(PiecewiseFitPinTest, VerticalResidual) {
  const PathSpec spec;
  PiecewiseFitOptions opt;
  opt.residual = FitResidual::kVertical;
  expect_pinned(fit_piecewise_linear(path_points(spec), spec.anchor_a,
                                     spec.anchor_b, opt),
                {70, 51.766457819933187, 40.49308611791281,
                 -0.22762078419659476, -3.9464285731817479});
}

TEST(PiecewiseFitPinTest, StopsAtIterationBudget) {
  const PathSpec spec;
  PiecewiseFitOptions opt;
  opt.max_iterations = 3;
  const auto fit =
      fit_piecewise_linear(path_points(spec), spec.anchor_a, spec.anchor_b, opt);
  ASSERT_TRUE(fit.has_value()) << fit.reason();
  EXPECT_EQ(fit->iterations, 3);
}

TEST(PiecewiseFitTest, TooFewPointsFails) {
  const PathSpec spec;
  const auto fit = fit_piecewise_linear({{20, 45}, {50, 20}}, spec.anchor_a,
                                        spec.anchor_b);
  EXPECT_FALSE(fit.has_value());
  EXPECT_NE(fit.reason().find("at least 3"), std::string::npos);
}

TEST(PiecewiseFitTest, PositiveSlopeDataFails) {
  // Points along a positively sloped line: violates the slope priors.
  std::vector<Pixel> points;
  for (int i = 0; i < 20; ++i) points.push_back({12 + 2 * i, 10 + 2 * i});
  const auto fit = fit_piecewise_linear(points, {10, 50}, {60, 8});
  EXPECT_FALSE(fit.has_value());
}

TEST(PiecewiseFitTest, InvalidAnchorsThrow) {
  EXPECT_THROW(
      fit_piecewise_linear({{1, 1}, {2, 2}, {3, 3}}, {50, 10}, {10, 50}),
      ContractViolation);
}

// Property sweep over vertex positions: the fit must recover any vertex
// well inside the anchor box.
class VertexRecoveryProperty
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(VertexRecoveryProperty, RecoversVertex) {
  PathSpec spec;
  spec.vertex = {GetParam().first, GetParam().second};
  const auto fit =
      fit_piecewise_linear(path_points(spec), spec.anchor_a, spec.anchor_b);
  ASSERT_TRUE(fit.has_value()) << fit.reason();
  EXPECT_NEAR(fit->intersection.x, spec.vertex.x, 1.5);
  EXPECT_NEAR(fit->intersection.y, spec.vertex.y, 1.5);
}

INSTANTIATE_TEST_SUITE_P(
    VertexGrid, VertexRecoveryProperty,
    ::testing::Values(std::pair{40.0, 45.0}, std::pair{50.0, 42.0},
                      std::pair{55.0, 35.0}, std::pair{45.0, 30.0},
                      std::pair{58.0, 20.0}, std::pair{30.0, 46.0}));

}  // namespace
}  // namespace qvg
