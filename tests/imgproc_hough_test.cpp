#include "common/random.hpp"
#include "imgproc/hough.hpp"
#include "test_support.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>

namespace qvg {
namespace {

// The theta-parallel accumulator must vote on a real multi-threaded pool.
const bool g_force_threads = testsupport::force_multithread_pool();

/// Draw a line y = m x + c into a binary image.
GridU8 line_image(std::size_t n, double m, double c) {
  GridU8 image(n, n, 0);
  for (std::size_t x = 0; x < n; ++x) {
    const double y = m * static_cast<double>(x) + c;
    const auto yi = static_cast<std::ptrdiff_t>(std::llround(y));
    if (image.in_bounds(static_cast<std::ptrdiff_t>(x), yi))
      image(x, static_cast<std::size_t>(yi)) = 1;
  }
  return image;
}

TEST(HoughLineTest, SlopeInterceptFromNormalForm) {
  // Horizontal line y = 5: theta = 90deg, rho = 5.
  HoughLine horizontal{5.0, std::numbers::pi / 2.0, 10};
  ASSERT_TRUE(horizontal.slope().has_value());
  EXPECT_NEAR(*horizontal.slope(), 0.0, 1e-12);
  EXPECT_NEAR(*horizontal.intercept(), 5.0, 1e-12);
  // Vertical line x = 3: theta = 0.
  HoughLine vertical{3.0, 0.0, 10};
  EXPECT_FALSE(vertical.slope().has_value());
  EXPECT_FALSE(vertical.intercept().has_value());
}

TEST(HoughTest, FindsSingleLineSlope) {
  const GridU8 image = line_image(64, -0.5, 40.0);
  const auto lines = hough_lines(image);
  ASSERT_FALSE(lines.empty());
  ASSERT_TRUE(lines[0].slope().has_value());
  EXPECT_NEAR(*lines[0].slope(), -0.5, 0.06);
  EXPECT_NEAR(*lines[0].intercept(), 40.0, 3.0);
}

TEST(HoughTest, FindsSteepLine) {
  // x = 30 - 0.25 (y - 10) -> dy/dx = -4.
  GridU8 image(64, 64, 0);
  for (std::size_t y = 0; y < 64; ++y) {
    const double x = 30.0 - 0.25 * static_cast<double>(y);
    image(static_cast<std::size_t>(std::llround(x)), y) = 1;
  }
  const auto lines = hough_lines(image);
  ASSERT_FALSE(lines.empty());
  ASSERT_TRUE(lines[0].slope().has_value());
  EXPECT_NEAR(*lines[0].slope(), -4.0, 0.6);
}

TEST(HoughTest, FindsBothTransitionLineFamilies) {
  // Steep + shallow negatively sloped lines, like a CSD boundary.
  GridU8 image(100, 100, 0);
  for (std::size_t y = 0; y < 50; ++y) {
    const double x = 55.0 - 0.25 * static_cast<double>(y);
    image(static_cast<std::size_t>(std::llround(x)), y) = 1;
  }
  for (std::size_t x = 5; x < 50; ++x) {
    const double y = 52.0 - 0.2 * static_cast<double>(x);
    image(x, static_cast<std::size_t>(std::llround(y))) = 1;
  }
  const auto lines = hough_lines(image);
  bool found_steep = false;
  bool found_shallow = false;
  for (const auto& line : lines) {
    const auto slope = line.slope();
    if (!slope) {
      found_steep = true;  // near-vertical counts as steep
      continue;
    }
    if (*slope < -1.5) found_steep = true;
    if (*slope > -1.0 && *slope < -0.05) found_shallow = true;
  }
  EXPECT_TRUE(found_steep);
  EXPECT_TRUE(found_shallow);
}

TEST(HoughTest, VotesMatchLineLength) {
  const GridU8 image = line_image(64, 0.0, 32.0);  // horizontal, 64 px
  const auto acc = hough_accumulate(image);
  int max_votes = 0;
  for (int v : acc.votes.raw()) max_votes = std::max(max_votes, v);
  EXPECT_GE(max_votes, 60);
  EXPECT_LE(max_votes, 70);
}

TEST(HoughTest, EmptyImageYieldsNoLines) {
  const GridU8 image(32, 32, 0);
  EXPECT_TRUE(hough_lines(image).empty());
}

TEST(HoughTest, NmsSuppressesDuplicatePeaks) {
  const GridU8 image = line_image(64, -0.3, 40.0);
  HoughOptions opt;
  opt.max_lines = 8;
  const auto lines = hough_lines(image, opt);
  // One physical line: NMS should not report many near-duplicates.
  int near_duplicates = 0;
  for (std::size_t i = 0; i < lines.size(); ++i)
    for (std::size_t j = i + 1; j < lines.size(); ++j)
      if (std::abs(lines[i].rho - lines[j].rho) < 3.0 &&
          std::abs(lines[i].theta - lines[j].theta) < 0.05)
        ++near_duplicates;
  EXPECT_EQ(near_duplicates, 0);
}

TEST(HoughTest, ExplicitThresholdFiltersShortSegments) {
  GridU8 image(64, 64, 0);
  for (std::size_t x = 10; x < 20; ++x) image(x, 30) = 1;  // 10-pixel segment
  HoughOptions opt;
  opt.votes_threshold = 30;
  EXPECT_TRUE(hough_lines(image, opt).empty());
  opt.votes_threshold = 5;
  EXPECT_FALSE(hough_lines(image, opt).empty());
}

TEST(HoughTest, AccumulatorBinMappingRoundTrips) {
  const GridU8 image(16, 16, 0);
  const auto acc = hough_accumulate(image);
  EXPECT_NEAR(acc.rho_of_bin(0), acc.rho_min, 1e-12);
  EXPECT_NEAR(acc.theta_of_bin(0), 0.0, 1e-12);
  const double diag = std::hypot(16.0, 16.0);
  EXPECT_NEAR(acc.rho_of_bin(acc.votes.height() - 1), diag, 1.5);
}

GridU8 random_edges(std::size_t w, std::size_t h, double density,
                    std::uint64_t seed) {
  Rng rng(seed);
  GridU8 edges(w, h, 0);
  for (auto& v : edges.raw()) v = rng.uniform() < density ? 1 : 0;
  return edges;
}

/// The serial pixel-major vote count, written out independently of
/// hough_accumulate's theta-parallel loop.
Grid2D<int> serial_votes(const GridU8& edges, const HoughOptions& opt) {
  const double diag = std::hypot(static_cast<double>(edges.width()),
                                 static_cast<double>(edges.height()));
  const double rho_min = -diag;
  const double theta_step = opt.theta_resolution_deg * std::numbers::pi / 180.0;
  const auto n_rho = static_cast<std::size_t>(
                         std::ceil(2.0 * diag / opt.rho_resolution)) +
                     1;
  const auto n_theta =
      static_cast<std::size_t>(std::ceil(std::numbers::pi / theta_step));
  Grid2D<int> votes(n_theta, n_rho, 0);
  for (std::size_t y = 0; y < edges.height(); ++y) {
    for (std::size_t x = 0; x < edges.width(); ++x) {
      if (edges(x, y) == 0) continue;
      for (std::size_t t = 0; t < n_theta; ++t) {
        const double theta = theta_step * static_cast<double>(t);
        const double rho = static_cast<double>(x) * std::cos(theta) +
                           static_cast<double>(y) * std::sin(theta);
        const auto bin = static_cast<std::ptrdiff_t>(
            std::round((rho - rho_min) / opt.rho_resolution));
        if (bin < 0 || static_cast<std::size_t>(bin) >= n_rho) continue;
        ++votes(t, static_cast<std::size_t>(bin));
      }
    }
  }
  return votes;
}

TEST(HoughVoteTest, MatchesSerialCountOnRandomAndDegenerateMaps) {
  struct Case {
    std::size_t w;
    std::size_t h;
    double density;
  };
  const HoughOptions opt;
  for (const Case& c : {Case{97, 61, 0.03}, Case{64, 64, 0.5}, Case{130, 7, 0.2},
                        Case{1, 64, 0.5}, Case{64, 1, 0.5}, Case{3, 3, 1.0}}) {
    const GridU8 edges = random_edges(c.w, c.h, c.density, 77 + c.w);
    EXPECT_EQ(hough_accumulate(edges, opt).votes, serial_votes(edges, opt))
        << c.w << "x" << c.h;
  }
}

TEST(HoughVoteTest, EmptyMapAndNonDefaultResolutions) {
  HoughOptions opt;
  opt.rho_resolution = 0.5;
  opt.theta_resolution_deg = 2.0;

  const GridU8 empty(80, 80, 0);
  const HoughAccumulator none = hough_accumulate(empty, opt);
  EXPECT_EQ(none.votes, serial_votes(empty, opt));
  for (int v : none.votes.raw()) EXPECT_EQ(v, 0);

  GridU8 one(80, 80, 0);
  one(79, 79) = 1;  // the far corner pixel
  const HoughAccumulator corner = hough_accumulate(one, opt);
  EXPECT_EQ(corner.votes, serial_votes(one, opt));
  long total = 0;
  for (int v : corner.votes.raw()) total += v;
  EXPECT_EQ(total, static_cast<long>(corner.votes.width()));  // one per theta
}

}  // namespace
}  // namespace qvg
