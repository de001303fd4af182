#include "common/random.hpp"
#include "imgproc/filters.hpp"
#include "linalg/stats.hpp"

#include <gtest/gtest.h>

namespace qvg {
namespace {

TEST(GaussianBlurTest, PreservesConstant) {
  GridD image(8, 8, 5.0);
  const GridD out = gaussian_blur(image, 1.4);
  for (double v : out.raw()) EXPECT_NEAR(v, 5.0, 1e-12);
}

TEST(GaussianBlurTest, ReducesNoiseVariance) {
  Rng rng(3);
  GridD image(50, 50);
  for (double& v : image.raw()) v = rng.normal();
  const GridD out = gaussian_blur(image, 1.4);
  EXPECT_LT(variance(out.raw()), 0.25 * variance(image.raw()));
}

TEST(GaussianBlurTest, PreservesMeanApproximately) {
  Rng rng(4);
  GridD image(40, 40);
  for (double& v : image.raw()) v = rng.uniform(0.0, 1.0);
  const GridD out = gaussian_blur(image, 2.0);
  EXPECT_NEAR(mean(out.raw()), mean(image.raw()), 0.01);
}

TEST(MedianFilterTest, RemovesImpulseNoise) {
  GridD image(9, 9, 1.0);
  image(4, 4) = 100.0;  // single hot pixel
  const GridD out = median_filter(image, 1);
  EXPECT_DOUBLE_EQ(out(4, 4), 1.0);
}

TEST(MedianFilterTest, PreservesStepEdge) {
  GridD image(10, 10);
  for (std::size_t y = 0; y < 10; ++y)
    for (std::size_t x = 0; x < 10; ++x) image(x, y) = x < 5 ? 1.0 : 0.0;
  const GridD out = median_filter(image, 1);
  EXPECT_DOUBLE_EQ(out(2, 5), 1.0);
  EXPECT_DOUBLE_EQ(out(7, 5), 0.0);
}

TEST(MedianFilterTest, RadiusZeroIsIdentity) {
  GridD image(4, 4, 2.0);
  image(1, 1) = 9.0;
  EXPECT_EQ(median_filter(image, 0), image);
}

TEST(BoxBlurTest, AveragesNeighbourhood) {
  GridD image(5, 5, 0.0);
  image(2, 2) = 9.0;
  const GridD out = box_blur(image, 1);
  EXPECT_NEAR(out(2, 2), 1.0, 1e-12);
  EXPECT_NEAR(out(1, 1), 1.0, 1e-12);
  EXPECT_NEAR(out(0, 0), 0.0, 1e-12);
}

TEST(Normalize01Test, MapsRange) {
  GridD image(3, 1);
  image(0, 0) = -2.0;
  image(1, 0) = 0.0;
  image(2, 0) = 2.0;
  const GridD out = normalize01(image);
  EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(out(2, 0), 1.0);
}

TEST(Normalize01Test, ConstantImageMapsToZero) {
  GridD image(3, 3, 7.0);
  const GridD out = normalize01(image);
  for (double v : out.raw()) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
}  // namespace qvg
