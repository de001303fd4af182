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
