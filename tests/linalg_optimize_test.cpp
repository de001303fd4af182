#include "common/error.hpp"
#include "linalg/nelder_mead.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qvg {
namespace {

double sq(double v) { return v * v; }

TEST(NelderMeadTest, QuadraticBowl) {
  auto f = [](const std::vector<double>& x) {
    return sq(x[0] - 3.0) + sq(x[1] + 1.0);
  };
  const auto result = minimize_nelder_mead(f, {0.0, 0.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 3.0, 1e-4);
  EXPECT_NEAR(result.x[1], -1.0, 1e-4);
  EXPECT_NEAR(result.f, 0.0, 1e-7);
}

TEST(NelderMeadTest, Rosenbrock2D) {
  auto f = [](const std::vector<double>& x) {
    return 100.0 * sq(x[1] - sq(x[0])) + sq(1.0 - x[0]);
  };
  NelderMeadOptions opt;
  opt.max_iterations = 5000;
  const auto result = minimize_nelder_mead(f, {-1.2, 1.0}, opt);
  EXPECT_NEAR(result.x[0], 1.0, 1e-3);
  EXPECT_NEAR(result.x[1], 1.0, 1e-3);
}

TEST(NelderMeadTest, OneDimensional) {
  auto f = [](const std::vector<double>& x) { return std::cos(x[0]); };
  const auto result = minimize_nelder_mead(f, {3.0});
  EXPECT_NEAR(result.x[0], 3.14159265, 1e-3);
}

TEST(NelderMeadTest, RespectsIterationBudget) {
  auto f = [](const std::vector<double>& x) { return sq(x[0]); };
  NelderMeadOptions opt;
  opt.max_iterations = 3;
  const auto result = minimize_nelder_mead(f, {100.0}, opt);
  EXPECT_LE(result.iterations, 3);
}

TEST(NelderMeadTest, EmptyStartThrows) {
  auto f = [](const std::vector<double>&) { return 0.0; };
  EXPECT_THROW(minimize_nelder_mead(f, {}), ContractViolation);
}

}  // namespace
}  // namespace qvg
