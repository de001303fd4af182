#include "common/error.hpp"
#include "common/random.hpp"
#include "linalg/decomposition.hpp"
#include "linalg/solve.hpp"

#include <gtest/gtest.h>

namespace qvg {
namespace {

TEST(LuTest, Solves2x2) {
  const Matrix a{{2, 1}, {1, 3}};
  const auto x = LuDecomposition(a).solve(std::vector<double>{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuTest, SolvesWithPivoting) {
  // Leading zero forces a row swap.
  const Matrix a{{0, 1}, {1, 0}};
  const auto x = LuDecomposition(a).solve(std::vector<double>{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuTest, SingularThrows) {
  const Matrix a{{1, 2}, {2, 4}};
  EXPECT_THROW(LuDecomposition{a}, NumericalError);
}

TEST(LuTest, InverseRoundTrip) {
  const Matrix a{{4, 7}, {2, 6}};
  const Matrix inv = inverse(a);
  EXPECT_LT((a * inv).max_abs_diff(Matrix::identity(2)), 1e-12);
  EXPECT_LT((inv * a).max_abs_diff(Matrix::identity(2)), 1e-12);
}

TEST(LuTest, RandomSystemsRoundTrip) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial % 5);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
      a(r, r) += 3.0;  // diagonal dominance keeps it well conditioned
    }
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.uniform(-2.0, 2.0);
    const auto b = a.apply(x_true);
    const auto x = LuDecomposition(a).solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(LuTest, MatrixRhsSolve) {
  const Matrix a{{3, 1}, {1, 2}};
  const Matrix x = LuDecomposition(a).solve(Matrix::identity(2));
  EXPECT_LT((a * x).max_abs_diff(Matrix::identity(2)), 1e-12);
}

TEST(QrTest, SolvesExactSystem) {
  const Matrix a{{1, 1}, {1, 2}, {1, 3}};
  // b generated from x = (2, 0.5)
  const auto x = QrDecomposition(a).solve({2.5, 3.0, 3.5});
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 0.5, 1e-12);
}

TEST(QrTest, LeastSquaresMinimizesResidual) {
  // Overdetermined, inconsistent system: projection onto column space.
  const Matrix a{{1, 0}, {0, 1}, {1, 1}};
  const std::vector<double> b{1.0, 1.0, 0.0};
  const auto x = QrDecomposition(a).solve(b);
  // Normal equations solution: A^T A x = A^T b -> [[2,1],[1,2]] x = [1,1].
  EXPECT_NEAR(x[0], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0 / 3.0, 1e-12);
}

TEST(QrTest, RankDeficientThrows) {
  const Matrix a{{1, 2}, {2, 4}, {3, 6}};
  const QrDecomposition qr(a);
  EXPECT_FALSE(qr.full_rank());
  EXPECT_THROW(qr.solve({1.0, 2.0, 3.0}), NumericalError);
}

TEST(QrTest, WideMatrixThrows) {
  const Matrix a(2, 3);
  EXPECT_THROW(QrDecomposition{a}, ContractViolation);
}

}  // namespace
}  // namespace qvg
