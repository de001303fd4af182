// Matrix decompositions: LU with partial pivoting and Householder QR.
#pragma once

#include "linalg/matrix.hpp"

#include <vector>

namespace qvg {

/// LU decomposition with partial pivoting: P*A = L*U.
/// L is unit lower triangular and stored with U in a packed matrix.
class LuDecomposition {
 public:
  /// Factor a square matrix. Throws NumericalError when A is singular to
  /// working precision.
  explicit LuDecomposition(const Matrix& a);

  /// Solve A x = b.
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;

  /// Solve A X = B column-wise.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  [[nodiscard]] std::size_t size() const noexcept { return lu_.rows(); }

 private:
  Matrix lu_;                     // packed L (below diag) and U (on/above diag)
  std::vector<std::size_t> piv_;  // row permutation
};

/// Householder QR decomposition of an m x n matrix with m >= n.
/// Provides least-squares solves min ||A x - b||.
class QrDecomposition {
 public:
  explicit QrDecomposition(const Matrix& a);

  /// Least-squares solution of A x = b (b.size() == rows of A).
  /// Throws NumericalError when A is rank deficient.
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;

  [[nodiscard]] bool full_rank() const noexcept;

 private:
  Matrix qr_;                  // packed Householder vectors + R
  std::vector<double> rdiag_;  // diagonal of R
};

}  // namespace qvg
