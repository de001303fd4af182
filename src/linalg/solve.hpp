// Convenience linear-system routines on top of the decompositions.
#pragma once

#include "linalg/matrix.hpp"

#include <vector>

namespace qvg {

/// Matrix inverse. Throws NumericalError when singular.
[[nodiscard]] Matrix inverse(const Matrix& a);

}  // namespace qvg
