// Dense double reference for the sparse solver tests: a row-major matrix and
// Gaussian elimination with partial pivoting. The library itself has no
// dense solver; its linear systems go through the envelope LU of
// src/mdp/solver.hpp, which these references check.

#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.hpp"

namespace tml {
namespace dense {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

/// Solves A x = b by Gaussian elimination with partial pivoting. Throws
/// NumericError on a (near-)singular system.
inline std::vector<double> solve(Matrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  TML_REQUIRE(a.cols() == n && b.size() == n, "dense::solve: shape mismatch");
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    }
    if (std::abs(a(pivot, col)) < 1e-14) {
      throw NumericError("dense::solve: singular matrix at column " +
                         std::to_string(col));
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(col, c), a(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) / a(col, col);
      if (factor == 0.0) continue;
      for (std::size_t c = col + 1; c < n; ++c) a(r, c) -= factor * a(col, c);
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t c = i + 1; c < n; ++c) acc -= a(i, c) * x[c];
    x[i] = acc / a(i, i);
  }
  return x;
}

}  // namespace dense
}  // namespace tml
