// Small dense linear-algebra helpers.
//
// The dense vector helpers serve the IRL and optimization modules. The dense
// matrix and its direct solver serve the steady-state analysis's BSCC
// systems and the test references only: the model checker's one-choice
// systems (DTMC P[F]/R[F], policy evaluation) use the sparse envelope LU of
// src/mdp/solver.hpp. This is intentionally minimal: row-major storage,
// Gaussian elimination with partial pivoting, and the handful of BLAS-1
// style helpers used across the library.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/error.hpp"

namespace tml {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    TML_ASSERT(r < rows_ && c < cols_, "Matrix index out of range");
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    TML_ASSERT(r < rows_ && c < cols_, "Matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Matrix-vector product.
  std::vector<double> apply(std::span<const double> x) const;

  /// Matrix-matrix product.
  Matrix multiply(const Matrix& other) const;

  /// Max-abs entry.
  double max_abs() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves A x = b by Gaussian elimination with partial pivoting.
/// Throws NumericError on (near-)singular systems.
std::vector<double> solve_linear_system(Matrix a, std::vector<double> b);

/// Euclidean norm.
double norm2(std::span<const double> v);

/// Infinity norm of (a - b); the vectors must have equal length.
double max_abs_diff(std::span<const double> a, std::span<const double> b);

/// Dot product.
double dot(std::span<const double> a, std::span<const double> b);

/// a += scale * b, in place.
void axpy(std::vector<double>& a, double scale, std::span<const double> b);

}  // namespace tml
