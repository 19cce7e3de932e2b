// Dense vector helpers: the handful of BLAS-1 style operations the IRL and
// optimization modules use. Every floating-point linear system over model
// states (DTMC P[F]/R[F], policy evaluation, stationary and long-run
// distributions) goes through the sparse envelope LU of
// src/mdp/solver.hpp; the only dense systems are the repair NLP's
// variables-by-variables ones inside src/opt/kkt.cpp.

#pragma once

#include <span>
#include <vector>

namespace tml {

/// Euclidean norm.
double norm2(std::span<const double> v);

/// Infinity norm of (a - b); the vectors must have equal length.
double max_abs_diff(std::span<const double> a, std::span<const double> b);

/// Dot product.
double dot(std::span<const double> a, std::span<const double> b);

/// a += scale * b, in place.
void axpy(std::vector<double>& a, double scale, std::span<const double> b);

}  // namespace tml
