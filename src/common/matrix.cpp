#include "src/common/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"

namespace tml {

double norm2(std::span<const double> v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  TML_REQUIRE(a.size() == b.size(), "max_abs_diff: dimension mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

double dot(std::span<const double> a, std::span<const double> b) {
  TML_REQUIRE(a.size() == b.size(), "dot: dimension mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

void axpy(std::vector<double>& a, double scale, std::span<const double> b) {
  TML_REQUIRE(a.size() == b.size(), "axpy: dimension mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += scale * b[i];
}

}  // namespace tml
