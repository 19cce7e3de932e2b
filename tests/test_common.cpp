// Unit tests for the common utilities: vector helpers, RNG, table, and the
// dense reference solve the sparse solver tests check against.

#include <cmath>

#include <gtest/gtest.h>

#include "src/common/matrix.hpp"
#include "src/common/rng.hpp"
#include "src/common/table.hpp"
#include "tests/dense.hpp"

namespace tml {
namespace {

TEST(LinearSolve, SolvesKnownSystem) {
  // 2x + y = 5 ; x - y = 1  →  x = 2, y = 1.
  dense::Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = -1.0;
  const std::vector<double> x = dense::solve(a, {5.0, 1.0});
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(LinearSolve, PivotingHandlesZeroDiagonal) {
  dense::Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  const std::vector<double> x = dense::solve(a, {3.0, 4.0});
  EXPECT_NEAR(x[0], 4.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinearSolve, SingularThrows) {
  dense::Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(dense::solve(a, {1.0, 2.0}), NumericError);
}

TEST(LinearSolve, RandomRoundTrip) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.index(6);
    dense::Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
      a(i, i) += 3.0;  // diagonally dominant ⇒ nonsingular
    }
    std::vector<double> x_true(n);
    for (double& v : x_true) v = rng.uniform(-2.0, 2.0);
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) b[i] += a(i, j) * x_true[j];
    }
    const std::vector<double> x = dense::solve(a, b);
    EXPECT_LT(max_abs_diff(x, x_true), 1e-9);
  }
}

TEST(VectorHelpers, Norms) {
  const std::vector<double> v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2(v), 5.0);
  const std::vector<double> w{3.5, 4.0};
  EXPECT_DOUBLE_EQ(max_abs_diff(v, w), 0.5);
  EXPECT_DOUBLE_EQ(dot(v, w), 26.5);
  std::vector<double> a{1.0, 1.0};
  axpy(a, 2.0, v);
  EXPECT_DOUBLE_EQ(a[0], 7.0);
  EXPECT_DOUBLE_EQ(a[1], 9.0);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, IndexBounds) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.index(7), 7u);
  }
  EXPECT_THROW(rng.index(0), Error);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_THROW(rng.bernoulli(1.5), Error);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(4);
  const std::vector<double> weights{0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) {
    counts[rng.categorical(weights)]++;
  }
  EXPECT_EQ(counts[0], 0);
  // index 2 should appear ≈ 3× as often as index 1.
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(Rng, CategoricalAllZeroThrows) {
  Rng rng(5);
  const std::vector<double> weights{0.0, 0.0};
  EXPECT_THROW(rng.categorical(weights), Error);
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW(rng.categorical(negative), Error);
}

TEST(Rng, ForkIsIndependentButDeterministic) {
  Rng a(7);
  Rng fork1 = a.fork();
  Rng b(7);
  Rng fork2 = b.fork();
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(fork1.uniform(), fork2.uniform());
  }
}

TEST(Table, AlignsColumns) {
  Table table({"a", "long-header"});
  table.add_row({"xxxx", "1"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("a    | long-header"), std::string::npos);
  EXPECT_NE(out.find("-----+------------"), std::string::npos);
  EXPECT_NE(out.find("xxxx | 1"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(Table, RowArityChecked) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(Table, EmptyHeaderRejected) {
  EXPECT_THROW(Table({}), Error);
}

TEST(FormatDouble, SignificantDigits) {
  EXPECT_EQ(format_double(0.04500001, 3), "0.045");
  EXPECT_EQ(format_double(66.6667, 4), "66.67");
}

}  // namespace
}  // namespace tml
