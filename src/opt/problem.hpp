// Problem definition for the constrained nonlinear optimizer.
//
// The repair problems (§IV, Eqs. 4–6 and 11–15) all take the shape
//
//     min  g(v)            (perturbation cost)
//     s.t. f_i(v) <= 0     (the PCTL property, via parametric model
//                           checking, plus domain constraints)
//          lo <= v <= hi   (the feasible-set box: Feas_MP / Feas_D bounds)
//
// which is what the paper hands to AMPL. We encode constraints in the
// `f(x) <= 0` convention; equality constraints are not needed by the paper
// (stochasticity is maintained by construction of the Z matrix).

#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/budget.hpp"
#include "src/common/error.hpp"

namespace tml {

/// Scalar function of a point.
using ScalarFn = std::function<double(std::span<const double>)>;
/// Gradient of a scalar function (same dimension as the point).
using GradientFn = std::function<std::vector<double>(std::span<const double>)>;

/// Box constraints; empty vectors mean unbounded.
struct Box {
  std::vector<double> lower;
  std::vector<double> upper;

  /// Clamps x into the box, in place.
  void project(std::vector<double>& x) const;
  /// True if x is inside (with tolerance).
  bool contains(std::span<const double> x, double tol = 1e-12) const;
  /// Box [lo, hi]^dim.
  static Box uniform(std::size_t dim, double lo, double hi);
};

/// One inequality constraint f(x) <= 0.
struct Constraint {
  std::string name;
  ScalarFn value;
  GradientFn gradient;  ///< optional; numeric differences if null

  /// Violation at x: max(0, f(x)).
  double violation(std::span<const double> x) const;
};

/// A constrained minimization problem.
struct Problem {
  std::size_t dimension = 0;
  ScalarFn objective;
  GradientFn objective_gradient;  ///< optional
  /// Diagonal of the objective's constant Hessian when the objective is a
  /// separable quadratic (the L2 and weighted-L2 repair costs, the data
  /// repair effort); empty otherwise. The KKT solver (kkt.hpp) needs it.
  std::vector<double> objective_hessian_diagonal;
  std::vector<Constraint> constraints;
  Box box;

  void validate() const;
};

/// Solver verdicts. `kInfeasible` means: over every start the solver tried,
/// the smallest achievable constraint violation stayed above tolerance —
/// the observable analogue of AMPL reporting an infeasible problem.
enum class SolveStatus { kOptimal, kInfeasible, kIterationLimit };

std::string to_string(SolveStatus status);

/// Result of a solve.
struct SolveOutcome {
  SolveStatus status = SolveStatus::kInfeasible;
  std::vector<double> x;
  double objective = std::numeric_limits<double>::infinity();
  double max_violation = std::numeric_limits<double>::infinity();
  std::size_t iterations = 0;
  std::size_t starts_tried = 0;
  /// kBudgetExhausted when the solve stopped at an iteration boundary
  /// because SolveOptions::budget fired; `x` is then the best point found
  /// before the stop (best feasible, or smallest violation seen so far).
  BudgetStatus budget_status = BudgetStatus::kOk;
  BudgetStop budget_stop = BudgetStop::kNone;
  /// KKT residual at `x` (defined in kkt.hpp); infinity when `x` did not
  /// come from the KKT solver.
  double kkt_residual = std::numeric_limits<double>::infinity();
  /// `x` is a KKT point within kKktTolerance that passes the second-order
  /// sufficient condition: a strict local minimum. Never set by solve().
  bool minimality_certified = false;

  bool feasible(double tol = 1e-6) const { return max_violation <= tol; }
};

/// Central-difference numeric gradient (used when analytic gradients are
/// not provided).
std::vector<double> numeric_gradient(const ScalarFn& f,
                                     std::span<const double> x,
                                     double step = 1e-7);

/// Max constraint violation of a problem at x.
double max_violation(const Problem& problem, std::span<const double> x);

}  // namespace tml
