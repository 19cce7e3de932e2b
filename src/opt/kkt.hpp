// Local SQP solver for the repair NLP, and the repair NLP's one driver.
//
//     min g(v)   s.t.  c_i(v) <= 0,   lo <= v <= hi
//
// `solve_kkt` is a line-search SQP method (Nocedal & Wright, ch. 18) for a
// separable quadratic cost (Problem::objective_hessian_diagonal) and
// constraints with analytic gradients:
//  * each step solves the quadratic model
//        min ½dᵀBd + ∇g·d   s.t.  c_i + ∇c_i·d <= 0,  lo <= v + d <= hi
//    by a dense dual active-set method (Goldfarb–Idnani), so the box is an
//    active set and the step comes with its multipliers λ. A linearisation
//    with no solution in the box has its violated constraints relaxed,
//    c_i → θ·c_i, halving θ until it has one;
//  * B starts at the cost's exact Hessian; a damped (Powell) BFGS update
//    with y = ∇²g·s + Σ λ_i (∇c_i(v+s) − ∇c_i(v)) adds the constraints'
//    curvature and keeps B positive definite;
//  * an ℓ1-merit line search, g + ν·Σ max(0, c_i) with one second-order
//    correction against the Maratos effect, globalises the step;
//  * it stops when the KKT residual (below) is at most kKktTolerance.
// With one property on one variable the active constraint fixes every step,
// so the iteration is Newton's method on c(v) = 0.
//
// The KKT residual at (v, λ) is the largest of
//  * stationarity: the box-projected ‖∇g + Σ λ_i ∇c_i‖∞ (a component at a
//    bound counts only when it pushes out of the box), over 1 + ‖∇g‖∞;
//  * complementarity: max λ_i·|c_i|, over 1 + ‖∇g‖∞;
//  * primal feasibility: max(0, c_i), in the constraint's own units.
// A point is `minimality_certified` when its residual is at most
// kKktTolerance and it passes the second-order sufficient condition: the
// Lagrangian's Hessian (the cost's exact one plus central differences of
// the exact constraint gradients) is positive definite on the tangent space
// of the constraints and bounds with positive multipliers. That makes it a
// strict local minimum; global minimality over the box is not claimed.

#pragma once

#include "src/opt/solvers.hpp"

namespace tml {

/// The KKT residual a point must reach to be certified.
inline constexpr double kKktTolerance = 1e-9;

/// True when `solve_kkt` applies: the objective has a diagonal Hessian and
/// every constraint has an analytic gradient.
bool kkt_applicable(const Problem& problem);

/// One SQP solve from `start` (projected into the box), serial and
/// deterministic. Polls options.budget once per iteration; on exhaustion it
/// returns the best feasible iterate so far (else the least violated one)
/// flagged kBudgetExhausted. Objective evaluations pass the "opt.eval"
/// fault site; a non-finite evaluation ends the start uncertified.
/// status is kOptimal when some iterate was feasible (within
/// options.feasibility_tol), else kInfeasible.
SolveOutcome solve_kkt(const Problem& problem, std::vector<double> start,
                       const SolveOptions& options);

/// The repair NLP's one solve, shared by Model and Data Repair. When
/// kkt_applicable, runs solve_kkt from each of options.warm_starts, then
/// from `nominal` (the unperturbed point), and returns the first certified
/// minimum. Otherwise, or when no start certifies, the multistart solve()
/// decides, and its point is feasible with minimality not certified (this
/// is also how an infeasible verdict is reached). A budget stop inside the
/// KKT phase returns its best point, flagged, without the fallback.
SolveOutcome solve_repair(const Problem& problem,
                          std::span<const double> nominal,
                          const SolveOptions& options);

}  // namespace tml
