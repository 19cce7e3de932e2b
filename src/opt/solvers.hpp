// Multistart nonlinear solvers: the fallback of the repair NLP.
//
// The repairs solve their NLP through solve_repair (kkt.hpp), an SQP/KKT
// solve that certifies its minimum; this multistart runs when it does not
// apply or certifies nothing (non-smooth L1 cost, numerically evaluated
// constraints, no certified start, infeasible problems), and it is the
// solver for the benches' algorithm ablation. Its points are feasible but
// not certified minimal: every local solve stops on its iteration cap.
//
// Three local algorithms plus a multi-start driver:
//
//  * Penalty method with projected gradient descent — the workhorse. The
//    constrained problem is relaxed to
//        min  f(x) + μ Σ max(0, g_i(x))²
//    and solved by Adam-style projected gradient for an increasing sequence
//    of μ; box constraints are handled by projection.
//  * Augmented Lagrangian — same inner solver, but with multiplier
//    estimates, which converges to the constraint boundary without μ → ∞.
//  * Nelder–Mead on the penalized objective — derivative-free fallback used
//    by the solver-ablation bench and for objectives whose gradients are
//    expensive (e.g. Q-value constraints that re-run value iteration).
//
// The multi-start driver (`solve`) runs a local algorithm from the box
// centre plus random interior points and keeps the best feasible solution;
// if no start produces a feasible point it reports kInfeasible together
// with the smallest violation found — the behaviour the repair pipeline
// interprets as "Model Repair cannot satisfy φ" (§V-A, X=19 case).

#pragma once

#include "src/common/rng.hpp"
#include "src/opt/problem.hpp"

namespace tml {

enum class Algorithm { kPenalty, kAugmentedLagrangian, kNelderMead };

std::string to_string(Algorithm algorithm);

struct SolveOptions {
  Algorithm algorithm = Algorithm::kPenalty;
  std::size_t num_starts = 8;          ///< random restarts (plus box centre)
  std::size_t max_inner_iterations = 2000;
  std::size_t max_outer_iterations = 12;  ///< penalty/multiplier updates
  double initial_penalty = 10.0;
  double penalty_growth = 4.0;
  double learning_rate = 0.02;
  double feasibility_tol = 1e-6;
  double convergence_tol = 1e-10;
  std::uint64_t seed = 17;
  /// Worker threads for the multi-start driver (0 = TML_THREADS /
  /// hardware). Starts are generated serially from `seed` and solved
  /// concurrently; the winner is picked by an ordered reduction over the
  /// start index, so the result is identical for every thread count.
  std::size_t threads = 0;
  /// Resource budget, polled once per inner iteration of each local solve.
  /// Iteration/evaluation caps apply per start (deterministic under any
  /// thread count); the wall-clock deadline and cancel token are absolute,
  /// so every concurrent start races the same clock. On exhaustion the
  /// solve returns best-feasible-so-far (or the smallest violation found)
  /// flagged `SolveOutcome::budget_status = kBudgetExhausted`.
  Budget budget = default_budget();
  /// Warm-start points tried first (each projected into the box;
  /// dimension-mismatched entries are skipped): by solve_repair's KKT solve
  /// before the nominal point, and by the multistart before the box centre
  /// and the random interior points. Streaming repair feeds the previous
  /// batch's repaired point here. Warm points do not change num_starts —
  /// they are extra starts prepended deterministically, and the winner fold
  /// stays ordered, so results are reproducible for any thread count.
  std::vector<std::vector<double>> warm_starts;
};

/// Runs one local solve from `start` (projected into the box).
SolveOutcome solve_local(const Problem& problem, std::vector<double> start,
                         const SolveOptions& options);

/// Multi-start driver; see file comment.
SolveOutcome solve(const Problem& problem, const SolveOptions& options = {});

}  // namespace tml
