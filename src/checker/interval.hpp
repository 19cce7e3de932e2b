// Interval MDPs and robust verification — the convex-uncertainty baseline.
//
// The paper's related work (§VI) contrasts TML with Puggelli et al. [28],
// who verify PCTL properties of MDPs with convex (interval) transition
// uncertainties instead of repairing a concrete model. This module
// implements that baseline for the interval case:
//
//  * an `IntervalMdp` is the nominal model's compiled CSR core plus
//    `lower`/`upper` columns aligned with its `prob()` column;
//  * robust value iteration for reachability: nature picks, at every step
//    and adversarially (or cooperatively), a distribution inside the
//    intervals. It is the point Bellman step (src/mdp/bellman.hpp) with
//    each choice's expectation replaced by the classic order-based greedy
//    over its polytope: sort successors by value, give maximal mass to the
//    best (or worst) ones subject to the box and the sum-to-one budget.
//
// A graph pass pins states before any sweep. Nature moves mass only along
// edges with `upper > 0`, which `widen` keeps to the nominal support, so
// the nominal prob0 set (`reach_prob01`) is robustly 0. When every support
// edge also keeps `lower > 0`, every nature keeps that support with
// probabilities bounded below, so the nominal prob1 set is robustly 1;
// otherwise only the targets are pinned to 1.
//
// The remaining states are swept on the shared convergence driver, so it
// honours the budget and `threads` (bitwise identical for every thread
// count) and has the same NaN guard and fault sites as value iteration.
// Their values are still the lower iterate stopped on `delta < tolerance`,
// NOT a certified bracket: that needs prob1 for mixed support and
// end-component handling under nature.
//
// The ablate_baselines bench uses it to contrast the two philosophies:
// interval verification certifies what holds for EVERY model in a
// perturbation ball, Model Repair finds ONE minimally-perturbed model that
// satisfies the property.

#pragma once

#include <span>
#include <vector>

#include "src/mdp/compiled.hpp"
#include "src/mdp/model.hpp"
#include "src/mdp/solver.hpp"

namespace tml {

/// One choice's interval polytope as index-aligned CSR slices: successor
/// states and the [lower, upper] box of each edge.
struct PolytopeSlice {
  std::span<const StateId> targets;
  std::span<const double> lower;
  std::span<const double> upper;
};

/// MDP with interval transition probabilities. Built from a nominal MDP by
/// widening every transition by ±radius (clamped to [0,1]); the polytope of
/// each choice is { p : lower <= p <= upper, Σ p = 1 }.
class IntervalMdp {
 public:
  /// Uniform widening of a nominal model. Transitions with probability 0
  /// or 1 (and singleton rows) stay exact, so the support never grows.
  static IntervalMdp widen(const Mdp& nominal, double radius);

  /// The nominal model; transition k of its CSR columns is boxed by
  /// [lower()[k], upper()[k]].
  const CompiledModel& nominal() const { return nominal_; }
  std::size_t num_states() const { return nominal_.num_states(); }
  StateId initial_state() const { return nominal_.initial_state(); }
  const std::vector<double>& lower() const { return lower_; }
  const std::vector<double>& upper() const { return upper_; }

  /// The polytope of global choice c of nominal().
  PolytopeSlice polytope(std::uint32_t c) const;

  /// Checks that every choice's polytope is non-empty
  /// (Σ lower <= 1 <= Σ upper).
  void validate() const;

 private:
  CompiledModel nominal_;
  std::vector<double> lower_;  // aligned with nominal_.prob()
  std::vector<double> upper_;
};

/// Who resolves the interval uncertainty.
enum class Nature {
  kAdversarial,  ///< worst case over the polytope (robust verification)
  kCooperative   ///< best case (optimistic bound)
};

/// Robust reachability: per-state
///   opt_{scheduler} opt_{nature} P(F targets),
/// where the scheduler optimizes `objective` and nature resolves each
/// choice's polytope per `nature` (adversarial nature opposes the
/// scheduler's objective). Graph-pinned states report exactly 0 or 1; the
/// `checker.robust.unknown_states` gauge counts the rest. Throws
/// BudgetExhausted when options.budget stops the sweeps, NumericError on a
/// NaN sweep or (with throw_on_nonconvergence) when max_iterations run out.
std::vector<double> interval_reachability(const IntervalMdp& mdp,
                                          const StateSet& targets,
                                          Objective objective, Nature nature,
                                          const SolverOptions& options = {});

/// Scratch for resolve_polytope, reused across calls so a sweep allocates
/// nothing once the buffers have grown to the widest row.
struct PolytopeScratch {
  std::vector<double> p;
  std::vector<std::size_t> order;
};

/// Inner optimization over one interval polytope: the distribution inside
/// the box maximizing (or minimizing) Σ p_i · values[target_i]. Returns a
/// view into `scratch.p` (valid until the next call with that scratch).
std::span<const double> resolve_polytope(const PolytopeSlice& box,
                                         std::span<const double> values,
                                         bool maximize,
                                         PolytopeScratch& scratch);

}  // namespace tml
