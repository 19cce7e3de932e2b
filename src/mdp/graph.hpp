// Qualitative graph analyses on compiled models.
//
// These are the PRISM-style precomputations that make quantitative model
// checking sound: they classify states where reachability probabilities are
// exactly 0 or exactly 1 *for graph reasons*, before any numerics run.
//
// `reach_prob01` is the one entry point every engine calls. With T the
// target set it returns, for the objective's optimum over schedulers,
//  * kMaximize: zero = { s : Pmax(F T)(s) = 0 } (complement of
//    reachable_existential), one = { s : Pmax(F T)(s) = 1 } (Prob1E, de
//    Alfaro's nested fixpoint);
//  * kMinimize: zero = { s : Pmin(F T)(s) = 0 } (some scheduler avoids T
//    forever), one = { s : Pmin(F T)(s) = 1 } (Prob1A: no scheduler reaches
//    the zero region without first passing through T).
// One-choice models (DTMCs) take the kMinimize branch whatever the
// objective: Pmax = Pmin there, the sets are equal, and it is the cheaper
// branch.
//
// Every set comes from one backward worklist fixpoint over the model's
// cached predecessor lists (CompiledModel::predecessors()): a state joins
// at most once and is re-tested only when a successor has joined.

#pragma once

#include "src/mdp/compiled.hpp"
#include "src/mdp/solver.hpp"

namespace tml {

/// Probability-0 / probability-1 regions of F targets for one objective.
struct Prob01 {
  StateSet zero;
  StateSet one;
};

/// The qualitative sets above. Records the checker.prob0.states /
/// checker.prob1.states gauges when stats are on.
Prob01 reach_prob01(const CompiledModel& model, const StateSet& targets,
                    Objective objective);

/// The sets of P[stay U goal] on a one-choice model (DTMC): zero = { s :
/// P(stay U goal)(s) = 0 }, one = { s : P(stay U goal)(s) = 1 }. They equal
/// reach_prob01(goal) on the model with every escape state (¬stay ∧ ¬goal)
/// made absorbing, without building that copy: the backward passes never
/// cross an escape state, which lands in the zero set. Records the same
/// gauges as reach_prob01.
Prob01 dtmc_until_prob01(const CompiledModel& model, const StateSet& stay,
                         const StateSet& goal);

/// States with a path (under some scheduler) of positive probability to T.
StateSet reachable_existential(const CompiledModel& model,
                               const StateSet& targets);

/// { s : Pmax(F T)(s) = 1 } (Prob1E); reach_prob01(kMaximize).one.
StateSet prob1_existential(const CompiledModel& model, const StateSet& targets);

/// States reachable (forward) from `from` in the model.
StateSet forward_reachable(const CompiledModel& model, StateId from);

/// SCC condensation over the positive-probability edges, blocks emitted in
/// dependency order (successor blocks first — Tarjan's emission order; see
/// SccDecomposition in compiled.hpp). Iterative, so deep chains cannot
/// overflow the call stack. Prefer CompiledModel::scc(), which caches.
SccDecomposition scc_decomposition(const CompiledModel& model);

/// Maximal end components of the sub-MDP restricted to `within`: maximal
/// state sets M ⊆ within such that some set of choices (each with full
/// support inside M) makes M strongly connected. States of `within` that
/// belong to no end component are absent from the result. Each MEC's state
/// list is sorted; the MEC order follows the smallest member state.
///
/// With `choices` (a bit per global choice id), only the marked choices
/// count: the end components of the sub-MDP those choices span.
///
/// Interval iteration for Pmax needs these: value iteration from above
/// stalls at a spurious fixpoint inside an end component, and the standard
/// fix ("deflation") caps every MEC at its best exit value each sweep.
/// Rmin needs the end components of its zero-reward choices, where value
/// iteration from below stalls at 0 (total_reward_to_target).
std::vector<std::vector<StateId>> maximal_end_components(
    const CompiledModel& model, const StateSet& within,
    const Bitset* choices = nullptr);

}  // namespace tml
