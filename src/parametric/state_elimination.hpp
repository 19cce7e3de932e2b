// Parametric model checking by state elimination.
//
// This is the algorithm PRISM's parametric engine (and PARAM / Storm's
// `stateelimination`) uses, due to Daws (2004) and Hahn, Hermanns & Zhang
// (2010): repeatedly eliminate a non-initial, non-target state s by
// redirecting every u → s → t path around it,
//
//     P'(u,t) = P(u,t) + P(u,s) · P(s,t) / (1 − P(s,s)),
//
// performing all arithmetic over rational functions. After all interior
// states are gone, the reachability probability (resp. expected total
// reward) from the initial state is a single closed-form rational function
// of the parameters.
//
// For expected reward the same elimination acts on the value equations
// x_s = r(s) + Σ_t P(s,t)·x_t with targets pinned to 0:
//
//     r'(u) = r(u) + P(u,s) · r(s) / (1 − P(s,s)).
//
// The *order* in which interior states are eliminated does not change the
// answer but dominates the cost: a bad order fills the working graph with
// dense rows of large rational functions. Elimination therefore runs
// SCC-locally — the support graph is condensed into topologically ordered
// blocks (CompiledModel::scc()) and each block is fully eliminated before
// any block upstream of it, so fill-in edges stay inside the current block
// (plus the never-eliminated initial state) — and inside a block it picks
// the state with the lowest fill × symbolic-mass penalty from a lazily
// revalidated priority queue (Storm's dynamic-penalty order).
//
// Preconditions (checked structurally on the transition support — valid in
// the repair feasible region where present transitions keep positive
// probability):
//  * reachability: none (states that cannot reach the target contribute 0);
//  * expected reward: every state reachable from the initial state must
//    reach the target with probability 1; otherwise the expectation is
//    infinite and we throw ModelError, matching the checker's +inf verdict.

#pragma once

#include "src/common/budget.hpp"
#include "src/mdp/model.hpp"
#include "src/parametric/parametric_dtmc.hpp"
#include "src/rational/rational_function.hpp"

namespace tml {

/// Knobs for one elimination run.
struct EliminationOptions {
  /// Budget polled once per eliminated state; nullptr = default_budget().
  /// On exhaustion the run throws the typed BudgetExhausted error — a
  /// half-finished elimination is not a usable partial answer.
  const Budget* budget = nullptr;
};

/// Statistics from an elimination run (exposed for the perf benches and the
/// stats registry; see parametric.* entries in src/common/stats.cpp).
struct EliminationStats {
  std::size_t states_eliminated = 0;
  /// Peak total degree over intermediate factored functions.
  std::uint32_t max_degree_seen = 0;
  /// Peak factored term mass (RationalFunction::factored_terms) — measured
  /// on the factored representation, never by expanding the facade.
  std::size_t max_terms_seen = 0;
  /// New (u, t) edges created by folding eliminated states into their
  /// predecessors — the fill-in the elimination order tries to minimize.
  std::size_t fill_in_edges = 0;
  /// Number of SCC blocks that contained at least one eliminable state.
  std::size_t scc_blocks = 0;
  /// SubtermPool hit/miss deltas over the run — how much of the symbolic
  /// arithmetic was shared-subterm reuse vs. fresh interning.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
};

/// Probability of eventually reaching `targets` from the initial state, as
/// a rational function of the chain's parameters.
RationalFunction reachability_probability(
    const ParametricDtmc& chain, const StateSet& targets,
    const EliminationOptions& options = {}, EliminationStats* stats = nullptr);

/// Expected total reward accumulated before reaching `targets` from the
/// initial state (targets pinned to 0), as a rational function. Throws
/// ModelError if some reachable state cannot reach the target in the
/// support graph (the expectation would be infinite).
RationalFunction expected_total_reward(const ParametricDtmc& chain,
                                       const StateSet& targets,
                                       const EliminationOptions& options = {},
                                       EliminationStats* stats = nullptr);

}  // namespace tml
