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
// dense rows of large rational functions. EliminationOptions selects the
// ordering heuristic (see EliminationOrder) and whether elimination runs
// SCC-locally — the support graph is condensed into topologically ordered
// blocks (CompiledModel::scc()) and each block is fully eliminated before
// any block upstream of it, so fill-in edges stay inside the current block
// (plus the never-eliminated initial state) instead of smearing across the
// whole chain.
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

/// Pluggable elimination-ordering heuristics.
enum class EliminationOrder : std::uint8_t {
  /// Eliminate in ascending state id — the naive reference order. Kept for
  /// back-compat and as the baseline the differential tests and perf benches
  /// compare against.
  kInOrder,
  /// Dynamic minimum fill-in estimate: always eliminate the state with the
  /// fewest potential new edges |preds|·|succs| (self-loops excluded),
  /// maintained over a lazily revalidated priority queue.
  kFewestNewEdges,
  /// Like kFewestNewEdges but the fill estimate is weighted by the symbolic
  /// mass of the state's row (factor counts of its rational functions), so
  /// structurally cheap pivots with huge functions are deferred. This is the
  /// default and mirrors Storm's dynamic-penalty state elimination.
  kPenalty,
};

/// Stable lowercase name of an ordering heuristic ("in-order", ...).
const char* to_string(EliminationOrder order);

/// Knobs for one elimination run. Default-constructed options give the
/// library default: penalty-ordered, SCC-local elimination.
struct EliminationOptions {
  EliminationOrder order = EliminationOrder::kPenalty;
  /// Condense the support graph and eliminate block-by-block in dependency
  /// order (most-downstream block first) instead of over the whole chain.
  bool scc_local = true;
  /// Budget polled once per eliminated state; nullptr = default_budget().
  /// On exhaustion the run throws the typed BudgetExhausted error — a
  /// half-finished elimination is not a usable partial answer.
  const Budget* budget = nullptr;
};

/// Process-wide default used by the entry points that don't take explicit
/// options (and by default-constructed repair configs). The stored default
/// never carries a budget pointer. Not thread-safe, like the other
/// process-wide default (set_default_budget).
EliminationOptions default_elimination_options();
void set_default_elimination_options(EliminationOptions options);

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
  /// predecessors — the fill-in the ordering heuristics try to minimize.
  std::size_t fill_in_edges = 0;
  /// Number of SCC blocks that contained at least one eliminable state
  /// (0 when scc_local was off).
  std::size_t scc_blocks = 0;
  /// SubtermPool hit/miss deltas over the run — how much of the symbolic
  /// arithmetic was shared-subterm reuse vs. fresh interning.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  /// Name of the ordering heuristic that ran (to_string(options.order)).
  const char* heuristic = "";
};

/// Probability of eventually reaching `targets` from the initial state, as
/// a rational function of the chain's parameters.
RationalFunction reachability_probability(const ParametricDtmc& chain,
                                          const StateSet& targets,
                                          const EliminationOptions& options,
                                          EliminationStats* stats = nullptr);

/// Back-compat overload: runs with default_elimination_options(), with the
/// budget (nullptr = default_budget()) folded into the options.
RationalFunction reachability_probability(const ParametricDtmc& chain,
                                          const StateSet& targets,
                                          EliminationStats* stats = nullptr,
                                          const Budget* budget = nullptr);

/// Expected total reward accumulated before reaching `targets` from the
/// initial state (targets pinned to 0), as a rational function. Throws
/// ModelError if some reachable state cannot reach the target in the
/// support graph (the expectation would be infinite).
RationalFunction expected_total_reward(const ParametricDtmc& chain,
                                       const StateSet& targets,
                                       const EliminationOptions& options,
                                       EliminationStats* stats = nullptr);

/// Back-compat overload: runs with default_elimination_options(), with the
/// budget (nullptr = default_budget()) folded into the options.
RationalFunction expected_total_reward(const ParametricDtmc& chain,
                                       const StateSet& targets,
                                       EliminationStats* stats = nullptr,
                                       const Budget* budget = nullptr);

}  // namespace tml
