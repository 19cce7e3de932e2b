// Quantitative reachability for MDPs (Pmax / Pmin of F target).
//
// Graph precomputation pins the probability-0 and probability-1 regions
// (src/mdp/graph.hpp) before any numerics run. The remaining states are
// solved by sound interval iteration: lower and upper value vectors
// initialized from the prob0/prob1 sets converge toward each other one SCC
// block at a time in dependency order (single-state blocks solve in closed
// form), end components are deflated to their best exit so the upper
// iterate cannot stall, and iteration stops only when `upper - lower < eps`
// everywhere. `mdp_reachability_bracket` exposes the certified `[lo, hi]`
// bracket directly; `mdp_reachability` returns its midpoint.
//
// Every entry point takes the compiled CSR form; callers compile once and
// reuse it across queries. MDP until operators restrict to plain
// reachability via CompiledModel::make_absorbing (states outside stay ∪ goal
// can never contribute); the DTMC until solve (dtmc_until_bracket in
// src/mdp/solver.hpp) pins those states to 0 in place instead. The
// step-bounded and cumulative operators are two thin entry points over one
// fixed-horizon Jacobi sweep, shared by DTMCs (one-choice rows) and MDPs.
// Every sweep here — interval and
// fixed-horizon — applies the one Bellman step of
// src/mdp/bellman.hpp (best_choice over each choice's expectation); the
// interval engine keeps its own per-block loop because it stops on the
// bracket gap `hi − lo`, not on a sweep delta.
//
// Budgets (src/common/budget.hpp). Every engine polls
// SolverOptions::budget once per sweep. The bracket entry points degrade
// gracefully on exhaustion: they return the current certified lo/hi
// bracket (sound at every sweep boundary by construction) flagged
// `SolveResult::budget_status = kBudgetExhausted`. The plain-vector entry
// points (mdp_reachability, the bounded/cumulative sweeps — which take the
// budget as a trailing pointer, nullptr = default_budget()) have no channel
// for a flagged partial and throw the typed `BudgetExhausted` error
// instead.

#pragma once

#include "src/mdp/compiled.hpp"
#include "src/mdp/solver.hpp"

namespace tml {

/// Per-state Pmax(F targets) or Pmin(F targets).
std::vector<double> mdp_reachability(const CompiledModel& model,
                                     const StateSet& targets,
                                     Objective objective,
                                     const SolverOptions& options = {});

/// Certified-bracket reachability: returns the full SolveResult with
/// `lo[s] <= v*(s) <= hi[s]` per state and `values` the clamped midpoint.
/// On convergence, `hi - lo < options.tolerance` holds everywhere.
SolveResult mdp_reachability_bracket(const CompiledModel& model,
                                     const StateSet& targets,
                                     Objective objective,
                                     const SolverOptions& options = {});

/// Certified bracket for constrained reachability P[ stay U goal ].
SolveResult mdp_until_bracket(const CompiledModel& model, const StateSet& stay,
                              const StateSet& goal, Objective objective,
                              const SolverOptions& options = {});

/// Per-state step-bounded until values: opt over schedulers of
/// P[ stay U<=k goal ] where `stay`/`goal` are the satisfaction sets of the
/// until operands. On a DTMC (one choice per row) the optimization is the
/// identity and the sweep is the plain matrix-vector iteration. Step j
/// updates only the states within j stay-steps of goal (one backward BFS
/// over predecessors()); the rest would compute exactly 0, so the values
/// are the full sweep's bit for bit. `checker.bounded.state_updates`
/// counts the updates made.
/// The `threads` parameter on the bounded/cumulative engines selects the
/// parallelism of the per-state Jacobi sweeps (0 = TML_THREADS / hardware);
/// results are bitwise identical for every thread count.
std::vector<double> mdp_bounded_until(const CompiledModel& model,
                                      const StateSet& stay,
                                      const StateSet& goal, std::size_t bound,
                                      Objective objective,
                                      std::size_t threads = 0,
                                      const Budget* budget = nullptr);

/// Expected cumulative reward over the first `horizon` steps (DTMCs and
/// MDPs alike; see mdp_bounded_until).
std::vector<double> mdp_cumulative_reward(const CompiledModel& model,
                                          std::size_t horizon,
                                          Objective objective,
                                          std::size_t threads = 0,
                                          const Budget* budget = nullptr);

}  // namespace tml
