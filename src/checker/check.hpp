// PCTL model checking for DTMCs and MDPs.
//
// DTMC engine: one sparse direct solve (RCM-ordered envelope LU, see
// src/mdp/solver.hpp) after prob0/prob1 graph precomputation for unbounded
// P and R operators, with a certified residual bracket.
//
// MDP engine: PRISM-style — qualitative precomputation (Prob0A/Prob1E for
// max, Prob0E/Prob1A for min) followed by sound interval iteration for
// unbounded P and value iteration for R.
//
// Step-bounded and cumulative operators run one Jacobi sweep per step on
// both model kinds (a DTMC row is a single choice). A bounded
// operator `P⋈b[ψ]` on an MDP quantifies over all schedulers: upper bounds
// (<, <=) are checked against the maximizing scheduler, lower bounds
// (>, >=) against the minimizing one. Explicit `Pmax`/`Pmin`/`Rmax`/`Rmin`
// override that resolution.
//
// This module alone maps a formula to an engine. check() solves a top-level
// P/R operator once and reads value, verdict and (unbounded P on either
// model kind, unbounded R on a DTMC) the certified CheckResult::bracket off
// that solve; a budget stop throws BudgetExhausted, carrying the bracket
// reached so far where the engine has one (the MDP interval engine).
//
// Reward operators follow PRISM semantics: `R[F φ]` is the expected reward
// accumulated *before* entering a φ-state, and paths that never reach φ
// carry infinite reward (so e.g. `R<=40 [F goal]` fails wherever the goal
// is not reached almost surely under the resolved scheduler).

#pragma once

#include "src/checker/results.hpp"
#include "src/common/budget.hpp"
#include "src/logic/pctl.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/model.hpp"
#include "src/mdp/solver.hpp"

namespace tml {

/// Per-call knobs for check(). Default options pick up the process-wide
/// default_budget() — fine for a CLI run, but racy for a server handling
/// concurrent requests with different deadlines; such callers pass an
/// explicit CheckOptions instead. The budget and thread count are threaded
/// into every solver the formula's operators reach (the DTMC direct solves
/// poll the budget every EnvelopeLU::kColumnsPerTick columns of their
/// factorization).
struct CheckOptions {
  Budget budget = default_budget();
  /// Worker threads for the bounded/cumulative sweeps (0 = TML_THREADS).
  std::size_t threads = 0;
  /// Run strong-bisimulation minimization (src/mdp/quotient.hpp) before
  /// solving and lift the per-state answers back through the block map.
  /// Semantically transparent: the quotient respects labels and rewards, so
  /// every P/R verdict and value is unchanged — only the solver cost drops.
  /// Refinement runs under the same `budget`; if it exhausts, the check
  /// degrades to the unquotiented model (CheckResult::quotient_states
  /// reports which path ran).
  bool quotient = false;
};

/// Scheduler direction of the P/R operator `formula` on an MDP: its explicit
/// max/min, else PRISM's resolution (the maximum for a query or an upper
/// bound, the minimum for a lower bound). MDP model repair solves with the
/// same direction.
Objective resolve_objective(const StateFormula& formula);

/// Set of states satisfying a boolean PCTL formula. Throws for quantitative
/// (`=?`) formulas — those have no satisfaction set. Callers holding a
/// builder model compile() it once and check every formula against that.
StateSet satisfying_states(const CompiledModel& model,
                           const StateFormula& formula);

/// Per-state numeric values of the outermost P/R operator of `formula`
/// (which must be kProb/kProbQuery/kReward/kRewardQuery). For a boolean
/// operator the values are the quantities compared against the bound.
std::vector<double> quantitative_values(const CompiledModel& model,
                                        const StateFormula& formula);

/// Full check against the model's initial state; fills both the boolean
/// verdict (for boolean formulas) and the measured value — plus its
/// certified bracket where the engine has one — when the top-level node is
/// a P/R operator.
CheckResult check(const CompiledModel& model, const StateFormula& formula,
                  const CheckOptions& options = {});
CheckResult check(const Dtmc& chain, const StateFormula& formula);
CheckResult check(const Mdp& mdp, const StateFormula& formula);

/// Convenience: parse-and-check.
CheckResult check(const Dtmc& chain, const std::string& formula_text);
CheckResult check(const Mdp& mdp, const std::string& formula_text);

}  // namespace tml
