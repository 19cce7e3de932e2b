// Result types returned by the PCTL checkers.

#pragma once

#include <optional>
#include <vector>

#include "src/common/budget.hpp"
#include "src/mdp/model.hpp"

namespace tml {

/// Outcome of checking one PCTL formula against a model.
///
/// For boolean formulas, `satisfied` reports the verdict at the initial
/// state and `sat_states` the full satisfaction set. For quantitative
/// queries (`Pmax=?` etc.), `value` holds the number at the initial state
/// and `values` the per-state vector. For boolean P/R operators at top
/// level, the checker also fills `value`/`values` with the underlying
/// measured quantity — the repair pipeline uses this to report "achieved vs
/// required" (e.g. expected attempts = 41.2 vs bound 40). Both come from
/// one solve of the top-level operator; `sat_states` is read off `values`.
struct CheckResult {
  bool satisfied = false;
  StateSet sat_states;
  std::optional<double> value;
  std::vector<double> values;
  /// Certified `[lo, hi]` around `value` from the same solve, at the
  /// initial state: for a top-level unbounded P (F, U, and G mirrored as
  /// [1−hi, 1−lo]; `=?` and `⋈b`), the interval engine's bracket on an MDP
  /// and the direct solve's residual bracket on a DTMC; for a top-level
  /// unbounded R[F] on a DTMC, the direct solve's. Empty where no engine
  /// certifies one yet (MDP R, step-bounded, next). An MDP budget stop
  /// carries it on the thrown BudgetExhausted instead.
  std::optional<Bracket> bracket;
  /// Number of states the solvers actually ran on when the check went
  /// through the bisimulation quotient (CheckOptions::quotient): the block
  /// count of the minimized model. 0 means the quotient pass was not used —
  /// either not requested, or refinement hit its budget and the check
  /// degraded to the unquotiented model. `sat_states`/`values` are always
  /// in the *original* state space (lifted through the block map).
  std::size_t quotient_states = 0;
};

}  // namespace tml
