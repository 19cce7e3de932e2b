#include "src/checker/check.hpp"

#include <cmath>
#include <optional>
#include <string>

#include "src/checker/reachability.hpp"
#include "src/common/stats.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/bellman.hpp"
#include "src/mdp/quotient.hpp"
#include "src/mdp/solver.hpp"

namespace tml {

namespace {

Objective flip(Objective objective) {
  return objective == Objective::kMaximize ? Objective::kMinimize
                                           : Objective::kMaximize;
}

/// States whose value meets the bound of the boolean P/R operator
/// `formula`.
StateSet meets_bound(const std::vector<double>& values,
                     const StateFormula& formula) {
  StateSet out(values.size(), false);
  for (StateId s = 0; s < values.size(); ++s) {
    out[s] = compare(values[s], formula.comparison(), formula.bound());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Checker over the compiled CSR form — the one place that maps a formula to
// an engine. One class serves both model kinds. The unbounded primitives
// dispatch on CompiledModel::deterministic(): DTMCs get the sparse direct
// solves, MDPs qualitative precomputation plus sound interval iteration (P)
// or value iteration (R). The step-bounded and cumulative sweeps are
// shared: a DTMC row is a single choice.

class Checker {
 public:
  explicit Checker(const CompiledModel& model, const CheckOptions& options = {})
      : model_(model), options_(options) {}

  StateSet sat(const StateFormula& formula) {
    const std::size_t n = model_.num_states();
    switch (formula.kind()) {
      case StateFormula::Kind::kTrue:
        return StateSet(n, true);
      case StateFormula::Kind::kFalse:
        return StateSet(n, false);
      case StateFormula::Kind::kLabel:
        return model_.states_with_label(formula.label());
      case StateFormula::Kind::kNot:
        return complement(sat(formula.operand()));
      case StateFormula::Kind::kAnd:
        return set_intersection(sat(formula.operand(0)),
                                sat(formula.operand(1)));
      case StateFormula::Kind::kOr:
        return set_union(sat(formula.operand(0)), sat(formula.operand(1)));
      case StateFormula::Kind::kImplies:
        return set_union(complement(sat(formula.operand(0))),
                         sat(formula.operand(1)));
      case StateFormula::Kind::kProb:
      case StateFormula::Kind::kReward:
        return meets_bound(values(formula), formula);
      case StateFormula::Kind::kProbQuery:
      case StateFormula::Kind::kRewardQuery:
        throw Error(
            "satisfying_states: quantitative query has no satisfaction set: " +
            formula.to_string());
    }
    throw Error("satisfying_states: unhandled formula kind");
  }

  /// Per-state values of the P/R operator `formula`. `bracket`, non-null
  /// only for the top-level operator, receives the engine's certified
  /// initial-state bracket where the engine has one (left empty otherwise).
  std::vector<double> values(const StateFormula& formula,
                             std::optional<Bracket>* bracket = nullptr) {
    const StateFormula::Kind kind = formula.kind();
    const bool prob = kind == StateFormula::Kind::kProb ||
                      kind == StateFormula::Kind::kProbQuery;
    if (!prob && kind != StateFormula::Kind::kReward &&
        kind != StateFormula::Kind::kRewardQuery) {
      throw Error("quantitative_values: formula is not a P/R operator: " +
                  formula.to_string());
    }
    const Objective objective = resolve_objective(formula);
    return prob ? prob_values(formula.path(), objective, bracket)
                : reward_values(formula, objective, bracket);
  }

 private:
  /// SolverOptions carrying this check's budget and thread count; the
  /// tolerance and iteration knobs keep their defaults.
  SolverOptions solver_options() const {
    SolverOptions solver;
    solver.budget = options_.budget;
    solver.threads = options_.threads;
    return solver;
  }

  /// Unbounded P[stay U goal]. On a DTMC the values are the sparse direct
  /// solve's, on an MDP the interval engine's clamped bracket midpoints;
  /// `bracket` (when non-null) receives either engine's certified
  /// initial-state [lo, hi], mirrored to [1−hi, 1−lo] when the caller
  /// reports 1 − value (`mirror`, for G). An MDP budget stop throws
  /// BudgetExhausted carrying that same bracket; the DTMC factorization
  /// throws it without one.
  std::vector<double> until(const StateSet& stay, const StateSet& goal,
                            Objective objective,
                            std::optional<Bracket>* bracket,
                            bool mirror = false) {
    SolveResult result =
        model_.deterministic()
            ? dtmc_until_bracket(model_, stay, goal, solver_options())
            : mdp_until_bracket(model_, stay, goal, objective,
                                solver_options());
    const StateId init = model_.initial_state();
    Bracket reached{result.lo[init], result.hi[init], result.iterations};
    if (mirror) reached = {1.0 - reached.hi, 1.0 - reached.lo, reached.sweeps};
    require_finished(result, "mdp_until_bracket",
                     bracket ? std::optional(reached) : std::nullopt);
    if (bracket != nullptr) *bracket = reached;
    return std::move(result.values);
  }

  std::vector<double> bounded_until(const StateSet& stay, const StateSet& goal,
                                    std::size_t bound, Objective objective) {
    return mdp_bounded_until(model_, stay, goal, bound, objective,
                             options_.threads, &options_.budget);
  }

  /// One-step probability of entering `goal`, optimized over choices: one
  /// Bellman step on the goal indicator. For a deterministic model each row
  /// has a single choice, so the same step serves both kinds.
  std::vector<double> next(const StateSet& goal, Objective objective) {
    const std::size_t n = model_.num_states();
    std::vector<double> indicator(n, 0.0);
    for (StateId s = 0; s < n; ++s) {
      if (goal[s]) indicator[s] = 1.0;
    }
    std::vector<double> values(n);
    for (StateId s = 0; s < n; ++s) {
      values[s] = best_choice(model_, s, objective, [&](std::uint32_t c) {
                    return expectation(model_, c, indicator);
                  }).value;
    }
    return values;
  }

  /// Unbounded R[F goal]. On a DTMC, `bracket` (when non-null) receives the
  /// direct solve's certified initial-state bracket; MDP rewards have none.
  std::vector<double> reach_reward(const StateSet& goal, Objective objective,
                                   std::optional<Bracket>* bracket) {
    if (model_.deterministic()) {
      SolveResult result =
          dtmc_total_reward_bracket(model_, goal, solver_options());
      if (bracket != nullptr) {
        const StateId init = model_.initial_state();
        *bracket = Bracket{result.lo[init], result.hi[init], 0};
      }
      return std::move(result.values);
    }
    SolveResult result =
        total_reward_to_target(model_, goal, objective, solver_options());
    require_finished(result, "total_reward_to_target");
    return std::move(result.values);
  }

  std::vector<double> cumulative_reward(std::size_t horizon,
                                        Objective objective) {
    return mdp_cumulative_reward(model_, horizon, objective, options_.threads,
                                 &options_.budget);
  }

  std::vector<double> prob_values(const PathFormula& path, Objective objective,
                                  std::optional<Bracket>* bracket) {
    switch (path.kind()) {
      case PathFormula::Kind::kNext:
        return next(sat(path.right()), objective);
      case PathFormula::Kind::kUntil:
      case PathFormula::Kind::kEventually: {
        const StateSet stay = path.kind() == PathFormula::Kind::kUntil
                                  ? sat(path.left())
                                  : StateSet(model_.num_states(), true);
        const StateSet goal = sat(path.right());
        if (path.step_bound()) {
          return bounded_until(stay, goal, *path.step_bound(), objective);
        }
        return until(stay, goal, objective, bracket);
      }
      case PathFormula::Kind::kGlobally: {
        // P(G φ) = 1 − P(F ¬φ), with the scheduler direction flipped.
        const StateSet bad = complement(sat(path.right()));
        const StateSet stay(model_.num_states(), true);
        std::vector<double> reach =
            path.step_bound()
                ? bounded_until(stay, bad, *path.step_bound(), flip(objective))
                : until(stay, bad, flip(objective), bracket, /*mirror=*/true);
        for (double& v : reach) v = 1.0 - v;
        return reach;
      }
    }
    throw Error("prob_values: unhandled path formula kind");
  }

  std::vector<double> reward_values(const StateFormula& formula,
                                    Objective objective,
                                    std::optional<Bracket>* bracket) {
    if (formula.reward_path_kind() ==
        StateFormula::RewardPathKind::kReachability) {
      return reach_reward(sat(formula.reward_target()), objective, bracket);
    }
    return cumulative_reward(formula.reward_horizon(), objective);
  }

  const CompiledModel& model_;
  CheckOptions options_;
};

/// One check against one concrete model (no quotient pass). Factored out of
/// check() so the quotient path can run the solvers on the minimized
/// model without double-counting the checker.* stats.
CheckResult check_direct(const CompiledModel& model,
                         const StateFormula& formula,
                         const CheckOptions& options) {
  Checker checker(model, options);
  CheckResult result;
  const StateId init = model.initial_state();
  if (!formula.is_quantitative() &&
      formula.kind() != StateFormula::Kind::kProb &&
      formula.kind() != StateFormula::Kind::kReward) {
    result.sat_states = checker.sat(formula);
    result.satisfied = result.sat_states[init];
    return result;
  }
  // A top-level P/R operator is solved once: its value, its bracket and,
  // for P⋈b/R⋈b, its satisfaction set all read the same vector.
  result.values = checker.values(formula, &result.bracket);
  result.value = result.values[init];
  if (formula.is_quantitative()) {
    // A quantitative query has no boolean verdict; report "satisfied" as
    // true so pipelines that only look at values don't misread it.
    result.satisfied = true;
    return result;
  }
  result.sat_states = meets_bound(result.values, formula);
  result.satisfied = result.sat_states[init];
  return result;
}

}  // namespace

Objective resolve_objective(const StateFormula& formula) {
  if (formula.quantifier()) {
    return *formula.quantifier() == Quantifier::kMax ? Objective::kMaximize
                                                     : Objective::kMinimize;
  }
  // An unquantified query (`P=?` on an MDP) asks for the maximum.
  if (formula.is_quantitative()) return Objective::kMaximize;
  // PRISM resolution for bounded operators on MDPs: an upper bound must hold
  // for the worst (maximizing) scheduler, a lower bound for the minimizing
  // one.
  switch (formula.comparison()) {
    case Comparison::kLess:
    case Comparison::kLessEqual:
      return Objective::kMaximize;
    case Comparison::kGreater:
    case Comparison::kGreaterEqual:
      return Objective::kMinimize;
  }
  return Objective::kMaximize;
}

StateSet satisfying_states(const CompiledModel& model,
                           const StateFormula& formula) {
  return Checker(model).sat(formula);
}

std::vector<double> quantitative_values(const CompiledModel& model,
                                        const StateFormula& formula) {
  return Checker(model).values(formula);
}

CheckResult check(const CompiledModel& model, const StateFormula& formula,
                  const CheckOptions& options) {
  static stats::Timer& t_check = stats::timer("checker.check.time");
  static stats::Counter& c_checks = stats::counter("checker.checks");
  const stats::ScopedTimer span(t_check);
  c_checks.bump();
  if (options.quotient) {
    QuotientOptions quotient_options;
    quotient_options.budget = options.budget;
    const QuotientResult q = bisimulation_quotient(model, quotient_options);
    if (q.complete) {
      CheckResult result = check_direct(q.quotient, formula, options);
      // Lift every per-state channel back to the original state space. The
      // initial-state verdict/value/bracket need no translation: the
      // quotient's initial state is the block of the original initial state.
      if (!result.values.empty()) {
        result.values = lift_values(q.state_map, result.values);
      }
      if (result.sat_states.size() > 0) {
        result.sat_states = lift_states(q.state_map, result.sat_states);
      }
      result.quotient_states = q.quotient.num_states();
      return result;
    }
    // Refinement hit its budget: the partial partition is not a
    // bisimulation, so degrade to the unquotiented model (the documented
    // graceful-degradation contract; quotient_states stays 0).
  }
  return check_direct(model, formula, options);
}

CheckResult check(const Dtmc& chain, const StateFormula& formula) {
  return check(compile(chain), formula);
}

CheckResult check(const Mdp& mdp, const StateFormula& formula) {
  return check(compile(mdp), formula);
}

CheckResult check(const Dtmc& chain, const std::string& formula_text) {
  return check(chain, *parse_pctl(formula_text));
}

CheckResult check(const Mdp& mdp, const std::string& formula_text) {
  return check(mdp, *parse_pctl(formula_text));
}

}  // namespace tml
