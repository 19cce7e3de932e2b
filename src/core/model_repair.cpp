#include "src/core/model_repair.hpp"

#include <cmath>
#include <deque>

#include "src/checker/check.hpp"
#include "src/checker/reachability.hpp"
#include "src/mdp/bellman.hpp"
#include "src/mdp/solver.hpp"
#include "src/parametric/bounded.hpp"
#include "src/parametric/state_elimination.hpp"

namespace tml {

namespace {

void require_repairable(const StateFormula& property) {
  if (property.kind() == StateFormula::Kind::kProb) {
    const PathFormula& path = property.path();
    TML_REQUIRE(path.kind() == PathFormula::Kind::kEventually ||
                    path.kind() == PathFormula::Kind::kUntil,
                "model_repair: only F / U path formulas (step-bounded or "
                "unbounded) are supported, got "
                    << path.to_string());
    return;
  }
  if (property.kind() == StateFormula::Kind::kReward) {
    // Both R[F φ] and R[C<=k] have parametric closed forms.
    return;
  }
  throw Error(
      "model_repair: property must be a bounded P or R operator, got " +
      property.to_string());
}

ScalarFn make_cost(const ModelRepairConfig& config, std::size_t dim) {
  switch (config.cost) {
    case RepairCost::kL2:
      return [](std::span<const double> x) {
        double acc = 0.0;
        for (double v : x) acc += v * v;
        return acc;
      };
    case RepairCost::kL1:
      return [](std::span<const double> x) {
        double acc = 0.0;
        for (double v : x) acc += std::sqrt(v * v + 1e-12);
        return acc;
      };
    case RepairCost::kWeightedL2: {
      TML_REQUIRE(config.cost_weights.size() == dim,
                  "model_repair: weighted cost needs one weight per variable");
      std::vector<double> w = config.cost_weights;
      return [w](std::span<const double> x) {
        double acc = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) acc += w[i] * x[i] * x[i];
        return acc;
      };
    }
  }
  throw Error("model_repair: unknown cost");
}

GradientFn make_cost_gradient(const ModelRepairConfig& config,
                              std::size_t dim) {
  switch (config.cost) {
    case RepairCost::kL2:
      return [](std::span<const double> x) {
        std::vector<double> g(x.size());
        for (std::size_t i = 0; i < x.size(); ++i) g[i] = 2.0 * x[i];
        return g;
      };
    case RepairCost::kL1:
      return [](std::span<const double> x) {
        std::vector<double> g(x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
          g[i] = x[i] / std::sqrt(x[i] * x[i] + 1e-12);
        }
        return g;
      };
    case RepairCost::kWeightedL2: {
      std::vector<double> w = config.cost_weights;
      TML_REQUIRE(w.size() == dim,
                  "model_repair: weighted cost needs one weight per variable");
      return [w](std::span<const double> x) {
        std::vector<double> g(x.size());
        for (std::size_t i = 0; i < x.size(); ++i) g[i] = 2.0 * w[i] * x[i];
        return g;
      };
    }
  }
  throw Error("model_repair: unknown cost");
}

}  // namespace

std::string to_string(RepairCost cost) {
  switch (cost) {
    case RepairCost::kL2: return "L2";
    case RepairCost::kL1: return "L1";
    case RepairCost::kWeightedL2: return "weighted-L2";
  }
  return "?";
}

RationalFunction parametric_property_function(
    const ParametricDtmc& chain, const Dtmc& base, const StateFormula& property,
    const EliminationOptions& options) {
  require_repairable(property);
  const CompiledModel compiled = compile(base);
  if (property.kind() == StateFormula::Kind::kProb) {
    const PathFormula& path = property.path();
    const StateSet goal = satisfying_states(compiled, path.right());
    const StateSet stay = path.kind() == PathFormula::Kind::kUntil
                              ? satisfying_states(compiled, path.left())
                              : StateSet(base.num_states(), true);
    if (path.step_bound()) {
      return bounded_until_probability(chain, stay, goal, *path.step_bound(),
                                       options.budget);
    }
    if (path.kind() == PathFormula::Kind::kEventually) {
      return reachability_probability(chain, goal, options);
    }
    // φ1 U φ2: make escape states (¬φ1 ∧ ¬φ2) absorbing, then reach φ2.
    ParametricDtmc restricted = chain;
    for (StateId s = 0; s < base.num_states(); ++s) {
      if (!stay[s] && !goal[s]) {
        for (const auto& [t, p] : chain.row(s)) {
          restricted.set_transition(s, t, RationalFunction());
        }
        restricted.set_transition(s, s, RationalFunction(1.0));
      }
    }
    return reachability_probability(restricted, goal, options);
  }
  if (property.reward_path_kind() == StateFormula::RewardPathKind::kCumulative) {
    return cumulative_reward(chain, property.reward_horizon(), options.budget);
  }
  const StateSet goal = satisfying_states(compiled, property.reward_target());
  return expected_total_reward(chain, goal, options);
}

RepairConstraint::RepairConstraint(const StateFormula& property,
                                   RationalFunction f,
                                   std::span<const Var> variables,
                                   double constraint_margin,
                                   const SolveOptions& solver)
    : RepairConstraint(property, NumericFn(), constraint_margin, solver) {
  f_ = std::move(f);
  derivatives_.reserve(variables.size());
  for (Var v : variables) derivatives_.push_back(f_.derivative(v));
}

RepairConstraint::RepairConstraint(const StateFormula& property,
                                   NumericFn evaluate,
                                   double constraint_margin,
                                   const SolveOptions& solver)
    : property_(&property),
      numeric_(std::move(evaluate)),
      upper_(property.comparison() == Comparison::kLess ||
             property.comparison() == Comparison::kLessEqual),
      // The solver accepts violations up to feasibility_tol; require at
      // least that much slack so the independent numeric recheck passes at
      // the boundary.
      margin_(std::max(constraint_margin,
                       10.0 * solver.feasibility_tol *
                           (1.0 + std::abs(property.bound())))) {}

double RepairConstraint::evaluate(std::span<const double> x) const {
  return numeric_ ? numeric_(x) : f_.evaluate(x);
}

bool RepairConstraint::satisfied_by(double value) const {
  return compare(value, property_->comparison(), property_->bound());
}

Constraint RepairConstraint::constraint() const {
  GradientFn gradient;
  if (!numeric_) {
    gradient = [this](std::span<const double> x) {
      std::vector<double> g(derivatives_.size());
      for (std::size_t i = 0; i < derivatives_.size(); ++i) {
        const double d = derivatives_[i].evaluate(x);
        g[i] = upper_ ? d : -d;
      }
      return g;
    };
  }
  return Constraint{
      property_->to_string(),
      [this](std::span<const double> x) {
        const double value = evaluate(x);
        const double bound = property_->bound();
        return upper_ ? value - (bound - margin_) : (bound + margin_) - value;
      },
      std::move(gradient)};
}

SolveStatus judge_repair(SolveStatus solver_status, bool satisfied) {
  if (satisfied) return SolveStatus::kOptimal;
  return solver_status == SolveStatus::kOptimal ? SolveStatus::kInfeasible
                                                : solver_status;
}

namespace {

/// Step bound of a bounded property (0 when unbounded).
std::size_t property_step_bound(const StateFormula& property) {
  if (property.kind() == StateFormula::Kind::kProb) {
    return property.path().step_bound().value_or(0);
  }
  if (property.kind() == StateFormula::Kind::kReward &&
      property.reward_path_kind() ==
          StateFormula::RewardPathKind::kCumulative) {
    return property.reward_horizon();
  }
  return 0;
}

/// Numeric per-point evaluation of a step-bounded property on the
/// instantiated chain. The expanded symbolic polynomial of a k-step
/// iteration has degree ~k and loses all precision for large k; direct
/// numeric evaluation is exact and cheap. The operand sets are label-defined
/// and parameter-independent, so they are computed once here, not per NLP
/// iterate. The returned evaluator references `chain`. The instantiated
/// chain has one choice per row, so the sweeps' objective is immaterial.
RepairConstraint::NumericFn bounded_numeric_evaluator(
    const ParametricDtmc& chain, const Dtmc& base,
    const StateFormula& property) {
  if (property.kind() != StateFormula::Kind::kProb) {
    const std::size_t horizon = property.reward_horizon();
    return [&chain, horizon](std::span<const double> x) {
      const CompiledModel concrete = compile(chain.instantiate(x));
      const std::vector<double> values =
          mdp_cumulative_reward(concrete, horizon, Objective::kMaximize);
      return values[concrete.initial_state()];
    };
  }
  const CompiledModel compiled_base = compile(base);
  const PathFormula& path = property.path();
  const std::size_t bound = *path.step_bound();
  StateSet goal = satisfying_states(compiled_base, path.right());
  StateSet stay = path.kind() == PathFormula::Kind::kUntil
                      ? satisfying_states(compiled_base, path.left())
                      : StateSet(base.num_states(), true);
  return [&chain, bound, stay = std::move(stay),
          goal = std::move(goal)](std::span<const double> x) {
    const CompiledModel concrete = compile(chain.instantiate(x));
    const std::vector<double> values =
        mdp_bounded_until(concrete, stay, goal, bound, Objective::kMaximize);
    return values[concrete.initial_state()];
  };
}

/// Symbolic closed forms stay exact up to roughly this step bound; beyond
/// it Model Repair evaluates the property numerically per NLP iterate.
constexpr std::size_t kMaxSymbolicStepBound = 24;

/// The one NLP of Model Repair: one margined constraint per property,
/// solved for the cheapest perturbation, judged against the real bounds and
/// re-checked numerically on the repaired chain.
EnvelopeRepairResult repair_properties(
    const PerturbationScheme& scheme,
    const std::vector<const StateFormula*>& properties,
    const ModelRepairConfig& config) {
  EnvelopeRepairResult result;
  ModelRepairResult& repair = result.repair;
  repair.variable_names = scheme.variable_names();
  repair.comparison = properties[0]->comparison();
  repair.bound = properties[0]->bound();

  const PerturbationScheme::Built built =
      scheme.build(config.probability_margin);
  std::deque<RepairConstraint> terms;  // stable: constraints point into it
  for (const StateFormula* property : properties) {
    if (property_step_bound(*property) > kMaxSymbolicStepBound) {
      terms.emplace_back(
          *property,
          bounded_numeric_evaluator(built.chain, scheme.base(), *property),
          config.constraint_margin, config.solver);
    } else {
      terms.emplace_back(
          *property,
          parametric_property_function(built.chain, scheme.base(), *property,
                                       config.elimination),
          built.variables, config.constraint_margin, config.solver);
    }
  }
  const std::size_t first_steps = property_step_bound(*properties[0]);
  repair.property_function = terms[0].function();
  repair.function_text =
      first_steps > kMaxSymbolicStepBound
          ? "<numeric " + std::to_string(first_steps) + "-step evaluation>"
          : repair.property_function.to_string(built.chain.pool().namer());

  const std::size_t dim = scheme.num_variables();
  Problem problem;
  problem.dimension = dim;
  problem.objective = make_cost(config, dim);
  problem.objective_gradient = make_cost_gradient(config, dim);
  for (const RepairConstraint& term : terms) {
    problem.constraints.push_back(term.constraint());
  }
  problem.box.lower = built.lower;
  problem.box.upper = built.upper;

  const SolveOutcome outcome = solve(problem, config.solver);
  repair.status = outcome.status;
  repair.variable_values = outcome.x;
  repair.best_violation = outcome.max_violation;
  if (!outcome.x.empty()) {
    bool all_satisfied = true;
    for (const RepairConstraint& term : terms) {
      EnvelopeEntry entry;
      entry.property_text = term.property().to_string();
      entry.achieved = term.evaluate(outcome.x);
      entry.bound = term.property().bound();
      entry.comparison = term.property().comparison();
      entry.satisfied = term.satisfied_by(entry.achieved);
      all_satisfied = all_satisfied && entry.satisfied;
      result.per_property.push_back(std::move(entry));
    }
    repair.achieved = result.per_property[0].achieved;
    repair.status = judge_repair(outcome.status, all_satisfied);
  }
  if (repair.status == SolveStatus::kOptimal) {
    repair.cost = problem.objective(outcome.x);
    repair.repaired = scheme.apply(outcome.x);
    repair.recheck_passed = true;
    for (const StateFormula* property : properties) {
      repair.recheck_passed = repair.recheck_passed &&
                              check(*repair.repaired, *property).satisfied;
    }
    repair.epsilon_bisimilarity = scheme.max_perturbation(outcome.x);
  }
  return result;
}

}  // namespace

ModelRepairResult model_repair(const PerturbationScheme& scheme,
                               const StateFormula& property,
                               const ModelRepairConfig& config) {
  require_repairable(property);
  return repair_properties(scheme, {&property}, config).repair;
}

EnvelopeRepairResult model_repair_envelope(
    const PerturbationScheme& scheme,
    const std::vector<StateFormulaPtr>& properties,
    const ModelRepairConfig& config) {
  TML_REQUIRE(!properties.empty(), "model_repair_envelope: no properties");
  std::vector<const StateFormula*> raw;
  for (const StateFormulaPtr& p : properties) {
    TML_REQUIRE(p != nullptr, "model_repair_envelope: null property");
    require_repairable(*p);
    raw.push_back(p.get());
  }
  return repair_properties(scheme, raw, config);
}

namespace {

/// The scheduler check() resolves for `property` on the MDP, and the value
/// it achieves from the initial state: one solve of the checker's engine for
/// the operator (interval iteration on P[stay U goal], value iteration on
/// R[F goal]), the P policy read greedily off its values.
struct PropertySolve {
  Policy policy;
  double value = 0.0;
};

PropertySolve solve_property(const Mdp& mdp, const StateFormula& property) {
  const Objective objective = resolve_objective(property);
  const CompiledModel model = compile(mdp);
  const StateId init = model.initial_state();
  if (property.kind() == StateFormula::Kind::kReward) {
    TML_REQUIRE(property.reward_path_kind() ==
                    StateFormula::RewardPathKind::kReachability,
                "mdp_model_repair: cumulative-reward properties need a "
                "time-varying policy; repair the induced DTMC directly");
    const StateSet goal = satisfying_states(model, property.reward_target());
    SolveResult result = total_reward_to_target(model, goal, objective);
    require_finished(result, "total_reward_to_target");
    return {std::move(result.policy), result.values[init]};
  }
  const PathFormula& path = property.path();
  TML_REQUIRE(!path.step_bound(),
              "mdp_model_repair: step-bounded paths need a time-varying "
              "policy; repair the induced DTMC directly");
  const StateSet stay = path.kind() == PathFormula::Kind::kUntil
                            ? satisfying_states(model, path.left())
                            : StateSet(model.num_states(), true);
  const StateSet goal = satisfying_states(model, path.right());
  const SolveResult result = mdp_until_bracket(model, stay, goal, objective);
  require_finished(result, "mdp_until_bracket");
  PropertySolve solved{Policy{}, result.values[init]};
  solved.policy.choice_index.resize(model.num_states());
  for (StateId s = 0; s < model.num_states(); ++s) {
    solved.policy.choice_index[s] =
        best_choice(model, s, objective, [&](std::uint32_t c) {
          return expectation(model, c, result.values);
        }).choice;
  }
  return solved;
}

bool same_policy(const Policy& a, const Policy& b) {
  return a.choice_index == b.choice_index;
}

}  // namespace

MdpModelRepairResult mdp_model_repair(
    const Mdp& mdp, const StateFormula& property,
    const std::function<PerturbationScheme(const Dtmc&)>& scheme_for,
    const std::function<Mdp(std::span<const double>)>& rebuild,
    const ModelRepairConfig& config, std::size_t max_policy_rounds) {
  require_repairable(property);
  mdp.validate();

  MdpModelRepairResult result;
  Policy policy = solve_property(mdp, property).policy;

  for (std::size_t round = 0; round < max_policy_rounds; ++round) {
    result.policy_rounds = round + 1;
    const Dtmc induced = mdp.induced_dtmc(policy);
    const PerturbationScheme scheme = scheme_for(induced);
    result.inner = model_repair(scheme, property, config);
    if (!result.inner.feasible()) {
      return result;  // infeasible at this policy; report as-is
    }
    Mdp repaired = rebuild(result.inner.variable_values);
    repaired.validate();
    // The MDP-level verdict, read off the same solve as the next policy.
    PropertySolve solved = solve_property(repaired, property);
    result.repaired_mdp = std::move(repaired);
    result.policy_stable = same_policy(policy, solved.policy);
    if (compare(solved.value, property.comparison(), property.bound())) {
      return result;
    }
    if (result.policy_stable) {
      // Policy did not move but the MDP-level property still fails: the
      // repair certificate does not transfer. Report infeasible.
      result.inner.status = SolveStatus::kInfeasible;
      return result;
    }
    policy = std::move(solved.policy);
  }
  result.inner.status = SolveStatus::kIterationLimit;
  return result;
}

}  // namespace tml
