// Model Repair (§IV-A, Definition 1, Equations 1–6).
//
// Given a learned chain M, a PCTL property φ it violates, and a
// perturbation scheme (Feas_MP), find the minimal-cost perturbation v such
// that M_v ⊨ φ:
//
//   1. parametric model checking (src/parametric) turns φ into a rational
//      function f(v) of the perturbation variables (Prop. 2);
//   2. the resulting NLP  min g(v)  s.t. f(v) ⋈ b, v ∈ box  is solved by
//      the optimizer (src/opt) — the paper's PRISM + AMPL pipeline;
//   3. the repaired chain is re-checked with the numeric checker as an
//      independent certificate.
//
// A single property is the one-property case of the safety envelope: both
// entry points build, solve and judge the NLP in one place, and Data Repair
// (data_repair.hpp) states its constraint through the same RepairConstraint.
//
// Supported property shapes (the fragment with closed-form parametric
// solutions): P⋈b[F φ_t], P⋈b[φ_1 U φ_2], R⋈b[F φ_t], with label-defined
// (parameter-independent) operand sets.
//
// The MDP variant fixes the optimizing policy at the nominal parameters,
// repairs the induced DTMC, and re-verifies the repaired MDP — iterating
// with the new optimal policy if it changed (see DESIGN.md, substitutions).

#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/perturbation.hpp"
#include "src/logic/pctl.hpp"
#include "src/opt/solvers.hpp"
#include "src/parametric/parametric_dtmc.hpp"
#include "src/parametric/state_elimination.hpp"
#include "src/rational/rational_function.hpp"

namespace tml {

/// Perturbation cost g(Z) of Eq. 1/4.
enum class RepairCost {
  kL2,         ///< Σ v_k² — the paper's Frobenius-norm default
  kL1,         ///< Σ |v_k| (smooth approximation), favours sparse repairs
  kWeightedL2  ///< Σ w_k v_k²
};

std::string to_string(RepairCost cost);

struct ModelRepairConfig {
  RepairCost cost = RepairCost::kL2;
  std::vector<double> cost_weights;  ///< for kWeightedL2, one per variable
  double probability_margin = 1e-6;  ///< Eq. 6 strictness: probs in (m, 1−m)
  double constraint_margin = 0.0;    ///< require f ⋈ b with this slack
  SolveOptions solver;
  /// Budget of the parametric elimination that builds f(v).
  EliminationOptions elimination;
};

struct ModelRepairResult {
  SolveStatus status = SolveStatus::kInfeasible;
  std::vector<std::string> variable_names;
  std::vector<double> variable_values;
  double cost = 0.0;
  /// Value of the property function at the solution (e.g. expected
  /// attempts), and the bound it was checked against.
  double achieved = 0.0;
  double bound = 0.0;
  Comparison comparison = Comparison::kLessEqual;
  /// Closed-form f(v) from parametric model checking, printable via
  /// `function_text`.
  RationalFunction property_function;
  std::string function_text;
  /// The repaired chain (valid when status == kOptimal).
  std::optional<Dtmc> repaired;
  /// Proposition 1 certificate: M and the repaired M' are ε-bisimilar with
  /// ε bounded by the largest entry of Z at the solution.
  double epsilon_bisimilarity = 0.0;
  /// Verdict of the independent numeric re-check of the repaired chain.
  bool recheck_passed = false;
  /// Smallest constraint violation seen (diagnostic when infeasible).
  double best_violation = 0.0;

  bool feasible() const { return status == SolveStatus::kOptimal; }
};

/// Repairs a DTMC against a boolean P/R property: the one-property case of
/// model_repair_envelope.
ModelRepairResult model_repair(const PerturbationScheme& scheme,
                               const StateFormula& property,
                               const ModelRepairConfig& config = {});

/// Multi-property repair: §I defines the safety envelope as a SET of
/// properties; this variant finds one minimal perturbation satisfying all
/// of them simultaneously (one NLP with one constraint per property).
/// The result's scalar fields (`achieved`, `bound`, `comparison`,
/// `property_function`) describe the first property; `per_property`
/// reports each property's achieved value and verdict.
struct EnvelopeEntry {
  std::string property_text;
  double achieved = 0.0;
  double bound = 0.0;
  Comparison comparison = Comparison::kLessEqual;
  bool satisfied = false;
};

struct EnvelopeRepairResult {
  ModelRepairResult repair;
  std::vector<EnvelopeEntry> per_property;
};

EnvelopeRepairResult model_repair_envelope(
    const PerturbationScheme& scheme,
    const std::vector<StateFormulaPtr>& properties,
    const ModelRepairConfig& config = {});

/// Computes only the parametric property function f(v) (exposed for
/// inspection / the benches). The options carry the elimination's budget
/// (also used by the bounded symbolic sweeps).
RationalFunction parametric_property_function(
    const ParametricDtmc& chain, const Dtmc& base, const StateFormula& property,
    const EliminationOptions& options);

/// One repair property as an NLP constraint (Eqs. 5 and 15): f(x) ⋈ b in
/// g(x) ≤ 0 form, tightened by a margin so the independent re-check passes
/// at the constraint boundary. f is either the closed form from parametric
/// model checking (with its gradient) or a numeric per-iterate evaluator.
class RepairConstraint {
 public:
  using NumericFn = std::function<double(std::span<const double>)>;

  /// Symbolic: f and its partial derivatives in `variables`.
  RepairConstraint(const StateFormula& property, RationalFunction f,
                   std::span<const Var> variables, double constraint_margin,
                   const SolveOptions& solver);
  /// Numeric: the solver differentiates `evaluate` by finite differences.
  RepairConstraint(const StateFormula& property, NumericFn evaluate,
                   double constraint_margin, const SolveOptions& solver);
  // constraint() hands out callbacks that hold `this`.
  RepairConstraint(const RepairConstraint&) = delete;
  RepairConstraint& operator=(const RepairConstraint&) = delete;

  const StateFormula& property() const { return *property_; }
  /// The closed form (zero for a numeric constraint).
  const RationalFunction& function() const { return f_; }
  double evaluate(std::span<const double> x) const;
  /// Whether `value` meets the property's real bound. The margin exists
  /// only to absorb solver slop: a penalty-method iterate may sit just
  /// outside the margined surrogate yet safely inside the bound.
  bool satisfied_by(double value) const;
  /// The margined constraint. It refers to *this, which must outlive it.
  Constraint constraint() const;

 private:
  const StateFormula* property_;
  RationalFunction f_;
  std::vector<RationalFunction> derivatives_;
  NumericFn numeric_;
  bool upper_;
  double margin_;
};

/// The status of a repair whose solver stopped with `solver_status` at a
/// point that does (`satisfied`) or does not meet every real bound: a point
/// inside the bounds is a repair whatever the solver said, a claimed optimum
/// outside them is infeasible, and any other stop is reported as it is.
SolveStatus judge_repair(SolveStatus solver_status, bool satisfied);

/// MDP Model Repair via policy fixing. `rebuild` must construct the full
/// MDP at concrete variable values (the same perturbation semantics as
/// `scheme_for` applies to the induced chain); `scheme_for` builds the
/// perturbation scheme on the induced DTMC of the current optimal policy.
struct MdpModelRepairResult {
  ModelRepairResult inner;
  std::optional<Mdp> repaired_mdp;
  std::size_t policy_rounds = 0;
  bool policy_stable = false;  ///< optimal policy unchanged at the solution
};

MdpModelRepairResult mdp_model_repair(
    const Mdp& mdp, const StateFormula& property,
    const std::function<PerturbationScheme(const Dtmc&)>& scheme_for,
    const std::function<Mdp(std::span<const double>)>& rebuild,
    const ModelRepairConfig& config = {}, std::size_t max_policy_rounds = 4);

}  // namespace tml
