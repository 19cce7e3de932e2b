// Data Repair (§IV-B, Definition 3, Equations 7–15).
//
// Machine-teaching formulation: find the smallest data perturbation p
// (keep weights per trajectory group, p_i ∈ [0,1], p_i = 0 meaning drop)
// such that the model re-learned from the perturbed data satisfies φ.
//
// Pipeline (Prop. 3):
//  1. the inner optimization (Eqs. 13–14, regularized ERM) is solved in
//     closed form by weighted maximum likelihood — producing a parametric
//     chain M(p) whose transition probabilities are rational functions of p
//     (src/learn/weighted_mle);
//  2. parametric model checking turns φ into a rational constraint f(p)⋈b;
//  3. the outer optimization (Eq. 15) minimizes the teaching effort
//     E_T = ‖1 − p‖² (weighted by group size) subject to the constraint,
//     via the NLP solver.
//
// Pinned groups (trusted data) keep p = 1 and are excluded from the search.

#pragma once

#include <limits>
#include <optional>
#include <string>

#include "src/learn/weighted_mle.hpp"
#include "src/logic/pctl.hpp"
#include "src/opt/solvers.hpp"
#include "src/parametric/state_elimination.hpp"

namespace tml {

struct DataRepairConfig {
  /// Laplace pseudo-count added to every structural transition so MLE
  /// denominators cannot vanish when whole groups are dropped.
  double pseudocount = 1e-3;
  /// Lower bound on keep weights (0 allows fully dropping a group; a small
  /// positive value keeps every group marginally represented).
  double min_keep = 0.0;
  /// Require the property with this slack.
  double constraint_margin = 0.0;
  SolveOptions solver;
  /// Budget of the parametric elimination that builds f(p).
  EliminationOptions elimination;
};

struct DataRepairResult {
  SolveStatus status = SolveStatus::kInfeasible;
  std::vector<std::string> group_names;   ///< un-pinned groups, in order
  std::vector<double> keep_weights;       ///< optimal p per group
  std::vector<double> drop_fractions;     ///< 1 − p per group
  double effort = 0.0;                    ///< E_T(D, D') at the optimum
  double achieved = 0.0;                  ///< f(p*) — property value
  double bound = 0.0;
  Comparison comparison = Comparison::kLessEqual;
  RationalFunction property_function;     ///< f(p) from parametric checking
  std::string function_text;
  /// Model re-learned from the repaired data (status == kOptimal only).
  std::optional<Dtmc> relearned;
  bool recheck_passed = false;
  double best_violation = 0.0;
  /// As ModelRepairResult: the NLP's KKT residual at the solution
  /// (infinity from the fallback) and whether minimality is certified.
  double kkt_residual = std::numeric_limits<double>::infinity();
  bool minimality_certified = false;

  bool feasible() const { return status == SolveStatus::kOptimal; }
};

/// Runs Data Repair for a DTMC structure. The property must be a bounded
/// P[F/U] or R[F] operator (same fragment as Model Repair).
DataRepairResult data_repair(const Dtmc& structure,
                             const TrajectoryDataset& data,
                             const std::vector<RepairGroup>& groups,
                             const StateFormula& property,
                             const DataRepairConfig& config = {});

}  // namespace tml
