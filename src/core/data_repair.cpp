#include "src/core/data_repair.hpp"

#include <algorithm>

#include "src/checker/check.hpp"
#include "src/core/model_repair.hpp"
#include "src/learn/mle.hpp"

namespace tml {

DataRepairResult data_repair(const Dtmc& structure,
                             const TrajectoryDataset& data,
                             const std::vector<RepairGroup>& groups,
                             const StateFormula& property,
                             const DataRepairConfig& config) {
  TML_REQUIRE(property.kind() == StateFormula::Kind::kProb ||
                  property.kind() == StateFormula::Kind::kReward,
              "data_repair: property must be a bounded P or R operator");
  TML_REQUIRE(config.min_keep >= 0.0 && config.min_keep < 1.0,
              "data_repair: min_keep must be in [0,1)");

  DataRepairResult result;
  result.comparison = property.comparison();
  result.bound = property.bound();

  // Inner optimization: weighted MLE → parametric chain M(p).
  const WeightedMleResult mle =
      weighted_mle_dtmc(structure, data, groups, config.pseudocount);
  result.function_text.clear();
  for (const std::string& name : mle.variable_names) {
    result.group_names.push_back(name);
  }
  const std::size_t dim = mle.variables.size();
  TML_REQUIRE(dim > 0, "data_repair: no un-pinned groups to repair");

  // Parametric property function f(p), as the margined constraint f(p) ⋈ b.
  const RepairConstraint term(
      property,
      parametric_property_function(mle.chain, structure, property,
                                   config.elimination),
      mle.variables, config.constraint_margin, config.solver);
  result.property_function = term.function();
  result.function_text =
      result.property_function.to_string(mle.chain.pool().namer());

  // Effort weights: group size (number of member trajectories, respecting
  // dataset multiplicities) — dropping a large group costs more. Each
  // group also carries its effort-free target weight (1 for real data,
  // typically 0 for synthetic augmentation groups) and its weight box.
  std::vector<double> effort_weight;
  std::vector<double> target_weight;
  std::vector<double> lower_box;
  std::vector<double> upper_box;
  for (const RepairGroup& g : groups) {
    if (g.pinned) continue;
    TML_REQUIRE(g.max_weight > 0.0,
                "data_repair: group " << g.name << " has empty weight box");
    TML_REQUIRE(g.target_weight >= 0.0 && g.target_weight <= g.max_weight,
                "data_repair: group " << g.name
                    << " target weight outside its box");
    double w = 0.0;
    for (std::size_t i : g.members) w += data.weight(i);
    effort_weight.push_back(std::max(w, 1.0));
    target_weight.push_back(g.target_weight);
    lower_box.push_back(g.target_weight == 0.0 ? 0.0 : config.min_keep);
    upper_box.push_back(g.max_weight);
  }
  TML_REQUIRE(effort_weight.size() == dim,
              "data_repair: group bookkeeping mismatch");

  Problem problem;
  problem.dimension = dim;
  problem.objective = [effort_weight,
                       target_weight](std::span<const double> p) {
    double acc = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double d = target_weight[i] - p[i];
      acc += effort_weight[i] * d * d;
    }
    return acc;
  };
  problem.objective_gradient = [effort_weight, target_weight](
                                   std::span<const double> p) {
    std::vector<double> g(p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      g[i] = -2.0 * effort_weight[i] * (target_weight[i] - p[i]);
    }
    return g;
  };
  problem.constraints.push_back(term.constraint());
  problem.box.lower = lower_box;
  problem.box.upper = upper_box;

  const SolveOutcome outcome = solve(problem, config.solver);
  result.status = outcome.status;
  result.keep_weights = outcome.x;
  result.best_violation = outcome.max_violation;
  result.drop_fractions.clear();
  for (double p : outcome.x) result.drop_fractions.push_back(1.0 - p);
  if (!outcome.x.empty()) {
    result.achieved = term.evaluate(outcome.x);
    result.status =
        judge_repair(outcome.status, term.satisfied_by(result.achieved));
  }
  if (result.status == SolveStatus::kOptimal) {
    result.effort = problem.objective(outcome.x);
    // Re-learn from the repaired data with concrete weights and re-check
    // numerically (independent certificate).
    result.relearned = mle.chain.instantiate(outcome.x);
    result.recheck_passed = check(*result.relearned, property).satisfied;
  }
  return result;
}

}  // namespace tml
