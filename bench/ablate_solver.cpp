// Ablation: NLP algorithm choice (the AMPL substitute, DESIGN.md §3) on
// the repair problems — the SQP/KKT solve the repairs run, and the
// multistart penalty, augmented-Lagrangian and Nelder–Mead solvers it falls
// back to.
//
// Reported per algorithm on the WSN Model Repair NLP (the closed form from
// parametric model checking under the same margined constraint
// model_repair builds) and on a raw two-variable NLP: status, cost,
// constraint value, iterations, and the KKT residual with whether
// minimality is certified. All should agree on feasible/infeasible
// verdicts; only the KKT solve certifies its point.

#include <cmath>
#include <functional>
#include <iostream>

#include "src/casestudies/wsn.hpp"
#include "src/common/table.hpp"
#include "src/core/model_repair.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/solver.hpp"
#include "src/opt/kkt.hpp"

using namespace tml;

namespace {

Problem l2_problem(std::size_t dim) {
  Problem problem;
  problem.dimension = dim;
  problem.objective = [](std::span<const double> v) {
    double acc = 0.0;
    for (double x : v) acc += x * x;
    return acc;
  };
  problem.objective_gradient = [](std::span<const double> v) {
    std::vector<double> g(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) g[i] = 2.0 * v[i];
    return g;
  };
  problem.objective_hessian_diagonal.assign(dim, 2.0);
  return problem;
}

std::string residual_text(const SolveOutcome& out) {
  return std::isfinite(out.kkt_residual) ? format_double(out.kkt_residual, 2)
                                         : "-";
}

/// One row per algorithm: "kkt" is solve_repair from the nominal point 0
/// (what the repairs run), the others the multistart solve() alone.
void add_rows(Table& table, const Problem& problem,
              const std::function<double(std::span<const double>)>& achieved) {
  const std::vector<double> nominal(problem.dimension, 0.0);
  const auto row = [&](const std::string& name, const SolveOutcome& out) {
    table.add_row({name, to_string(out.status),
                   out.status == SolveStatus::kOptimal
                       ? format_double(out.objective, 6)
                       : "-",
                   out.x.empty() ? "-" : format_double(achieved(out.x), 6),
                   std::to_string(out.iterations), residual_text(out),
                   out.minimality_certified ? "yes" : "no"});
  };
  row("kkt", solve_repair(problem, nominal, SolveOptions{}));
  for (const Algorithm algorithm :
       {Algorithm::kPenalty, Algorithm::kAugmentedLagrangian,
        Algorithm::kNelderMead}) {
    SolveOptions options;
    options.algorithm = algorithm;
    row(to_string(algorithm), solve(problem, options));
  }
}

}  // namespace

int main() {
  const WsnConfig config;
  const Mdp mdp = build_wsn_mdp(config);
  const StateSet delivered = mdp.states_with_label("delivered");
  const Policy routing =
      total_reward_to_target(compile(mdp), delivered, Objective::kMinimize)
          .policy;
  const Dtmc induced = mdp.induced_dtmc(routing);

  std::cout << "=== Ablation: NLP solver on the repair problems ===\n\n";
  const std::vector<std::string> columns{
      "algorithm", "status", "cost g(v)", "f(v)", "iterations",
      "KKT residual", "certified minimal"};

  for (const double x : {40.0, 19.0}) {
    const StateFormulaPtr property =
        parse_pctl("R<=" + format_double(x, 4) + " [ F \"delivered\" ]");
    std::cout << "problem: WSN model repair, " << property->to_string()
              << "\n";
    const PerturbationScheme scheme = wsn_perturbation(config, induced, 0.08);
    const ModelRepairConfig defaults;
    const PerturbationScheme::Built built =
        scheme.build(defaults.probability_margin);
    const RepairConstraint term(
        *property,
        parametric_property_function(built.chain, scheme.base(), *property,
                                     defaults.elimination),
        built.variables, defaults.constraint_margin, defaults.solver);
    Problem problem = l2_problem(2);
    problem.constraints.push_back(term.constraint());
    problem.box.lower = built.lower;
    problem.box.upper = built.upper;
    Table table(columns);
    add_rows(table, problem,
             [&](std::span<const double> v) { return term.evaluate(v); });
    std::cout << table.to_string() << "\n";
  }

  std::cout << "problem: raw NLP (min p^2+q^2 s.t. 4/(0.08+p) + 1/(0.06+q) "
               "<= 40, box [0, 0.08]^2)\n";
  const auto attempts = [](std::span<const double> v) {
    return 4.0 / (0.08 + v[0]) + 1.0 / (0.06 + v[1]);
  };
  Problem raw = l2_problem(2);
  raw.constraints.push_back(Constraint{
      "attempts",
      [&](std::span<const double> v) { return attempts(v) - 40.0; },
      [](std::span<const double> v) {
        return std::vector<double>{-4.0 / ((0.08 + v[0]) * (0.08 + v[0])),
                                   -1.0 / ((0.06 + v[1]) * (0.06 + v[1]))};
      }});
  raw.box = Box::uniform(2, 0.0, 0.08);
  Table table(columns);
  add_rows(table, raw, attempts);
  std::cout << table.to_string();
  std::cout << "\nreading: all algorithms agree on the feasibility verdicts "
               "(the observable the paper relies on); the KKT solve lands on "
               "the constraint boundary in a few iterations and certifies "
               "the minimum, the multistart solvers stop on their iteration "
               "caps near it.\n";
  return 0;
}
