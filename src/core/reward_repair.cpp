#include "src/core/reward_repair.hpp"

#include <cmath>

#include "src/mdp/simulate.hpp"
#include "src/mdp/solver.hpp"

namespace tml {

namespace {

/// Samples trajectories from the soft policy of (mdp, theta).
std::vector<Trajectory> sample_soft_trajectories(
    const Mdp& mdp, const StateFeatures& features,
    std::span<const double> theta, std::size_t horizon, std::size_t count,
    Rng& rng) {
  const std::vector<double> rewards = features.rewards(theta);
  const SoftPolicy soft = soft_value_iteration(mdp, rewards, horizon);

  std::vector<Trajectory> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Trajectory trajectory;
    trajectory.initial_state = mdp.initial_state();
    StateId current = mdp.initial_state();
    for (std::size_t t = 0; t < horizon; ++t) {
      const auto& probs = soft.pi[t][current];
      const std::uint32_t c =
          static_cast<std::uint32_t>(rng.categorical(probs));
      const Choice& choice = mdp.choices(current)[c];
      std::vector<double> weights;
      weights.reserve(choice.transitions.size());
      for (const Transition& tr : choice.transitions) {
        weights.push_back(tr.probability);
      }
      const StateId next =
          choice.transitions[rng.categorical(weights)].target;
      trajectory.steps.push_back(Step{current, c, choice.action, next});
      current = next;
    }
    out.push_back(std::move(trajectory));
  }
  return out;
}

double rule_penalty(const Mdp& mdp, const Trajectory& trajectory,
                    const std::vector<WeightedRule>& rules) {
  double penalty = 0.0;
  for (const WeightedRule& r : rules) {
    if (!r.rule->holds(mdp, trajectory)) penalty += r.lambda;
  }
  return penalty;
}

}  // namespace

ProjectionResult reward_repair_projection(const Mdp& mdp,
                                          const StateFeatures& features,
                                          std::span<const double> theta,
                                          const std::vector<WeightedRule>& rules,
                                          const ProjectionConfig& config) {
  mdp.validate();
  TML_REQUIRE(!rules.empty(), "reward_repair_projection: no rules given");
  for (const WeightedRule& r : rules) {
    TML_REQUIRE(r.rule != nullptr, "reward_repair_projection: null rule");
    TML_REQUIRE(r.lambda >= 0.0, "reward_repair_projection: negative lambda");
  }

  ProjectionResult result;
  result.theta_before.assign(theta.begin(), theta.end());

  Rng rng(config.seed);
  const std::vector<Trajectory> samples = sample_soft_trajectories(
      mdp, features, theta, config.horizon, config.num_samples, rng);

  // Importance weights w(U) ∝ exp(−Σ λ_l [1 − φ_l(U)]): Q = w·P / Z.
  std::vector<double> weights(samples.size(), 0.0);
  result.satisfaction_before.assign(rules.size(), 0.0);
  double z = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    for (std::size_t l = 0; l < rules.size(); ++l) {
      if (rules[l].rule->holds(mdp, samples[i])) {
        result.satisfaction_before[l] += 1.0;
      }
    }
    weights[i] = std::exp(-rule_penalty(mdp, samples[i], rules));
    z += weights[i];
  }
  for (double& s : result.satisfaction_before) {
    s /= static_cast<double>(samples.size());
  }
  TML_REQUIRE(z > 0.0,
              "reward_repair_projection: all sampled trajectories have zero "
              "projected mass — lambdas too large for the sample");

  // Satisfaction under Q and KL(Q ‖ P) = E_Q[log(w/Z·N)]… with
  // w_i = exp(−pen_i) and Q_i = w_i / Σ w_j (uniform-over-samples base),
  // KL(Q‖P) = Σ Q_i · (log w_i − log(Z/N)).
  result.satisfaction_after.assign(rules.size(), 0.0);
  const double log_mean_w = std::log(z / static_cast<double>(samples.size()));
  double kl = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double q = weights[i] / z;
    if (q > 0.0) {
      kl += q * (std::log(weights[i]) - log_mean_w);
    }
    for (std::size_t l = 0; l < rules.size(); ++l) {
      if (rules[l].rule->holds(mdp, samples[i])) {
        result.satisfaction_after[l] += q;
      }
    }
  }
  result.kl_divergence = kl;

  // E_Q[f(U)] via the importance weights (departure convention, matching
  // src/irl).
  std::vector<double> target(features.dim(), 0.0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double q = weights[i] / z;
    if (q == 0.0) continue;
    for (const Step& step : samples[i].steps) {
      const auto& row = features.row(step.state);
      for (std::size_t k = 0; k < target.size(); ++k) {
        target[k] += q * row[k];
      }
    }
  }

  // Re-estimate Θ' from Q's feature expectations (R' in the paper).
  IrlOptions refit = config.refit;
  refit.horizon = config.horizon;
  const IrlResult fit = fit_to_feature_counts(
      mdp, features, target, refit, result.theta_before);
  result.theta_after = fit.theta;
  result.refit_converged = fit.converged;

  // Validate: sample from the repaired reward's soft policy and measure
  // rule satisfaction.
  const std::vector<Trajectory> repaired_samples = sample_soft_trajectories(
      mdp, features, result.theta_after, config.horizon,
      std::max<std::size_t>(config.num_samples / 2, 1), rng);
  result.satisfaction_repaired.assign(rules.size(), 0.0);
  for (const Trajectory& u : repaired_samples) {
    for (std::size_t l = 0; l < rules.size(); ++l) {
      if (rules[l].rule->holds(mdp, u)) result.satisfaction_repaired[l] += 1.0;
    }
  }
  for (double& s : result.satisfaction_repaired) {
    s /= static_cast<double>(repaired_samples.size());
  }
  return result;
}

Policy optimal_policy_for_theta(const Mdp& mdp, const StateFeatures& features,
                                std::span<const double> theta,
                                double discount) {
  const CompiledModel rewarded =
      compile(with_linear_reward(mdp, features, theta));
  return value_iteration_discounted(rewarded, discount, Objective::kMaximize)
      .policy;
}

QRepairResult reward_repair_q_constraints(
    const Mdp& mdp, const StateFeatures& features,
    std::span<const double> theta,
    const std::vector<QDominanceConstraint>& constraints,
    const QRepairConfig& config) {
  mdp.validate();
  TML_REQUIRE(!constraints.empty(),
              "reward_repair_q_constraints: no constraints given");
  for (const QDominanceConstraint& c : constraints) {
    TML_REQUIRE(c.state < mdp.num_states(),
                "reward_repair_q_constraints: state out of range");
    const std::size_t n = mdp.choices(c.state).size();
    TML_REQUIRE(c.preferred_choice < n && c.dominated_choice < n,
                "reward_repair_q_constraints: choice out of range");
  }

  QRepairResult result;
  result.theta_before.assign(theta.begin(), theta.end());
  result.policy_before =
      optimal_policy_for_theta(mdp, features, theta, config.discount);

  const std::size_t dim = theta.size();

  // Evaluate Q(s, ·) under a candidate Θ' by running VI.
  auto q_table = [&](std::span<const double> candidate) {
    const CompiledModel rewarded =
        compile(with_linear_reward(mdp, features, candidate));
    const SolveResult vi = value_iteration_discounted(
        rewarded, config.discount, Objective::kMaximize);
    return q_values_discounted(rewarded, vi.values, config.discount);
  };

  Problem problem;
  problem.dimension = dim;
  const std::vector<double> theta0(theta.begin(), theta.end());
  problem.objective = [theta0](std::span<const double> x) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - theta0[i];
      acc += d * d;
    }
    return acc;
  };
  for (const QDominanceConstraint& c : constraints) {
    problem.constraints.push_back(Constraint{
        "Q(s" + std::to_string(c.state) + "," +
            std::to_string(c.preferred_choice) + ") >= Q(s" +
            std::to_string(c.state) + "," +
            std::to_string(c.dominated_choice) + ")",
        [q_table, c](std::span<const double> x) {
          const auto q = q_table(x);
          return q[c.state][c.dominated_choice] + c.margin -
                 q[c.state][c.preferred_choice];
        },
        nullptr /* numeric gradient */});
  }
  problem.box.lower.resize(dim);
  problem.box.upper.resize(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    problem.box.lower[i] = theta0[i] - config.max_weight_change;
    problem.box.upper[i] = theta0[i] + config.max_weight_change;
  }
  for (std::size_t i : config.frozen) {
    TML_REQUIRE(i < dim, "reward_repair_q_constraints: frozen index "
                             << i << " out of range");
    problem.box.lower[i] = theta0[i];
    problem.box.upper[i] = theta0[i];
  }

  SolveOptions solver = config.solver;
  // VI-in-the-loop constraints are noisy for finite differences near policy
  // switches; Nelder–Mead is the robust default unless overridden.
  if (solver.algorithm == Algorithm::kPenalty &&
      config.solver.max_inner_iterations == SolveOptions{}.max_inner_iterations &&
      config.solver.num_starts == SolveOptions{}.num_starts) {
    solver.algorithm = Algorithm::kNelderMead;
    solver.max_inner_iterations = 400;
  }

  // Start from Θ itself in addition to the multi-start driver's points.
  SolveOutcome best = solve_local(problem, theta0, solver);
  const SolveOutcome multi = solve(problem, solver);
  const bool multi_better =
      (multi.status == SolveStatus::kOptimal &&
       (best.status != SolveStatus::kOptimal ||
        multi.objective < best.objective)) ||
      (best.status != SolveStatus::kOptimal &&
       multi.max_violation < best.max_violation);
  if (multi_better) best = multi;

  result.status = best.status;
  result.theta_after = best.x;
  if (best.status == SolveStatus::kOptimal) {
    result.cost = best.objective;
    result.policy_after =
        optimal_policy_for_theta(mdp, features, best.x, config.discount);
    const auto q = q_table(best.x);
    for (const QDominanceConstraint& c : constraints) {
      result.constraint_slack.push_back(q[c.state][c.preferred_choice] -
                                        q[c.state][c.dominated_choice]);
    }
  }
  return result;
}

}  // namespace tml
