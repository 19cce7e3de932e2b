#include "src/mdp/solver.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "src/common/matrix.hpp"
#include "src/common/parallel.hpp"
#include "src/common/stats.hpp"
#include "src/mdp/bellman.hpp"
#include "src/mdp/graph.hpp"

namespace tml {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Q-value of global choice c of state s over the CSR columns.
double choice_q(const CompiledModel& m, StateId s, std::uint32_t c,
                std::span<const double> values, double discount) {
  const auto& choice_start = m.choice_start();
  const auto& target = m.target();
  const auto& prob = m.prob();
  double q = m.state_reward(s) + m.choice_reward(c);
  for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
    if (std::isinf(values[target[k]])) return kInf;
    q += discount * prob[k] * values[target[k]];
  }
  return q;
}

bool better(double a, double b, Objective objective) {
  return objective == Objective::kMaximize ? a > b : a < b;
}

}  // namespace

void require_finished(const SolveResult& result, const char* engine,
                      std::optional<Bracket> bracket) {
  if (result.budget_status != BudgetStatus::kBudgetExhausted) return;
  throw BudgetExhausted(std::string(engine) + ": budget exhausted (" +
                            to_string(result.budget_stop) + ") after " +
                            std::to_string(result.iterations) + " sweeps",
                        result.budget_stop, bracket);
}

SolveResult value_iteration_discounted(const CompiledModel& model,
                                       double discount, Objective objective,
                                       const SolverOptions& options) {
  TML_REQUIRE(discount > 0.0 && discount < 1.0,
              "value_iteration_discounted: discount must be in (0,1), got "
                  << discount);
  const std::size_t n = model.num_states();
  SolveResult result;
  result.values.assign(n, 0.0);
  result.policy.choice_index.assign(n, 0);
  // Warm seed: the discounted Bellman operator is a γ-contraction with a
  // unique fixpoint, so ANY finite seed converges to the same values — a
  // previous solution after a small perturbation just gets there in far
  // fewer sweeps. No certification needed (unlike the undiscounted
  // reachability engines).
  if (options.warm != nullptr && options.warm->values.size() == n) {
    result.values = options.warm->values;
  }
  iterate_to_fixpoint(
      "value_iteration_discounted", options, &result,
      [&](std::size_t begin, std::size_t end, std::span<const double> values,
          std::vector<double>& next) {
        double local = 0.0;
        for (StateId s = begin; s < end; ++s) {
          const BestChoice best =
              best_choice(model, s, objective, [&](std::uint32_t c) {
                return choice_q(model, s, c, values, discount);
              });
          next[s] = best.value;
          result.policy.choice_index[s] = best.choice;
          local = std::max(local, std::abs(next[s] - values[s]));
        }
        return local;
      });
  return result;
}

SolveResult policy_iteration_discounted(const CompiledModel& model,
                                        double discount, Objective objective,
                                        const SolverOptions& options) {
  TML_REQUIRE(discount > 0.0 && discount < 1.0,
              "policy_iteration_discounted: discount must be in (0,1)");
  const std::size_t n = model.num_states();
  const auto& row_start = model.row_start();
  SolveResult result;
  result.policy.choice_index.assign(n, 0);

  BudgetTracker tracker(options.budget);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    if (!tracker.tick()) {
      result.budget_status = BudgetStatus::kBudgetExhausted;
      result.budget_stop = tracker.stop();
      if (result.values.empty()) {
        // Budget fired before the first evaluation: still return a
        // well-formed (all-zero) value vector for the initial policy.
        result.values.assign(n, 0.0);
      }
      break;
    }
    result.iterations = iter + 1;
    // Exact evaluation of the current policy.
    result.values = evaluate_policy_discounted(model, result.policy, discount);
    // Greedy improvement (per-state, against the fixed evaluation — chunks
    // are independent).
    Policy improved = result.policy;
    parallel_for(
        0, n, kDefaultGrain,
        [&](std::size_t chunk_begin, std::size_t chunk_end) {
          for (StateId s = chunk_begin; s < chunk_end; ++s) {
            const std::uint32_t begin = row_start[s];
            const std::uint32_t end = row_start[s + 1];
            double best = choice_q(model, s, begin + result.policy.at(s),
                                   result.values, discount);
            for (std::uint32_t c = begin; c < end; ++c) {
              const double q = choice_q(model, s, c, result.values, discount);
              // Strict improvement with a tolerance guard against cycling.
              if (objective == Objective::kMaximize ? q > best + 1e-12
                                                    : q < best - 1e-12) {
                best = q;
                improved.choice_index[s] = c - begin;
              }
            }
          }
        },
        options.threads);
    if (improved.choice_index == result.policy.choice_index) {
      result.converged = true;
      break;
    }
    result.policy = std::move(improved);
  }
  static stats::Counter& c_pi_iters = stats::counter("checker.pi.iterations");
  c_pi_iters.add(result.iterations);
  if (result.converged || result.budget_status == BudgetStatus::kBudgetExhausted) {
    return result;
  }
  if (options.throw_on_nonconvergence) {
    throw NumericError("policy_iteration_discounted: no convergence after " +
                       std::to_string(result.iterations) + " iterations");
  }
  return result;
}

SolveResult total_reward_to_target(const CompiledModel& model,
                                   const StateSet& targets,
                                   Objective objective,
                                   const SolverOptions& options) {
  TML_REQUIRE(targets.size() == model.num_states(),
              "total_reward_to_target: target set size mismatch");
  const std::size_t n = model.num_states();

  // Finite-value region: Rmin needs some scheduler reaching almost surely
  // (Prob1E, the Pmax one-set); Rmax needs all schedulers reaching almost
  // surely (Prob1A, the Pmin one-set) — PRISM semantics, where a path
  // missing the target carries infinite reward.
  const StateSet finite =
      reach_prob01(model, targets,
                   objective == Objective::kMinimize ? Objective::kMaximize
                                                     : Objective::kMinimize)
          .one;

  SolveResult result;
  result.values.assign(n, 0.0);
  result.policy.choice_index.assign(n, 0);
  for (StateId s = 0; s < n; ++s) {
    if (!finite[s]) result.values[s] = kInf;
    if (targets[s]) result.values[s] = 0.0;
  }

  iterate_to_fixpoint(
      "total_reward_to_target", options, &result,
      [&](std::size_t begin, std::size_t end, std::span<const double> values,
          std::vector<double>& next) {
        double local = 0.0;
        for (StateId s = begin; s < end; ++s) {
          if (targets[s] || !finite[s]) continue;
          const BestChoice best =
              best_choice(model, s, objective, [&](std::uint32_t c) {
                return choice_q(model, s, c, values, 1.0);
              });
          next[s] = best.value;
          result.policy.choice_index[s] = best.choice;
          if (std::isfinite(best.value) && std::isfinite(values[s])) {
            local = std::max(local, std::abs(next[s] - values[s]));
          } else if (std::isinf(best.value) != std::isinf(values[s])) {
            local = kInf;
          }
        }
        return local;
      });
  return result;
}

std::vector<std::vector<double>> q_values_discounted(
    const CompiledModel& model, std::span<const double> values,
    double discount, std::size_t threads) {
  TML_REQUIRE(values.size() == model.num_states(),
              "q_values_discounted: value vector size mismatch");
  const auto& row_start = model.row_start();
  std::vector<std::vector<double>> q(model.num_states());
  parallel_for(
      0, model.num_states(), kDefaultGrain,
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        for (StateId s = chunk_begin; s < chunk_end; ++s) {
          const std::uint32_t begin = row_start[s];
          const std::uint32_t end = row_start[s + 1];
          q[s].resize(end - begin);
          for (std::uint32_t c = begin; c < end; ++c) {
            q[s][c - begin] = choice_q(model, s, c, values, discount);
          }
        }
      },
      threads);
  return q;
}

Policy greedy_policy(const std::vector<std::vector<double>>& q,
                     Objective objective) {
  Policy policy;
  policy.choice_index.resize(q.size());
  for (std::size_t s = 0; s < q.size(); ++s) {
    TML_REQUIRE(!q[s].empty(), "greedy_policy: state " << s << " has no Q row");
    std::uint32_t best = 0;
    for (std::uint32_t c = 1; c < q[s].size(); ++c) {
      if (better(q[s][c], q[s][best], objective)) best = c;
    }
    policy.choice_index[s] = best;
  }
  return policy;
}

std::vector<double> evaluate_policy_discounted(const CompiledModel& model,
                                               const Policy& policy,
                                               double discount) {
  TML_REQUIRE(discount > 0.0 && discount < 1.0,
              "evaluate_policy_discounted: discount out of (0,1)");
  TML_REQUIRE(policy.choice_index.size() == model.num_states(),
              "evaluate_policy_discounted: policy size mismatch");
  const std::size_t n = model.num_states();
  const auto& row_start = model.row_start();
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();
  // Solve (I − γP) v = r over the policy-selected rows.
  Matrix a = Matrix::identity(n);
  std::vector<double> b(n);
  for (StateId s = 0; s < n; ++s) {
    const std::uint32_t c = row_start[s] + policy.at(s);
    TML_REQUIRE(c < row_start[s + 1],
                "evaluate_policy_discounted: policy chooses missing choice "
                    << policy.at(s) << " in state " << s);
    b[s] = model.state_reward(s) + model.choice_reward(c);
    for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
      a(s, target[k]) -= discount * prob[k];
    }
  }
  return solve_linear_system(std::move(a), std::move(b));
}

std::vector<double> dtmc_total_reward(const CompiledModel& model,
                                      const StateSet& targets) {
  TML_REQUIRE(model.deterministic(),
              "dtmc_total_reward: compiled model is not a DTMC");
  TML_REQUIRE(targets.size() == model.num_states(),
              "dtmc_total_reward: target set size mismatch");
  const std::size_t n = model.num_states();
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();
  const StateSet certain =
      reach_prob01(model, targets, Objective::kMinimize).one;

  // Unknowns: non-target states that reach the target almost surely. Such
  // states only transition into other almost-sure states, so the restricted
  // system is closed.
  std::vector<int> index(n, -1);
  std::vector<StateId> unknowns;
  for (StateId s = 0; s < n; ++s) {
    if (certain[s] && !targets[s]) {
      index[s] = static_cast<int>(unknowns.size());
      unknowns.push_back(s);
    }
  }

  std::vector<double> values(n, kInf);
  for (StateId s = 0; s < n; ++s) {
    if (targets[s]) values[s] = 0.0;
  }
  if (unknowns.empty()) return values;

  Matrix a = Matrix::identity(unknowns.size());
  std::vector<double> b(unknowns.size());
  for (std::size_t i = 0; i < unknowns.size(); ++i) {
    const StateId s = unknowns[i];
    b[i] = model.state_reward(s);
    for (std::uint32_t k = choice_start[s]; k < choice_start[s + 1]; ++k) {
      if (targets[target[k]]) continue;  // pinned to 0
      TML_ASSERT(index[target[k]] >= 0,
                 "dtmc_total_reward: almost-sure state leaks into "
                 "non-almost-sure state "
                     << target[k]);
      a(i, static_cast<std::size_t>(index[target[k]])) -= prob[k];
    }
  }
  const std::vector<double> x = solve_linear_system(std::move(a), std::move(b));
  for (std::size_t i = 0; i < unknowns.size(); ++i) values[unknowns[i]] = x[i];
  return values;
}

std::vector<double> dtmc_reachability(const CompiledModel& model,
                                      const StateSet& targets) {
  TML_REQUIRE(model.deterministic(),
              "dtmc_reachability: compiled model is not a DTMC");
  TML_REQUIRE(targets.size() == model.num_states(),
              "dtmc_reachability: target set size mismatch");
  const std::size_t n = model.num_states();
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();
  const auto [zero, one] = reach_prob01(model, targets, Objective::kMinimize);

  std::vector<int> index(n, -1);
  std::vector<StateId> unknowns;
  for (StateId s = 0; s < n; ++s) {
    if (!zero[s] && !one[s]) {
      index[s] = static_cast<int>(unknowns.size());
      unknowns.push_back(s);
    }
  }

  std::vector<double> values(n, 0.0);
  for (StateId s = 0; s < n; ++s) {
    if (one[s]) values[s] = 1.0;
  }
  if (unknowns.empty()) return values;

  Matrix a = Matrix::identity(unknowns.size());
  std::vector<double> b(unknowns.size(), 0.0);
  for (std::size_t i = 0; i < unknowns.size(); ++i) {
    const StateId s = unknowns[i];
    for (std::uint32_t k = choice_start[s]; k < choice_start[s + 1]; ++k) {
      if (one[target[k]]) {
        b[i] += prob[k];
      } else if (!zero[target[k]]) {
        a(i, static_cast<std::size_t>(index[target[k]])) -= prob[k];
      }
    }
  }
  const std::vector<double> x = solve_linear_system(std::move(a), std::move(b));
  for (std::size_t i = 0; i < unknowns.size(); ++i) values[unknowns[i]] = x[i];
  return values;
}

}  // namespace tml
