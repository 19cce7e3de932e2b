#include "src/mdp/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "src/common/fault.hpp"
#include "src/common/parallel.hpp"
#include "src/common/stats.hpp"
#include "src/mdp/bellman.hpp"
#include "src/mdp/graph.hpp"

namespace tml {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

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

/// Global choice of each state of a DTMC (its only one).
std::span<const std::uint32_t> dtmc_rows(const CompiledModel& model) {
  return std::span<const std::uint32_t>(model.row_start())
      .first(model.num_states());
}

/// Solves the one-choice system x_s = r_s + γ·Σ_t P(t|choice[s])·x_t for
/// the states in `unknowns`, where r_s is the state plus choice reward when
/// `rewards` (else 0) and every successor outside `unknowns` contributes
/// its fixed entry of `values`. The matrix I − γ·P over the unknowns must
/// be a nonsingular M-matrix: the unknowns transient, or γ < 1. Returns
/// `values` with the solution written in. With `certify`, lo/hi carry the
/// bracket documented at dtmc_reachability_bracket (±inf where the check
/// on h fails; exact outside the unknowns).
SolveResult solve_one_choice(const CompiledModel& model,
                             std::span<const std::uint32_t> choice,
                             const std::vector<StateId>& unknowns,
                             std::vector<double> values, bool rewards,
                             double discount, const Budget& budget,
                             bool certify) {
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();
  const std::size_t m = unknowns.size();
  std::vector<std::uint32_t> index(model.num_states(), kNone);
  for (std::uint32_t i = 0; i < m; ++i) index[unknowns[i]] = i;
  const auto reward = [&](StateId s) {
    return rewards ? model.state_reward(s) + model.choice_reward(choice[s])
                   : 0.0;
  };

  SolveResult result;
  result.converged = true;
  // A = I − γ·P over the unknowns; b = r + γ·P·(fixed successors). Edges
  // of probability 0 are skipped: they contribute exactly 0, even from a
  // successor whose fixed value is +inf.
  SparseMatrix a;
  std::vector<double> b(m);
  for (std::uint32_t i = 0; i < m; ++i) {
    const StateId s = unknowns[i];
    const std::uint32_t c = choice[s];
    a.add(i, 1.0);
    b[i] = reward(s);
    for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
      const double p = discount * prob[k];
      if (p == 0.0) continue;
      if (index[target[k]] != kNone) {
        a.add(index[target[k]], -p);
      } else {
        b[i] += p * values[target[k]];
      }
    }
    a.end_row();
  }
  const EnvelopeLU lu(a, budget);
  const std::vector<double> x = lu.solve(b);
  for (std::uint32_t i = 0; i < m; ++i) values[unknowns[i]] = x[i];
  if (!certify) {
    result.values = std::move(values);
    return result;
  }

  // δ bounds the residual F(x) − x of one Bellman application, and
  // `excess` the residual of h = 1 + γ·P·h, each with a rounding term of
  // (d + 3)·ε_mach times the magnitudes summed in its row of d entries.
  const std::vector<double> h = lu.solve(std::vector<double>(m, 1.0));
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  double delta = 0.0;
  double excess = 0.0;
  for (std::uint32_t i = 0; i < m; ++i) {
    const StateId s = unknowns[i];
    const std::uint32_t c = choice[s];
    double r = reward(s) - values[s];
    double r_mag = std::abs(reward(s)) + std::abs(values[s]);
    double e = 1.0 - h[i];
    double e_mag = 1.0 + std::abs(h[i]);
    for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
      const double p = discount * prob[k];
      if (p == 0.0) continue;
      const double term = p * values[target[k]];
      r += term;
      r_mag += std::abs(term);
      if (index[target[k]] != kNone) {
        const double step = p * h[index[target[k]]];
        e += step;
        e_mag += std::abs(step);
      }
    }
    const double rounding =
        static_cast<double>(choice_start[c + 1] - choice_start[c] + 3) * kEps;
    delta = std::max(delta, std::abs(r) + rounding * r_mag);
    excess = std::max(excess, e + rounding * e_mag);
  }
  // h ≤ h̃ + excess·h, so h ≤ h̃ / (1 − excess) when excess < 1.
  const bool bounded = excess < 1.0 && std::isfinite(delta);
  result.lo = values;
  result.hi = values;
  for (std::uint32_t i = 0; i < m; ++i) {
    const StateId s = unknowns[i];
    const double radius =
        bounded ? delta * h[i] / (1.0 - excess) * (1.0 + 8.0 * kEps) : kInf;
    result.lo[s] = std::nextafter(values[s] - radius, -kInf);
    result.hi[s] = std::nextafter(values[s] + radius, kInf);
  }
  result.values = std::move(values);
  return result;
}

/// Rmin's zero-reward end components inside `region` (the finite,
/// non-target states). A scheduler can cycle in one forever at no cost, so
/// value iteration from 0 stalls at 0 there, while every scheduler that
/// reaches the target pays at least the component's cheapest exit.
/// Committing to exit choice c of member s — part of its mass p_out(c)
/// leaves — and walking back to s for free costs
/// (r(s) + r(c) + Σ_{t outside} p(t)·v(t)) / p_out(c): the best-exit form
/// reach_interval uses for Pmax. Empty when the region has no zero-reward
/// choice, so models that reward every step skip the analysis.
struct ZeroRewardComponents {
  struct Exit {
    StateId state;
    std::uint32_t choice;
  };
  const CompiledModel& model;
  Bitset free;                    ///< zero-reward choices
  std::vector<std::uint32_t> of;  ///< component of each state, or kNone
  std::vector<std::vector<StateId>> members;
  /// Per component; never empty, since some scheduler leads every state
  /// of the region to the targets almost surely.
  std::vector<std::vector<Exit>> exits;

  ZeroRewardComponents(const CompiledModel& m, const StateSet& region)
      : model(m), free(m.num_choices(), false), of(m.num_states(), kNone) {
    // Only a state with a zero-reward choice can belong to a component.
    StateSet candidates(model.num_states(), false);
    for (StateId s = 0; s < model.num_states(); ++s) {
      for (std::uint32_t c = model.first_choice(s);
           region[s] && c < model.last_choice(s); ++c) {
        if (model.state_reward(s) + model.choice_reward(c) == 0.0) {
          free.set(c);
          candidates.set(s);
        }
      }
    }
    if (candidates.none()) return;
    members = maximal_end_components(model, candidates, &free);
    exits.resize(members.size());
    for (std::uint32_t i = 0; i < members.size(); ++i) {
      for (StateId s : members[i]) of[s] = i;
      for (StateId s : members[i]) {
        for (std::uint32_t c = model.first_choice(s); c < model.last_choice(s);
             ++c) {
          if (!inside(i, c)) exits[i].push_back(Exit{s, c});
        }
      }
    }
  }

  /// Whether choice c keeps all its mass in component i.
  bool inside(std::uint32_t i, std::uint32_t c) const {
    for (std::uint32_t k = model.choice_start()[c];
         k < model.choice_start()[c + 1]; ++k) {
      if (model.prob()[k] > 0.0 && of[model.target()[k]] != i) return false;
    }
    return true;
  }

  /// The cheapest exit of component i and its cost (+inf when every exit
  /// can reach an infinite-valued state); the first exit on ties.
  std::pair<double, Exit> best_exit(std::uint32_t i,
                                    std::span<const double> values) const {
    std::pair<double, Exit> best{kInf, exits[i].front()};
    for (const Exit& e : exits[i]) {
      double cost = model.state_reward(e.state) + model.choice_reward(e.choice);
      double out = 0.0;
      for (std::uint32_t k = model.choice_start()[e.choice];
           k < model.choice_start()[e.choice + 1] && cost < kInf; ++k) {
        const StateId t = model.target()[k];
        if (model.prob()[k] == 0.0 || of[t] == i) continue;
        out += model.prob()[k];
        cost += model.prob()[k] * values[t];
      }
      if (cost / out < best.first) best = {cost / out, e};
    }
    return best;
  }

  /// A policy that realizes each component's value: its best exit at the
  /// exit's state, and at every other member a zero-reward choice staying
  /// in the component with an edge toward a member already assigned, so
  /// the walk reaches the exit state almost surely.
  void fix_policy(std::span<const double> values, Policy& policy) const {
    Bitset assigned(model.num_states(), false);
    for (std::uint32_t i = 0; i < members.size(); ++i) {
      const Exit exit = best_exit(i, values).second;
      policy.choice_index[exit.state] =
          exit.choice - model.first_choice(exit.state);
      assigned.set(exit.state);
      for (bool changed = true; changed;) {
        changed = false;
        for (StateId s : members[i]) {
          for (std::uint32_t c = model.first_choice(s);
               !assigned[s] && c < model.last_choice(s); ++c) {
            if (!free[c] || !inside(i, c)) continue;
            for (std::uint32_t k = model.choice_start()[c];
                 k < model.choice_start()[c + 1]; ++k) {
              if (model.prob()[k] > 0.0 && assigned[model.target()[k]]) {
                policy.choice_index[s] = c - model.first_choice(s);
                assigned.set(s);
                changed = true;
                break;
              }
            }
          }
        }
      }
    }
  }
};

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
  // Rmax's finite region has no end component outside the targets (every
  // scheduler reaches them almost surely); Rmin's may, at zero reward.
  // `plain` holds the states the ordinary Bellman step updates.
  StateSet plain = set_intersection(finite, complement(targets));
  const ZeroRewardComponents components(
      model, objective == Objective::kMinimize ? plain : StateSet(n, false));
  for (const auto& members : components.members) {
    for (StateId s : members) plain.set(s, false);
  }

  iterate_to_fixpoint(
      "total_reward_to_target", options, &result,
      [&](std::size_t begin, std::size_t end, std::span<const double> values,
          std::vector<double>& next) {
        double local = 0.0;
        // Members of one component are usually adjacent: cache its value.
        std::uint32_t cached = kNone;
        double cached_value = 0.0;
        for (StateId s = begin; s < end; ++s) {
          double value;
          if (plain[s]) {
            const BestChoice best =
                best_choice(model, s, objective, [&](std::uint32_t c) {
                  return choice_q(model, s, c, values, 1.0);
                });
            value = best.value;
            result.policy.choice_index[s] = best.choice;
          } else if (const std::uint32_t m = components.of[s]; m != kNone) {
            if (m != cached) {
              cached = m;
              cached_value = components.best_exit(m, values).first;
            }
            value = cached_value;
          } else {
            continue;  // a target (0) or an infinite state
          }
          next[s] = value;
          if (std::isfinite(value) && std::isfinite(values[s])) {
            local = std::max(local, std::abs(value - values[s]));
          } else if (std::isinf(value) != std::isinf(values[s])) {
            local = kInf;
          }
        }
        return local;
      });
  components.fix_policy(result.values, result.policy);
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

std::vector<double> evaluate_policy_discounted(const CompiledModel& model,
                                               const Policy& policy,
                                               double discount) {
  TML_REQUIRE(discount > 0.0 && discount < 1.0,
              "evaluate_policy_discounted: discount out of (0,1)");
  TML_REQUIRE(policy.choice_index.size() == model.num_states(),
              "evaluate_policy_discounted: policy size mismatch");
  const std::size_t n = model.num_states();
  std::vector<std::uint32_t> choice(n);
  std::vector<StateId> all(n);
  for (StateId s = 0; s < n; ++s) {
    choice[s] = model.first_choice(s) + policy.at(s);
    TML_REQUIRE(choice[s] < model.last_choice(s),
                "evaluate_policy_discounted: policy chooses missing choice "
                    << policy.at(s) << " in state " << s);
    all[s] = s;
  }
  // Un-budgeted: policy iteration polls its budget between evaluations
  // and returns a flagged partial, which a throw from here would bypass.
  return solve_one_choice(model, choice, all, std::vector<double>(n, 0.0),
                          /*rewards=*/true, discount, Budget{},
                          /*certify=*/false)
      .values;
}

SolveResult dtmc_reachability_bracket(const CompiledModel& model,
                                      const StateSet& targets,
                                      const SolverOptions& options) {
  TML_REQUIRE(model.deterministic(),
              "dtmc_reachability: compiled model is not a DTMC");
  TML_REQUIRE(targets.size() == model.num_states(),
              "dtmc_reachability: target set size mismatch");
  const std::size_t n = model.num_states();
  const auto [zero, one] = reach_prob01(model, targets, Objective::kMinimize);
  std::vector<double> values(n, 0.0);
  std::vector<StateId> unknowns;
  for (StateId s = 0; s < n; ++s) {
    if (one[s]) values[s] = 1.0;
    if (!zero[s] && !one[s]) unknowns.push_back(s);
  }
  SolveResult result =
      solve_one_choice(model, dtmc_rows(model), unknowns, std::move(values),
                       /*rewards=*/false, 1.0, options.budget,
                       /*certify=*/true);
  // Probabilities: [0, 1] is a bracket of its own.
  for (StateId s = 0; s < n; ++s) {
    result.lo[s] = std::max(result.lo[s], 0.0);
    result.hi[s] = std::min(result.hi[s], 1.0);
  }
  return result;
}

SolveResult dtmc_total_reward_bracket(const CompiledModel& model,
                                      const StateSet& targets,
                                      const SolverOptions& options) {
  TML_REQUIRE(model.deterministic(),
              "dtmc_total_reward: compiled model is not a DTMC");
  TML_REQUIRE(targets.size() == model.num_states(),
              "dtmc_total_reward: target set size mismatch");
  const std::size_t n = model.num_states();
  const StateSet certain =
      reach_prob01(model, targets, Objective::kMinimize).one;
  // Unknowns: non-target states that reach the target almost surely. Such
  // states only move to other almost-sure states, so every successor
  // outside the unknowns is a target, pinned to 0.
  std::vector<double> values(n, kInf);
  std::vector<StateId> unknowns;
  for (StateId s = 0; s < n; ++s) {
    if (targets[s]) values[s] = 0.0;
    if (certain[s] && !targets[s]) unknowns.push_back(s);
  }
  return solve_one_choice(model, dtmc_rows(model), unknowns, std::move(values),
                          /*rewards=*/true, 1.0, options.budget,
                          /*certify=*/true);
}

std::vector<double> dtmc_reachability(const CompiledModel& model,
                                      const StateSet& targets) {
  return dtmc_reachability_bracket(model, targets).values;
}

std::vector<double> dtmc_total_reward(const CompiledModel& model,
                                      const StateSet& targets) {
  return dtmc_total_reward_bracket(model, targets).values;
}

// ---------------------------------------------------------------------------
// Sparse direct solver

std::vector<std::uint32_t> rcm_order(const SparseMatrix& a) {
  const std::size_t n = a.size();
  // Symmetrised adjacency without self-loops or repeats.
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t k = a.row_start[i]; k < a.row_start[i + 1]; ++k) {
      const std::uint32_t j = a.col[k];
      TML_REQUIRE(j < n, "rcm_order: column " << j << " out of range " << n);
      if (j == i) continue;
      adj[i].push_back(j);
      adj[j].push_back(i);
    }
  }
  for (auto& row : adj) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  const auto by_degree = [&](std::uint32_t x, std::uint32_t y) {
    return adj[x].size() != adj[y].size() ? adj[x].size() < adj[y].size()
                                          : x < y;
  };

  // Breadth-first level structure from `root`: appends its component to
  // `visit` in Cuthill–McKee order (each row's new neighbours by degree)
  // and returns where the last level starts and how many levels there are.
  std::vector<std::uint32_t> seen(n, 0);
  std::uint32_t stamp = 0;
  struct Levels {
    std::size_t last_begin;
    std::size_t depth;
  };
  const auto level_order = [&](std::uint32_t root,
                               std::vector<std::uint32_t>& visit) {
    ++stamp;
    visit.push_back(root);
    seen[root] = stamp;
    Levels levels{0, 0};
    std::size_t begin = 0;
    std::size_t end = visit.size();
    while (begin < end) {
      levels = {begin, levels.depth + 1};
      for (std::size_t q = begin; q < end; ++q) {
        const std::size_t before = visit.size();
        for (const std::uint32_t j : adj[visit[q]]) {
          if (seen[j] == stamp) continue;
          seen[j] = stamp;
          visit.push_back(j);
        }
        std::sort(visit.begin() + static_cast<std::ptrdiff_t>(before),
                  visit.end(), by_degree);
      }
      begin = end;
      end = visit.size();
    }
    return levels;
  };

  std::vector<std::uint32_t> order;
  order.reserve(n);
  std::vector<bool> placed(n, false);
  std::vector<std::uint32_t> probe;
  std::vector<std::uint32_t> trial;
  for (std::uint32_t start = 0; start < n; ++start) {
    if (placed[start]) continue;
    // George–Liu pseudo-peripheral root: move to the lowest-degree row of
    // the last level while that deepens the level structure.
    probe.clear();
    Levels levels = level_order(start, probe);
    for (;;) {
      const std::uint32_t candidate = *std::min_element(
          probe.begin() + static_cast<std::ptrdiff_t>(levels.last_begin),
          probe.end(), by_degree);
      trial.clear();
      const Levels deeper = level_order(candidate, trial);
      if (deeper.depth <= levels.depth) break;
      probe.swap(trial);
      levels = deeper;
    }
    // `probe` is the Cuthill–McKee order of the component from its root.
    for (const std::uint32_t i : probe) placed[i] = true;
    order.insert(order.end(), probe.begin(), probe.end());
  }
  std::reverse(order.begin(), order.end());
  return order;
}

EnvelopeLU::EnvelopeLU(const SparseMatrix& a, const Budget& budget)
    : order_(rcm_order(a)) {
  const std::size_t n = a.size();
  std::vector<std::uint32_t> position(n);
  for (std::uint32_t k = 0; k < n; ++k) position[order_[k]] = k;

  // Envelope of the symmetrised pattern: row k of L and column k of U both
  // start at the first position adjacent to k from below.
  first_.resize(n);
  for (std::uint32_t k = 0; k < n; ++k) first_[k] = k;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t e = a.row_start[i]; e < a.row_start[i + 1]; ++e) {
      const std::uint32_t p = position[i];
      const std::uint32_t q = position[a.col[e]];
      const std::uint32_t hi = std::max(p, q);
      first_[hi] = std::min(first_[hi], std::min(p, q));
    }
  }
  offset_.resize(n + 1);
  offset_[0] = 0;
  for (std::size_t k = 0; k < n; ++k) {
    offset_[k + 1] = offset_[k] + k - first_[k];
  }
  lower_.assign(offset_[n], 0.0);
  upper_.assign(offset_[n], 0.0);
  diag_.assign(n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t e = a.row_start[i]; e < a.row_start[i + 1]; ++e) {
      const std::uint32_t p = position[i];
      const std::uint32_t q = position[a.col[e]];
      if (p == q) {
        diag_[p] += a.value[e];
      } else if (p > q) {
        lower_[offset_[p] + q - first_[p]] += a.value[e];
      } else {
        upper_[offset_[q] + p - first_[q]] += a.value[e];
      }
    }
  }

  // Doolittle order: position k computes U's column k and L's row k from
  // the finished columns/rows before it, then its pivot.
  BudgetTracker tracker(budget);
  for (std::size_t k = 0; k < n; ++k) {
    if (k % kColumnsPerTick == 0 && !tracker.tick()) {
      throw BudgetExhausted(
          std::string("sparse LU: budget exhausted (") +
              to_string(tracker.stop()) + ") after " + std::to_string(k) +
              " of " + std::to_string(n) + " columns",
          tracker.stop());
    }
    const std::size_t fk = first_[k];
    double* lk = lower_.data() + offset_[k];  // lk[m − fk] = L(k, m)
    double* uk = upper_.data() + offset_[k];  // uk[m − fk] = U(m, k)
    for (std::size_t j = fk; j < k; ++j) {
      const std::size_t fj = first_[j];
      const std::size_t lo = std::max(fk, fj);
      const double* lj = lower_.data() + offset_[j] + (lo - fj);
      const double* uj = upper_.data() + offset_[j] + (lo - fj);
      const double* lkm = lk + (lo - fk);
      const double* ukm = uk + (lo - fk);
      double su = 0.0;
      double sl = 0.0;
      for (std::size_t m = 0; m < j - lo; ++m) {
        su += lj[m] * ukm[m];
        sl += lkm[m] * uj[m];
      }
      uk[j - fk] -= su;
      lk[j - fk] = (lk[j - fk] - sl) / diag_[j];
    }
    double sd = 0.0;
    for (std::size_t m = 0; m < k - fk; ++m) sd += lk[m] * uk[m];
    diag_[k] -= sd;
    if (!(diag_[k] > 0.0 && std::isfinite(diag_[k])) ||
        fault::fire("solver.pivot")) {
      throw NumericError("sparse LU: pivot " + std::to_string(diag_[k]) +
                         " at row " + std::to_string(order_[k]) +
                         " is not positive and finite (singular system)");
    }
  }
}

std::vector<double> EnvelopeLU::solve(std::span<const double> b) const {
  const std::size_t n = size();
  TML_REQUIRE(b.size() == n, "EnvelopeLU::solve: rhs dimension mismatch");
  std::vector<double> y(n);
  for (std::size_t k = 0; k < n; ++k) y[k] = b[order_[k]];
  // L y = b, then U x = y with U stored by columns.
  for (std::size_t k = 0; k < n; ++k) {
    const double* lk = lower_.data() + offset_[k];
    const double* yk = y.data() + first_[k];
    double acc = y[k];
    for (std::size_t m = 0; m < k - first_[k]; ++m) acc -= lk[m] * yk[m];
    y[k] = acc;
  }
  for (std::size_t k = n; k-- > 0;) {
    const double* uk = upper_.data() + offset_[k];
    double* yk = y.data() + first_[k];
    y[k] /= diag_[k];
    for (std::size_t m = 0; m < k - first_[k]; ++m) yk[m] -= uk[m] * y[k];
  }
  std::vector<double> x(n);
  for (std::size_t k = 0; k < n; ++k) x[order_[k]] = y[k];
  return x;
}

std::vector<double> EnvelopeLU::solve_transposed(
    std::span<const double> b) const {
  const std::size_t n = size();
  TML_REQUIRE(b.size() == n,
              "EnvelopeLU::solve_transposed: rhs dimension mismatch");
  std::vector<double> y(n);
  for (std::size_t k = 0; k < n; ++k) y[k] = b[order_[k]];
  // Uᵀ y = b, U's stored columns being the rows of Uᵀ; then Lᵀ x = y, L's
  // stored rows being the columns of Lᵀ.
  for (std::size_t k = 0; k < n; ++k) {
    const double* uk = upper_.data() + offset_[k];
    const double* yk = y.data() + first_[k];
    double acc = y[k];
    for (std::size_t m = 0; m < k - first_[k]; ++m) acc -= uk[m] * yk[m];
    y[k] = acc / diag_[k];
  }
  for (std::size_t k = n; k-- > 0;) {
    const double* lk = lower_.data() + offset_[k];
    double* yk = y.data() + first_[k];
    for (std::size_t m = 0; m < k - first_[k]; ++m) yk[m] -= lk[m] * y[k];
  }
  std::vector<double> x(n);
  for (std::size_t k = 0; k < n; ++k) x[order_[k]] = y[k];
  return x;
}

}  // namespace tml
