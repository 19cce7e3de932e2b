// Exact-arithmetic reachability oracle + seeded random model generator for
// the differential test harness (tests/test_differential.cpp).
//
// The oracle computes optimal reachability probabilities — and, on
// one-choice models, expected total rewards — with NO rounding:
// policy iteration whose evaluation step is Gaussian elimination over
// BigRational (src/rational/exact.hpp). Soundness rests on three pieces:
//
//  1. The qualitative prob0/prob1 regions come from the graph analyses
//     (src/mdp/graph.hpp), which only test `prob > 0` and are therefore
//     exact. Pinning them makes the Bellman fixpoint unique for Pmin and
//     makes the least fixpoint achievable for Pmax, so a policy-iteration
//     fixpoint is THE optimum (a naive PI without the pinning gets stuck:
//     a Pmin state with a self-loop choice ties against its own value and
//     never switches away).
//  2. Policy evaluation computes the policy's true value: states that
//     cannot reach the pinned-1 region in the induced chain are exactly 0
//     (this removes the singular directions end components would otherwise
//     contribute), and the remaining linear system is nonsingular.
//  3. Improvement is strict (ties keep the current choice), so the exact
//     policy values strictly improve somewhere each round and PI terminates.
//
// The generator emits models whose probabilities are dyadic (k/1024), so
// the float model and its rational twin are EQUAL, not approximations of
// each other: every disagreement the harness reports is a genuine solver
// error, never generator rounding.

#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/graph.hpp"
#include "src/mdp/model.hpp"
#include "src/mdp/solver.hpp"
#include "src/rational/exact.hpp"

namespace tml {
namespace oracle {

/// Solves A x = b by Gaussian elimination over exact rationals (dense,
/// row-major). Throws on a singular system — the callers' systems never are.
inline std::vector<BigRational> exact_solve(
    std::vector<std::vector<BigRational>> a, std::vector<BigRational> b) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    while (pivot < n && a[pivot][col].is_zero()) ++pivot;
    TML_REQUIRE(pivot < n, "exact_solve: singular system");
    std::swap(a[pivot], a[col]);
    std::swap(b[pivot], b[col]);
    for (std::size_t row = col + 1; row < n; ++row) {
      if (a[row][col].is_zero()) continue;
      const BigRational factor = a[row][col] / a[col][col];
      for (std::size_t k = col; k < n; ++k) {
        a[row][k] -= factor * a[col][k];
      }
      b[row] -= factor * b[col];
    }
  }
  std::vector<BigRational> x(n);
  for (std::size_t row = n; row-- > 0;) {
    BigRational acc = b[row];
    for (std::size_t k = row + 1; k < n; ++k) {
      acc -= a[row][k] * x[k];
    }
    x[row] = acc / a[row][row];
  }
  return x;
}

/// Exact reachability value of the memoryless policy `choice_of` (one global
/// choice id per state), with `zero`/`one` pinned to 0/1. Returns a value
/// per state of the model.
inline std::vector<BigRational> exact_policy_value(
    const CompiledModel& model, const std::vector<std::uint32_t>& choice_of,
    const StateSet& zero, const StateSet& one) {
  const std::size_t n = model.num_states();
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();

  // Induced-chain qualitative pass: a state that cannot reach the pinned-1
  // region under this policy has value exactly 0 (it is absorbed by `zero`
  // or cycles forever). Pinning these removes the singular directions end
  // components would otherwise contribute to the linear system.
  std::vector<char> can_reach_one(n, 0);
  for (StateId s = 0; s < n; ++s) {
    if (one[s]) can_reach_one[s] = 1;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (StateId s = 0; s < n; ++s) {
      if (can_reach_one[s] || zero[s] || one[s]) continue;
      const std::uint32_t c = choice_of[s];
      for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
        if (prob[k] > 0.0 && can_reach_one[target[k]]) {
          can_reach_one[s] = 1;
          changed = true;
          break;
        }
      }
    }
  }

  std::vector<std::ptrdiff_t> index(n, -1);
  std::vector<StateId> unknowns;
  for (StateId s = 0; s < n; ++s) {
    if (!zero[s] && !one[s] && can_reach_one[s]) {
      index[s] = static_cast<std::ptrdiff_t>(unknowns.size());
      unknowns.push_back(s);
    }
  }

  const std::size_t m = unknowns.size();
  std::vector<std::vector<BigRational>> a(m, std::vector<BigRational>(m));
  std::vector<BigRational> b(m);
  for (std::size_t i = 0; i < m; ++i) {
    a[i][i] = BigRational(1);
    const std::uint32_t c = choice_of[unknowns[i]];
    for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
      const BigRational p = BigRational::from_double(prob[k]);
      const StateId t = target[k];
      if (index[t] >= 0) {
        a[i][static_cast<std::size_t>(index[t])] -= p;
      } else if (one[t]) {
        b[i] += p;
      }
      // zero / cannot-reach-one successors contribute exactly 0.
    }
  }
  const std::vector<BigRational> x = exact_solve(std::move(a), std::move(b));

  std::vector<BigRational> values(n);
  for (StateId s = 0; s < n; ++s) {
    if (one[s]) {
      values[s] = BigRational(1);
    } else if (index[s] >= 0) {
      values[s] = x[static_cast<std::size_t>(index[s])];
    }
  }
  return values;
}

/// Exact Pmax/Pmin(F targets) by policy iteration over BigRational.
/// Deterministic models (compiled DTMCs) work unchanged — policy iteration
/// over a single choice per state is just one exact evaluation.
inline std::vector<BigRational> exact_reachability(const CompiledModel& model,
                                                   const StateSet& targets,
                                                   Objective objective) {
  const std::size_t n = model.num_states();
  const auto& row_start = model.row_start();
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();

  const auto [zero, one] = reach_prob01(model, targets, objective);

  std::vector<std::uint32_t> choice_of(n);
  for (StateId s = 0; s < n; ++s) {
    choice_of[s] = row_start[s];
  }
  // PI terminates after finitely many strict improvements; the cap only
  // guards against an implementation bug turning into a hang.
  for (std::size_t round = 0; round < 64 * n + 64; ++round) {
    std::vector<BigRational> values =
        exact_policy_value(model, choice_of, zero, one);
    bool improved = false;
    for (StateId s = 0; s < n; ++s) {
      if (zero[s] || one[s]) continue;
      BigRational best_q = values[s];
      std::uint32_t best_c = choice_of[s];
      for (std::uint32_t c = row_start[s]; c < row_start[s + 1]; ++c) {
        BigRational q;
        for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
          q += BigRational::from_double(prob[k]) * values[target[k]];
        }
        const bool better =
            objective == Objective::kMaximize ? q > best_q : q < best_q;
        if (better) {
          best_q = q;
          best_c = c;
        }
      }
      if (best_c != choice_of[s]) {
        choice_of[s] = best_c;
        improved = true;
      }
    }
    if (!improved) return values;
  }
  throw NumericError("oracle::exact_reachability: policy iteration failed to "
                     "terminate (implementation bug)");
}

/// Exact expected total reward (state plus choice reward per step) of a
/// one-choice model until reaching `targets`, which pin 0. States that
/// reach the targets with probability < 1 have infinite expected reward,
/// reported as nullopt. The finite region is the graph analysis' exact
/// one-set; it is closed under successors outside the targets, so the
/// linear system over it is nonsingular.
inline std::vector<std::optional<BigRational>> exact_total_reward(
    const CompiledModel& model, const StateSet& targets) {
  const std::size_t n = model.num_states();
  TML_REQUIRE(model.num_choices() == n,
              "oracle::exact_total_reward: model has more than one choice "
              "in some state");
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();
  const StateSet finite =
      reach_prob01(model, targets, Objective::kMinimize).one;

  std::vector<std::ptrdiff_t> index(n, -1);
  std::vector<StateId> unknowns;
  for (StateId s = 0; s < n; ++s) {
    if (finite[s] && !targets[s]) {
      index[s] = static_cast<std::ptrdiff_t>(unknowns.size());
      unknowns.push_back(s);
    }
  }
  const std::size_t m = unknowns.size();
  std::vector<std::vector<BigRational>> a(m, std::vector<BigRational>(m));
  std::vector<BigRational> b(m);
  for (std::size_t i = 0; i < m; ++i) {
    const StateId s = unknowns[i];
    const std::uint32_t c = model.first_choice(s);
    a[i][i] = BigRational(1);
    b[i] = BigRational::from_double(model.state_reward(s)) +
           BigRational::from_double(model.choice_reward(c));
    for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
      if (targets[target[k]]) continue;  // pinned to 0
      TML_REQUIRE(index[target[k]] >= 0,
                  "oracle::exact_total_reward: finite region not closed");
      a[i][static_cast<std::size_t>(index[target[k]])] -=
          BigRational::from_double(prob[k]);
    }
  }
  const std::vector<BigRational> x = exact_solve(std::move(a), std::move(b));

  std::vector<std::optional<BigRational>> values(n);
  for (StateId s = 0; s < n; ++s) {
    if (targets[s]) {
      values[s] = BigRational(0);
    } else if (index[s] >= 0) {
      values[s] = x[static_cast<std::size_t>(index[s])];
    }
  }
  return values;
}

/// Exact long-run occupancy of a one-choice model from its initial state.
/// The bottom SCCs come from plain reachability closures (s is recurrent
/// iff every state it reaches reaches it back; its bottom is the set it
/// reaches). Each bottom's stationary distribution solves π·(P − I) = 0
/// with one equation replaced by Σ π = 1 through exact_solve, and is
/// weighted by exact_reachability of the bottom from the initial state.
inline std::vector<BigRational> exact_long_run(const CompiledModel& model) {
  const std::size_t n = model.num_states();
  TML_REQUIRE(model.num_choices() == n,
              "oracle::exact_long_run: model has more than one choice in "
              "some state");
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();
  std::vector<StateSet> reach(n, StateSet(n, false));
  for (StateId s = 0; s < n; ++s) {
    std::vector<StateId> stack{s};
    reach[s][s] = true;
    while (!stack.empty()) {
      const StateId u = stack.back();
      stack.pop_back();
      for (std::uint32_t k = choice_start[u]; k < choice_start[u + 1]; ++k) {
        if (prob[k] > 0.0 && !reach[s][target[k]]) {
          reach[s][target[k]] = true;
          stack.push_back(target[k]);
        }
      }
    }
  }
  const StateId init = model.initial_state();
  std::vector<BigRational> occupancy(n);
  StateSet done(n, false);
  for (StateId r = 0; r < n; ++r) {
    bool recurrent = !done[r];
    for (StateId t = 0; t < n && recurrent; ++t) {
      recurrent = !reach[r][t] || reach[t][r];
    }
    if (!recurrent) continue;
    std::vector<StateId> component;
    std::vector<std::size_t> local(n, n);
    for (StateId t = 0; t < n; ++t) {
      if (!reach[r][t]) continue;
      done[t] = true;
      local[t] = component.size();
      component.push_back(t);
    }
    if (!reach[init][r]) continue;
    const std::size_t k = component.size();
    std::vector<std::vector<BigRational>> a(k, std::vector<BigRational>(k));
    std::vector<BigRational> b(k);
    for (std::size_t j = 0; j < k; ++j) a[j][j] = BigRational(-1);
    for (std::size_t i = 0; i < k; ++i) {
      const StateId s = component[i];
      for (std::uint32_t e = choice_start[s]; e < choice_start[s + 1]; ++e) {
        a[local[target[e]]][i] += BigRational::from_double(prob[e]);
      }
    }
    for (std::size_t i = 0; i < k; ++i) a[k - 1][i] = BigRational(1);
    b[k - 1] = BigRational(1);
    const std::vector<BigRational> pi = exact_solve(std::move(a), std::move(b));
    StateSet member(n, false);
    for (const StateId s : component) member[s] = true;
    const BigRational weight =
        exact_reachability(model, member, Objective::kMaximize)[init];
    for (std::size_t i = 0; i < k; ++i) occupancy[component[i]] = weight * pi[i];
  }
  return occupancy;
}

// ---------------------------------------------------------------------------
// Seeded random model generator

struct RandomModelConfig {
  std::size_t num_states = 24;
  std::size_t max_choices = 3;    ///< 1 → DTMC-shaped (single choice per state)
  std::size_t max_successors = 4;
  double trap_prob = 0.08;    ///< chance a state is a pure self-loop dead end
  double target_prob = 0.10;  ///< per-state chance of carrying "goal"
  double jump_prob = 0.15;    ///< long-range successor (vs the local window)
};

struct RandomModel {
  Mdp mdp;
  StateSet targets;
};

/// Seeded random MDP/DTMC with the structure the differential harness needs:
/// successors mostly land in a local window around the state (back-edges
/// included, so nontrivial SCCs form), occasional uniform jumps create
/// long-range structure, some states are pure self-loop dead ends, and all
/// probabilities are dyadic k/1024 with an edge bias that makes near-0 and
/// near-1 entries (1/1024, 1023/1024) common.
inline RandomModel random_model(Rng& rng, const RandomModelConfig& cfg = {}) {
  const std::size_t n = cfg.num_states;
  TML_REQUIRE(n >= 2, "random_model: need at least two states");
  Mdp mdp(n);
  StateSet targets(n);
  for (StateId s = 0; s < n; ++s) {
    if (rng.uniform() < cfg.target_prob) {
      targets.set(s);
      mdp.add_label(s, "goal");
    }
  }
  if (count(targets) == 0) {
    targets.set(static_cast<StateId>(n - 1));
    mdp.add_label(static_cast<StateId>(n - 1), "goal");
  }

  constexpr std::uint32_t kUnits = 1024;
  for (StateId s = 0; s < n; ++s) {
    if (rng.uniform() < cfg.trap_prob) {
      mdp.add_choice(s, "trap", {Transition{s, 1.0}});
      continue;
    }
    const std::size_t num_choices = 1 + rng.index(cfg.max_choices);
    for (std::size_t c = 0; c < num_choices; ++c) {
      std::vector<StateId> succ;
      const std::size_t want = 1 + rng.index(cfg.max_successors);
      while (succ.size() < want) {
        StateId t;
        if (rng.uniform() < cfg.jump_prob) {
          t = static_cast<StateId>(rng.index(n));
        } else {
          const std::size_t lo = s >= 2 ? s - 2 : 0;
          const std::size_t hi = std::min(n - 1, static_cast<std::size_t>(s) + 3);
          t = static_cast<StateId>(lo + rng.index(hi - lo + 1));
        }
        if (std::find(succ.begin(), succ.end(), t) != succ.end()) break;
        succ.push_back(t);
      }
      std::vector<std::uint32_t> units(succ.size(), 1);
      std::uint32_t left = kUnits - static_cast<std::uint32_t>(succ.size());
      for (std::size_t i = 0; i + 1 < succ.size(); ++i) {
        std::uint32_t take =
            static_cast<std::uint32_t>(rng.index(std::size_t{left} + 1));
        if (rng.uniform() < 0.25) take = rng.bernoulli(0.5) ? 0 : left;
        units[i] += take;
        left -= take;
      }
      units.back() += left;
      std::vector<Transition> dist;
      dist.reserve(succ.size());
      for (std::size_t i = 0; i < succ.size(); ++i) {
        dist.push_back(Transition{succ[i], units[i] / 1024.0});
      }
      mdp.add_choice(s, "a" + std::to_string(c), std::move(dist));
    }
  }
  return RandomModel{std::move(mdp), std::move(targets)};
}

}  // namespace oracle
}  // namespace tml
