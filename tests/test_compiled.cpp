// Cross-validation of the compiled CSR model core against independent
// nested-vector reference implementations.
//
// The references in namespace `ref` below deliberately walk the builder
// representation (Mdp::choices / Dtmc::transitions) the way the library did
// before the CSR refactor; every compiled-path result must agree with them
// to 1e-9 across a population of random models.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <vector>

#include "src/casestudies/generator.hpp"
#include "src/checker/reachability.hpp"
#include "src/checker/steady_state.hpp"
#include "src/common/rng.hpp"
#include "src/irl/max_ent_irl.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/graph.hpp"
#include "src/mdp/solver.hpp"
#include "tests/dense.hpp"

namespace tml {
namespace {

constexpr double kTol = 1e-9;

// ---------------------------------------------------------------------------
// Random model generators.

Dtmc random_dtmc(Rng& rng, std::size_t n) {
  Dtmc chain(n);
  for (StateId s = 0; s < n; ++s) {
    if (rng.uniform() < 0.15) {
      chain.set_transitions(s, {Transition{s, 1.0}});  // absorbing
    } else {
      const std::size_t fan = 1 + rng.index(std::min<std::size_t>(4, n));
      std::set<StateId> targets;
      while (targets.size() < fan) {
        targets.insert(static_cast<StateId>(rng.index(n)));
      }
      std::vector<Transition> row;
      double total = 0.0;
      for (StateId t : targets) {
        const double w = 0.05 + rng.uniform();
        row.push_back(Transition{t, w});
        total += w;
      }
      for (Transition& t : row) t.probability /= total;
      chain.set_transitions(s, std::move(row));
    }
    chain.set_state_reward(s, rng.uniform(0.0, 2.0));
    if (rng.uniform() < 0.3) chain.add_label(s, "a");
    if (rng.uniform() < 0.2) chain.add_label(s, "b");
  }
  chain.set_initial_state(static_cast<StateId>(rng.index(n)));
  chain.validate();
  return chain;
}

Mdp random_mdp(Rng& rng, std::size_t n) {
  Mdp mdp(n);
  const ActionId act0 = mdp.declare_action("x");
  const ActionId act1 = mdp.declare_action("y");
  const ActionId act2 = mdp.declare_action("z");
  const ActionId acts[] = {act0, act1, act2};
  for (StateId s = 0; s < n; ++s) {
    const std::size_t num_choices = 1 + rng.index(3);
    for (std::size_t c = 0; c < num_choices; ++c) {
      std::vector<Transition> row;
      if (rng.uniform() < 0.1) {
        row.push_back(Transition{s, 1.0});  // absorbing choice
      } else {
        const std::size_t fan = 1 + rng.index(std::min<std::size_t>(4, n));
        std::set<StateId> targets;
        while (targets.size() < fan) {
          targets.insert(static_cast<StateId>(rng.index(n)));
        }
        double total = 0.0;
        for (StateId t : targets) {
          const double w = 0.05 + rng.uniform();
          row.push_back(Transition{t, w});
          total += w;
        }
        for (Transition& t : row) t.probability /= total;
      }
      mdp.add_choice(s, acts[c], std::move(row), rng.uniform(0.0, 1.0));
    }
    mdp.set_state_reward(s, rng.uniform(0.0, 2.0));
    if (rng.uniform() < 0.3) mdp.add_label(s, "a");
  }
  mdp.set_initial_state(static_cast<StateId>(rng.index(n)));
  mdp.validate();
  return mdp;
}

StateSet random_subset(Rng& rng, std::size_t n, double density) {
  StateSet out(n, false);
  for (StateId s = 0; s < n; ++s) {
    if (rng.uniform() < density) out[s] = true;
  }
  if (out.none()) out[static_cast<StateId>(rng.index(n))] = true;
  return out;
}

// ---------------------------------------------------------------------------
// Nested-vector reference implementations (pre-refactor algorithms).

namespace ref {

std::vector<std::vector<StateId>> predecessors(const Mdp& mdp) {
  std::vector<std::vector<StateId>> preds(mdp.num_states());
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    for (const Choice& c : mdp.choices(s)) {
      for (const Transition& t : c.transitions) {
        if (t.probability > 0.0) preds[t.target].push_back(s);
      }
    }
  }
  return preds;
}

std::vector<std::vector<StateId>> predecessors(const Dtmc& chain) {
  std::vector<std::vector<StateId>> preds(chain.num_states());
  for (StateId s = 0; s < chain.num_states(); ++s) {
    for (const Transition& t : chain.transitions(s)) {
      if (t.probability > 0.0) preds[t.target].push_back(s);
    }
  }
  return preds;
}

StateSet backward_closure(const std::vector<std::vector<StateId>>& preds,
                          const StateSet& seeds,
                          const StateSet* blocked = nullptr) {
  StateSet reached = seeds;
  std::deque<StateId> queue;
  for (StateId s = 0; s < seeds.size(); ++s) {
    if (seeds[s]) queue.push_back(s);
  }
  while (!queue.empty()) {
    const StateId s = queue.front();
    queue.pop_front();
    for (StateId p : preds[s]) {
      if (!reached[p] && (blocked == nullptr || !(*blocked)[p])) {
        reached[p] = true;
        queue.push_back(p);
      }
    }
  }
  return reached;
}

StateSet reachable_existential(const Mdp& mdp, const StateSet& targets) {
  return backward_closure(predecessors(mdp), targets);
}

StateSet avoid_certain(const Mdp& mdp, const StateSet& targets) {
  const std::size_t n = mdp.num_states();
  StateSet inside = complement(targets);
  bool changed = true;
  while (changed) {
    changed = false;
    for (StateId s = 0; s < n; ++s) {
      if (!inside[s]) continue;
      bool has_safe_choice = false;
      for (const Choice& c : mdp.choices(s)) {
        bool all_inside = true;
        for (const Transition& t : c.transitions) {
          if (t.probability > 0.0 && !inside[t.target]) {
            all_inside = false;
            break;
          }
        }
        if (all_inside) {
          has_safe_choice = true;
          break;
        }
      }
      if (!has_safe_choice) {
        inside[s] = false;
        changed = true;
      }
    }
  }
  return inside;
}

StateSet prob1_existential(const Mdp& mdp, const StateSet& targets) {
  const std::size_t n = mdp.num_states();
  StateSet u(n, true);
  while (true) {
    StateSet v = targets;
    bool inner_changed = true;
    while (inner_changed) {
      inner_changed = false;
      for (StateId s = 0; s < n; ++s) {
        if (v[s] || !u[s]) continue;
        for (const Choice& c : mdp.choices(s)) {
          bool support_in_u = true;
          bool hits_v = false;
          for (const Transition& t : c.transitions) {
            if (t.probability <= 0.0) continue;
            if (!u[t.target]) support_in_u = false;
            if (v[t.target]) hits_v = true;
          }
          if (support_in_u && hits_v) {
            v[s] = true;
            inner_changed = true;
            break;
          }
        }
      }
    }
    if (v == u) return u;
    u = v;
  }
}

StateSet prob1_universal(const Mdp& mdp, const StateSet& targets) {
  const StateSet avoid = ref::avoid_certain(mdp, targets);
  const StateSet can_escape =
      backward_closure(predecessors(mdp), avoid, &targets);
  return complement(can_escape);
}

StateSet dtmc_prob0(const Dtmc& chain, const StateSet& targets) {
  return complement(backward_closure(predecessors(chain), targets));
}

StateSet dtmc_prob1(const Dtmc& chain, const StateSet& targets) {
  const StateSet zero = ref::dtmc_prob0(chain, targets);
  const StateSet can_fail =
      backward_closure(predecessors(chain), zero, &targets);
  return complement(can_fail);
}

std::vector<double> dtmc_reachability(const Dtmc& chain,
                                      const StateSet& targets) {
  const std::size_t n = chain.num_states();
  const StateSet zero = ref::dtmc_prob0(chain, targets);
  const StateSet one = ref::dtmc_prob1(chain, targets);

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

  dense::Matrix a = dense::Matrix::identity(unknowns.size());
  std::vector<double> b(unknowns.size(), 0.0);
  for (std::size_t i = 0; i < unknowns.size(); ++i) {
    const StateId s = unknowns[i];
    for (const Transition& t : chain.transitions(s)) {
      if (one[t.target]) {
        b[i] += t.probability;
      } else if (!zero[t.target]) {
        a(i, static_cast<std::size_t>(index[t.target])) -= t.probability;
      }
    }
  }
  const std::vector<double> x = dense::solve(std::move(a), std::move(b));
  for (std::size_t i = 0; i < unknowns.size(); ++i) values[unknowns[i]] = x[i];
  return values;
}

std::vector<double> bounded_until(const Dtmc& chain, const StateSet& stay,
                                  const StateSet& goal, std::size_t bound) {
  const std::size_t n = chain.num_states();
  std::vector<double> values(n, 0.0);
  for (StateId s = 0; s < n; ++s) {
    if (goal[s]) values[s] = 1.0;
  }
  std::vector<double> next = values;
  for (std::size_t k = 0; k < bound; ++k) {
    for (StateId s = 0; s < n; ++s) {
      if (goal[s] || !stay[s]) continue;
      double q = 0.0;
      for (const Transition& t : chain.transitions(s)) {
        q += t.probability * values[t.target];
      }
      next[s] = q;
    }
    values.swap(next);
  }
  return values;
}

std::vector<double> mdp_reachability(const Mdp& mdp, const StateSet& targets,
                                     Objective objective) {
  const std::size_t n = mdp.num_states();
  StateSet zero, one;
  if (objective == Objective::kMaximize) {
    zero = complement(ref::reachable_existential(mdp, targets));
    one = ref::prob1_existential(mdp, targets);
  } else {
    zero = ref::avoid_certain(mdp, targets);
    one = ref::prob1_universal(mdp, targets);
  }
  std::vector<double> values(n, 0.0);
  for (StateId s = 0; s < n; ++s) {
    if (one[s]) values[s] = 1.0;
  }
  std::vector<double> next = values;
  for (std::size_t iter = 0; iter < 100000; ++iter) {
    double delta = 0.0;
    for (StateId s = 0; s < n; ++s) {
      if (zero[s] || one[s]) continue;
      double best = objective == Objective::kMaximize ? 0.0 : 1.0;
      for (const Choice& c : mdp.choices(s)) {
        double q = 0.0;
        for (const Transition& t : c.transitions) {
          q += t.probability * values[t.target];
        }
        best = objective == Objective::kMaximize ? std::max(best, q)
                                                 : std::min(best, q);
      }
      next[s] = best;
      delta = std::max(delta, std::abs(next[s] - values[s]));
    }
    values.swap(next);
    if (delta < 1e-12) break;
  }
  return values;
}

std::vector<double> value_iteration(const Mdp& mdp, double discount,
                                    Objective objective) {
  const std::size_t n = mdp.num_states();
  std::vector<double> values(n, 0.0);
  std::vector<double> next(n, 0.0);
  for (std::size_t iter = 0; iter < 100000; ++iter) {
    double delta = 0.0;
    for (StateId s = 0; s < n; ++s) {
      const auto& choices = mdp.choices(s);
      bool first = true;
      double best = 0.0;
      for (const Choice& c : choices) {
        double q = mdp.state_reward(s) + c.reward;
        for (const Transition& t : c.transitions) {
          q += discount * t.probability * values[t.target];
        }
        if (first || (objective == Objective::kMaximize ? q > best
                                                        : q < best)) {
          best = q;
          first = false;
        }
      }
      next[s] = best;
      delta = std::max(delta, std::abs(next[s] - values[s]));
    }
    values.swap(next);
    if (delta < 1e-12) break;
  }
  return values;
}

/// Old nested soft value iteration + forward pass (max-ent IRL).
SoftPolicy soft_value_iteration(const Mdp& mdp,
                                std::span<const double> state_rewards,
                                std::size_t horizon) {
  const std::size_t n = mdp.num_states();
  SoftPolicy policy;
  policy.pi.assign(horizon, {});
  std::vector<double> v(n, 0.0);
  std::vector<double> v_prev(n, 0.0);
  for (std::size_t t = horizon; t-- > 0;) {
    auto& slice = policy.pi[t];
    slice.resize(n);
    for (StateId s = 0; s < n; ++s) {
      const auto& choices = mdp.choices(s);
      std::vector<double> q(choices.size(), 0.0);
      for (std::size_t c = 0; c < choices.size(); ++c) {
        double expect = 0.0;
        for (const Transition& tr : choices[c].transitions) {
          expect += tr.probability * v[tr.target];
        }
        q[c] = state_rewards[s] + choices[c].reward + expect;
      }
      double m = q[0];
      for (double x : q) m = std::max(m, x);
      double acc = 0.0;
      for (double x : q) acc += std::exp(x - m);
      const double lse = m + std::log(acc);
      v_prev[s] = lse;
      slice[s].resize(choices.size());
      for (std::size_t c = 0; c < choices.size(); ++c) {
        slice[s][c] = std::exp(q[c] - lse);
      }
    }
    v.swap(v_prev);
  }
  return policy;
}

std::vector<double> expected_feature_counts(const Mdp& mdp,
                                            const StateFeatures& features,
                                            const SoftPolicy& policy) {
  const std::size_t n = mdp.num_states();
  const std::size_t horizon = policy.horizon();
  std::vector<std::vector<double>> d(horizon + 1,
                                     std::vector<double>(n, 0.0));
  d[0][mdp.initial_state()] = 1.0;
  for (std::size_t t = 0; t < horizon; ++t) {
    for (StateId s = 0; s < n; ++s) {
      const double mass = d[t][s];
      if (mass == 0.0) continue;
      const auto& choices = mdp.choices(s);
      for (std::size_t c = 0; c < choices.size(); ++c) {
        const double pc = policy.pi[t][s][c];
        if (pc == 0.0) continue;
        for (const Transition& tr : choices[c].transitions) {
          d[t + 1][tr.target] += mass * pc * tr.probability;
        }
      }
    }
  }
  std::vector<double> counts(features.dim(), 0.0);
  for (std::size_t t = 0; t < horizon; ++t) {
    for (StateId s = 0; s < n; ++s) {
      if (d[t][s] == 0.0) continue;
      const auto& row = features.row(s);
      for (std::size_t k = 0; k < row.size(); ++k) {
        counts[k] += d[t][s] * row[k];
      }
    }
  }
  return counts;
}

}  // namespace ref

void expect_sets_equal(const StateSet& got, const StateSet& want,
                       const char* what, std::size_t model_idx) {
  EXPECT_EQ(got, want) << what << " mismatch on model " << model_idx;
}

void expect_values_near(const std::vector<double>& got,
                        const std::vector<double>& want, const char* what,
                        std::size_t model_idx) {
  ASSERT_EQ(got.size(), want.size()) << what << " size, model " << model_idx;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isinf(want[i])) {
      EXPECT_TRUE(std::isinf(got[i]))
          << what << "[" << i << "] finite vs inf, model " << model_idx;
    } else {
      EXPECT_NEAR(got[i], want[i], kTol)
          << what << "[" << i << "], model " << model_idx;
    }
  }
}

// ---------------------------------------------------------------------------
// Structure: the CSR arrays are a faithful flattening of the builder form.

TEST(Compiled, StructureMatchesBuilderMdp) {
  Rng rng(11);
  for (std::size_t trial = 0; trial < 8; ++trial) {
    const std::size_t n = 4 + rng.index(24);
    const Mdp mdp = random_mdp(rng, n);
    const CompiledModel model = compile(mdp);
    ASSERT_EQ(model.num_states(), n);
    EXPECT_EQ(model.initial_state(), mdp.initial_state());
    EXPECT_EQ(model.num_choices(), mdp.num_choices());
    EXPECT_FALSE(model.deterministic());
    for (StateId s = 0; s < n; ++s) {
      const auto& choices = mdp.choices(s);
      ASSERT_EQ(model.num_choices_of(s), choices.size());
      EXPECT_DOUBLE_EQ(model.state_reward(s), mdp.state_reward(s));
      for (std::size_t c = 0; c < choices.size(); ++c) {
        const std::uint32_t global = model.first_choice(s) + c;
        EXPECT_EQ(model.choice_action(global), choices[c].action);
        EXPECT_DOUBLE_EQ(model.choice_reward(global), choices[c].reward);
        const auto targets = model.targets(global);
        const auto probs = model.probabilities(global);
        ASSERT_EQ(targets.size(), choices[c].transitions.size());
        for (std::size_t k = 0; k < targets.size(); ++k) {
          EXPECT_EQ(targets[k], choices[c].transitions[k].target);
          EXPECT_DOUBLE_EQ(probs[k], choices[c].transitions[k].probability);
        }
      }
    }
    EXPECT_EQ(model.states_with_label("a"), mdp.states_with_label("a"));
  }
}

TEST(Compiled, StructureMatchesBuilderDtmc) {
  Rng rng(12);
  for (std::size_t trial = 0; trial < 8; ++trial) {
    const std::size_t n = 4 + rng.index(24);
    const Dtmc chain = random_dtmc(rng, n);
    const CompiledModel model = compile(chain);
    ASSERT_EQ(model.num_states(), n);
    EXPECT_TRUE(model.deterministic());
    EXPECT_EQ(model.num_choices(), n);
    for (StateId s = 0; s < n; ++s) {
      const auto& row = chain.transitions(s);
      const auto targets = model.targets(s);
      const auto probs = model.probabilities(s);
      ASSERT_EQ(targets.size(), row.size());
      for (std::size_t k = 0; k < row.size(); ++k) {
        EXPECT_EQ(targets[k], row[k].target);
        EXPECT_DOUBLE_EQ(probs[k], row[k].probability);
      }
    }
    EXPECT_EQ(model.states_with_label("b"), chain.states_with_label("b"));
  }
}

TEST(Compiled, PredecessorsAreCompleteAndDeduped) {
  Rng rng(13);
  for (std::size_t trial = 0; trial < 6; ++trial) {
    const std::size_t n = 4 + rng.index(20);
    const Mdp mdp = random_mdp(rng, n);
    const CompiledModel model = compile(mdp);
    const auto nested = ref::predecessors(mdp);
    for (StateId s = 0; s < n; ++s) {
      std::set<StateId> want(nested[s].begin(), nested[s].end());
      const auto preds = model.predecessors(s);
      std::set<StateId> got(preds.begin(), preds.end());
      EXPECT_EQ(got.size(), preds.size())
          << "duplicate predecessor of state " << s;
      EXPECT_EQ(got, want) << "predecessors of state " << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Qualitative sets.

/// reach_prob01 on a chain: both objectives give the reference DTMC sets.
void expect_dtmc_prob01_matches(const Dtmc& chain, const StateSet& targets,
                                std::size_t trial) {
  const CompiledModel model = compile(chain);
  const StateSet zero = ref::dtmc_prob0(chain, targets);
  const StateSet one = ref::dtmc_prob1(chain, targets);
  for (Objective objective : {Objective::kMaximize, Objective::kMinimize}) {
    const Prob01 got = reach_prob01(model, targets, objective);
    expect_sets_equal(got.zero, zero, "prob0", trial);
    expect_sets_equal(got.one, one, "prob1", trial);
  }
  expect_sets_equal(reachable_existential(model, targets), complement(zero),
                    "reach+", trial);
}

/// reach_prob01 on an MDP against the rescanning references, per objective.
void expect_mdp_prob01_matches(const Mdp& mdp, const StateSet& targets,
                               std::size_t trial) {
  const CompiledModel model = compile(mdp);
  const Prob01 pmax = reach_prob01(model, targets, Objective::kMaximize);
  expect_sets_equal(pmax.zero,
                    complement(ref::reachable_existential(mdp, targets)),
                    "Pmax zero", trial);
  expect_sets_equal(pmax.one, ref::prob1_existential(mdp, targets),
                    "Pmax one", trial);
  const Prob01 pmin = reach_prob01(model, targets, Objective::kMinimize);
  expect_sets_equal(pmin.zero, ref::avoid_certain(mdp, targets), "Pmin zero",
                    trial);
  expect_sets_equal(pmin.one, ref::prob1_universal(mdp, targets), "Pmin one",
                    trial);
  expect_sets_equal(reachable_existential(model, targets),
                    ref::reachable_existential(mdp, targets),
                    "reachable_existential", trial);
  expect_sets_equal(prob1_existential(model, targets), pmax.one,
                    "prob1_existential", trial);
}

TEST(Compiled, DtmcQualitativeSetsMatchReference) {
  Rng rng(21);
  for (std::size_t trial = 0; trial < 64; ++trial) {
    const std::size_t n = 4 + rng.index(197);
    const Dtmc chain = random_dtmc(rng, n);
    expect_dtmc_prob01_matches(chain, random_subset(rng, n, 0.25), trial);
  }
  // Queue meshes up to 14^2 states, toward both corners of the mesh.
  for (std::size_t capacity = 2; capacity <= 13; ++capacity) {
    GeneratorSpec spec;
    spec.family = GeneratorFamily::kQueueMesh;
    spec.size = capacity;
    spec.seed = capacity;
    const Dtmc chain = generate_queue_mesh(spec);
    expect_dtmc_prob01_matches(chain, chain.states_with_label("full"),
                               capacity);
    expect_dtmc_prob01_matches(chain, chain.states_with_label("empty"),
                               capacity);
  }
}

TEST(Compiled, MdpQualitativeSetsMatchReference) {
  Rng rng(22);
  for (std::size_t trial = 0; trial < 64; ++trial) {
    const std::size_t n = 4 + rng.index(197);
    const Mdp mdp = random_mdp(rng, n);
    expect_mdp_prob01_matches(mdp, random_subset(rng, n, 0.25), trial);
  }
  // Grid robots up to 14^2 states: the goal is the highest state index, the
  // case where an index-order rescan advances about one row per pass.
  for (std::size_t side = 3; side <= 14; ++side) {
    GeneratorSpec spec;
    spec.family = GeneratorFamily::kGridRobot;
    spec.size = side;
    spec.seed = side;
    spec.hazard_density = side % 2 == 0 ? 0.1 : 0.0;
    const Mdp mdp = generate_grid_robot(spec);
    const StateSet goal = mdp.states_with_label("goal");
    ASSERT_TRUE(goal[mdp.num_states() - 1]) << "grid " << side;
    expect_mdp_prob01_matches(mdp, goal, side);
    expect_mdp_prob01_matches(mdp, mdp.states_with_label("hazard"), side);
  }
}

// ---------------------------------------------------------------------------
// Quantitative engines.

TEST(Compiled, DtmcReachabilityMatchesReference) {
  Rng rng(31);
  for (std::size_t trial = 0; trial < 8; ++trial) {
    const std::size_t n = 4 + rng.index(28);
    const Dtmc chain = random_dtmc(rng, n);
    const StateSet targets = random_subset(rng, n, 0.25);
    expect_values_near(dtmc_reachability(compile(chain), targets),
                       ref::dtmc_reachability(chain, targets),
                       "dtmc_reachability", trial);
  }
  // Queue meshes up to 14^2 states, the sparse solve's banded case. A
  // mesh is irreducible, so P[F "full"] is 1 everywhere; making "empty"
  // absorbing leaves every other state strictly between 0 and 1.
  for (std::size_t capacity = 2; capacity <= 13; ++capacity) {
    GeneratorSpec spec;
    spec.family = GeneratorFamily::kQueueMesh;
    spec.size = capacity;
    spec.seed = capacity;
    Dtmc chain = generate_queue_mesh(spec);
    const StateSet empty = chain.states_with_label("empty");
    for (StateId s = 0; s < chain.num_states(); ++s) {
      if (empty[s]) chain.set_transitions(s, {Transition{s, 1.0}});
    }
    const StateSet full = chain.states_with_label("full");
    const std::vector<double> want = ref::dtmc_reachability(chain, full);
    const SolveResult got = dtmc_reachability_bracket(compile(chain), full);
    expect_values_near(got.values, want, "dtmc_reachability mesh", capacity);
    for (StateId s = 0; s < chain.num_states(); ++s) {
      EXPECT_LE(got.lo[s], want[s] + kTol) << "mesh " << capacity << " " << s;
      EXPECT_GE(got.hi[s], want[s] - kTol) << "mesh " << capacity << " " << s;
    }
  }
}

TEST(Compiled, DtmcUntilMatchesReference) {
  Rng rng(32);
  for (std::size_t trial = 0; trial < 6; ++trial) {
    const std::size_t n = 4 + rng.index(20);
    const Dtmc chain = random_dtmc(rng, n);
    const StateSet stay = random_subset(rng, n, 0.6);
    const StateSet goal = random_subset(rng, n, 0.2);
    // Reference: make escape states absorbing on the builder form, then
    // run the reference reachability.
    Dtmc modified = chain;
    for (StateId s = 0; s < n; ++s) {
      if (!stay[s] && !goal[s]) {
        modified.set_transitions(s, {Transition{s, 1.0}});
      }
    }
    expect_values_near(dtmc_until_bracket(compile(chain), stay, goal).values,
                       ref::dtmc_reachability(modified, goal), "dtmc_until",
                       trial);
  }
}

TEST(Compiled, MdpReachabilityMatchesReference) {
  Rng rng(33);
  for (std::size_t trial = 0; trial < 6; ++trial) {
    const std::size_t n = 4 + rng.index(20);
    const Mdp mdp = random_mdp(rng, n);
    const StateSet targets = random_subset(rng, n, 0.25);
    const CompiledModel model = compile(mdp);
    for (Objective objective : {Objective::kMaximize, Objective::kMinimize}) {
      SolverOptions options;
      options.tolerance = 1e-12;
      expect_values_near(mdp_reachability(model, targets, objective, options),
                         ref::mdp_reachability(mdp, targets, objective),
                         "mdp_reachability", trial);
    }
  }
}

TEST(Compiled, ValueIterationMatchesReference) {
  Rng rng(34);
  for (std::size_t trial = 0; trial < 5; ++trial) {
    const std::size_t n = 4 + rng.index(16);
    const Mdp mdp = random_mdp(rng, n);
    for (Objective objective : {Objective::kMaximize, Objective::kMinimize}) {
      SolverOptions options;
      options.tolerance = 1e-12;
      const SolveResult got =
          value_iteration_discounted(compile(mdp), 0.9, objective, options);
      expect_values_near(got.values, ref::value_iteration(mdp, 0.9, objective),
                         "value_iteration", trial);
    }
  }
}

TEST(Compiled, PolicyEvaluationMatchesInducedDtmc) {
  Rng rng(35);
  for (std::size_t trial = 0; trial < 5; ++trial) {
    const std::size_t n = 4 + rng.index(16);
    const Mdp mdp = random_mdp(rng, n);
    Policy policy;
    policy.choice_index.resize(n);
    for (StateId s = 0; s < n; ++s) {
      policy.choice_index[s] =
          static_cast<std::uint32_t>(rng.index(mdp.choices(s).size()));
    }
    // Reference: materialize the induced DTMC and evaluate it as a
    // one-choice MDP.
    const Dtmc induced = mdp.induced_dtmc(policy);
    Mdp induced_as_mdp = induced.as_mdp();
    const std::vector<double> want =
        ref::value_iteration(induced_as_mdp, 0.9, Objective::kMaximize);
    expect_values_near(evaluate_policy_discounted(compile(mdp), policy, 0.9),
                       want, "evaluate_policy", trial);
  }
}

TEST(Compiled, BoundedUntilMatchesAcrossRepresentations) {
  Rng rng(36);
  for (std::size_t trial = 0; trial < 5; ++trial) {
    const std::size_t n = 4 + rng.index(16);
    const Dtmc chain = random_dtmc(rng, n);
    const StateSet stay = random_subset(rng, n, 0.7);
    const StateSet goal = random_subset(rng, n, 0.2);
    const std::size_t bound = 1 + rng.index(12);
    // The compiled DTMC and the chain viewed as a one-choice MDP both run
    // the one bounded sweep and must match the builder-level reference.
    const std::vector<double> want =
        ref::bounded_until(chain, stay, goal, bound);
    for (const CompiledModel& model :
         {compile(chain), compile(chain.as_mdp())}) {
      expect_values_near(
          mdp_bounded_until(model, stay, goal, bound, Objective::kMaximize),
          want, "bounded_until", trial);
    }
  }
}

// ---------------------------------------------------------------------------
// Steady state.

TEST(Compiled, StationaryDistributionsValidAgainstBuilderChain) {
  Rng rng(41);
  for (std::size_t trial = 0; trial < 6; ++trial) {
    const std::size_t n = 4 + rng.index(20);
    const Dtmc chain = random_dtmc(rng, n);
    const CompiledModel model = compile(chain);
    const auto bottoms = bottom_sccs(model);
    ASSERT_FALSE(bottoms.empty()) << "model " << trial;
    double total_occupancy = 0.0;
    const std::vector<double> occupancy = long_run_distribution(model);
    for (double o : occupancy) total_occupancy += o;
    EXPECT_NEAR(total_occupancy, 1.0, kTol) << "model " << trial;

    for (const auto& component : bottoms) {
      // Closedness against the builder representation.
      std::set<StateId> members(component.begin(), component.end());
      for (StateId s : component) {
        for (const Transition& t : chain.transitions(s)) {
          if (t.probability > 0.0) {
            EXPECT_TRUE(members.count(t.target))
                << "BSCC leaks " << s << "->" << t.target;
          }
        }
      }
      // π is stationary for the builder chain: π P = π, Σ π = 1.
      const std::vector<double> pi = stationary_distribution(model, component);
      double sum = 0.0;
      for (double p : pi) sum += p;
      EXPECT_NEAR(sum, 1.0, kTol);
      std::vector<double> after(component.size(), 0.0);
      std::vector<int> local(n, -1);
      for (std::size_t i = 0; i < component.size(); ++i) {
        local[component[i]] = static_cast<int>(i);
      }
      for (std::size_t i = 0; i < component.size(); ++i) {
        for (const Transition& t : chain.transitions(component[i])) {
          if (t.probability > 0.0) {
            after[static_cast<std::size_t>(local[t.target])] +=
                pi[i] * t.probability;
          }
        }
      }
      for (std::size_t i = 0; i < component.size(); ++i) {
        EXPECT_NEAR(after[i], pi[i], 1e-8) << "π not stationary at local " << i;
      }
    }

    // Occupancy of each BSCC equals its reference reach probability.
    for (const auto& component : bottoms) {
      StateSet member(n, false);
      for (StateId s : component) member[s] = true;
      const double reach =
          ref::dtmc_reachability(chain, member)[chain.initial_state()];
      double mass = 0.0;
      for (StateId s : component) mass += occupancy[s];
      EXPECT_NEAR(mass, reach, 1e-8) << "BSCC occupancy, model " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// IRL.

TEST(Compiled, IrlFeatureExpectationsMatchReference) {
  Rng rng(51);
  for (std::size_t trial = 0; trial < 5; ++trial) {
    const std::size_t n = 4 + rng.index(12);
    const Mdp mdp = random_mdp(rng, n);
    const std::size_t dim = 3;
    StateFeatures features(n, dim);
    for (StateId s = 0; s < n; ++s) {
      for (std::size_t k = 0; k < dim; ++k) {
        features.set(s, k, rng.uniform(-1.0, 1.0));
      }
    }
    std::vector<double> rewards(n);
    for (double& r : rewards) r = rng.uniform(-0.5, 0.5);
    const std::size_t horizon = 6 + rng.index(6);

    const SoftPolicy got_policy =
        soft_value_iteration(compile(mdp), rewards, horizon);
    const SoftPolicy want_policy =
        ref::soft_value_iteration(mdp, rewards, horizon);
    ASSERT_EQ(got_policy.horizon(), want_policy.horizon());
    for (std::size_t t = 0; t < horizon; ++t) {
      for (StateId s = 0; s < n; ++s) {
        ASSERT_EQ(got_policy.pi[t][s].size(), want_policy.pi[t][s].size());
        for (std::size_t c = 0; c < got_policy.pi[t][s].size(); ++c) {
          EXPECT_NEAR(got_policy.pi[t][s][c], want_policy.pi[t][s][c], kTol);
        }
      }
    }
    expect_values_near(
        expected_feature_counts(compile(mdp), features, got_policy),
        ref::expected_feature_counts(mdp, features, want_policy),
        "feature_counts", trial);
  }
}

// ---------------------------------------------------------------------------
// make_absorbing.

TEST(Compiled, MakeAbsorbingMatchesBuilderTransformation) {
  Rng rng(61);
  for (std::size_t trial = 0; trial < 5; ++trial) {
    const std::size_t n = 4 + rng.index(16);
    const Mdp mdp = random_mdp(rng, n);
    const StateSet absorb = random_subset(rng, n, 0.3);
    const CompiledModel modified = compile(mdp).make_absorbing(absorb);
    Mdp builder = mdp;
    const ActionId self = builder.declare_action("__absorb__");
    for (StateId s = 0; s < n; ++s) {
      if (absorb[s]) {
        auto& choices = builder.mutable_choices(s);
        choices.clear();
        choices.push_back(Choice{self, 0.0, {Transition{s, 1.0}}});
      }
    }
    const StateSet targets = random_subset(rng, n, 0.25);
    for (Objective objective : {Objective::kMaximize, Objective::kMinimize}) {
      SolverOptions options;
      options.tolerance = 1e-12;
      expect_values_near(
          mdp_reachability(modified, targets, objective, options),
          ref::mdp_reachability(builder, targets, objective),
          "make_absorbing reachability", trial);
    }
  }
}

// ---------------------------------------------------------------------------
// Bitset algebra vs a naive bool-vector model.

TEST(Compiled, BitsetMatchesNaiveSetAlgebra) {
  Rng rng(71);
  for (std::size_t trial = 0; trial < 10; ++trial) {
    const std::size_t n = 1 + rng.index(200);
    std::vector<bool> a_ref(n), b_ref(n);
    StateSet a(n, false), b(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      a_ref[i] = rng.uniform() < 0.5;
      b_ref[i] = rng.uniform() < 0.5;
      a[i] = a_ref[i];
      b[i] = b_ref[i];
    }
    std::size_t want_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (a_ref[i]) ++want_count;
    }
    EXPECT_EQ(count(a), want_count);
    const StateSet u = set_union(a, b);
    const StateSet x = set_intersection(a, b);
    const StateSet c = complement(a);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(u[i], a_ref[i] || b_ref[i]);
      EXPECT_EQ(x[i], a_ref[i] && b_ref[i]);
      EXPECT_EQ(c[i], !a_ref[i]);
    }
    EXPECT_EQ(count(u) == 0, empty(u));
  }
}

}  // namespace
}  // namespace tml
