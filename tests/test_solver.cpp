// Unit tests for the MDP dynamic-programming solvers, checked against
// closed-form results, and for the sparse direct solver behind the
// one-choice solves, checked against the dense Gaussian elimination.

#include "src/mdp/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/casestudies/generator.hpp"
#include "src/common/matrix.hpp"
#include "src/common/rng.hpp"
#include "src/mdp/bellman.hpp"
#include "src/mdp/graph.hpp"
#include "src/mdp/prism_parser.hpp"
#include "tests/dense.hpp"

namespace tml {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Geometric retry chain: state 0 retries with prob q, succeeds to state 1
/// with prob 1−q; reward 1 per attempt. E[attempts] = 1/(1−q).
Dtmc retry_chain(double q) {
  Dtmc chain(2);
  chain.set_transitions(0, {Transition{0, q}, Transition{1, 1.0 - q}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_state_reward(0, 1.0);
  return chain;
}

StateSet target_1(std::size_t n = 2) {
  StateSet t(n, false);
  t[1] = true;
  return t;
}

TEST(DtmcTotalReward, GeometricRetry) {
  for (const double q : {0.0, 0.5, 0.9, 0.99}) {
    const Dtmc chain = retry_chain(q);
    const std::vector<double> v = dtmc_total_reward(compile(chain), target_1());
    EXPECT_NEAR(v[0], 1.0 / (1.0 - q), 1e-9) << "q=" << q;
    EXPECT_DOUBLE_EQ(v[1], 0.0);
  }
}

TEST(DtmcTotalReward, UnreachableTargetIsInfinite) {
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{0, 1.0}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{0, 1.0}});
  chain.set_state_reward(2, 1.0);
  const std::vector<double> v = dtmc_total_reward(compile(chain), target_1(3));
  EXPECT_EQ(v[0], kInf);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_EQ(v[2], kInf);
}

TEST(DtmcTotalReward, PartialReachabilityIsInfinite) {
  // 0 → goal (0.5) / trap (0.5): reward expectation diverges.
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 0.5}, Transition{2, 0.5}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  chain.set_state_reward(0, 1.0);
  const std::vector<double> v = dtmc_total_reward(compile(chain), target_1(3));
  EXPECT_EQ(v[0], kInf);
}

TEST(DtmcTotalReward, ZeroProbabilityEdgeToADivergentStateIsIgnored) {
  // 0 → goal surely, with a probability-0 edge into the divergent trap 2:
  // the edge contributes nothing, so E[reward from 0] = 1.
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 1.0}, Transition{2, 0.0}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  chain.set_state_reward(0, 1.0);
  const SolveResult r =
      dtmc_total_reward_bracket(compile(chain), target_1(3));
  EXPECT_EQ(r.values[0], 1.0);
  EXPECT_EQ(r.values[2], kInf);
  EXPECT_LE(r.lo[0], 1.0);
  EXPECT_GE(r.hi[0], 1.0);
}

TEST(DtmcReachability, GamblersRuin) {
  // Symmetric walk on 0..4, absorbing ends, target 4: P(reach 4 | start i)
  // = i/4.
  Dtmc chain(5);
  chain.set_transitions(0, {Transition{0, 1.0}});
  chain.set_transitions(4, {Transition{4, 1.0}});
  for (StateId s = 1; s <= 3; ++s) {
    chain.set_transitions(
        s, {Transition{s - 1, 0.5}, Transition{s + 1, 0.5}});
  }
  StateSet target(5, false);
  target[4] = true;
  const std::vector<double> v = dtmc_reachability(compile(chain), target);
  for (StateId s = 0; s <= 4; ++s) {
    EXPECT_NEAR(v[s], s / 4.0, 1e-9);
  }
}

TEST(DtmcReachability, TrivialCases) {
  const Dtmc chain = retry_chain(0.3);
  const std::vector<double> v = dtmc_reachability(compile(chain), target_1());
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(v[1], 1.0);
}

/// Two-action MDP: fast action reaches the goal in one costly step (cost 5),
/// slow action takes two cheap steps (1 + 1).
Mdp two_route_mdp() {
  Mdp mdp(3);
  mdp.add_choice(0, "fast", {Transition{2, 1.0}}, 5.0);
  mdp.add_choice(0, "slow", {Transition{1, 1.0}}, 1.0);
  mdp.add_choice(1, "go", {Transition{2, 1.0}}, 1.0);
  mdp.add_choice(2, "stay", {Transition{2, 1.0}});
  mdp.add_label(2, "goal");
  return mdp;
}

TEST(TotalRewardToTarget, MinPicksCheapRoute) {
  const CompiledModel mdp = compile(two_route_mdp());
  const SolveResult r = total_reward_to_target(
      mdp, mdp.states_with_label("goal"), Objective::kMinimize);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.values[0], 2.0, 1e-9);
  EXPECT_EQ(r.policy.choice_index[0], 1u);  // slow
}

TEST(TotalRewardToTarget, MaxPicksExpensiveRoute) {
  const CompiledModel mdp = compile(two_route_mdp());
  const SolveResult r = total_reward_to_target(
      mdp, mdp.states_with_label("goal"), Objective::kMaximize);
  EXPECT_NEAR(r.values[0], 5.0, 1e-9);
  EXPECT_EQ(r.policy.choice_index[0], 0u);  // fast
}

TEST(TotalRewardToTarget, RminInfiniteWithoutSureRoute) {
  // The only action from 0 loses half its mass into a trap.
  Mdp mdp(3);
  mdp.add_choice(0, "try", {Transition{1, 0.5}, Transition{2, 0.5}}, 1.0);
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.add_choice(2, "stay", {Transition{2, 1.0}});
  mdp.add_label(1, "goal");
  const SolveResult r = total_reward_to_target(
      compile(mdp), mdp.states_with_label("goal"), Objective::kMinimize);
  EXPECT_EQ(r.values[0], kInf);
}

TEST(TotalRewardToTarget, RmaxInfiniteWhenAvoidable) {
  // Scheduler can loop forever away from the target ⇒ Rmax = inf.
  Mdp mdp(2);
  mdp.add_choice(0, "go", {Transition{1, 1.0}}, 1.0);
  mdp.add_choice(0, "loop", {Transition{0, 1.0}}, 1.0);
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.add_label(1, "goal");
  const SolveResult r = total_reward_to_target(
      compile(mdp), mdp.states_with_label("goal"), Objective::kMaximize);
  EXPECT_EQ(r.values[0], kInf);
}

TEST(ValueIterationDiscounted, ClosedFormSingleLoop) {
  // One state, self-loop, reward 1: V = 1/(1−γ).
  Mdp mdp(1);
  mdp.add_choice(0, "stay", {Transition{0, 1.0}});
  mdp.set_state_reward(0, 1.0);
  const SolveResult r =
      value_iteration_discounted(compile(mdp), 0.9, Objective::kMaximize);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.values[0], 10.0, 1e-6);
}

TEST(ValueIterationDiscounted, PrefersHigherRewardLoop) {
  Mdp mdp(2);
  mdp.add_choice(0, "here", {Transition{0, 1.0}});
  mdp.add_choice(0, "there", {Transition{1, 1.0}});
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.set_state_reward(0, 1.0);
  mdp.set_state_reward(1, 2.0);
  const CompiledModel model = compile(mdp);
  const SolveResult max =
      value_iteration_discounted(model, 0.9, Objective::kMaximize);
  EXPECT_EQ(max.policy.choice_index[0], 1u);
  const SolveResult min =
      value_iteration_discounted(model, 0.9, Objective::kMinimize);
  EXPECT_EQ(min.policy.choice_index[0], 0u);
}

TEST(ValueIterationDiscounted, RejectsBadDiscount) {
  Mdp mdp(1);
  mdp.add_choice(0, "stay", {Transition{0, 1.0}});
  const CompiledModel model = compile(mdp);
  EXPECT_THROW(value_iteration_discounted(model, 1.0, Objective::kMaximize),
               Error);
  EXPECT_THROW(value_iteration_discounted(model, 0.0, Objective::kMaximize),
               Error);
}

TEST(QValues, MatchManualComputation) {
  const CompiledModel mdp = compile(two_route_mdp());
  const std::vector<double> values{1.0, 2.0, 3.0};
  const auto q = q_values_discounted(mdp, values, 0.5);
  // Q(0, fast) = 0 + 5 + 0.5·3 = 6.5; Q(0, slow) = 1 + 0.5·2 = 2.
  EXPECT_NEAR(q[0][0], 6.5, 1e-12);
  EXPECT_NEAR(q[0][1], 2.0, 1e-12);
}

TEST(QValues, GreedyPolicyTiesToSmallestIndex) {
  Mdp mdp(1);
  mdp.add_choice(0, "a", {Transition{0, 1.0}});
  mdp.add_choice(0, "b", {Transition{0, 1.0}});
  const CompiledModel model = compile(mdp);
  for (const Objective objective :
       {Objective::kMaximize, Objective::kMinimize}) {
    const BestChoice best =
        best_choice(model, 0, objective, [](std::uint32_t) { return 1.0; });
    EXPECT_EQ(best.choice, 0u);
    EXPECT_EQ(best.value, 1.0);
  }
}

TEST(PolicyIteration, MatchesValueIteration) {
  const CompiledModel mdp = compile(two_route_mdp());
  for (const Objective objective :
       {Objective::kMaximize, Objective::kMinimize}) {
    const SolveResult vi =
        value_iteration_discounted(mdp, 0.85, objective);
    const SolveResult pi =
        policy_iteration_discounted(mdp, 0.85, objective);
    EXPECT_TRUE(pi.converged);
    // PI terminates in very few exact steps.
    EXPECT_LT(pi.iterations, 10u);
    for (std::size_t s = 0; s < vi.values.size(); ++s) {
      EXPECT_NEAR(pi.values[s], vi.values[s], 1e-6);
    }
    EXPECT_EQ(pi.policy.choice_index, vi.policy.choice_index);
  }
}

TEST(PolicyIteration, HandlesSingleChoiceModels) {
  Mdp mdp(2);
  mdp.add_choice(0, "go", {Transition{1, 1.0}});
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.set_state_reward(1, 1.0);
  const SolveResult pi =
      policy_iteration_discounted(compile(mdp), 0.9, Objective::kMaximize);
  EXPECT_TRUE(pi.converged);
  EXPECT_NEAR(pi.values[1], 10.0, 1e-9);
  EXPECT_NEAR(pi.values[0], 9.0, 1e-9);
}

TEST(PolicyIteration, RejectsBadDiscount) {
  Mdp mdp(1);
  mdp.add_choice(0, "stay", {Transition{0, 1.0}});
  EXPECT_THROW(
      policy_iteration_discounted(compile(mdp), 1.2, Objective::kMaximize),
      Error);
}

TEST(PolicyEvaluation, MatchesValueIteration) {
  const CompiledModel mdp = compile(two_route_mdp());
  const SolveResult vi =
      value_iteration_discounted(mdp, 0.8, Objective::kMaximize);
  const std::vector<double> eval =
      evaluate_policy_discounted(mdp, vi.policy, 0.8);
  for (std::size_t s = 0; s < eval.size(); ++s) {
    EXPECT_NEAR(eval[s], vi.values[s], 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Sparse direct solver

/// Random sparse nonsingular M-matrix of size n: negative off-diagonals in
/// a local window plus a few long-range entries (so the RCM ordering has
/// work to do), and a diagonal exceeding each row's off-diagonal mass by a
/// margin in [0.05, 1).
SparseMatrix random_m_matrix(Rng& rng, std::size_t n) {
  SparseMatrix a;
  for (std::size_t i = 0; i < n; ++i) {
    double mass = 0.0;
    const std::size_t entries = rng.index(5);
    for (std::size_t e = 0; e < entries; ++e) {
      const std::size_t window = i + rng.index(7) - std::min<std::size_t>(i, 3);
      const std::size_t j =
          rng.uniform() < 0.2 ? rng.index(n) : std::min(n - 1, window);
      if (j == i) continue;
      const double v = rng.uniform(0.01, 1.0);
      a.add(static_cast<std::uint32_t>(j), -v);
      mass += v;
    }
    a.add(static_cast<std::uint32_t>(i), mass + rng.uniform(0.05, 1.0));
    a.end_row();
  }
  return a;
}

dense::Matrix dense_of(const SparseMatrix& a) {
  dense::Matrix d(a.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::uint32_t k = a.row_start[i]; k < a.row_start[i + 1]; ++k) {
      d(i, a.col[k]) += a.value[k];
    }
  }
  return d;
}

TEST(EnvelopeLU, MatchesDenseSolveOnRandomMMatrices) {
  Rng rng(20261019);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + rng.index(200);
    const SparseMatrix a = random_m_matrix(rng, n);
    std::vector<double> b(n);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    const std::vector<double> sparse = EnvelopeLU(a).solve(b);
    const std::vector<double> dense = dense::solve(dense_of(a), b);
    double scale = 0.0;
    for (double v : dense) scale = std::max(scale, std::abs(v));
    EXPECT_LE(max_abs_diff(sparse, dense), 1e-12 * scale)
        << "trial=" << trial << " n=" << n;
  }
}

TEST(EnvelopeLU, SolveTransposedMatchesDenseSolve) {
  Rng rng(20261020);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + rng.index(200);
    const SparseMatrix a = random_m_matrix(rng, n);
    std::vector<double> b(n);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    const dense::Matrix d = dense_of(a);
    dense::Matrix t(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) t(j, i) = d(i, j);
    }
    const std::vector<double> sparse = EnvelopeLU(a).solve_transposed(b);
    const std::vector<double> dense = dense::solve(std::move(t), b);
    double scale = 0.0;
    for (double v : dense) scale = std::max(scale, std::abs(v));
    EXPECT_LE(max_abs_diff(sparse, dense), 1e-12 * scale)
        << "trial=" << trial << " n=" << n;
  }
}

TEST(EnvelopeLU, RcmOrderIsAPermutation) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    // Includes empty rows and several components.
    const std::size_t n = 1 + rng.index(150);
    SparseMatrix a;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.uniform() < 0.3) {
        a.add(static_cast<std::uint32_t>(rng.index(n)), 1.0);
      }
      a.end_row();
    }
    std::vector<std::uint32_t> order = rcm_order(a);
    ASSERT_EQ(order.size(), n);
    std::sort(order.begin(), order.end());
    for (std::uint32_t k = 0; k < n; ++k) ASSERT_EQ(order[k], k);
  }
}

TEST(EnvelopeLU, RcmRecoversTheBandOfAShuffledGrid) {
  // A W×W 5-point grid under a random labelling has bandwidth ~W²; RCM
  // lays it out by anti-diagonals, bandwidth at most about W.
  constexpr std::size_t kW = 20;
  constexpr std::size_t n = kW * kW;
  std::vector<std::uint32_t> label(n);
  std::iota(label.begin(), label.end(), 0u);
  Rng rng(11);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(label[i - 1], label[rng.index(i)]);
  }
  std::vector<std::vector<std::uint32_t>> rows(n);
  for (std::size_t r = 0; r < kW; ++r) {
    for (std::size_t c = 0; c < kW; ++c) {
      const std::uint32_t me = label[r * kW + c];
      if (r + 1 < kW) rows[me].push_back(label[(r + 1) * kW + c]);
      if (c + 1 < kW) rows[me].push_back(label[r * kW + c + 1]);
    }
  }
  SparseMatrix a;
  for (const auto& row : rows) {
    for (const std::uint32_t j : row) a.add(j, -0.25);
    a.end_row();
  }
  const std::vector<std::uint32_t> order = rcm_order(a);
  std::vector<std::size_t> position(n);
  for (std::size_t k = 0; k < n; ++k) position[order[k]] = k;
  std::size_t bandwidth = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint32_t k = a.row_start[i]; k < a.row_start[i + 1]; ++k) {
      const std::size_t p = position[i];
      const std::size_t q = position[a.col[k]];
      bandwidth = std::max(bandwidth, p > q ? p - q : q - p);
    }
  }
  EXPECT_LE(bandwidth, kW + 1);
}

TEST(EnvelopeLU, ZeroPivotIsNumericError) {
  // I − P of a closed two-state cycle: singular, the second pivot is 0.
  SparseMatrix closed;
  closed.add(0, 1.0);
  closed.add(1, -1.0);
  closed.end_row();
  closed.add(0, -1.0);
  closed.add(1, 1.0);
  closed.end_row();
  EXPECT_THROW(EnvelopeLU{closed}, NumericError);
  // A zero diagonal is a zero first pivot, whatever the order.
  SparseMatrix swap;
  swap.add(1, 1.0);
  swap.end_row();
  swap.add(0, 1.0);
  swap.end_row();
  EXPECT_THROW(EnvelopeLU{swap}, NumericError);
}

TEST(EnvelopeLU, CancelledBudgetThrowsBudgetExhausted) {
  Rng rng(3);
  const SparseMatrix a = random_m_matrix(rng, 50);
  Budget cancelled;
  cancelled.cancel.cancel();
  try {
    EnvelopeLU lu(a, cancelled);
    FAIL() << "a cancelled factorization must throw";
  } catch (const BudgetExhausted& e) {
    EXPECT_EQ(e.stop(), BudgetStop::kCancelled);
    EXPECT_FALSE(e.bracket().has_value());
  }
  SolverOptions options;
  options.budget = cancelled;
  EXPECT_THROW(
      (void)dtmc_total_reward_bracket(compile(retry_chain(0.5)), target_1(),
                                      options),
      BudgetExhausted);
}

/// The dense Gaussian elimination the sparse solve replaced: expected total
/// reward over the almost-surely-reaching states, one full n×n matrix.
std::vector<double> dense_total_reward(const CompiledModel& model,
                                       const StateSet& targets) {
  const std::size_t n = model.num_states();
  const StateSet certain =
      reach_prob01(model, targets, Objective::kMinimize).one;
  std::vector<std::size_t> index(n, n);
  std::vector<StateId> unknowns;
  for (StateId s = 0; s < n; ++s) {
    if (certain[s] && !targets[s]) {
      index[s] = unknowns.size();
      unknowns.push_back(s);
    }
  }
  dense::Matrix a = dense::Matrix::identity(unknowns.size());
  std::vector<double> b(unknowns.size());
  for (std::size_t i = 0; i < unknowns.size(); ++i) {
    const std::uint32_t c = model.first_choice(unknowns[i]);
    b[i] = model.state_reward(unknowns[i]);
    for (std::uint32_t k = model.choice_start()[c];
         k < model.choice_start()[c + 1]; ++k) {
      if (!targets[model.target()[k]]) {
        a(i, index[model.target()[k]]) -= model.prob()[k];
      }
    }
  }
  const std::vector<double> x = dense::solve(std::move(a), std::move(b));
  std::vector<double> values(n, kInf);
  for (StateId s = 0; s < n; ++s) {
    if (targets[s]) values[s] = 0.0;
  }
  for (std::size_t i = 0; i < unknowns.size(); ++i) values[unknowns[i]] = x[i];
  return values;
}

TEST(DtmcTotalReward, StiffQueueMeshesAgreeWithDenseSolve) {
  // The 2304-state queue meshes whose R=? [ F "full" ] reaches 4.4e8
  // expected reward: slowly mixing, so only a direct solve answers them.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    GeneratorSpec spec;
    spec.family = GeneratorFamily::kQueueMesh;
    spec.size = 47;
    spec.seed = seed;
    const CompiledModel model =
        compile(parse_prism(generate_prism(spec)).dtmc());
    const StateSet full = model.states_with_label("full");
    const SolveResult sparse = dtmc_total_reward_bracket(model, full);
    const std::vector<double> dense = dense_total_reward(model, full);
    double largest = 0.0;
    for (StateId s = 0; s < model.num_states(); ++s) {
      ASSERT_TRUE(std::isfinite(dense[s])) << "seed=" << seed << " " << s;
      EXPECT_NEAR(sparse.values[s], dense[s], 1e-9 * dense[s])
          << "seed=" << seed << " state=" << s;
      EXPECT_LE(sparse.lo[s], sparse.values[s]);
      EXPECT_GE(sparse.hi[s], sparse.values[s]);
      largest = std::max(largest, dense[s]);
    }
    if (seed == 2) {
      EXPECT_GT(largest, 4e8);
    }
  }
}

TEST(DtmcBracket, ContainsTheClosedFormValue) {
  for (const double q : {0.0, 0.5, 0.9, 0.999, 0.999999}) {
    const SolveResult r =
        dtmc_total_reward_bracket(compile(retry_chain(q)), target_1());
    const double exact = 1.0 / (1.0 - q);
    EXPECT_LE(r.lo[0], exact) << "q=" << q;
    EXPECT_GE(r.hi[0], exact) << "q=" << q;
    EXPECT_LE(r.hi[0] - r.lo[0], 1e-6 * exact) << "q=" << q;
    EXPECT_EQ(r.lo[1], 0.0);
    EXPECT_EQ(r.hi[1], 0.0);
  }
}

}  // namespace
}  // namespace tml
