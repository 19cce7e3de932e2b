// Unit tests for the MDP dynamic-programming solvers, checked against
// closed-form results.

#include "src/mdp/solver.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

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
  const std::vector<std::vector<double>> q{{1.0, 1.0}, {0.0}};
  const Policy max = greedy_policy(q, Objective::kMaximize);
  EXPECT_EQ(max.choice_index[0], 0u);
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

}  // namespace
}  // namespace tml
