// Tests for the related-work baselines: interval-MDP robust verification
// (Puggelli et al. [28]) and potential-based reward shaping (Ng et al.
// [26]) — including the policy-invariance theorem that separates shaping
// from Reward Repair.

#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/casestudies/car.hpp"
#include "src/checker/interval.hpp"
#include "src/irl/shaping.hpp"
#include "src/mdp/solver.hpp"

namespace tml {
namespace {

Mdp split_mdp(double p_goal) {
  Mdp mdp(3);
  mdp.add_choice(0, "go",
                 {Transition{1, p_goal}, Transition{2, 1.0 - p_goal}});
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.add_choice(2, "stay", {Transition{2, 1.0}});
  mdp.add_label(1, "goal");
  return mdp;
}

/// resolve_polytope over an index-aligned box, copied out of the scratch.
std::vector<double> resolve(const std::vector<StateId>& targets,
                            const std::vector<double>& lower,
                            const std::vector<double>& upper,
                            const std::vector<double>& values, bool maximize) {
  PolytopeScratch scratch;
  const std::span<const double> p =
      resolve_polytope({targets, lower, upper}, values, maximize, scratch);
  return {p.begin(), p.end()};
}

TEST(ResolvePolytope, SpendsBudgetOnBestSuccessors) {
  const std::vector<StateId> targets{0, 1};
  const std::vector<double> lower{0.2, 0.2};
  const std::vector<double> upper{0.6, 0.6};
  const std::vector<double> values{1.0, 0.0};
  const std::vector<double> maxed =
      resolve(targets, lower, upper, values, /*maximize=*/true);
  EXPECT_NEAR(maxed[0], 0.6, 1e-12);
  EXPECT_NEAR(maxed[1], 0.4, 1e-12);
  const std::vector<double> minned =
      resolve(targets, lower, upper, values, /*maximize=*/false);
  EXPECT_NEAR(minned[0], 0.4, 1e-12);
  EXPECT_NEAR(minned[1], 0.6, 1e-12);
}

TEST(ResolvePolytope, DegenerateIntervalIsExact) {
  const std::vector<double> values{0.5};
  const std::vector<double> p = resolve({0}, {1.0}, {1.0}, values, true);
  EXPECT_NEAR(p[0], 1.0, 1e-12);
}

TEST(IntervalMdp, WidenRespectsBoundsAndValidates) {
  const Mdp nominal = split_mdp(0.5);
  const IntervalMdp widened = IntervalMdp::widen(nominal, 0.1);
  EXPECT_NO_THROW(widened.validate());
  // Bounds are CSR columns aligned with the nominal model's prob().
  const CompiledModel& core = widened.nominal();
  const std::uint32_t k0 = core.choice_start()[core.first_choice(0)];
  EXPECT_NEAR(widened.lower()[k0], 0.4, 1e-12);
  EXPECT_NEAR(widened.upper()[k0], 0.6, 1e-12);
  // Singleton rows stay exact.
  const std::uint32_t k1 = core.choice_start()[core.first_choice(1)];
  EXPECT_NEAR(widened.lower()[k1], 1.0, 1e-12);
  EXPECT_THROW(IntervalMdp::widen(nominal, -0.1), Error);
}

TEST(IntervalReachability, BracketsTheNominalValue) {
  const Mdp nominal = split_mdp(0.5);
  const IntervalMdp widened = IntervalMdp::widen(nominal, 0.1);
  const StateSet goal = nominal.states_with_label("goal");
  const std::vector<double> worst = interval_reachability(
      widened, goal, Objective::kMaximize, Nature::kAdversarial);
  const std::vector<double> best = interval_reachability(
      widened, goal, Objective::kMaximize, Nature::kCooperative);
  // Nominal Pmax = 0.5; adversarial nature drives it to 0.4, cooperative
  // to 0.6.
  EXPECT_NEAR(worst[0], 0.4, 1e-9);
  EXPECT_NEAR(best[0], 0.6, 1e-9);
}

TEST(IntervalReachability, ZeroRadiusMatchesPointModel) {
  const Mdp nominal = split_mdp(0.37);
  const IntervalMdp exact = IntervalMdp::widen(nominal, 0.0);
  const StateSet goal = nominal.states_with_label("goal");
  const std::vector<double> v = interval_reachability(
      exact, goal, Objective::kMaximize, Nature::kAdversarial);
  EXPECT_NEAR(v[0], 0.37, 1e-9);
}

TEST(IntervalReachability, SchedulerStillOptimizesChoices) {
  // Scheduler picks between a safe route (goal prob 0.6±0.05) and a risky
  // one (0.8±0.3 → adversarial floor 0.5): robust Pmax picks the safe one.
  Mdp mdp(3);
  mdp.add_choice(0, "safe", {Transition{1, 0.6}, Transition{2, 0.4}});
  mdp.add_choice(0, "risky", {Transition{1, 0.8}, Transition{2, 0.2}});
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.add_choice(2, "stay", {Transition{2, 1.0}});
  mdp.add_label(1, "goal");
  IntervalMdp widened = IntervalMdp::widen(mdp, 0.3);
  const StateSet goal = mdp.states_with_label("goal");
  const std::vector<double> worst = interval_reachability(
      widened, goal, Objective::kMaximize, Nature::kAdversarial);
  // safe floor: 0.6−0.3 = 0.3; risky floor: 0.8−0.3 = 0.5 → robust 0.5.
  EXPECT_NEAR(worst[0], 0.5, 1e-9);
}

TEST(Shaping, PolicyInvarianceTheorem) {
  // Ng et al.: potential-based shaping never changes the optimal policy.
  const Mdp car = build_car_mdp();
  Mdp rewarded = car;
  // A goal-seeking reward that makes the unsafe straight-through optimal.
  rewarded.set_state_reward(4, 1.0);
  const double discount = 0.9;
  const Policy before = value_iteration_discounted(
                            compile(rewarded), discount, Objective::kMaximize)
                            .policy;
  EXPECT_TRUE(car_policy_unsafe(car, before));

  // Shape with a strongly repulsive potential on the unsafe states.
  const std::vector<double> potential =
      repulsive_potential(rewarded, "unsafe", 50.0);
  const Mdp shaped = apply_potential_shaping(rewarded, potential, discount);
  const Policy after = value_iteration_discounted(
                           compile(shaped), discount, Objective::kMaximize)
                           .policy;
  // Theorem: same optimal policy — still unsafe. (Reward Repair, by
  // contrast, flips it; see test_car.cpp.)
  EXPECT_EQ(before.choice_index, after.choice_index);
  EXPECT_TRUE(car_policy_unsafe(car, after));
}

TEST(Shaping, ValuesShiftByPotential) {
  // V'_shaped(s) = V(s) − Φ(s) for the γ-discounted criterion.
  Mdp mdp(2);
  mdp.add_choice(0, "go", {Transition{1, 1.0}});
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.set_state_reward(1, 1.0);
  const double discount = 0.8;
  const std::vector<double> potential{2.0, -1.0};
  const Mdp shaped = apply_potential_shaping(mdp, potential, discount);
  const SolveResult base =
      value_iteration_discounted(compile(mdp), discount, Objective::kMaximize);
  const SolveResult after = value_iteration_discounted(
      compile(shaped), discount, Objective::kMaximize);
  for (StateId s = 0; s < 2; ++s) {
    EXPECT_NEAR(after.values[s], base.values[s] - potential[s], 1e-6);
  }
}

TEST(Shaping, InputValidation) {
  const Mdp mdp = split_mdp(0.5);
  const std::vector<double> wrong_size{1.0};
  EXPECT_THROW(apply_potential_shaping(mdp, wrong_size, 0.9), Error);
  const std::vector<double> ok(3, 0.0);
  EXPECT_THROW(apply_potential_shaping(mdp, ok, 0.0), Error);
  EXPECT_THROW(repulsive_potential(mdp, "goal", -1.0), Error);
}

}  // namespace
}  // namespace tml
