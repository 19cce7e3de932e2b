// Unit tests for the interval-MDP robust verification baseline
// (src/checker/interval.cpp): the order-based greedy inner step, degenerate
// intervals collapsing to the point solver, and hand-computed robust
// reachability under adversarial and cooperative nature.

#include <vector>

#include <gtest/gtest.h>

#include "src/checker/interval.hpp"
#include "src/checker/reachability.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/model.hpp"

namespace tml {
namespace {

TEST(ResolvePolytope, GreedyFillsBestStatesFirst) {
  const std::vector<IntervalTransition> box = {
      {0, 0.2, 0.6},  // value 1.0
      {1, 0.1, 0.5},  // value 0.5
      {2, 0.1, 0.4},  // value 0.0
  };
  const std::vector<double> values = {1.0, 0.5, 0.0};

  // Maximize: start every edge at its lower bound (total 0.4) and hand the
  // 0.6 slack to the highest-value successors first: target 0 soaks 0.4 to
  // its cap, target 1 gets the remaining 0.2.
  const std::vector<double> up = resolve_polytope(box, values, true);
  ASSERT_EQ(up.size(), 3u);
  EXPECT_DOUBLE_EQ(up[0], 0.6);
  EXPECT_DOUBLE_EQ(up[1], 0.3);
  EXPECT_DOUBLE_EQ(up[2], 0.1);
  EXPECT_DOUBLE_EQ(up[0] + up[1] + up[2], 1.0);

  // Minimize: slack flows to the lowest-value successors instead.
  const std::vector<double> down = resolve_polytope(box, values, false);
  EXPECT_DOUBLE_EQ(down[0], 0.2);
  EXPECT_DOUBLE_EQ(down[1], 0.4);
  EXPECT_DOUBLE_EQ(down[2], 0.4);
  EXPECT_DOUBLE_EQ(down[0] + down[1] + down[2], 1.0);
}

TEST(ResolvePolytope, PointIntervalsReturnThePoint) {
  const std::vector<IntervalTransition> box = {{0, 0.25, 0.25},
                                               {1, 0.75, 0.75}};
  const std::vector<double> values = {1.0, 0.0};
  for (const bool maximize : {true, false}) {
    const std::vector<double> p = resolve_polytope(box, values, maximize);
    EXPECT_DOUBLE_EQ(p[0], 0.25);
    EXPECT_DOUBLE_EQ(p[1], 0.75);
  }
}

/// goal = 2, fail = 3; s0 -> s1/fail, s1 -> goal/fail, both 50:50 nominal.
Mdp two_step_chain() {
  Mdp mdp(4);
  mdp.add_choice(0, "a", {Transition{1, 0.5}, Transition{3, 0.5}});
  mdp.add_choice(1, "a", {Transition{2, 0.5}, Transition{3, 0.5}});
  mdp.add_choice(2, "loop", {Transition{2, 1.0}});
  mdp.add_choice(3, "loop", {Transition{3, 1.0}});
  mdp.add_label(2, "goal");
  return mdp;
}

TEST(IntervalReachability, HandComputedTwoStepChain) {
  const Mdp nominal = two_step_chain();
  const IntervalMdp widened = IntervalMdp::widen(nominal, 0.1);
  widened.validate();
  StateSet targets(4);
  targets.set(2);

  // Adversarial nature pushes both steps to their 0.4 floor; cooperative
  // nature lifts both to 0.6.
  const std::vector<double> worst = interval_reachability(
      widened, targets, Objective::kMaximize, Nature::kAdversarial);
  EXPECT_NEAR(worst[0], 0.4 * 0.4, 1e-9);
  EXPECT_NEAR(worst[1], 0.4, 1e-9);
  const std::vector<double> best = interval_reachability(
      widened, targets, Objective::kMaximize, Nature::kCooperative);
  EXPECT_NEAR(best[0], 0.6 * 0.6, 1e-9);
  EXPECT_NEAR(best[1], 0.6, 1e-9);
  // Absorbing endpoints are unaffected by the uncertainty.
  EXPECT_NEAR(worst[2], 1.0, 1e-12);
  EXPECT_NEAR(worst[3], 0.0, 1e-12);
}

/// One decision state: action "safe" hits goal with 0.5 nominal, action
/// "risky" with 0.55; widening by 0.25 gives [0.25,0.75] vs [0.3,0.8].
Mdp decision_state() {
  Mdp mdp(3);
  mdp.add_choice(0, "safe", {Transition{1, 0.5}, Transition{2, 0.5}});
  mdp.add_choice(0, "risky", {Transition{1, 0.55}, Transition{2, 0.45}});
  mdp.add_choice(1, "loop", {Transition{1, 1.0}});
  mdp.add_choice(2, "loop", {Transition{2, 1.0}});
  mdp.add_label(1, "goal");
  return mdp;
}

TEST(IntervalReachability, SchedulerAndNatureInteract) {
  const IntervalMdp widened = IntervalMdp::widen(decision_state(), 0.25);
  StateSet targets(3);
  targets.set(1);

  // max + adversarial: nature floors both actions (0.25 vs 0.3), the
  // scheduler takes the better floor.
  EXPECT_NEAR(interval_reachability(widened, targets, Objective::kMaximize,
                                    Nature::kAdversarial)[0],
              0.30, 1e-9);
  // max + cooperative: both ceilings (0.75 vs 0.8), scheduler takes 0.8.
  EXPECT_NEAR(interval_reachability(widened, targets, Objective::kMaximize,
                                    Nature::kCooperative)[0],
              0.80, 1e-9);
  // min + adversarial: nature RAISES each action (0.75 vs 0.8), the
  // minimizing scheduler picks the smaller ceiling.
  EXPECT_NEAR(interval_reachability(widened, targets, Objective::kMinimize,
                                    Nature::kAdversarial)[0],
              0.75, 1e-9);
  // min + cooperative: floors again (0.25 vs 0.3), scheduler picks 0.25.
  EXPECT_NEAR(interval_reachability(widened, targets, Objective::kMinimize,
                                    Nature::kCooperative)[0],
              0.25, 1e-9);
}

TEST(IntervalReachability, ZeroRadiusCollapsesToPointSolver) {
  const Mdp nominal = decision_state();
  const IntervalMdp degenerate = IntervalMdp::widen(nominal, 0.0);
  StateSet targets(3);
  targets.set(1);
  for (const Objective objective :
       {Objective::kMaximize, Objective::kMinimize}) {
    const std::vector<double> point =
        mdp_reachability(compile(nominal), targets, objective);
    for (const Nature nature : {Nature::kAdversarial, Nature::kCooperative}) {
      const std::vector<double> robust =
          interval_reachability(degenerate, targets, objective, nature);
      ASSERT_EQ(robust.size(), point.size());
      for (std::size_t s = 0; s < point.size(); ++s) {
        EXPECT_NEAR(robust[s], point[s], 1e-8) << "state " << s;
      }
    }
  }
}

}  // namespace
}  // namespace tml
