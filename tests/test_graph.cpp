// Unit tests for the qualitative graph precomputations (prob0/prob1), run
// on the compiled form through the reach_prob01 entry point.

#include "src/mdp/graph.hpp"

#include <gtest/gtest.h>

namespace tml {
namespace {

/// Classic MDP where qualitative analysis matters:
///   s0: action a → s1 (goal), action b → s2 (trap loop)
///   s1: absorbing (goal)
///   s2: absorbing (trap)
///   s3: 0.5 → s0, 0.5 → s2 (single action)
Mdp trap_mdp() {
  Mdp mdp(4);
  mdp.add_choice(0, "a", {Transition{1, 1.0}});
  mdp.add_choice(0, "b", {Transition{2, 1.0}});
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.add_choice(2, "stay", {Transition{2, 1.0}});
  mdp.add_choice(3, "go", {Transition{0, 0.5}, Transition{2, 0.5}});
  mdp.add_label(1, "goal");
  return mdp;
}

StateSet goal_of(const Mdp& mdp) { return mdp.states_with_label("goal"); }

/// One-choice models give the same sets for either objective.
Prob01 dtmc_prob01(const Dtmc& chain, const StateSet& target) {
  const CompiledModel model = compile(chain);
  Prob01 sets = reach_prob01(model, target, Objective::kMaximize);
  const Prob01 other = reach_prob01(model, target, Objective::kMinimize);
  EXPECT_EQ(sets.zero, other.zero);
  EXPECT_EQ(sets.one, other.one);
  return sets;
}

TEST(Graph, ReachableExistential) {
  const Mdp mdp = trap_mdp();
  const StateSet r = reachable_existential(compile(mdp), goal_of(mdp));
  EXPECT_TRUE(r[0]);   // choose a
  EXPECT_TRUE(r[1]);   // is goal
  EXPECT_FALSE(r[2]);  // trap
  EXPECT_TRUE(r[3]);   // via s0
}

TEST(Graph, AvoidCertain) {
  const Mdp mdp = trap_mdp();
  const StateSet avoid =
      reach_prob01(compile(mdp), goal_of(mdp), Objective::kMinimize).zero;
  EXPECT_TRUE(avoid[0]);   // choose b forever
  EXPECT_FALSE(avoid[1]);  // is the goal itself
  EXPECT_TRUE(avoid[2]);
  EXPECT_TRUE(avoid[3]);  // the one action reaches {s0, s2}, both avoidable
}

TEST(Graph, Prob1Existential) {
  const Mdp mdp = trap_mdp();
  const StateSet p1 = prob1_existential(compile(mdp), goal_of(mdp));
  EXPECT_EQ(p1,
            reach_prob01(compile(mdp), goal_of(mdp), Objective::kMaximize).one);
  EXPECT_TRUE(p1[0]);   // action a reaches goal surely
  EXPECT_TRUE(p1[1]);
  EXPECT_FALSE(p1[2]);
  EXPECT_FALSE(p1[3]);  // half the mass falls into the trap
}

TEST(Graph, Prob1Universal) {
  const Mdp mdp = trap_mdp();
  const StateSet p1 =
      reach_prob01(compile(mdp), goal_of(mdp), Objective::kMinimize).one;
  EXPECT_FALSE(p1[0]);  // scheduler can pick b
  EXPECT_TRUE(p1[1]);
  EXPECT_FALSE(p1[2]);
  EXPECT_FALSE(p1[3]);
}

TEST(Graph, Prob1UniversalAllRoutesLead) {
  // A chain where every choice leads to the goal eventually.
  Mdp mdp(3);
  mdp.add_choice(0, "a", {Transition{1, 1.0}});
  mdp.add_choice(0, "b", {Transition{1, 0.5}, Transition{2, 0.5}});
  mdp.add_choice(1, "go", {Transition{2, 1.0}});
  mdp.add_choice(2, "stay", {Transition{2, 1.0}});
  mdp.add_label(2, "goal");
  const StateSet p1 = reach_prob01(compile(mdp), mdp.states_with_label("goal"),
                                   Objective::kMinimize)
                          .one;
  EXPECT_TRUE(p1[0]);
  EXPECT_TRUE(p1[1]);
  EXPECT_TRUE(p1[2]);
}

TEST(Graph, DtmcProb0Prob1) {
  // Gambler's chain: 0 ← 1 → 2, absorbing at both ends; target is 2.
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{0, 1.0}});
  chain.set_transitions(1, {Transition{0, 0.5}, Transition{2, 0.5}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  StateSet target(3, false);
  target[2] = true;
  const auto [zero, one] = dtmc_prob01(chain, target);
  EXPECT_TRUE(zero[0]);
  EXPECT_FALSE(zero[1]);
  EXPECT_FALSE(zero[2]);
  EXPECT_FALSE(one[0]);
  EXPECT_FALSE(one[1]);
  EXPECT_TRUE(one[2]);
}

TEST(Graph, DtmcProb1TransientLoop) {
  // 0 → 0 (0.9) / 1 (0.1); 1 absorbing target: reaches with prob 1.
  Dtmc chain(2);
  chain.set_transitions(0, {Transition{0, 0.9}, Transition{1, 0.1}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  StateSet target(2, false);
  target[1] = true;
  const StateSet one = dtmc_prob01(chain, target).one;
  EXPECT_TRUE(one[0]);
  EXPECT_TRUE(one[1]);
}

TEST(Graph, ForwardReachableMdp) {
  const Mdp mdp = trap_mdp();
  const CompiledModel model = compile(mdp);
  const StateSet from0 = forward_reachable(model, 0);
  EXPECT_TRUE(from0[0]);
  EXPECT_TRUE(from0[1]);
  EXPECT_TRUE(from0[2]);
  EXPECT_FALSE(from0[3]);
  const StateSet from3 = forward_reachable(model, 3);
  EXPECT_TRUE(from3[3]);
  EXPECT_TRUE(from3[0]);
}

TEST(Graph, ForwardReachableDtmc) {
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 1.0}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{0, 1.0}});
  const StateSet r = forward_reachable(compile(chain), 0);
  EXPECT_TRUE(r[0]);
  EXPECT_TRUE(r[1]);
  EXPECT_FALSE(r[2]);
}

TEST(Graph, SizeMismatchThrows) {
  const CompiledModel model = compile(trap_mdp());
  EXPECT_THROW(reachable_existential(model, StateSet(2, false)), Error);
  EXPECT_THROW(reach_prob01(model, StateSet(2, false), Objective::kMinimize),
               Error);
  EXPECT_THROW(prob1_existential(model, StateSet(9, false)), Error);
  EXPECT_THROW(reach_prob01(model, StateSet(9, false), Objective::kMaximize),
               Error);
}

TEST(Graph, DtmcProb1PathThroughTargetCounts) {
  // 0 → 1 (target) → 2 (absorbing, not target). P(F {1}) from 0 is exactly
  // 1 even though 0 can "reach" the prob-0 state 2 — only via the target.
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 1.0}});
  chain.set_transitions(1, {Transition{2, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  StateSet target(3, false);
  target[1] = true;
  const StateSet one = dtmc_prob01(chain, target).one;
  EXPECT_TRUE(one[0]);
  EXPECT_TRUE(one[1]);
  EXPECT_FALSE(one[2]);
}

TEST(Graph, Prob1UniversalPathThroughTargetCounts) {
  // Same shape as an MDP: the post-target region is irrelevant to Pmin=1.
  Mdp mdp(3);
  mdp.add_choice(0, "go", {Transition{1, 1.0}});
  mdp.add_choice(1, "go", {Transition{2, 1.0}});
  mdp.add_choice(2, "stay", {Transition{2, 1.0}});
  StateSet target(3, false);
  target[1] = true;
  const StateSet one =
      reach_prob01(compile(mdp), target, Objective::kMinimize).one;
  EXPECT_TRUE(one[0]);
  EXPECT_TRUE(one[1]);
  EXPECT_FALSE(one[2]);
}

TEST(Graph, ZeroProbabilityEdgesIgnored) {
  // A structural edge with probability 0 must not create reachability.
  Mdp mdp(2);
  mdp.add_choice(0, "a", {Transition{1, 0.0}, Transition{0, 1.0}});
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.add_label(1, "goal");
  const StateSet r =
      reachable_existential(compile(mdp), mdp.states_with_label("goal"));
  EXPECT_FALSE(r[0]);
}

}  // namespace
}  // namespace tml
