// Tests for parametric DTMCs and state elimination, cross-validated against
// the numeric checker at random parameter instantiations — the key
// soundness property of the parametric engine.

#include <cmath>

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/mdp/solver.hpp"
#include "src/parametric/parametric_dtmc.hpp"
#include "src/parametric/state_elimination.hpp"

namespace tml {
namespace {

RationalFunction var(Var v) { return RationalFunction::variable(v); }
RationalFunction constant(double c) { return RationalFunction(c); }

/// Retry chain with a parameter: stay with prob x, advance with 1−x.
ParametricDtmc retry_chain() {
  VariablePool pool;
  const Var x = pool.declare("x");
  ParametricDtmc chain(2, std::move(pool));
  chain.set_transition(0, 0, var(x));
  chain.set_transition(0, 1, one_minus(var(x)));
  chain.set_transition(1, 1, constant(1.0));
  chain.set_state_reward(0, constant(1.0));
  chain.add_label(1, "goal");
  return chain;
}

StateSet goal_set(const ParametricDtmc& chain) {
  StateSet set(chain.num_states(), false);
  set[chain.num_states() - 1] = true;
  return set;
}

TEST(ParametricDtmc, AccessorsAndRows) {
  const ParametricDtmc chain = retry_chain();
  EXPECT_EQ(chain.num_states(), 2u);
  EXPECT_EQ(chain.row(0).size(), 2u);
  EXPECT_TRUE(chain.transition(1, 0).is_zero());
  EXPECT_FALSE(chain.transition(0, 0).is_zero());
}

TEST(ParametricDtmc, SymbolicValidation) {
  const ParametricDtmc chain = retry_chain();
  EXPECT_NO_THROW(chain.validate_symbolic());

  VariablePool pool;
  const Var x = pool.declare("x");
  ParametricDtmc bad(1, std::move(pool));
  bad.set_transition(0, 0, var(x));  // row sums to x, not 1
  EXPECT_THROW(bad.validate_symbolic(), ModelError);
}

TEST(ParametricDtmc, InstantiateProducesValidChainWithLabels) {
  const ParametricDtmc chain = retry_chain();
  const std::vector<double> point{0.3};
  const Dtmc concrete = chain.instantiate(point);
  EXPECT_NO_THROW(concrete.validate());
  EXPECT_TRUE(concrete.has_label(1, "goal"));
  EXPECT_DOUBLE_EQ(concrete.state_reward(0), 1.0);
  EXPECT_NEAR(concrete.transitions(0)[0].probability +
                  concrete.transitions(0)[1].probability,
              1.0, 1e-12);
}

TEST(ParametricDtmc, InstantiateRejectsNonStochasticPoint) {
  const ParametricDtmc chain = retry_chain();
  const std::vector<double> bad{1.4};  // stay prob > 1
  EXPECT_THROW(chain.instantiate(bad), ModelError);
}

TEST(ParametricDtmc, FromDtmcRoundTrip) {
  Dtmc base(2);
  base.set_transitions(0, {Transition{0, 0.25}, Transition{1, 0.75}});
  base.set_transitions(1, {Transition{1, 1.0}});
  base.set_state_reward(0, 2.0);
  base.add_label(1, "done");
  const ParametricDtmc lifted = ParametricDtmc::from_dtmc(base);
  const Dtmc back = lifted.instantiate(std::vector<double>{});
  EXPECT_DOUBLE_EQ(back.transitions(0)[0].probability, 0.25);
  EXPECT_DOUBLE_EQ(back.state_reward(0), 2.0);
  EXPECT_TRUE(back.has_label(1, "done"));
}

TEST(StateElimination, RetryChainClosedForm) {
  // E[attempts] = 1/(1−x); P(F goal) = 1.
  const ParametricDtmc chain = retry_chain();
  const RationalFunction reward =
      expected_total_reward(chain, goal_set(chain));
  const RationalFunction reach =
      reachability_probability(chain, goal_set(chain));
  for (const double x : {0.1, 0.5, 0.9}) {
    const std::vector<double> pt{x};
    EXPECT_NEAR(reward.evaluate(pt), 1.0 / (1.0 - x), 1e-9);
    EXPECT_NEAR(reach.evaluate(pt), 1.0, 1e-9);
  }
}

TEST(StateElimination, TwoParameterSerialChain) {
  // 0 --retry x--> 0, advance to 1; 1 --retry y--> 1, advance to 2.
  // E[steps] = 1/(1−x) + 1/(1−y).
  VariablePool pool;
  const Var x = pool.declare("x");
  const Var y = pool.declare("y");
  ParametricDtmc chain(3, std::move(pool));
  chain.set_transition(0, 0, var(x));
  chain.set_transition(0, 1, one_minus(var(x)));
  chain.set_transition(1, 1, var(y));
  chain.set_transition(1, 2, one_minus(var(y)));
  chain.set_transition(2, 2, constant(1.0));
  chain.set_state_reward(0, constant(1.0));
  chain.set_state_reward(1, constant(1.0));
  StateSet goal(3, false);
  goal[2] = true;
  const RationalFunction f = expected_total_reward(chain, goal);
  const std::vector<double> pt{0.3, 0.6};
  EXPECT_NEAR(f.evaluate(pt), 1.0 / 0.7 + 1.0 / 0.4, 1e-9);
}

TEST(StateElimination, SplitReachability) {
  // 0 → goal with prob x, trap with 1−x: P(F goal) = x exactly.
  VariablePool pool;
  const Var x = pool.declare("x");
  ParametricDtmc chain(3, std::move(pool));
  chain.set_transition(0, 1, var(x));
  chain.set_transition(0, 2, one_minus(var(x)));
  chain.set_transition(1, 1, constant(1.0));
  chain.set_transition(2, 2, constant(1.0));
  StateSet goal(3, false);
  goal[1] = true;
  const RationalFunction f = reachability_probability(chain, goal);
  const std::vector<double> pt{0.37};
  EXPECT_NEAR(f.evaluate(pt), 0.37, 1e-12);
}

TEST(StateElimination, TargetIsInitial) {
  const ParametricDtmc chain = retry_chain();
  StateSet target(2, false);
  target[0] = true;
  EXPECT_DOUBLE_EQ(
      reachability_probability(chain, target).constant_value(), 1.0);
  EXPECT_TRUE(expected_total_reward(chain, target).is_zero());
}

TEST(StateElimination, UnreachableTargetIsZero) {
  VariablePool pool;
  pool.declare("x");
  ParametricDtmc chain(2, std::move(pool));
  chain.set_transition(0, 0, constant(1.0));
  chain.set_transition(1, 1, constant(1.0));
  StateSet target(2, false);
  target[1] = true;
  EXPECT_TRUE(reachability_probability(chain, target).is_zero());
  // Expected reward to an unreachable target is infinite ⇒ throws.
  EXPECT_THROW(expected_total_reward(chain, target), ModelError);
}

TEST(StateElimination, StatsReported) {
  const ParametricDtmc chain = retry_chain();
  EliminationStats stats;
  (void)expected_total_reward(chain, goal_set(chain), {}, &stats);
  EXPECT_EQ(stats.states_eliminated, 0u);  // only the initial state remains
  EXPECT_GE(stats.max_terms_seen, 0u);
}

// Property-based cross-validation: random parametric chains, eliminate
// symbolically, then compare against the numeric checker at random points.
class EliminationCrossValidation : public ::testing::TestWithParam<int> {};

TEST_P(EliminationCrossValidation, MatchesNumericEngine) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const std::size_t n = 4 + rng.index(4);  // 4..7 states + goal
  VariablePool pool;
  const Var a = pool.declare("a");
  const Var b = pool.declare("b");
  ParametricDtmc chain(n + 1, std::move(pool));
  const StateId goal = static_cast<StateId>(n);

  // Random forward-biased chain: each state splits mass between a retry
  // loop (parameter-scaled) and 1–2 forward targets.
  for (StateId s = 0; s < n; ++s) {
    const Var v = (s % 2 == 0) ? a : b;
    const double base_stay = rng.uniform(0.2, 0.6);
    // stay = base_stay · (1 + v); rest goes forward. For v in (−0.4, 0.4)
    // probabilities stay valid.
    RationalFunction stay =
        RationalFunction(Polynomial(base_stay)) *
        (constant(1.0) + var(v));
    const StateId fwd1 =
        static_cast<StateId>(s + 1 + rng.index(std::min<std::size_t>(
                                          2, n - s)));
    RationalFunction forward = one_minus(stay);
    if (fwd1 != goal && rng.bernoulli(0.5)) {
      // split forward mass between fwd1 and the goal.
      chain.set_transition(s, fwd1, forward * 0.5);
      chain.set_transition(s, goal, forward * 0.5);
    } else {
      chain.set_transition(s, std::min<StateId>(fwd1, goal), forward);
    }
    chain.set_transition(s, s, stay);
    chain.set_state_reward(s, constant(rng.uniform(0.5, 2.0)));
  }
  chain.set_transition(goal, goal, constant(1.0));
  chain.add_label(goal, "goal");

  StateSet target(n + 1, false);
  target[goal] = true;
  const RationalFunction reach = reachability_probability(chain, target);
  const RationalFunction reward = expected_total_reward(chain, target);

  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<double> pt{rng.uniform(-0.3, 0.3),
                                 rng.uniform(-0.3, 0.3)};
    const CompiledModel concrete = compile(chain.instantiate(pt));
    const std::vector<double> numeric_reach =
        dtmc_reachability(concrete, target);
    const std::vector<double> numeric_reward =
        dtmc_total_reward(concrete, target);
    EXPECT_NEAR(reach.evaluate(pt), numeric_reach[0], 1e-7);
    EXPECT_NEAR(reward.evaluate(pt), numeric_reward[0],
                1e-6 * std::max(1.0, numeric_reward[0]));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomChains, EliminationCrossValidation,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace tml
