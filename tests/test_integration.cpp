// Cross-module integration and property tests: the analytic engines, the
// parametric engine, and Monte-Carlo simulation must agree with each other
// on randomly generated models.

#include <cmath>

#include <gtest/gtest.h>

#include "src/checker/check.hpp"
#include "src/common/rng.hpp"
#include "src/core/model_repair.hpp"
#include "src/learn/mle.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/simulate.hpp"
#include "src/mdp/solver.hpp"
#include "src/parametric/state_elimination.hpp"

namespace tml {
namespace {

/// Random layered DTMC: `layers`×`width` grid flowing toward a goal state,
/// with random retry loops.
Dtmc random_layered_chain(Rng& rng, std::size_t layers, std::size_t width) {
  const std::size_t n = layers * width + 1;
  const StateId goal = static_cast<StateId>(n - 1);
  Dtmc chain(n);
  for (std::size_t layer = 0; layer < layers; ++layer) {
    for (std::size_t w = 0; w < width; ++w) {
      const StateId s = static_cast<StateId>(layer * width + w);
      const double stay = rng.uniform(0.1, 0.7);
      std::vector<Transition> row{Transition{s, stay}};
      if (layer + 1 == layers) {
        row.push_back(Transition{goal, 1.0 - stay});
      } else {
        const StateId t1 =
            static_cast<StateId>((layer + 1) * width + rng.index(width));
        const StateId t2 =
            static_cast<StateId>((layer + 1) * width + rng.index(width));
        const double split = rng.uniform(0.2, 0.8);
        if (t1 == t2) {
          row.push_back(Transition{t1, 1.0 - stay});
        } else {
          row.push_back(Transition{t1, (1.0 - stay) * split});
          row.push_back(Transition{t2, (1.0 - stay) * (1.0 - split)});
        }
      }
      chain.set_transitions(s, std::move(row));
      chain.set_state_reward(s, rng.uniform(0.5, 1.5));
    }
  }
  chain.set_transitions(goal, {Transition{goal, 1.0}});
  chain.add_label(goal, "goal");
  return chain;
}

class RandomChainAgreement : public ::testing::TestWithParam<int> {};

TEST_P(RandomChainAgreement, CheckerSimulationAndEliminationAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 7777);
  const Dtmc chain = random_layered_chain(rng, 3, 3);
  const StateSet goal = chain.states_with_label("goal");

  // Analytic expected reward.
  const double analytic = *check(chain, "R=? [ F \"goal\" ]").value;

  // Parametric engine on the lifted (constant) chain must agree exactly.
  const ParametricDtmc lifted = ParametricDtmc::from_dtmc(chain);
  const RationalFunction f = expected_total_reward(lifted, goal);
  EXPECT_TRUE(f.is_constant());
  EXPECT_NEAR(f.constant_value(), analytic, 1e-6 * std::max(1.0, analytic));

  // Monte-Carlo estimate agrees within sampling error.
  const Mdp mdp = chain.as_mdp();
  Rng sim_rng = rng.fork();
  SimulationOptions options;
  options.absorbing = goal;
  options.max_steps = 5000;
  double total = 0.0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    total += trajectory_reward(
        mdp, simulate(mdp, mdp.first_choice_policy(), sim_rng, options));
  }
  const double mc = total / trials;
  EXPECT_NEAR(mc, analytic, 0.15 * analytic + 0.3);
}

TEST_P(RandomChainAgreement, MleRecoversChainFromItsOwnTraces) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 8888);
  const Dtmc chain = random_layered_chain(rng, 2, 2);
  const Mdp mdp = chain.as_mdp();
  const StateSet goal = chain.states_with_label("goal");
  Rng sim_rng = rng.fork();
  SimulationOptions options;
  options.absorbing = goal;
  options.max_steps = 2000;
  const TrajectoryDataset data = simulate_dataset(
      mdp, mdp.first_choice_policy(), sim_rng, 1500, options);
  const Dtmc learned = mle_dtmc(chain, data);
  // Expected attempts of the learned chain tracks the truth.
  const double truth = *check(chain, "R=? [ F \"goal\" ]").value;
  const double estimate = *check(learned, "R=? [ F \"goal\" ]").value;
  EXPECT_NEAR(estimate, truth, 0.25 * truth + 0.3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainAgreement, ::testing::Range(0, 8));

TEST(Integration, RepairCertificateHoldsUnderSimulation) {
  // Repair a chain, then verify the repaired model's property by
  // simulation — an end-to-end certificate across four modules.
  Dtmc chain(2);
  chain.set_transitions(0, {Transition{0, 0.9}, Transition{1, 0.1}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_state_reward(0, 1.0);
  chain.add_label(1, "done");
  PerturbationScheme scheme(chain);
  const Var v = scheme.add_variable("v", 0.0, 0.5);
  scheme.attach_balanced(v, 0, 1, 0);
  const StateFormulaPtr property = parse_pctl("R<=4 [ F \"done\" ]");
  const ModelRepairResult result = model_repair(scheme, *property);
  ASSERT_TRUE(result.feasible());

  const Mdp repaired = result.repaired->as_mdp();
  Rng rng(123);
  SimulationOptions options;
  options.absorbing = repaired.states_with_label("done");
  options.max_steps = 10000;
  double total = 0.0;
  const int trials = 30000;
  for (int i = 0; i < trials; ++i) {
    total += trajectory_reward(
        repaired, simulate(repaired, repaired.first_choice_policy(), rng,
                           options));
  }
  EXPECT_NEAR(total / trials, result.achieved, 0.1);
  EXPECT_LE(total / trials, 4.1);
}

TEST(Integration, EliminationHandlesNonTreeTopologies) {
  // Diamond with a back edge: 0 → {1, 2} → 3, and 2 can fall back to 0.
  VariablePool pool;
  const Var x = pool.declare("x");
  ParametricDtmc chain(4, std::move(pool));
  const RationalFunction vx = RationalFunction::variable(x);
  chain.set_transition(0, 1, vx);
  chain.set_transition(0, 2, one_minus(vx));
  chain.set_transition(1, 3, RationalFunction(1.0));
  chain.set_transition(2, 0, RationalFunction(0.5));
  chain.set_transition(2, 3, RationalFunction(0.5));
  chain.set_transition(3, 3, RationalFunction(1.0));
  chain.set_state_reward(0, RationalFunction(1.0));
  chain.set_state_reward(1, RationalFunction(1.0));
  chain.set_state_reward(2, RationalFunction(1.0));
  chain.add_label(3, "goal");
  StateSet goal(4, false);
  goal[3] = true;
  const RationalFunction f = expected_total_reward(chain, goal);
  for (const double xv : {0.2, 0.5, 0.8}) {
    const std::vector<double> pt{xv};
    const std::vector<double> numeric =
        dtmc_total_reward(compile(chain.instantiate(pt)), goal);
    EXPECT_NEAR(f.evaluate(pt), numeric[0], 1e-9);
  }
}

TEST(Integration, ParserToCheckerToRepairPipeline) {
  // The full text-level flow a user would run: parse the paper's formula,
  // check, repair, re-check.
  Dtmc chain(2);
  chain.set_transitions(0, {Transition{0, 0.95}, Transition{1, 0.05}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_state_reward(0, 1.0);
  chain.add_label(1, "delivered");
  const StateFormulaPtr property =
      parse_pctl("R{\"attempts\"}<=10 [ F \"delivered\" ]");
  EXPECT_FALSE(check(chain, *property).satisfied);
  PerturbationScheme scheme(chain);
  const Var v = scheme.add_variable("correction", 0.0, 0.3);
  scheme.attach_balanced(v, 0, 1, 0);
  const ModelRepairResult result = model_repair(scheme, *property);
  ASSERT_TRUE(result.feasible());
  EXPECT_TRUE(check(*result.repaired, *property).satisfied);
  EXPECT_NEAR(result.variable_values[0], 0.05, 5e-3);
}

}  // namespace
}  // namespace tml
