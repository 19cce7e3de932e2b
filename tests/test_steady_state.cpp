// Tests for long-run (steady-state) analysis: BSCC decomposition,
// stationary distributions, and the combined long-run probability.

#include "src/checker/steady_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/casestudies/generator.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/mdp/simulate.hpp"
#include "tests/dense.hpp"

namespace tml {
namespace {

/// Ergodic two-state flip chain: π = (b/(a+b), a/(a+b)) for flip rates a, b.
Dtmc flip_chain(double a, double b) {
  Dtmc chain(2);
  chain.set_transitions(0, {Transition{0, 1.0 - a}, Transition{1, a}});
  chain.set_transitions(1, {Transition{0, b}, Transition{1, 1.0 - b}});
  chain.add_label(1, "on");
  return chain;
}

TEST(BottomSccs, ErgodicChainIsOneComponent) {
  const auto bottoms = bottom_sccs(compile(flip_chain(0.3, 0.2)));
  ASSERT_EQ(bottoms.size(), 1u);
  EXPECT_EQ(bottoms[0], (std::vector<StateId>{0, 1}));
}

TEST(BottomSccs, AbsorbingStatesAreSingletons) {
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 0.5}, Transition{2, 0.5}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  const auto bottoms = bottom_sccs(compile(chain));
  ASSERT_EQ(bottoms.size(), 2u);
  // The transient initial state is in no bottom component.
  for (const auto& component : bottoms) {
    EXPECT_EQ(component.size(), 1u);
    EXPECT_NE(component[0], 0u);
  }
}

TEST(BottomSccs, RecurrentCycleFound) {
  // 0 → 1 → 2 → 1 (cycle {1,2} is bottom; 0 transient).
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 1.0}});
  chain.set_transitions(1, {Transition{2, 1.0}});
  chain.set_transitions(2, {Transition{1, 1.0}});
  const auto bottoms = bottom_sccs(compile(chain));
  ASSERT_EQ(bottoms.size(), 1u);
  EXPECT_EQ(bottoms[0], (std::vector<StateId>{1, 2}));
}

TEST(BottomSccs, TransientSccFeedsTwoBottomsInDiscoveryOrder) {
  // {0,1} is a transient SCC feeding the bottoms {4} and {2,3}. State 1
  // lists its edge to 4 before its edge to 2, so the depth-first search
  // from root 0 closes {4} first: bottoms come in discovery (Tarjan
  // emission) order, not in order of their smallest state.
  Dtmc chain(5);
  chain.set_transitions(0, {Transition{1, 1.0}});
  chain.set_transitions(
      1, {Transition{0, 0.5}, Transition{4, 0.25}, Transition{2, 0.25}});
  chain.set_transitions(2, {Transition{3, 1.0}});
  chain.set_transitions(3, {Transition{2, 1.0}});
  chain.set_transitions(4, {Transition{4, 1.0}});
  const CompiledModel model = compile(chain);
  const auto bottoms = bottom_sccs(model);
  ASSERT_EQ(bottoms.size(), 2u);
  EXPECT_EQ(bottoms[0], (std::vector<StateId>{4}));
  EXPECT_EQ(bottoms[1], (std::vector<StateId>{2, 3}));
  // Each bottom is closed: no positive edge leaves it.
  for (const auto& component : bottoms) {
    for (StateId s : component) {
      for (const Transition& t : chain.transitions(s)) {
        EXPECT_TRUE(std::binary_search(component.begin(), component.end(),
                                       t.target))
            << s << " -> " << t.target;
      }
    }
  }
  // The transient block is a block of the condensation but not a bottom.
  EXPECT_EQ(model.scc().component[0], model.scc().component[1]);
}

TEST(StationaryDistribution, FlipChainClosedForm) {
  const Dtmc chain = flip_chain(0.3, 0.2);
  const std::vector<double> pi =
      stationary_distribution(compile(chain), {0, 1});
  EXPECT_NEAR(pi[0], 0.4, 1e-9);
  EXPECT_NEAR(pi[1], 0.6, 1e-9);
}

TEST(StationaryDistribution, PeriodicCycleIsUniform) {
  Dtmc chain(2);
  chain.set_transitions(0, {Transition{1, 1.0}});
  chain.set_transitions(1, {Transition{0, 1.0}});
  const std::vector<double> pi =
      stationary_distribution(compile(chain), {0, 1});
  EXPECT_NEAR(pi[0], 0.5, 1e-9);
  EXPECT_NEAR(pi[1], 0.5, 1e-9);
}

TEST(StationaryDistribution, RejectsNonClosedSet) {
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 1.0}});
  chain.set_transitions(1, {Transition{2, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  EXPECT_THROW(stationary_distribution(compile(chain), {0, 1}), Error);
}

TEST(StationaryDistribution, ClosedReducibleSetIsNumericError) {
  // Two absorbing states form a closed set with two recurrent classes: the
  // stationary distribution is not unique, and the solve says so.
  Dtmc chain(2);
  chain.set_transitions(0, {Transition{0, 1.0}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  EXPECT_THROW(stationary_distribution(compile(chain), {0, 1}), NumericError);
}

TEST(StationaryDistribution, QueueMeshMatchesDenseSolve) {
  // The C = 40 queueing mesh is one bottom component of all its 1681
  // states, so a state id is its own index in the component. Dense
  // reference: π·(P − I) = 0 with the last equation replaced by Σ π = 1.
  GeneratorSpec spec;
  spec.family = GeneratorFamily::kQueueMesh;
  spec.size = 40;
  spec.seed = 2;
  const CompiledModel model = compile(generate_queue_mesh(spec));
  const auto bottoms = bottom_sccs(model);
  ASSERT_EQ(bottoms.size(), 1u);
  const std::vector<StateId>& component = bottoms[0];
  ASSERT_EQ(component.size(), 1681u);
  const std::size_t k = component.size();
  dense::Matrix a(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    a(i, i) -= 1.0;
    const StateId s = component[i];
    for (std::uint32_t e = model.choice_start()[s];
         e < model.choice_start()[s + 1]; ++e) {
      a(model.target()[e], i) += model.prob()[e];
    }
  }
  for (std::size_t i = 0; i < k; ++i) a(k - 1, i) = 1.0;
  std::vector<double> b(k, 0.0);
  b[k - 1] = 1.0;
  const std::vector<double> want = dense::solve(std::move(a), std::move(b));
  const std::vector<double> pi = stationary_distribution(model, component);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_NEAR(pi[i], want[i], 1e-12) << "state " << component[i];
  }
}

TEST(LongRun, ErgodicMatchesStationary) {
  const Dtmc chain = flip_chain(0.1, 0.4);
  EXPECT_NEAR(
      long_run_probability(compile(chain), chain.states_with_label("on")), 0.2,
      1e-9);
}

TEST(LongRun, SplitsAcrossAbsorbingComponents) {
  // 0 → goal (0.3) / trap (0.7): long-run occupancy equals the reach split.
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 0.3}, Transition{2, 0.7}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  chain.add_label(1, "goal");
  const CompiledModel model = compile(chain);
  const std::vector<double> occupancy = long_run_distribution(model);
  EXPECT_NEAR(occupancy[0], 0.0, 1e-12);
  EXPECT_NEAR(occupancy[1], 0.3, 1e-9);
  EXPECT_NEAR(occupancy[2], 0.7, 1e-9);
  EXPECT_NEAR(long_run_probability(model, chain.states_with_label("goal")),
              0.3, 1e-9);
}

TEST(LongRun, MixedRecurrentStructure) {
  // 0 → flip-pair {1,2} (0.5) or absorbing 3 (0.5); the pair has
  // π = (0.5, 0.5) internally.
  Dtmc chain(4);
  chain.set_transitions(0, {Transition{1, 0.5}, Transition{3, 0.5}});
  chain.set_transitions(1, {Transition{2, 1.0}});
  chain.set_transitions(2, {Transition{1, 1.0}});
  chain.set_transitions(3, {Transition{3, 1.0}});
  const std::vector<double> occupancy = long_run_distribution(compile(chain));
  EXPECT_NEAR(occupancy[1], 0.25, 1e-9);
  EXPECT_NEAR(occupancy[2], 0.25, 1e-9);
  EXPECT_NEAR(occupancy[3], 0.5, 1e-9);
  // Total occupancy is a distribution.
  EXPECT_NEAR(occupancy[0] + occupancy[1] + occupancy[2] + occupancy[3], 1.0,
              1e-9);
}

TEST(LongRun, AgreesWithSimulation) {
  const Dtmc chain = flip_chain(0.25, 0.15);
  const double analytic =
      long_run_probability(compile(chain), chain.states_with_label("on"));
  // Simulate one long run and measure the empirical occupancy.
  const Mdp mdp = chain.as_mdp();
  Rng rng(21);
  SimulationOptions options;
  options.max_steps = 200000;
  const Trajectory run =
      simulate(mdp, mdp.first_choice_policy(), rng, options);
  double on = 0.0;
  for (const Step& step : run.steps) {
    if (step.state == 1) on += 1.0;
  }
  EXPECT_NEAR(on / static_cast<double>(run.length()), analytic, 0.01);
}

}  // namespace
}  // namespace tml
