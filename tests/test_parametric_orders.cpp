// Exact-oracle differential suite for parametric state elimination.
//
// Elimination runs one order — the fill × symbolic-mass penalty queue
// inside SCC-topological blocks — and its closed forms must match the
// instantiated chain's exact values. This suite drives it over seeded random
// chains from the dyadic generator (tests/oracle.hpp) and requires:
//
//  * the function agrees with the exact BigRational reachability oracle on
//    the instantiated chain at random parameter valuations;
//  * infeasible reward queries (a reachable state that cannot reach the
//    target) throw ModelError exactly when the exact reward oracle reports
//    an infinite expectation;
//  * block stitching is exact on a ladder of many nontrivial SCCs.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/checker/reachability.hpp"
#include "src/parametric/parametric_dtmc.hpp"
#include "src/parametric/state_elimination.hpp"
#include "tests/oracle.hpp"

namespace tml {
namespace {

RationalFunction constant(double c) { return RationalFunction(c); }
RationalFunction var(Var v) { return RationalFunction::variable(v); }

/// First choice per state of a max_choices=1 random model, as a DTMC.
Dtmc to_dtmc(const Mdp& mdp) {
  Dtmc chain(mdp.num_states());
  chain.set_initial_state(mdp.initial_state());
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    chain.set_transitions(s, mdp.choices(s)[0].transitions);
  }
  return chain;
}

/// A numeric DTMC lifted to a parametric one with up to `max_vars` fresh
/// parameters: in a parameterized state the first two successors trade
/// probability mass, P(s,t1) = p1 + x and P(s,t2) = p2 − x, which keeps the
/// row symbolically summing to 1. `deltas` bounds |x| per variable so every
/// sampled valuation instantiates to a valid chain.
struct ParamChain {
  ParametricDtmc chain;
  std::vector<double> deltas;
};

ParamChain parametrize(const Dtmc& base, const StateSet& targets,
                       std::size_t max_vars) {
  ParametricDtmc chain(base.num_states(), VariablePool{});
  chain.set_initial_state(base.initial_state());
  std::vector<double> deltas;
  for (StateId s = 0; s < base.num_states(); ++s) {
    const std::vector<Transition>& row = base.transitions(s);
    chain.set_state_reward(s, constant(base.state_reward(s)));
    const bool parameterize = !targets[s] && deltas.size() < max_vars &&
                              row.size() >= 2 && row[0].probability > 0.0 &&
                              row[1].probability > 0.0;
    if (!parameterize) {
      for (const Transition& t : row) {
        chain.set_transition(s, t.target, constant(t.probability));
      }
      continue;
    }
    const double p1 = row[0].probability;
    const double p2 = row[1].probability;
    const Var v = chain.pool().declare("x" + std::to_string(s));
    deltas.push_back(0.9 * std::min({p1, 1.0 - p1, p2, 1.0 - p2}));
    chain.set_transition(s, row[0].target, constant(p1) + var(v));
    chain.set_transition(s, row[1].target, constant(p2) - var(v));
    for (std::size_t k = 2; k < row.size(); ++k) {
      chain.set_transition(s, row[k].target, constant(row[k].probability));
    }
  }
  return {std::move(chain), std::move(deltas)};
}

std::vector<double> sample_valuation(Rng& rng,
                                     const std::vector<double>& deltas) {
  std::vector<double> point;
  point.reserve(deltas.size());
  for (double d : deltas) point.push_back(rng.uniform(-d, d));
  return point;
}

// ---------------------------------------------------------------------------
// Pinned closed form: elimination recovers P = x·y on the serial chain
//   0 →(1/2 + x) 1 →(1/4 + y) goal, with the complements going to a sink.

TEST(SccLocalElimination, SerialChainClosedForm) {
  ParametricDtmc chain(4, VariablePool{});
  const Var x = chain.pool().declare("x");
  const Var y = chain.pool().declare("y");
  const StateId goal = 2;
  const StateId sink = 3;
  chain.set_transition(0, 1, constant(0.5) + var(x));
  chain.set_transition(0, sink, constant(0.5) - var(x));
  chain.set_transition(1, goal, constant(0.25) + var(y));
  chain.set_transition(1, sink, constant(0.75) - var(y));
  chain.set_transition(goal, goal, constant(1.0));
  chain.set_transition(sink, sink, constant(1.0));
  StateSet targets(4, false);
  targets[goal] = true;

  Rng rng(7);
  const RationalFunction f = reachability_probability(chain, targets);
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<double> pt{rng.uniform(-0.4, 0.4),
                                 rng.uniform(-0.2, 0.2)};
    const double expected = (0.5 + pt[0]) * (0.25 + pt[1]);
    EXPECT_NEAR(f.evaluate(pt), expected, 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Seeded random chains against the exact BigRational oracle on the
// instantiated chain.

class RandomChainOracle : public ::testing::TestWithParam<int> {};

TEST_P(RandomChainOracle, ReachabilityAgreesWithExactOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 4242);
  oracle::RandomModelConfig cfg;
  cfg.num_states = 20 + rng.index(10);
  cfg.max_choices = 1;  // DTMC-shaped
  const oracle::RandomModel generated = oracle::random_model(rng, cfg);
  const Dtmc base = to_dtmc(generated.mdp);
  ParamChain pc = parametrize(base, generated.targets, 6);

  const RationalFunction f =
      reachability_probability(pc.chain, generated.targets);
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<double> pt = sample_valuation(rng, pc.deltas);
    // Single choice per state, so the objective direction is irrelevant.
    const Dtmc concrete = pc.chain.instantiate(pt);
    const std::vector<BigRational> exact = oracle::exact_reachability(
        compile(concrete), generated.targets, Objective::kMaximize);
    EXPECT_NEAR(f.evaluate(pt), exact[concrete.initial_state()].to_double(),
                1e-7);
  }
}

TEST_P(RandomChainOracle, RewardAgreesOrThrowsWithTheOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 9000);
  oracle::RandomModelConfig cfg;
  cfg.num_states = 16 + rng.index(8);
  cfg.max_choices = 1;
  cfg.trap_prob = 0.0;  // fewer (but still possible) infinite-reward cases
  const oracle::RandomModel generated = oracle::random_model(rng, cfg);
  Dtmc base = to_dtmc(generated.mdp);
  for (StateId s = 0; s < base.num_states(); ++s) {
    if (generated.targets[s]) {
      base.set_transitions(s, {{s, 1.0}});  // absorbing targets, reward 0
    } else {
      base.set_state_reward(s, static_cast<double>(1 + rng.index(1024)) /
                                   1024.0);
    }
  }
  ParamChain pc = parametrize(base, generated.targets, 5);

  // Every valuation keeps the support, so the base chain decides whether
  // the expectation is infinite.
  const bool infinite = !oracle::exact_total_reward(
      compile(base), generated.targets)[base.initial_state()];
  if (infinite) {
    EXPECT_THROW(
        (void)expected_total_reward(pc.chain, generated.targets), ModelError);
    return;
  }
  const RationalFunction f = expected_total_reward(pc.chain, generated.targets);
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<double> pt = sample_valuation(rng, pc.deltas);
    const Dtmc concrete = pc.chain.instantiate(pt);
    const std::vector<double> numeric =
        dtmc_total_reward(compile(concrete), generated.targets);
    EXPECT_NEAR(f.evaluate(pt), numeric[concrete.initial_state()],
                1e-6 * std::max(1.0, numeric[concrete.initial_state()]));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomChains, RandomChainOracle,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Block stitching on a chain with many nontrivial SCCs (ladder of 2-state
// loops), checked against the exact oracle on the instantiated chain.

TEST(SccLocalElimination, LadderMatchesExactOracle) {
  const std::size_t rungs = 6;
  const std::size_t n = 2 * rungs + 1;
  ParametricDtmc chain(n, VariablePool{});
  const Var x = chain.pool().declare("x");
  const StateId goal = static_cast<StateId>(n - 1);
  for (std::size_t r = 0; r < rungs; ++r) {
    const StateId a = static_cast<StateId>(2 * r);
    const StateId b = static_cast<StateId>(2 * r + 1);
    const StateId next = static_cast<StateId>(2 * r + 2);
    // a ⇄ b loop with a parametric escape from b to the next rung.
    chain.set_transition(a, b, constant(1.0));
    chain.set_transition(b, a, constant(0.5) - var(x));
    chain.set_transition(b, next, constant(0.5) + var(x));
    chain.set_state_reward(a, constant(1.0));
    chain.set_state_reward(b, constant(0.25));
  }
  chain.set_transition(goal, goal, constant(1.0));
  StateSet targets(n, false);
  targets[goal] = true;

  EliminationStats stats;
  const RationalFunction reach =
      reachability_probability(chain, targets, {}, &stats);
  const RationalFunction reward = expected_total_reward(chain, targets);
  EXPECT_GE(stats.scc_blocks, rungs - 1);  // one block per interior loop

  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    // Dyadic valuations in [-0.39, 0.39] keep the oracle's rationals small.
    const std::vector<double> pt{
        static_cast<double>(static_cast<int>(rng.index(51)) - 25) / 64.0};
    const CompiledModel concrete = compile(chain.instantiate(pt));
    const StateId init = concrete.initial_state();
    const double exact_reach = oracle::exact_reachability(
        concrete, targets, Objective::kMaximize)[init].to_double();
    const double exact_reward =
        oracle::exact_total_reward(concrete, targets)[init]->to_double();
    EXPECT_NEAR(reach.evaluate(pt), exact_reach, 1e-9);
    EXPECT_NEAR(reward.evaluate(pt), exact_reward,
                1e-9 * std::max(1.0, exact_reward));
  }
}

// ---------------------------------------------------------------------------
// Stats plumbing.

TEST(SccLocalElimination, StatsCarryFillInAndPoolCounters) {
  ParametricDtmc chain(6, VariablePool{});
  const Var x = chain.pool().declare("x");
  // Leaky diamond with a loop: the two branches reach the goal with
  // different probabilities, so the folded value at the initial state stays
  // a genuine function of x and elimination must pool its subterms.
  chain.set_transition(0, 1, constant(0.5) + var(x));
  chain.set_transition(0, 2, constant(0.5) - var(x));
  chain.set_transition(1, 1, constant(0.25));
  chain.set_transition(1, 3, constant(0.5));
  chain.set_transition(1, 5, constant(0.25));
  chain.set_transition(2, 1, constant(0.5));
  chain.set_transition(2, 3, constant(0.5));
  chain.set_transition(3, 4, constant(1.0));
  chain.set_transition(4, 4, constant(1.0));
  chain.set_transition(5, 5, constant(1.0));
  StateSet targets(6, false);
  targets[4] = true;

  EliminationStats stats;
  (void)reachability_probability(chain, targets, {}, &stats);
  EXPECT_GT(stats.states_eliminated, 0u);
  EXPECT_GE(stats.scc_blocks, 1u);
  EXPECT_GT(stats.pool_hits + stats.pool_misses, 0u);
}

}  // namespace
}  // namespace tml
