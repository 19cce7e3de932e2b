// Order-invariance differential suite for parametric state elimination.
//
// The elimination order (and SCC-local vs whole-chain scheduling) must not
// change the computed rational function's *values* — only its cost and
// intermediate representation. This suite drives every ordering heuristic
// over seeded random chains from the dyadic generator (tests/oracle.hpp)
// and requires:
//
//  * all heuristic × scc_local combinations agree pairwise at random
//    parameter valuations;
//  * they agree with the exact BigRational reachability oracle on the
//    instantiated chain at those valuations;
//  * infeasible reward queries (a reachable state that cannot reach the
//    target) throw ModelError under EVERY order, not just some;
//  * SCC-local elimination equals whole-chain elimination (regression for
//    the block-stitching logic).

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

struct NamedConfig {
  std::string name;
  EliminationOptions options;
};

std::vector<NamedConfig> all_configs() {
  std::vector<NamedConfig> out;
  for (const EliminationOrder order :
       {EliminationOrder::kInOrder, EliminationOrder::kFewestNewEdges,
        EliminationOrder::kPenalty}) {
    for (const bool scc_local : {false, true}) {
      EliminationOptions options;
      options.order = order;
      options.scc_local = scc_local;
      out.push_back({std::string(to_string(order)) +
                         (scc_local ? "+scc" : "+whole"),
                     options});
    }
  }
  return out;
}

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
// Pinned closed form: every config recovers P = x·y on the serial chain
//   0 →(1/2 + x) 1 →(1/4 + y) goal, with the complements going to a sink.

TEST(EliminationOrders, SerialChainClosedFormAllConfigs) {
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
  for (const NamedConfig& config : all_configs()) {
    EliminationStats stats;
    const RationalFunction f =
        reachability_probability(chain, targets, config.options, &stats);
    EXPECT_STREQ(stats.heuristic, to_string(config.options.order));
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<double> pt{rng.uniform(-0.4, 0.4),
                                   rng.uniform(-0.2, 0.2)};
      const double expected = (0.5 + pt[0]) * (0.25 + pt[1]);
      EXPECT_NEAR(f.evaluate(pt), expected, 1e-12) << config.name;
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded random chains: all configs agree pairwise and with the exact
// BigRational oracle on the instantiated chain.

class OrderInvariance : public ::testing::TestWithParam<int> {};

TEST_P(OrderInvariance, ReachabilityAgreesWithExactOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 4242);
  oracle::RandomModelConfig cfg;
  cfg.num_states = 20 + rng.index(10);
  cfg.max_choices = 1;  // DTMC-shaped
  const oracle::RandomModel generated = oracle::random_model(rng, cfg);
  const Dtmc base = to_dtmc(generated.mdp);
  ParamChain pc = parametrize(base, generated.targets, 6);

  const std::vector<NamedConfig> configs = all_configs();
  std::vector<RationalFunction> functions;
  for (const NamedConfig& config : configs) {
    functions.push_back(reachability_probability(pc.chain, generated.targets,
                                                 config.options));
  }

  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<double> pt = sample_valuation(rng, pc.deltas);
    const double reference = functions[0].evaluate(pt);
    for (std::size_t k = 1; k < functions.size(); ++k) {
      EXPECT_NEAR(functions[k].evaluate(pt), reference,
                  1e-9 * std::max(1.0, std::abs(reference)))
          << configs[k].name << " vs " << configs[0].name;
    }
    // Exact BigRational oracle on the instantiated chain (single choice per
    // state, so the objective direction is irrelevant).
    const Dtmc concrete = pc.chain.instantiate(pt);
    const CompiledModel compiled = compile(concrete);
    const std::vector<BigRational> exact = oracle::exact_reachability(
        compiled, generated.targets, Objective::kMaximize);
    EXPECT_NEAR(reference, exact[concrete.initial_state()].to_double(), 1e-7);
  }
}

TEST_P(OrderInvariance, RewardAgreesOrThrowsConsistently) {
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

  const std::vector<NamedConfig> configs = all_configs();
  std::vector<RationalFunction> functions;
  bool infinite = false;
  try {
    functions.push_back(expected_total_reward(pc.chain, generated.targets,
                                              configs[0].options));
  } catch (const ModelError&) {
    infinite = true;
  }
  if (infinite) {
    // Some reachable state cannot reach the target: EVERY order must agree
    // on the infinite-reward verdict.
    for (std::size_t k = 1; k < configs.size(); ++k) {
      EXPECT_THROW((void)expected_total_reward(pc.chain, generated.targets,
                                               configs[k].options),
                   ModelError)
          << configs[k].name;
    }
    return;
  }
  for (std::size_t k = 1; k < configs.size(); ++k) {
    functions.push_back(expected_total_reward(pc.chain, generated.targets,
                                              configs[k].options));
  }

  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<double> pt = sample_valuation(rng, pc.deltas);
    const double reference = functions[0].evaluate(pt);
    for (std::size_t k = 1; k < functions.size(); ++k) {
      EXPECT_NEAR(functions[k].evaluate(pt), reference,
                  1e-8 * std::max(1.0, std::abs(reference)))
          << configs[k].name << " vs " << configs[0].name;
    }
    const Dtmc concrete = pc.chain.instantiate(pt);
    const std::vector<double> numeric =
        dtmc_total_reward(compile(concrete), generated.targets);
    EXPECT_NEAR(reference, numeric[concrete.initial_state()],
                1e-6 * std::max(1.0, numeric[concrete.initial_state()]));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomChains, OrderInvariance,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// SCC-local == whole-chain regression on a chain with many nontrivial SCCs
// (ladder of 2-state loops), where block-local scheduling actually differs
// from whole-chain scheduling.

TEST(EliminationOrders, SccLocalMatchesWholeChainOnLadder) {
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

  EliminationOptions whole;
  whole.order = EliminationOrder::kPenalty;
  whole.scc_local = false;
  EliminationOptions scc = whole;
  scc.scc_local = true;

  EliminationStats scc_stats;
  const RationalFunction reach_whole =
      reachability_probability(chain, targets, whole);
  const RationalFunction reach_scc =
      reachability_probability(chain, targets, scc, &scc_stats);
  const RationalFunction reward_whole =
      expected_total_reward(chain, targets, whole);
  const RationalFunction reward_scc =
      expected_total_reward(chain, targets, scc);

  EXPECT_GE(scc_stats.scc_blocks, rungs - 1);  // one block per interior loop
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    const std::vector<double> pt{rng.uniform(-0.4, 0.4)};
    EXPECT_NEAR(reach_scc.evaluate(pt), reach_whole.evaluate(pt), 1e-9);
    const double rw = reward_whole.evaluate(pt);
    EXPECT_NEAR(reward_scc.evaluate(pt), rw, 1e-9 * std::max(1.0, rw));
  }
}

// ---------------------------------------------------------------------------
// Stats plumbing and the process-wide default options.

TEST(EliminationOrders, StatsCarryHeuristicFillInAndPoolCounters) {
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

  EliminationOptions options;
  options.order = EliminationOrder::kPenalty;
  options.scc_local = true;
  EliminationStats stats;
  (void)reachability_probability(chain, targets, options, &stats);
  EXPECT_STREQ(stats.heuristic, "penalty");
  EXPECT_GT(stats.states_eliminated, 0u);
  EXPECT_GE(stats.scc_blocks, 1u);
  EXPECT_GT(stats.pool_hits + stats.pool_misses, 0u);
}

TEST(EliminationOrders, DefaultOptionsRoundTripAndNeverKeepBudget) {
  const EliminationOptions saved = default_elimination_options();
  EXPECT_EQ(saved.order, EliminationOrder::kPenalty);  // library default
  EXPECT_TRUE(saved.scc_local);
  EXPECT_EQ(saved.budget, nullptr);

  Budget budget;
  EliminationOptions custom;
  custom.order = EliminationOrder::kInOrder;
  custom.scc_local = false;
  custom.budget = &budget;  // must NOT be stored as a process default
  set_default_elimination_options(custom);
  EXPECT_EQ(default_elimination_options().order, EliminationOrder::kInOrder);
  EXPECT_FALSE(default_elimination_options().scc_local);
  EXPECT_EQ(default_elimination_options().budget, nullptr);

  set_default_elimination_options(saved);
}

TEST(EliminationOrders, OrderNames) {
  EXPECT_STREQ(to_string(EliminationOrder::kInOrder), "in-order");
  EXPECT_STREQ(to_string(EliminationOrder::kFewestNewEdges),
               "fewest-new-edges");
  EXPECT_STREQ(to_string(EliminationOrder::kPenalty), "penalty");
}

}  // namespace
}  // namespace tml
