// Deterministic fault-injection battery: with TML_FAULT-style faults armed
// at every known site, each engine must end in one of exactly three ways —
// finish normally, return a flagged partial, or throw a typed tml::Error.
// Never garbage values, never a hang (the suite runs under a ctest TIMEOUT
// and under ASan/UBSan in CI's fault job).
//
// Typed error-path inventory (grep-driven over src/: every distinct error
// type an engine can surface, with the site that exercises it here):
//
//   ParseError      — parse_prism / parse_pctl reject malformed input,
//                     non-finite numbers, out-of-range probabilities and
//                     negative rewards (PrismHardening tests below);
//   ModelError      — dataset validation at the MLE boundary names the
//                     offending trajectory (MleValidation tests below);
//                     infinite expected reward in parametric elimination;
//   NumericError    — NaN sweep deltas in VI / reachability (solver.sweep,
//                     checker.sweep), forced non-convergence
//                     (checker.converge), non-finite IRL gradients
//                     (irl.gradient), SMC truncation-rate overflow
//                     (smc.sample), a forced pivot failure in the DTMC
//                     direct solve (solver.pivot);
//   Error           — forced singular pivots in parametric state
//                     elimination (parametric.pivot) via TML_REQUIRE;
//   BudgetExhausted — deadline reached through fault-skewed clock
//                     (budget.clock), iteration caps, cancellation
//                     (test_budget.cpp covers the cap/cancel axes).

#include "src/common/fault.hpp"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/checker/check.hpp"
#include "src/checker/interval.hpp"
#include "src/checker/reachability.hpp"
#include "src/checker/smc.hpp"
#include "src/checker/steady_state.hpp"
#include "src/common/budget.hpp"
#include "src/common/stats.hpp"
#include "src/irl/max_ent_irl.hpp"
#include "src/learn/mle.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/prism_parser.hpp"
#include "src/mdp/solver.hpp"
#include "src/opt/kkt.hpp"
#include "src/opt/solvers.hpp"
#include "src/parametric/parametric_dtmc.hpp"
#include "src/parametric/state_elimination.hpp"

namespace tml {
namespace {

/// Every case disarms on entry AND exit, so an env-armed battery run
/// (CI sets TML_FAULT) cannot leak into targeted cases and vice versa.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

Dtmc retry_chain() {
  Dtmc chain(2);
  chain.set_transitions(0, {Transition{0, 0.5}, Transition{1, 0.5}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.add_label(1, "goal");
  return chain;
}

Mdp retry_mdp() { return retry_chain().as_mdp(); }

/// Gambler's ruin on 0..4 (0 fails, 4 is the goal): the unknown states 1..3
/// form one SCC with values strictly inside (0,1), so the interval engine
/// must sweep it — a single-state block would be solved in closed form and
/// never reach the sweep/convergence fault sites.
Dtmc ruin_walk() {
  Dtmc chain(5);
  chain.set_transitions(0, {Transition{0, 1.0}});
  chain.set_transitions(4, {Transition{4, 1.0}});
  for (StateId s = 1; s <= 3; ++s) {
    chain.set_transitions(s,
                          {Transition{s - 1, 0.5}, Transition{s + 1, 0.5}});
  }
  chain.add_label(4, "goal");
  return chain;
}

// ---------------------------------------------------------------------------
// Registry mechanics.

TEST_F(FaultTest, DisarmedSitesAreTransparent) {
  EXPECT_FALSE(fault::any_armed());
  EXPECT_EQ(fault::poison("checker.sweep", 0.25), 0.25);
  EXPECT_FALSE(fault::fire("parametric.pivot"));
  EXPECT_EQ(fault::clock_skew_ns(), 0);
}

TEST_F(FaultTest, ArmPoisonDisarm) {
  fault::arm("checker.sweep", "nan");
  EXPECT_TRUE(fault::any_armed());
  EXPECT_TRUE(std::isnan(fault::poison("checker.sweep", 0.25)));
  EXPECT_EQ(fault::poison("solver.sweep", 0.25), 0.25);  // other sites clean
  EXPECT_GE(fault::hits("checker.sweep"), 1u);
  fault::disarm("checker.sweep");
  EXPECT_EQ(fault::poison("checker.sweep", 0.25), 0.25);
}

TEST_F(FaultTest, AfterCountDelaysInjection) {
  fault::arm("opt.eval", "inf@3");
  EXPECT_EQ(fault::poison("opt.eval", 1.0), 1.0);  // call 1
  EXPECT_EQ(fault::poison("opt.eval", 1.0), 1.0);  // call 2
  EXPECT_EQ(fault::poison("opt.eval", 1.0), 1.0);  // call 3
  EXPECT_TRUE(std::isinf(fault::poison("opt.eval", 1.0)));  // call 4 fires
}

TEST_F(FaultTest, SpecListParsesMultipleSites) {
  fault::arm_from_spec("smc.sample:on,irl.gradient:nan@2");
  EXPECT_TRUE(fault::fire("smc.sample"));
  EXPECT_EQ(fault::poison("irl.gradient", 5.0), 5.0);
  EXPECT_EQ(fault::poison("irl.gradient", 5.0), 5.0);
  EXPECT_TRUE(std::isnan(fault::poison("irl.gradient", 5.0)));
}

TEST_F(FaultTest, MalformedSpecThrows) {
  EXPECT_THROW(fault::arm("x", "frobnicate"), Error);
  EXPECT_THROW(fault::arm_from_spec("no-colon-here"), Error);
}

// ---------------------------------------------------------------------------
// Targeted engine behaviour under each site.

TEST_F(FaultTest, SolverSweepNanIsTypedNumericError) {
  fault::arm("solver.sweep", "nan");
  const CompiledModel model = compile(retry_mdp());
  EXPECT_THROW((void)value_iteration_discounted(model, 0.9,
                                                Objective::kMaximize),
               NumericError);
}

TEST_F(FaultTest, RobustSweepNanIsTypedNumericError) {
  // The robust engine runs on the same convergence driver as VI: a NaN
  // sweep delta throws at once instead of burning max_iterations.
  fault::arm("solver.sweep", "nan");
  const Mdp walk = ruin_walk().as_mdp();
  const IntervalMdp widened = IntervalMdp::widen(walk, 0.05);
  SolverOptions options;
  options.max_iterations = 1000;
  try {
    (void)interval_reachability(widened, walk.states_with_label("goal"),
                                Objective::kMaximize, Nature::kAdversarial,
                                options);
    FAIL() << "poisoned interval_reachability did not throw";
  } catch (const NumericError& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite sweep delta"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fault::hits("solver.sweep"), 1u);
}

TEST_F(FaultTest, CheckerSweepNanIsTypedNumericError) {
  fault::arm("checker.sweep", "nan");
  const CompiledModel model = compile(ruin_walk());
  EXPECT_THROW((void)mdp_reachability(model, model.states_with_label("goal"),
                                      Objective::kMaximize),
               NumericError);
  EXPECT_GE(fault::hits("checker.sweep"), 1u);
}

TEST_F(FaultTest, ForcedNonConvergenceIsTypedNumericError) {
  fault::arm("checker.converge", "on");
  const CompiledModel model = compile(ruin_walk());
  // The gap closes below 1e-3 within ~20 sweeps; every later sweep asks
  // the site, which refuses, until the sweep cap throws.
  SolverOptions options;
  options.tolerance = 1e-3;
  options.max_iterations = 50;
  EXPECT_THROW((void)mdp_reachability(model, model.states_with_label("goal"),
                                      Objective::kMaximize, options),
               NumericError);
  EXPECT_GE(fault::hits("checker.converge"), 1u);
}

TEST_F(FaultTest, NlpDiscardsPoisonedEvaluations) {
  // Every objective evaluation returns NaN: no candidate may be recorded,
  // the solve must come back infeasible with the sentinel violation — not
  // "optimal at NaN".
  fault::arm("opt.eval", "nan");
  stats::set_enabled(true);
  stats::counter("opt.nan_starts").clear();
  Problem p;
  p.dimension = 1;
  p.objective = [](std::span<const double> x) { return x[0] * x[0]; };
  p.box = Box::uniform(1, -1.0, 1.0);
  const SolveOutcome out = solve(p, SolveOptions{});
  EXPECT_NE(out.status, SolveStatus::kOptimal);
  EXPECT_FALSE(std::isnan(out.objective));
  EXPECT_GE(stats::counter("opt.nan_starts").value(), 1u);
  stats::set_enabled(false);
}

TEST_F(FaultTest, NlpSurvivesLatePoisoning) {
  // Clean for the first 40 evaluations, NaN afterwards: the early recorded
  // candidate must survive and stay finite.
  fault::arm("opt.eval", "nan@40");
  Problem p;
  p.dimension = 1;
  p.objective = [](std::span<const double> x) {
    return (x[0] - 0.25) * (x[0] - 0.25);
  };
  p.box = Box::uniform(1, -1.0, 1.0);
  const SolveOutcome out = solve(p, SolveOptions{});
  ASSERT_FALSE(out.x.empty());
  EXPECT_TRUE(std::isfinite(out.x[0]));
  EXPECT_TRUE(std::isfinite(out.objective));
}

/// min (x − 0.25)² s.t. x >= 0.5 on [-1, 1], in the KKT solver's form.
Problem kkt_problem() {
  Problem p;
  p.dimension = 1;
  p.objective = [](std::span<const double> x) {
    return (x[0] - 0.25) * (x[0] - 0.25);
  };
  p.objective_gradient = [](std::span<const double> x) {
    return std::vector<double>{2.0 * (x[0] - 0.25)};
  };
  p.objective_hessian_diagonal = {2.0};
  p.constraints.push_back(Constraint{
      "floor", [](std::span<const double> x) { return 0.5 - x[0]; },
      [](std::span<const double>) { return std::vector<double>{-1.0}; }});
  p.box = Box::uniform(1, -1.0, 1.0);
  return p;
}

TEST_F(FaultTest, KktDiscardsPoisonedEvaluations) {
  // Every objective evaluation is NaN: the KKT start ends uncertified and
  // the multistart fallback, equally poisoned, reports no optimum.
  fault::arm("opt.eval", "nan");
  stats::set_enabled(true);
  stats::counter("opt.kkt.fallbacks").clear();
  const SolveOutcome out =
      solve_repair(kkt_problem(), std::vector<double>{0.0}, {});
  EXPECT_NE(out.status, SolveStatus::kOptimal);
  EXPECT_FALSE(out.minimality_certified);
  EXPECT_FALSE(std::isnan(out.objective));
  EXPECT_EQ(stats::counter("opt.kkt.fallbacks").value(), 1u);
  stats::set_enabled(false);
}

TEST_F(FaultTest, KktSurvivesLatePoisoning) {
  // The start point's evaluation is clean, every later one NaN: each trial
  // step is rejected, the start ends uncertified, and what it hands back
  // (the start point) stays finite.
  fault::arm("opt.eval", "nan@1");
  const SolveOutcome kkt = solve_kkt(kkt_problem(), {0.0}, {});
  EXPECT_FALSE(kkt.minimality_certified);
  ASSERT_FALSE(kkt.x.empty());
  EXPECT_TRUE(std::isfinite(kkt.x[0]));
  EXPECT_TRUE(std::isfinite(kkt.objective));
  EXPECT_GE(fault::hits("opt.eval"), 1u);
}

TEST_F(FaultTest, SolverPivotForcedSingularIsTypedNumericError) {
  // The DTMC direct solve's factorization: a forced pivot failure must
  // surface as NumericError through every entry point, never as a value.
  fault::arm("solver.pivot", "on");
  const CompiledModel chain = compile(ruin_walk());
  StateSet goal(5, false);
  goal[4] = true;
  EXPECT_THROW((void)dtmc_reachability(chain, goal), NumericError);
  StateSet retried(2, false);
  retried[1] = true;
  EXPECT_THROW((void)dtmc_total_reward(compile(retry_chain()), retried),
               NumericError);
  EXPECT_THROW((void)check(chain, *parse_pctl("P=? [ F \"goal\" ]")),
               NumericError);
  // Steady-state analysis factors through the same LU.
  Dtmc flip(2);
  flip.set_transitions(0, {Transition{0, 0.5}, Transition{1, 0.5}});
  flip.set_transitions(1, {Transition{0, 0.5}, Transition{1, 0.5}});
  const CompiledModel ergodic = compile(flip);
  EXPECT_THROW((void)stationary_distribution(ergodic, {0, 1}), NumericError);
  EXPECT_GT(fault::hits("solver.pivot"), 0u);
  fault::disarm_all();
  EXPECT_NEAR(dtmc_reachability(chain, goal)[2], 0.5, 1e-12);
  EXPECT_NEAR(stationary_distribution(ergodic, {0, 1})[1], 0.5, 1e-12);
}

TEST_F(FaultTest, ParametricPivotForcedSingular) {
  fault::arm("parametric.pivot", "on");
  VariablePool pool;
  const Var x = pool.declare("x");
  ParametricDtmc chain(3, std::move(pool));
  chain.set_transition(0, 1, RationalFunction::variable(x));
  chain.set_transition(0, 0, one_minus(RationalFunction::variable(x)));
  chain.set_transition(1, 2, RationalFunction(1.0));
  chain.set_transition(2, 2, RationalFunction(1.0));
  StateSet targets(3, false);
  targets[2] = true;
  EXPECT_THROW((void)reachability_probability(chain, targets), Error);
}

TEST_F(FaultTest, SmcSampleFaultForcesUndecidedPaths) {
  fault::arm("smc.sample", "on");
  SmcOptions strict;  // max_truncation_rate 0: biased estimate must throw
  strict.epsilon = 0.1;
  strict.delta = 0.1;
  EXPECT_THROW((void)smc_check(retry_chain(),
                               *parse_pctl("P=? [ F \"goal\" ]"), strict),
               NumericError);
  SmcOptions tolerant;
  tolerant.max_truncation_rate = 1.0;
  tolerant.epsilon = 0.1;
  tolerant.delta = 0.1;
  const SmcResult result = smc_check(
      retry_chain(), *parse_pctl("P=? [ F \"goal\" ]"), tolerant);
  // All paths undecided: the widened guarantee must admit it.
  EXPECT_EQ(result.truncated, result.samples);
  EXPECT_GE(result.epsilon, 1.0);
}

TEST_F(FaultTest, IrlGradientNanIsTypedNumericError) {
  fault::arm("irl.gradient", "nan");
  Mdp mdp = retry_mdp();
  StateFeatures features(2, 1);
  features.set(1, 0, 1.0);
  IrlOptions options;
  options.horizon = 3;
  options.max_iterations = 5;
  const std::vector<double> target{1.0};
  EXPECT_THROW((void)fit_to_feature_counts(mdp, features, target, options),
               NumericError);
}

TEST_F(FaultTest, ClockSkewDrivesDeadlineWithoutWaiting) {
  // Skew the budget clock one day forward: a 10-second deadline fires on
  // the first tick with no real waiting.
  fault::arm("budget.clock", "skew=86400000000000");
  Budget b;
  b.deadline_in_ms(10'000);
  BudgetTracker tracker(b);
  EXPECT_FALSE(tracker.tick());
  EXPECT_EQ(tracker.stop(), BudgetStop::kDeadline);
}

// ---------------------------------------------------------------------------
// Satellite: PRISM parser hardening. Malformed numerics must die in the
// parser with line/column positions, not reach the engines.

TEST_F(FaultTest, PrismRejectsNonFiniteAndOutOfRangeNumbers) {
  const std::string header =
      "dtmc\nmodule m\n  s : [0..1] init 0;\n";
  const std::string footer = "endmodule\n";
  const auto model = [&](const std::string& cmds) {
    return header + cmds + footer;
  };
  // A valid model parses.
  EXPECT_NO_THROW((void)parse_prism(model(
      "  [] s=0 -> 0.5:(s'=0) + 0.5:(s'=1);\n  [] s=1 -> 1:(s'=1);\n")));
  // NaN / Inf literals are rejected even though strtod accepts them.
  EXPECT_THROW((void)parse_prism(model(
      "  [] s=0 -> nan:(s'=0) + 0.5:(s'=1);\n")), ParseError);
  EXPECT_THROW((void)parse_prism(model(
      "  [] s=0 -> inf:(s'=1);\n")), ParseError);
  // Negative and >1 probabilities are rejected at parse time.
  EXPECT_THROW((void)parse_prism(model(
      "  [] s=0 -> -0.5:(s'=0) + 1.5:(s'=1);\n")), ParseError);
  EXPECT_THROW((void)parse_prism(model(
      "  [] s=0 -> 1.5:(s'=1);\n")), ParseError);
}

TEST_F(FaultTest, PrismRejectsBadRewardsWithLineAndColumn) {
  const std::string source =
      "dtmc\n"
      "module m\n"
      "  s : [0..1] init 0;\n"
      "  [] s=0 -> 1:(s'=1);\n"
      "  [] s=1 -> 1:(s'=1);\n"
      "endmodule\n"
      "rewards\n"
      "  s=0 : -3.0;\n"
      "endrewards\n";
  try {
    (void)parse_prism(source);
    FAIL() << "negative reward accepted";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 8"), std::string::npos) << what;
    EXPECT_NE(what.find("reward is negative"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Satellite: dataset validation at the MLE boundary.

TEST_F(FaultTest, MleRejectsEmptyDataset) {
  EXPECT_THROW((void)mle_dtmc(retry_chain(), TrajectoryDataset{}),
               ModelError);
}

TEST_F(FaultTest, MleNamesOffendingTrajectory) {
  TrajectoryDataset data;
  Trajectory good;
  good.initial_state = 0;
  good.steps.push_back(Step{0, 0, 0, 1});
  data.add(good);
  data.add(Trajectory{});  // index 1: no steps
  try {
    (void)mle_dtmc(retry_chain(), data);
    FAIL() << "empty trajectory accepted";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("trajectory 1"), std::string::npos)
        << e.what();
  }
}

TEST_F(FaultTest, MleRejectsOutOfRangeStates) {
  TrajectoryDataset data;
  Trajectory bad;
  bad.initial_state = 0;
  bad.steps.push_back(Step{0, 0, 0, 7});  // state 7 of a 2-state chain
  data.add(bad);
  try {
    (void)mle_dtmc(retry_chain(), data);
    FAIL() << "out-of-range state accepted";
  } catch (const ModelError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trajectory 0"), std::string::npos) << what;
    EXPECT_NE(what.find("7"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Battery: under every single-site fault in rotation, every engine either
// finishes, returns a flagged partial, or throws a typed tml::Error.

const char* const kBatterySpecs[] = {
    "checker.sweep:nan",    "checker.sweep:inf@4", "checker.converge:on",
    "solver.sweep:nan",     "opt.eval:nan",        "opt.eval:inf@8",
    "parametric.pivot:on",  "smc.sample:on",       "irl.gradient:nan@2",
    "budget.clock:skew=86400000000000",
};

TEST_F(FaultTest, EveryEngineDegradesOrThrowsTyped) {
  for (const char* spec : kBatterySpecs) {
    fault::disarm_all();
    fault::arm_from_spec(spec);
    SCOPED_TRACE(spec);

    // Reachability (sound bracket path).
    try {
      const CompiledModel model = compile(retry_mdp());
      StateSet targets(model.num_states());
      targets.set(1);
      const SolveResult r = mdp_reachability_bracket(
          model, targets, Objective::kMaximize);
      for (double v : r.values) EXPECT_FALSE(std::isnan(v));
    } catch (const Error&) {
      // typed — acceptable
    }

    // Discounted solver.
    try {
      const SolveResult r = value_iteration_discounted(
          compile(retry_mdp()), 0.9, Objective::kMaximize);
      for (double v : r.values) EXPECT_FALSE(std::isnan(v));
    } catch (const Error&) {
    }

    // NLP.
    try {
      Problem p;
      p.dimension = 1;
      p.objective = [](std::span<const double> x) { return x[0] * x[0]; };
      p.box = Box::uniform(1, -1.0, 1.0);
      const SolveOutcome out = solve(p, SolveOptions{});
      if (out.status == SolveStatus::kOptimal) {
        EXPECT_TRUE(std::isfinite(out.objective));
      }
    } catch (const Error&) {
    }

    // The repair NLP's KKT path (and its fallback).
    try {
      const SolveOutcome out =
          solve_repair(kkt_problem(), std::vector<double>{0.0}, {});
      if (out.status == SolveStatus::kOptimal) {
        EXPECT_TRUE(std::isfinite(out.objective));
      }
      if (out.minimality_certified) {
        EXPECT_NEAR(out.x[0], 0.5, 1e-9);
      }
    } catch (const Error&) {
    }

    // SMC (tolerant of truncation so the estimate path runs).
    try {
      SmcOptions options;
      options.max_truncation_rate = 1.0;
      options.epsilon = 0.1;
      options.delta = 0.1;
      const SmcResult r = smc_check(
          retry_chain(), *parse_pctl("P=? [ F \"goal\" ]"), options);
      EXPECT_FALSE(std::isnan(r.estimate));
      EXPECT_LE(r.estimate, 1.0);
      EXPECT_GE(r.estimate, 0.0);
    } catch (const Error&) {
    }

    // IRL.
    try {
      StateFeatures features(2, 1);
      features.set(1, 0, 1.0);
      IrlOptions options;
      options.horizon = 3;
      options.max_iterations = 4;
      const std::vector<double> target{1.0};
      const IrlResult r =
          fit_to_feature_counts(retry_mdp(), features, target, options);
      for (double t : r.theta) EXPECT_FALSE(std::isnan(t));
    } catch (const Error&) {
    }

    // Parametric elimination.
    try {
      VariablePool pool;
      const Var x = pool.declare("x");
      ParametricDtmc chain(3, std::move(pool));
      chain.set_transition(0, 1, RationalFunction::variable(x));
      chain.set_transition(0, 0, one_minus(RationalFunction::variable(x)));
      chain.set_transition(1, 2, RationalFunction(1.0));
      chain.set_transition(2, 2, RationalFunction(1.0));
      StateSet targets(3, false);
      targets[2] = true;
      (void)reachability_probability(chain, targets);
    } catch (const Error&) {
    }
  }
  fault::disarm_all();
}

}  // namespace
}  // namespace tml
