// PCTL model checking tests on MDPs: min/max scheduler semantics.

#include <cmath>

#include <gtest/gtest.h>

#include "src/checker/check.hpp"
#include "src/common/stats.hpp"
#include "src/logic/parser.hpp"

namespace tml {
namespace {

/// s0 has a safe action (goal surely) and a gamble (goal 0.5 / trap 0.5).
Mdp choice_mdp() {
  Mdp mdp(3);
  mdp.add_choice(0, "safe", {Transition{1, 1.0}});
  mdp.add_choice(0, "gamble", {Transition{1, 0.5}, Transition{2, 0.5}});
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.add_choice(2, "stay", {Transition{2, 1.0}});
  mdp.add_label(1, "goal");
  mdp.add_label(2, "trap");
  return mdp;
}

/// s0 can loop forever or move on; mirrors an end-component.
Mdp loop_mdp() {
  Mdp mdp(2);
  mdp.add_choice(0, "loop", {Transition{0, 1.0}});
  mdp.add_choice(0, "go", {Transition{1, 1.0}});
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.add_label(1, "goal");
  return mdp;
}

/// s0 and s1 form a genuine two-state SCC (Pmax[F goal] = 1/3 at s0), so
/// the interval engine must sweep; s0's extra "quit" choice keeps the model
/// an MDP.
Mdp sweeping_mdp() {
  Mdp mdp(4);
  mdp.add_choice(0, "a", {Transition{1, 0.5}, Transition{2, 0.5}});
  mdp.add_choice(0, "quit", {Transition{2, 1.0}});
  mdp.add_choice(1, "b", {Transition{0, 0.5}, Transition{3, 0.5}});
  mdp.add_choice(2, "stay", {Transition{2, 1.0}});
  mdp.add_choice(3, "stay", {Transition{3, 1.0}});
  mdp.add_label(3, "goal");
  return mdp;
}

TEST(MdpChecker, PmaxPminReachability) {
  const Mdp mdp = choice_mdp();
  EXPECT_NEAR(*check(mdp, "Pmax=? [ F \"goal\" ]").value, 1.0, 1e-9);
  EXPECT_NEAR(*check(mdp, "Pmin=? [ F \"goal\" ]").value, 0.5, 1e-9);
  EXPECT_NEAR(*check(mdp, "Pmax=? [ F \"trap\" ]").value, 0.5, 1e-9);
  EXPECT_NEAR(*check(mdp, "Pmin=? [ F \"trap\" ]").value, 0.0, 1e-9);
}

TEST(MdpChecker, EndComponentHandledByPrecomputation) {
  const Mdp mdp = loop_mdp();
  // Pmin is 0 because the scheduler can loop forever — plain value
  // iteration from above would get this wrong without the graph analysis.
  EXPECT_NEAR(*check(mdp, "Pmin=? [ F \"goal\" ]").value, 0.0, 1e-12);
  EXPECT_NEAR(*check(mdp, "Pmax=? [ F \"goal\" ]").value, 1.0, 1e-12);
}

TEST(MdpChecker, BoundedOperatorSchedulerResolution) {
  const Mdp mdp = choice_mdp();
  // Upper bound ⇒ all schedulers ⇒ checked against Pmax.
  EXPECT_FALSE(check(mdp, "P<=0.4 [ F \"trap\" ]").satisfied);  // Pmax = 0.5
  EXPECT_TRUE(check(mdp, "P<=0.5 [ F \"trap\" ]").satisfied);
  // Lower bound ⇒ checked against Pmin.
  EXPECT_TRUE(check(mdp, "P>=0.5 [ F \"goal\" ]").satisfied);   // Pmin = 0.5
  EXPECT_FALSE(check(mdp, "P>0.5 [ F \"goal\" ]").satisfied);
}

TEST(MdpChecker, ExplicitQuantifierOverridesResolution) {
  const Mdp mdp = choice_mdp();
  // Pmax>=1 [F goal]: the best scheduler reaches surely.
  EXPECT_TRUE(check(mdp, "Pmax>=1 [ F \"goal\" ]").satisfied);
  // Without the quantifier the lower bound resolves to Pmin = 0.5 < 1.
  EXPECT_FALSE(check(mdp, "P>=1 [ F \"goal\" ]").satisfied);
}

TEST(MdpChecker, NextMinMax) {
  const Mdp mdp = choice_mdp();
  EXPECT_NEAR(*check(mdp, "Pmax=? [ X \"goal\" ]").value, 1.0, 1e-12);
  EXPECT_NEAR(*check(mdp, "Pmin=? [ X \"goal\" ]").value, 0.5, 1e-12);
}

TEST(MdpChecker, BoundedUntil) {
  const Mdp mdp = loop_mdp();
  EXPECT_NEAR(*check(mdp, "Pmax=? [ true U<=1 \"goal\" ]").value, 1.0, 1e-12);
  EXPECT_NEAR(*check(mdp, "Pmin=? [ true U<=5 \"goal\" ]").value, 0.0, 1e-12);
}

TEST(MdpChecker, GloballyDuality) {
  const Mdp mdp = choice_mdp();
  // Pmax(G ¬trap) = 1 (choose safe); Pmin(G ¬trap) = 0.5 (gamble).
  EXPECT_NEAR(*check(mdp, "Pmax=? [ G !\"trap\" ]").value, 1.0, 1e-9);
  EXPECT_NEAR(*check(mdp, "Pmin=? [ G !\"trap\" ]").value, 0.5, 1e-9);
}

TEST(MdpChecker, BooleanOperatorSolvesOnceAndCarriesItsBracket) {
  // P⋈b is solved once: the verdict, the measured value and the bracket
  // all come from one interval solve, which costs exactly the sweeps of
  // the matching =? query.
  const CompiledModel model = compile(sweeping_mdp());
  const bool was_enabled = stats::enabled();
  stats::set_enabled(true);
  const stats::Counter& sweeps = stats::counter("checker.interval_sweeps");
  const std::uint64_t start = sweeps.value();
  const CheckResult query = check(model, *parse_pctl("Pmax=? [ F \"goal\" ]"));
  const std::uint64_t query_cost = sweeps.value() - start;
  const CheckResult verdict =
      check(model, *parse_pctl("P<=0.99 [ F \"goal\" ]"));
  const std::uint64_t verdict_cost = sweeps.value() - start - query_cost;
  stats::set_enabled(was_enabled);

  EXPECT_GT(query_cost, 0u);
  EXPECT_EQ(verdict_cost, query_cost);
  EXPECT_TRUE(verdict.satisfied);
  EXPECT_EQ(*verdict.value, *query.value);
  ASSERT_TRUE(query.bracket.has_value());
  ASSERT_TRUE(verdict.bracket.has_value());
  EXPECT_EQ(query.bracket->sweeps, query_cost);
  EXPECT_EQ(verdict.bracket->sweeps, verdict_cost);
  EXPECT_LE(verdict.bracket->lo, 1.0 / 3.0);
  EXPECT_GE(verdict.bracket->hi, 1.0 / 3.0);
  EXPECT_LE(verdict.bracket->lo, *verdict.value);
  EXPECT_GE(verdict.bracket->hi, *verdict.value);
}

TEST(MdpChecker, BracketFollowsTheCheckedQuantity) {
  const CompiledModel model = compile(sweeping_mdp());
  // G is the mirrored reachability: Pmin(G ¬goal) = 1 − Pmax(F goal) = 2/3.
  const CheckResult globally =
      check(model, *parse_pctl("Pmin=? [ G !\"goal\" ]"));
  ASSERT_TRUE(globally.bracket.has_value());
  EXPECT_LE(globally.bracket->lo, 2.0 / 3.0);
  EXPECT_GE(globally.bracket->hi, 2.0 / 3.0);
  EXPECT_LE(globally.bracket->lo, *globally.value);
  EXPECT_GE(globally.bracket->hi, *globally.value);
  // P>=b resolves to Pmin, here 0 (the "quit" choice), pinned by graph
  // analysis — not Pmax's 1/3.
  const CheckResult lower = check(model, *parse_pctl("P>=0.2 [ F \"goal\" ]"));
  ASSERT_TRUE(lower.bracket.has_value());
  EXPECT_FALSE(lower.satisfied);
  EXPECT_EQ(lower.bracket->lo, 0.0);
  EXPECT_EQ(lower.bracket->hi, 0.0);
  // No engine certifies step-bounded or reward brackets yet.
  EXPECT_FALSE(check(model, *parse_pctl("Pmax=? [ F<=3 \"goal\" ]"))
                   .bracket.has_value());
  EXPECT_FALSE(
      check(compile(choice_mdp()), *parse_pctl("Pmax=? [ X \"goal\" ]"))
          .bracket.has_value());
}

TEST(MdpChecker, RewardMinMax) {
  Mdp mdp(3);
  mdp.add_choice(0, "cheap", {Transition{1, 1.0}}, 1.0);
  mdp.add_choice(0, "dear", {Transition{1, 1.0}}, 10.0);
  mdp.add_choice(1, "go", {Transition{2, 1.0}}, 2.0);
  mdp.add_choice(2, "stay", {Transition{2, 1.0}});
  mdp.add_label(2, "goal");
  EXPECT_NEAR(*check(mdp, "Rmin=? [ F \"goal\" ]").value, 3.0, 1e-9);
  EXPECT_NEAR(*check(mdp, "Rmax=? [ F \"goal\" ]").value, 12.0, 1e-9);
  EXPECT_TRUE(check(mdp, "Rmin<=3 [ F \"goal\" ]").satisfied);
  EXPECT_FALSE(check(mdp, "Rmin<3 [ F \"goal\" ]").satisfied);
  // Unquantified upper bound resolves to Rmax.
  EXPECT_FALSE(check(mdp, "R<=3 [ F \"goal\" ]").satisfied);
  EXPECT_TRUE(check(mdp, "R<=12 [ F \"goal\" ]").satisfied);
}

TEST(MdpChecker, ExhaustedRewardSolveThrowsInsteadOfReturningItsIterate) {
  // A stopped R[F] value iteration holds no sound answer (its iterate is
  // still the initial 0), so check() must report the stop, not a value.
  Mdp mdp(2);
  mdp.add_choice(0, "go", {Transition{1, 1.0}}, 1.0);
  mdp.add_choice(0, "wait", {Transition{0, 0.5}, Transition{1, 0.5}}, 1.0);
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.add_label(1, "goal");
  CheckOptions options;
  options.budget = Budget{};  // own token: the default budget's is shared
  options.budget.cancel.cancel();
  try {
    check(compile(mdp), *parse_pctl("Rmin=? [ F \"goal\" ]"), options);
    FAIL() << "a cancelled R[F] check must throw BudgetExhausted";
  } catch (const BudgetExhausted& e) {
    EXPECT_EQ(e.stop(), BudgetStop::kCancelled);
    EXPECT_FALSE(e.bracket().has_value());
  }
}

TEST(MdpChecker, RewardInfiniteCases) {
  const Mdp mdp = loop_mdp();
  // Rmax: the scheduler may loop forever away from the goal ⇒ inf.
  EXPECT_TRUE(std::isinf(*check(mdp, "Rmax=? [ F \"goal\" ]").value));
  // Rmin: the direct route exists ⇒ finite.
  EXPECT_TRUE(std::isfinite(*check(mdp, "Rmin=? [ F \"goal\" ]").value));
}

TEST(MdpChecker, CumulativeReward) {
  Mdp mdp(1);
  mdp.add_choice(0, "a", {Transition{0, 1.0}}, 3.0);
  mdp.add_choice(0, "b", {Transition{0, 1.0}}, 1.0);
  EXPECT_NEAR(*check(mdp, "Rmax=? [ C<=4 ]").value, 12.0, 1e-12);
  EXPECT_NEAR(*check(mdp, "Rmin=? [ C<=4 ]").value, 4.0, 1e-12);
}

TEST(MdpChecker, UnboundedUntilWithRestriction) {
  // stay-region restriction changes Pmax.
  Mdp mdp(4);
  mdp.add_choice(0, "via_bad", {Transition{1, 1.0}});
  mdp.add_choice(0, "direct", {Transition{2, 0.5}, Transition{3, 0.5}});
  mdp.add_choice(1, "go", {Transition{2, 1.0}});
  mdp.add_choice(2, "stay", {Transition{2, 1.0}});
  mdp.add_choice(3, "stay", {Transition{3, 1.0}});
  mdp.add_label(1, "bad");
  mdp.add_label(2, "goal");
  // Unrestricted: Pmax(F goal) = 1 via the bad state.
  EXPECT_NEAR(*check(mdp, "Pmax=? [ F \"goal\" ]").value, 1.0, 1e-9);
  // Restricted: ¬bad U goal caps at 0.5.
  EXPECT_NEAR(*check(mdp, "Pmax=? [ !\"bad\" U \"goal\" ]").value, 0.5, 1e-9);
}

TEST(MdpChecker, UnboundedQueriesReuseTheCallersGraphCaches) {
  // F and G leave no escape state, so the engine solves the caller's model
  // and reuses its cached predecessor lists instead of rebuilding them on an
  // absorbing copy. An until with escape states still needs the copy.
  const CompiledModel model = compile(choice_mdp());
  (void)model.predecessors(0);
  (void)model.scc();
  const bool was_enabled = stats::enabled();
  stats::set_enabled(true);
  const stats::Counter& builds = stats::counter("compile.pred_builds");
  const std::uint64_t start = builds.value();
  const double pmax = *check(model, *parse_pctl("Pmax=? [ F \"goal\" ]")).value;
  const std::uint64_t after_f = builds.value();
  const double g = *check(model, *parse_pctl("P=? [ G !\"trap\" ]")).value;
  const std::uint64_t after_g = builds.value();
  const double until =
      *check(model, *parse_pctl("Pmin=? [ !\"trap\" U \"goal\" ]")).value;
  const std::uint64_t after_until = builds.value();
  stats::set_enabled(was_enabled);

  EXPECT_NEAR(pmax, 1.0, 1e-9);
  EXPECT_NEAR(g, 1.0, 1e-9);
  EXPECT_NEAR(until, 0.5, 1e-9);
  EXPECT_EQ(after_f, start);
  EXPECT_EQ(after_g, start);
  EXPECT_EQ(after_until, start + 1);
}

TEST(MdpChecker, DtmcAndMdpAgreeOnDegenerateMdp) {
  // A one-choice-per-state MDP must agree with its DTMC view.
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 0.4}, Transition{2, 0.6}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  chain.add_label(1, "goal");
  const Mdp mdp = chain.as_mdp();
  for (const std::string prop :
       {"P=? [ F \"goal\" ]", "P=? [ F<=3 \"goal\" ]",
        "P=? [ X \"goal\" ]"}) {
    EXPECT_NEAR(*check(chain, prop).value, *check(mdp, prop).value, 1e-9)
        << prop;
  }
}

}  // namespace
}  // namespace tml
