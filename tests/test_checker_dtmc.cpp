// PCTL model checking tests on DTMCs with hand-computed ground truth.

#include <cmath>

#include <gtest/gtest.h>

#include "src/checker/check.hpp"
#include "src/common/stats.hpp"
#include "src/logic/parser.hpp"

namespace tml {
namespace {

/// Knuth-style die fragment: s0 → heads (0.5) / tails (0.5); heads → goal;
/// tails → s0. P(F goal) = 1; expected steps small.
Dtmc coin_chain() {
  Dtmc chain(4);
  chain.set_state_name(0, "flip");
  chain.set_state_name(1, "heads");
  chain.set_state_name(2, "tails");
  chain.set_state_name(3, "goal");
  chain.set_transitions(0, {Transition{1, 0.5}, Transition{2, 0.5}});
  chain.set_transitions(1, {Transition{3, 1.0}});
  chain.set_transitions(2, {Transition{0, 1.0}});
  chain.set_transitions(3, {Transition{3, 1.0}});
  chain.add_label(3, "goal");
  chain.add_label(1, "heads");
  chain.add_label(2, "tails");
  return chain;
}

/// Split chain: s0 → goal (0.3) / trap (0.7), both absorbing.
Dtmc split_chain() {
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 0.3}, Transition{2, 0.7}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  chain.add_label(1, "goal");
  chain.add_label(2, "trap");
  return chain;
}

TEST(DtmcChecker, BooleanCombinators) {
  const Dtmc chain = coin_chain();
  EXPECT_TRUE(check(chain, "true").satisfied);
  EXPECT_FALSE(check(chain, "false").satisfied);
  EXPECT_FALSE(check(chain, "\"goal\"").satisfied);  // initial is flip
  EXPECT_TRUE(check(chain, "!\"goal\"").satisfied);
  EXPECT_TRUE(check(chain, "!\"goal\" & true").satisfied);
  EXPECT_TRUE(check(chain, "\"goal\" | !\"goal\"").satisfied);
  EXPECT_TRUE(check(chain, "\"goal\" => false").satisfied);
}

TEST(DtmcChecker, SatStatesOfLabel) {
  const Dtmc chain = coin_chain();
  const StateSet sat =
      satisfying_states(compile(chain), *parse_pctl("\"goal\""));
  EXPECT_EQ(count(sat), 1u);
  EXPECT_TRUE(sat[3]);
}

TEST(DtmcChecker, EventuallyAlmostSure) {
  const Dtmc chain = coin_chain();
  const CheckResult r = check(chain, "P>=1 [ F \"goal\" ]");
  EXPECT_TRUE(r.satisfied);
  ASSERT_TRUE(r.value.has_value());
  EXPECT_NEAR(*r.value, 1.0, 1e-9);
}

TEST(DtmcChecker, EventuallySplitProbability) {
  const Dtmc chain = split_chain();
  const CheckResult r = check(chain, "P>=0.3 [ F \"goal\" ]");
  EXPECT_TRUE(r.satisfied);
  EXPECT_NEAR(*r.value, 0.3, 1e-12);
  EXPECT_FALSE(check(chain, "P>0.3 [ F \"goal\" ]").satisfied);
  EXPECT_TRUE(check(chain, "P<=0.7 [ F \"trap\" ]").satisfied);
}

TEST(DtmcChecker, NextOperator) {
  const Dtmc chain = coin_chain();
  const CheckResult r = check(chain, "P>=0.5 [ X \"heads\" ]");
  EXPECT_TRUE(r.satisfied);
  EXPECT_NEAR(*r.value, 0.5, 1e-12);
  // From heads, next is goal with probability 1.
  const StateSet sat =
      satisfying_states(compile(chain), *parse_pctl("P>=1 [ X \"goal\" ]"));
  EXPECT_TRUE(sat[1]);
  EXPECT_FALSE(sat[0]);
}

TEST(DtmcChecker, BoundedEventually) {
  const Dtmc chain = coin_chain();
  // Within 2 steps: flip → heads → goal, probability 0.5.
  const CheckResult r = check(chain, "P=? [ F<=2 \"goal\" ]");
  EXPECT_NEAR(*r.value, 0.5, 1e-12);
  // Within 4 steps: also tails → flip → heads → goal: 0.5 + 0.25.
  const CheckResult r4 = check(chain, "P=? [ F<=4 \"goal\" ]");
  EXPECT_NEAR(*r4.value, 0.75, 1e-12);
  // Bound 0: only goal states themselves satisfy.
  const CheckResult r0 = check(chain, "P=? [ F<=0 \"goal\" ]");
  EXPECT_NEAR(*r0.value, 0.0, 1e-12);
}

TEST(DtmcChecker, UnboundedUntil) {
  const Dtmc chain = coin_chain();
  // ¬tails U goal: must go flip → heads → goal directly (prob 0.5).
  const CheckResult r = check(chain, "P=? [ !\"tails\" U \"goal\" ]");
  EXPECT_NEAR(*r.value, 0.5, 1e-9);
}

TEST(DtmcChecker, BoundedUntil) {
  const Dtmc chain = coin_chain();
  const CheckResult r = check(chain, "P=? [ !\"tails\" U<=1 \"goal\" ]");
  EXPECT_NEAR(*r.value, 0.0, 1e-12);
  const CheckResult r2 = check(chain, "P=? [ !\"tails\" U<=2 \"goal\" ]");
  EXPECT_NEAR(*r2.value, 0.5, 1e-12);
}

TEST(DtmcChecker, Globally) {
  const Dtmc chain = split_chain();
  // G ¬goal: never reach goal = 0.7.
  const CheckResult r = check(chain, "P=? [ G !\"goal\" ]");
  EXPECT_NEAR(*r.value, 0.7, 1e-9);
  // Bounded G: within 1 step.
  const CheckResult rb = check(chain, "P=? [ G<=1 !\"goal\" ]");
  EXPECT_NEAR(*rb.value, 0.7, 1e-12);
}

TEST(DtmcChecker, RewardReachability) {
  Dtmc chain = coin_chain();
  // Reward 1 per step until goal: E = 1·P(heads path costs 2) ... compute:
  // x_flip = 1 + 0.5·x_heads + 0.5·x_tails; x_heads = 1; x_tails = 1 +
  // x_flip ⇒ x_flip = 1 + 0.5 + 0.5(1 + x_flip) ⇒ x_flip = 4, x_tails = 5.
  for (StateId s = 0; s < 3; ++s) chain.set_state_reward(s, 1.0);
  const CheckResult r = check(chain, "R=? [ F \"goal\" ]");
  EXPECT_NEAR(*r.value, 4.0, 1e-9);
  EXPECT_TRUE(check(chain, "R<=4 [ F \"goal\" ]").satisfied);
  EXPECT_FALSE(check(chain, "R<4 [ F \"goal\" ]").satisfied);
  EXPECT_TRUE(check(chain, "R>=4 [ F \"goal\" ]").satisfied);
}

TEST(DtmcChecker, RewardInfiniteWhenNotAlmostSure) {
  Dtmc chain = split_chain();
  chain.set_state_reward(0, 1.0);
  const CheckResult r = check(chain, "R=? [ F \"goal\" ]");
  EXPECT_TRUE(std::isinf(*r.value));
  EXPECT_FALSE(check(chain, "R<=100 [ F \"goal\" ]").satisfied);
}

TEST(DtmcChecker, CumulativeReward) {
  Dtmc chain = coin_chain();
  for (StateId s = 0; s < 4; ++s) chain.set_state_reward(s, 2.0);
  // C<=k accumulates k step-rewards regardless of absorption.
  const CheckResult r = check(chain, "R=? [ C<=5 ]");
  EXPECT_NEAR(*r.value, 10.0, 1e-12);
  EXPECT_TRUE(check(chain, "R<=10 [ C<=5 ]").satisfied);
}

TEST(DtmcChecker, NestedProbabilisticOperator) {
  const Dtmc chain = coin_chain();
  // States from which X goal holds with prob 1 = {heads}; F of that = 1.
  const CheckResult r =
      check(chain, "P>=1 [ F P>=1 [ X \"goal\" ] ]");
  EXPECT_TRUE(r.satisfied);
}

TEST(DtmcChecker, QuantitativeQueryHasNoSatSet) {
  const Dtmc chain = coin_chain();
  EXPECT_THROW(
      satisfying_states(compile(chain), *parse_pctl("P=? [ F \"goal\" ]")),
      Error);
}

TEST(DtmcChecker, QuantitativeValuesRequireOperator) {
  const Dtmc chain = coin_chain();
  EXPECT_THROW(
      quantitative_values(compile(chain), *parse_pctl("\"goal\"")), Error);
}

TEST(DtmcChecker, ValuesVectorPerState) {
  const Dtmc chain = split_chain();
  const std::vector<double> v =
      quantitative_values(compile(chain), *parse_pctl("P=? [ F \"goal\" ]"));
  ASSERT_EQ(v.size(), 3u);
  EXPECT_NEAR(v[0], 0.3, 1e-12);
  EXPECT_NEAR(v[1], 1.0, 1e-12);
  EXPECT_NEAR(v[2], 0.0, 1e-12);
}

TEST(DtmcChecker, EventuallyReusesTheCallersGraphCaches) {
  // P=? [ F goal ] leaves no escape state: the caller's compiled chain is
  // solved as it stands and its cached predecessor lists are reused.
  const CompiledModel model = compile(split_chain());
  (void)model.predecessors(0);
  (void)model.scc();
  const bool was_enabled = stats::enabled();
  stats::set_enabled(true);
  const stats::Counter& builds = stats::counter("compile.pred_builds");
  const std::uint64_t start = builds.value();
  const double p = *check(model, *parse_pctl("P=? [ F \"goal\" ]")).value;
  const std::uint64_t after = builds.value();
  stats::set_enabled(was_enabled);

  EXPECT_NEAR(p, 0.3, 1e-12);
  EXPECT_EQ(after, start);
}

TEST(DtmcChecker, InvalidModelRejected) {
  Dtmc chain(1);  // no transitions
  EXPECT_THROW(check(chain, "true"), ModelError);
}

}  // namespace
}  // namespace tml
