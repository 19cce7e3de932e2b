// Tests for multi-property ("safety envelope", §I) Model Repair.

#include <gtest/gtest.h>

#include "src/checker/check.hpp"
#include "src/core/model_repair.hpp"
#include "src/logic/parser.hpp"

namespace tml {
namespace {

/// Three-state chain: 0 → goal (0.3 + v) / slow detour via 1 (0.7 − v);
/// reward 1 per step at 0 and 1.
Dtmc detour_chain() {
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{2, 0.3}, Transition{1, 0.7}});
  chain.set_transitions(1, {Transition{1, 0.5}, Transition{2, 0.5}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  chain.set_state_reward(0, 1.0);
  chain.set_state_reward(1, 1.0);
  chain.add_label(2, "goal");
  chain.add_label(1, "detour");
  return chain;
}

PerturbationScheme detour_scheme(double cap) {
  PerturbationScheme scheme(detour_chain());
  const Var v = scheme.add_variable("v", 0.0, cap);
  scheme.attach_balanced(v, 0, /*raise=*/2, /*lower=*/1);
  return scheme;
}

TEST(EnvelopeRepair, SatisfiesBothConstraintsSimultaneously) {
  // Envelope: direct-route probability and expected total steps.
  const std::vector<StateFormulaPtr> envelope{
      parse_pctl("P>=0.5 [ !\"detour\" U \"goal\" ]"),
      parse_pctl("R<=2.2 [ F \"goal\" ]"),
  };
  const EnvelopeRepairResult result =
      model_repair_envelope(detour_scheme(0.5), envelope);
  ASSERT_TRUE(result.repair.feasible());
  ASSERT_EQ(result.per_property.size(), 2u);
  EXPECT_TRUE(result.per_property[0].satisfied);
  EXPECT_TRUE(result.per_property[1].satisfied);
  EXPECT_TRUE(result.repair.recheck_passed);
  for (const StateFormulaPtr& p : envelope) {
    EXPECT_TRUE(check(*result.repair.repaired, *p).satisfied);
  }
  // The binding constraint decides v: P(direct) = 0.3 + v >= 0.5 ⇒
  // v >= 0.2; the reward constraint needs E = 1 + (0.7−v)·2 <= 2.2 ⇒
  // v >= 0.1. So v* ≈ 0.2.
  EXPECT_NEAR(result.repair.variable_values[0], 0.2, 1e-2);
}

TEST(EnvelopeRepair, CertifiesTheProposition1Bound) {
  const std::vector<StateFormulaPtr> envelope{
      parse_pctl("P>=0.5 [ !\"detour\" U \"goal\" ]"),
      parse_pctl("R<=2.2 [ F \"goal\" ]"),
  };
  const PerturbationScheme scheme = detour_scheme(0.5);
  const EnvelopeRepairResult result = model_repair_envelope(scheme, envelope);
  ASSERT_TRUE(result.repair.feasible());
  EXPECT_GT(result.repair.epsilon_bisimilarity, 0.0);
  EXPECT_EQ(result.repair.epsilon_bisimilarity,
            scheme.max_perturbation(result.repair.variable_values));
}

TEST(EnvelopeRepair, TightestConstraintGoverns) {
  const std::vector<StateFormulaPtr> loose_then_tight{
      parse_pctl("P>=0.35 [ !\"detour\" U \"goal\" ]"),  // v >= 0.05
      parse_pctl("R<=1.8 [ F \"goal\" ]"),               // v >= 0.3
  };
  const EnvelopeRepairResult result =
      model_repair_envelope(detour_scheme(0.5), loose_then_tight);
  ASSERT_TRUE(result.repair.feasible());
  EXPECT_NEAR(result.repair.variable_values[0], 0.3, 1e-2);
}

TEST(EnvelopeRepair, InfeasibleWhenAnyConstraintUnreachable) {
  const std::vector<StateFormulaPtr> envelope{
      parse_pctl("P>=0.5 [ !\"detour\" U \"goal\" ]"),  // v >= 0.2 ok
      parse_pctl("R<=1.05 [ F \"goal\" ]"),  // needs v >= 0.675 > cap
  };
  const EnvelopeRepairResult result =
      model_repair_envelope(detour_scheme(0.5), envelope);
  EXPECT_FALSE(result.repair.feasible());
  ASSERT_EQ(result.per_property.size(), 2u);
  EXPECT_FALSE(result.per_property[1].satisfied);
}

TEST(EnvelopeRepair, SinglePropertyMatchesPlainRepair) {
  const StateFormulaPtr property = parse_pctl("R<=2.2 [ F \"goal\" ]");
  const ModelRepairResult plain = model_repair(detour_scheme(0.5), *property);
  const EnvelopeRepairResult envelope =
      model_repair_envelope(detour_scheme(0.5), {property});
  ASSERT_TRUE(plain.feasible());
  ASSERT_TRUE(envelope.repair.feasible());
  EXPECT_NEAR(plain.variable_values[0], envelope.repair.variable_values[0],
              5e-3);
}

TEST(EnvelopeRepair, MixedSymbolicAndNumericConstraints) {
  const std::vector<StateFormulaPtr> envelope{
      parse_pctl("R<=2.2 [ F \"goal\" ]"),           // symbolic
      parse_pctl("P>=0.9 [ F<=40 \"goal\" ]"),       // numeric (k > 24)
  };
  const EnvelopeRepairResult result =
      model_repair_envelope(detour_scheme(0.5), envelope);
  ASSERT_TRUE(result.repair.feasible());
  EXPECT_TRUE(result.per_property[0].satisfied);
  EXPECT_TRUE(result.per_property[1].satisfied);
}

TEST(EnvelopeRepair, ValidationErrors) {
  EXPECT_THROW(model_repair_envelope(detour_scheme(0.5), {}), Error);
  EXPECT_THROW(model_repair_envelope(detour_scheme(0.5), {nullptr}), Error);
  EXPECT_THROW(
      model_repair_envelope(detour_scheme(0.5), {parse_pctl("\"goal\"")}),
      Error);
}

}  // namespace
}  // namespace tml
