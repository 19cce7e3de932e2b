// Tests for sensitivity analysis and localized model repair (the paper's
// "efficient localized changes" future-work feature).

#include "src/core/sensitivity.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "src/casestudies/wsn.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/solver.hpp"

namespace tml {
namespace {

/// Two-hop serial chain: hop A has success 0.2 (+a), hop B success 0.5
/// (+b). E[steps] = 1/(0.2+a) + 1/(0.5+b); ∂/∂a = −25, ∂/∂b = −4 at 0.
PerturbationScheme two_hop_scheme() {
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{0, 0.8}, Transition{1, 0.2}});
  chain.set_transitions(1, {Transition{1, 0.5}, Transition{2, 0.5}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  chain.set_state_reward(0, 1.0);
  chain.set_state_reward(1, 1.0);
  chain.add_label(2, "done");
  PerturbationScheme scheme(chain);
  const Var a = scheme.add_variable("a", 0.0, 0.15);
  const Var b = scheme.add_variable("b", 0.0, 0.15);
  scheme.attach_balanced(a, 0, 1, 0);
  scheme.attach_balanced(b, 1, 2, 1);
  return scheme;
}

TEST(Sensitivity, DerivativesMatchClosedForm) {
  const PerturbationScheme scheme = two_hop_scheme();
  const StateFormulaPtr property = parse_pctl("R<=6 [ F \"done\" ]");
  const SensitivityReport report = sensitivity_analysis(scheme, *property);
  EXPECT_NEAR(report.nominal_value, 7.0, 1e-9);
  ASSERT_EQ(report.variables.size(), 2u);
  // Sorted by leverage: 'a' (|−25|·0.15) before 'b' (|−4|·0.15).
  EXPECT_EQ(report.variables[0].name, "a");
  EXPECT_NEAR(report.variables[0].derivative, -25.0, 1e-6);
  EXPECT_EQ(report.variables[1].name, "b");
  EXPECT_NEAR(report.variables[1].derivative, -4.0, 1e-6);
  EXPECT_GT(report.variables[0].leverage, report.variables[1].leverage);
  EXPECT_FALSE(report.function_text.empty());
}

TEST(Sensitivity, LocalizedRepairUsesOnlyTopVariable) {
  const PerturbationScheme scheme = two_hop_scheme();
  // Nominal 7.0; require <= 4.2. Repairing only 'a': 1/(0.2+a) <= 2.2 ⇒
  // a >= 0.2545 > cap... recompute: need 1/(0.2+a) + 2 <= 4.2 ⇒
  // 1/(0.2+a) <= 2.2 ⇒ a >= 0.2545 — above the 0.15 cap ⇒ pick a looser
  // bound: require <= 5.0 ⇒ 1/(0.2+a) <= 3 ⇒ a >= 1/3 − 0.2 = 0.1333 ≤ cap.
  const StateFormulaPtr property = parse_pctl("R<=5 [ F \"done\" ]");
  const LocalizedRepairResult result =
      localized_model_repair(scheme, *property, /*top_k=*/1);
  ASSERT_TRUE(result.repair.feasible());
  ASSERT_EQ(result.active_variables.size(), 1u);
  EXPECT_EQ(result.active_variables[0], "a");
  // Variable b stayed frozen at 0.
  EXPECT_NEAR(result.repair.variable_values[1], 0.0, 1e-12);
  EXPECT_NEAR(result.repair.variable_values[0], 1.0 / 3.0 - 0.2, 1e-2);
  EXPECT_TRUE(result.repair.recheck_passed);
}

TEST(Sensitivity, LocalizedRepairCanBeInfeasibleWhereFullIsNot) {
  const PerturbationScheme scheme = two_hop_scheme();
  // Full repair floor: 1/0.35 + 1/0.65 = 4.395; top-1 floor: 1/0.35 + 2 =
  // 4.857. A bound of 4.6 separates the two.
  const StateFormulaPtr property = parse_pctl("R<=4.6 [ F \"done\" ]");
  const ModelRepairResult full = model_repair(scheme, *property);
  EXPECT_TRUE(full.feasible());
  const LocalizedRepairResult local =
      localized_model_repair(scheme, *property, 1);
  EXPECT_FALSE(local.repair.feasible());
  // With both variables active the localized repair equals the full one.
  const LocalizedRepairResult both =
      localized_model_repair(scheme, *property, 2);
  EXPECT_TRUE(both.repair.feasible());
}

TEST(Sensitivity, WsnRanksFieldStationCorrectionFirst) {
  const WsnConfig config;
  const Mdp mdp = build_wsn_mdp(config);
  const StateSet delivered = mdp.states_with_label("delivered");
  const Policy routing =
      total_reward_to_target(compile(mdp), delivered, Objective::kMinimize)
          .policy;
  const Dtmc induced = mdp.induced_dtmc(routing);
  const PerturbationScheme scheme = wsn_perturbation(config, induced, 0.08);
  const SensitivityReport report = sensitivity_analysis(
      scheme, *parse_pctl("R<=40 [ F \"delivered\" ]"));
  // p covers four hops of the optimal route, q only one ⇒ p dominates.
  ASSERT_EQ(report.variables.size(), 2u);
  EXPECT_EQ(report.variables[0].name, "p");
  EXPECT_NEAR(report.nominal_value, 66.667, 1e-2);
  // ∂E/∂p at 0 = −4/0.08² = −625; ∂E/∂q = −1/0.06² = −277.8.
  EXPECT_NEAR(report.variables[0].derivative, -625.0, 1.0);
  EXPECT_NEAR(report.variables[1].derivative, -277.8, 1.0);
}

TEST(Sensitivity, TopKZeroRejected) {
  const PerturbationScheme scheme = two_hop_scheme();
  EXPECT_THROW(localized_model_repair(
                   scheme, *parse_pctl("R<=5 [ F \"done\" ]"), 0),
               Error);
}

}  // namespace
}  // namespace tml
