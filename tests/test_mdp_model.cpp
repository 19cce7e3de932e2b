// Unit tests for the MDP/DTMC model types.

#include "src/mdp/model.hpp"

#include <gtest/gtest.h>

namespace tml {
namespace {

/// Two-state MDP: state 0 has actions "a" (go to 1) and "b" (stay);
/// state 1 is absorbing.
Mdp two_state_mdp() {
  Mdp mdp(2);
  mdp.set_state_name(0, "start");
  mdp.set_state_name(1, "goal");
  mdp.add_choice(0, "a", {Transition{1, 1.0}}, 2.0);
  mdp.add_choice(0, "b", {Transition{0, 1.0}}, 1.0);
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.add_label(1, "goal");
  mdp.set_state_reward(0, 0.5);
  return mdp;
}

TEST(Mdp, ConstructionAndAccessors) {
  const Mdp mdp = two_state_mdp();
  EXPECT_EQ(mdp.num_states(), 2u);
  EXPECT_EQ(mdp.num_choices(), 3u);
  EXPECT_EQ(mdp.num_actions(), 3u);
  EXPECT_EQ(mdp.choices(0).size(), 2u);
  EXPECT_DOUBLE_EQ(mdp.choices(0)[0].reward, 2.0);
  EXPECT_DOUBLE_EQ(mdp.state_reward(0), 0.5);
  EXPECT_EQ(mdp.state_name(1), "goal");
  EXPECT_EQ(mdp.state_by_name("start"), 0u);
  EXPECT_THROW(mdp.state_by_name("nope"), Error);
}

TEST(Mdp, ValidatePassesOnWellFormed) {
  EXPECT_NO_THROW(two_state_mdp().validate());
}

TEST(Mdp, ValidateRejectsEmptyModel) {
  Mdp mdp;
  EXPECT_THROW(mdp.validate(), ModelError);
}

TEST(Mdp, ValidateRejectsStateWithoutChoices) {
  Mdp mdp(1);
  EXPECT_THROW(mdp.validate(), ModelError);
}

TEST(Mdp, ValidateRejectsNonStochasticRow) {
  Mdp mdp(2);
  mdp.add_choice(0, "a", {Transition{1, 0.6}});
  mdp.add_choice(1, "a", {Transition{1, 1.0}});
  EXPECT_THROW(mdp.validate(), ModelError);
}

TEST(Mdp, ValidateRejectsNegativeProbability) {
  Mdp mdp(2);
  mdp.add_choice(0, "a", {Transition{1, 1.5}, Transition{0, -0.5}});
  mdp.add_choice(1, "a", {Transition{1, 1.0}});
  EXPECT_THROW(mdp.validate(), ModelError);
}

TEST(Mdp, AddChoiceRejectsBadTarget) {
  Mdp mdp(1);
  mdp.add_choice(0, "a", {Transition{5, 1.0}});
  EXPECT_THROW(mdp.validate(), ModelError);
}

TEST(Mdp, ActionDeclarationIsIdempotent) {
  Mdp mdp(1);
  const ActionId a1 = mdp.declare_action("go");
  const ActionId a2 = mdp.declare_action("go");
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(mdp.action_name(a1), "go");
  EXPECT_THROW(mdp.action_name(42), Error);
}

TEST(Mdp, LabelsAndSets) {
  Mdp mdp = two_state_mdp();
  mdp.add_label(0, "init");
  mdp.add_label(0, "init");  // duplicate is a no-op
  EXPECT_TRUE(mdp.has_label(0, "init"));
  EXPECT_FALSE(mdp.has_label(1, "init"));
  EXPECT_FALSE(mdp.has_label(0, "never-used"));
  const StateSet set = mdp.states_with_label("goal");
  EXPECT_FALSE(set[0]);
  EXPECT_TRUE(set[1]);
  EXPECT_EQ(mdp.labels_of(0), std::vector<std::string>{"init"});
  // Unknown label: empty set, not an error.
  EXPECT_TRUE(empty(mdp.states_with_label("unknown")));
}

TEST(Mdp, DeclaredLabelIdsMatchNamedLabels) {
  Mdp mdp = two_state_mdp();  // labels state 1 "goal"
  const std::uint32_t goal = mdp.declare_label("goal");
  EXPECT_EQ(mdp.declare_label("goal"), goal);
  const std::uint32_t init = mdp.declare_label("init");
  mdp.add_label(0, init);
  mdp.add_label(0, init);  // duplicate is a no-op
  mdp.add_label(0, goal);
  EXPECT_EQ(mdp.labels_of(0), (std::vector<std::string>{"init", "goal"}));
  EXPECT_TRUE(mdp.states_with_label("goal")[0]);
  EXPECT_THROW(mdp.add_label(0, std::uint32_t{7}), Error);
  EXPECT_THROW(mdp.add_label(5, init), Error);
}

TEST(Mdp, NonStochasticRowMessageNamesStateAndChoice) {
  Mdp mdp(2);
  mdp.add_choice(0, "a", {Transition{1, 1.0}});
  mdp.add_choice(1, "a", {Transition{1, 1.0}});
  mdp.add_choice(1, "b", {Transition{0, 0.25}, Transition{1, 0.5}});
  try {
    mdp.validate();
    FAIL() << "non-stochastic row accepted";
  } catch (const ModelError& e) {
    EXPECT_STREQ(e.what(),
                 "Mdp state 1 choice 1: distribution sums to 0.750000");
  }
  Dtmc chain(1);
  chain.set_transitions(0, {Transition{3, 1.0}});
  try {
    chain.validate();
    FAIL() << "out-of-range target accepted";
  } catch (const ModelError& e) {
    EXPECT_STREQ(e.what(), "Dtmc state 0: target state 3 out of range");
  }
}

TEST(Mdp, InitialStateChecked) {
  Mdp mdp = two_state_mdp();
  mdp.set_initial_state(1);
  EXPECT_EQ(mdp.initial_state(), 1u);
  EXPECT_THROW(mdp.set_initial_state(9), Error);
}

TEST(Mdp, InducedDtmcDeterministicPolicy) {
  const Mdp mdp = two_state_mdp();
  Policy policy;
  policy.choice_index = {0, 0};
  const Dtmc chain = mdp.induced_dtmc(policy);
  EXPECT_EQ(chain.num_states(), 2u);
  ASSERT_EQ(chain.transitions(0).size(), 1u);
  EXPECT_EQ(chain.transitions(0)[0].target, 1u);
  // State reward = state reward + chosen action reward.
  EXPECT_DOUBLE_EQ(chain.state_reward(0), 2.5);
  EXPECT_TRUE(chain.has_label(1, "goal"));
  EXPECT_EQ(chain.state_name(0), "start");
}

TEST(Mdp, InducedDtmcRejectsBadPolicy) {
  const Mdp mdp = two_state_mdp();
  Policy bad;
  bad.choice_index = {7, 0};
  EXPECT_THROW(mdp.induced_dtmc(bad), Error);
  Policy wrong_size;
  wrong_size.choice_index = {0};
  EXPECT_THROW(mdp.induced_dtmc(wrong_size), Error);
}

TEST(Mdp, InducedDtmcRandomizedPolicyMixes) {
  const Mdp mdp = two_state_mdp();
  RandomizedPolicy policy;
  policy.choice_probabilities = {{0.5, 0.5}, {1.0}};
  const Dtmc chain = mdp.induced_dtmc(policy);
  // Half the mass goes to state 1 (action a), half stays (action b).
  double p_goal = 0.0, p_stay = 0.0;
  for (const Transition& t : chain.transitions(0)) {
    if (t.target == 1) p_goal = t.probability;
    if (t.target == 0) p_stay = t.probability;
  }
  EXPECT_DOUBLE_EQ(p_goal, 0.5);
  EXPECT_DOUBLE_EQ(p_stay, 0.5);
  // Mixed reward: 0.5 + 0.5·2 + 0.5·1 = 2.0.
  EXPECT_DOUBLE_EQ(chain.state_reward(0), 2.0);
}

TEST(Mdp, UniformPolicy) {
  const Mdp mdp = two_state_mdp();
  const RandomizedPolicy uniform = mdp.uniform_policy();
  EXPECT_DOUBLE_EQ(uniform.choice_probabilities[0][0], 0.5);
  EXPECT_DOUBLE_EQ(uniform.choice_probabilities[1][0], 1.0);
}

TEST(Mdp, FirstChoicePolicy) {
  const Mdp mdp = two_state_mdp();
  const Policy p = mdp.first_choice_policy();
  EXPECT_EQ(p.choice_index, (std::vector<std::uint32_t>{0, 0}));
}

TEST(Dtmc, ConstructionAndValidation) {
  Dtmc chain(2);
  chain.set_transitions(0, {Transition{0, 0.25}, Transition{1, 0.75}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_state_reward(0, 3.0);
  chain.add_label(1, "done");
  EXPECT_NO_THROW(chain.validate());
  EXPECT_DOUBLE_EQ(chain.state_reward(0), 3.0);
  EXPECT_TRUE(chain.has_label(1, "done"));
  EXPECT_EQ(chain.transitions(0).size(), 2u);
}

TEST(Dtmc, ValidateRejectsMissingRow) {
  Dtmc chain(2);
  chain.set_transitions(0, {Transition{1, 1.0}});
  EXPECT_THROW(chain.validate(), ModelError);
}

TEST(Dtmc, AsMdpRoundTrip) {
  Dtmc chain(2);
  chain.set_transitions(0, {Transition{1, 1.0}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_state_reward(0, 1.5);
  chain.add_label(1, "done");
  chain.set_state_name(0, "a");
  const Mdp mdp = chain.as_mdp();
  EXPECT_EQ(mdp.num_states(), 2u);
  EXPECT_EQ(mdp.choices(0).size(), 1u);
  EXPECT_DOUBLE_EQ(mdp.state_reward(0), 1.5);
  EXPECT_TRUE(mdp.has_label(1, "done"));
  EXPECT_EQ(mdp.state_name(0), "a");
  EXPECT_NO_THROW(mdp.validate());
}

TEST(Dtmc, AddStateGrows) {
  Dtmc chain;
  const StateId a = chain.add_state("a");
  const StateId b = chain.add_state("b");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(chain.num_states(), 2u);
}

TEST(StateSetHelpers, Operations) {
  const StateSet a{true, false, true};
  const StateSet b{false, false, true};
  EXPECT_EQ(complement(a), (StateSet{false, true, false}));
  EXPECT_EQ(set_union(a, b), (StateSet{true, false, true}));
  EXPECT_EQ(set_intersection(a, b), (StateSet{false, false, true}));
  EXPECT_EQ(count(a), 2u);
  EXPECT_FALSE(empty(a));
  EXPECT_TRUE(empty(StateSet(3, false)));
}

TEST(StateSetHelpers, SizeMismatchThrows) {
  EXPECT_THROW(set_union(StateSet(2), StateSet(3)), Error);
  EXPECT_THROW(set_intersection(StateSet(2), StateSet(3)), Error);
}

}  // namespace
}  // namespace tml
