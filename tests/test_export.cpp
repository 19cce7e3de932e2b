// Tests for the PRISM-language and DOT model writers.

#include "src/mdp/export.hpp"

#include <gtest/gtest.h>

#include "src/casestudies/car.hpp"
#include "src/casestudies/wsn.hpp"

namespace tml {
namespace {

Dtmc small_chain() {
  Dtmc chain(2);
  chain.set_state_name(0, "sending");
  chain.set_state_name(1, "done");
  chain.set_transitions(0, {Transition{0, 0.25}, Transition{1, 0.75}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_state_reward(0, 1.5);
  chain.add_label(1, "delivered");
  return chain;
}

TEST(ExportPrism, DtmcContainsModelTypeAndCommands) {
  const std::string out = to_prism(small_chain(), "net");
  EXPECT_NE(out.find("dtmc"), std::string::npos);
  EXPECT_NE(out.find("module net"), std::string::npos);
  EXPECT_NE(out.find("s : [0..1] init 0;"), std::string::npos);
  EXPECT_NE(out.find("0.25 : (s'=0) + 0.75 : (s'=1)"), std::string::npos);
  EXPECT_NE(out.find("label \"delivered\" = (s=1);"), std::string::npos);
  EXPECT_NE(out.find("s=0 : 1.5;"), std::string::npos);
  EXPECT_NE(out.find("endmodule"), std::string::npos);
  EXPECT_NE(out.find("endrewards"), std::string::npos);
}

TEST(ExportPrism, MdpContainsActionsAndActionRewards) {
  Mdp mdp(2);
  mdp.add_choice(0, "go", {Transition{1, 1.0}}, 2.0);
  mdp.add_choice(0, "wait", {Transition{0, 1.0}});
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.add_label(1, "goal");
  const std::string out = to_prism(mdp);
  EXPECT_NE(out.find("mdp"), std::string::npos);
  EXPECT_NE(out.find("[go] s=0 -> 1 : (s'=1);"), std::string::npos);
  EXPECT_NE(out.find("[wait] s=0 -> 1 : (s'=0);"), std::string::npos);
  EXPECT_NE(out.find("[go] s=0 : 2;"), std::string::npos);
}

TEST(ExportPrism, LabelOverManyStatesIsDisjunction) {
  const WsnConfig config;
  const Mdp mdp = build_wsn_mdp(config);
  const std::string out = to_prism(mdp, "wsn");
  EXPECT_NE(out.find("label \"station\" = "), std::string::npos);
  // Station row has three nodes → a disjunction with two '|'.
  const std::size_t pos = out.find("label \"station\"");
  const std::string line = out.substr(pos, out.find('\n', pos) - pos);
  EXPECT_EQ(std::count(line.begin(), line.end(), '|'), 2);
}

TEST(ExportPrism, DtmcLabelsFollowFirstUseNotDeclaration) {
  // "late" is declared first but first used by state 2; labels list in
  // first-use order, scanning states, exactly as the chain's MDP view does.
  Dtmc chain(3);
  for (StateId s = 0; s < 3; ++s) {
    chain.set_transitions(s, {Transition{s, 1.0}});
  }
  chain.add_label(2, "late");
  chain.add_label(0, "early");
  chain.add_label(2, "early");
  const std::string out = to_prism(chain, "m");
  const std::size_t early = out.find("label \"early\" = (s=0) | (s=2);");
  const std::size_t late = out.find("label \"late\" = (s=2);");
  ASSERT_NE(early, std::string::npos);
  ASSERT_NE(late, std::string::npos);
  EXPECT_LT(early, late);
  const auto label_block = [](const std::string& text) {
    const std::size_t begin = text.find("endmodule");
    return text.substr(begin, text.find("rewards") - begin);
  };
  EXPECT_EQ(label_block(out), label_block(to_prism(chain.as_mdp(), "m")));
}

TEST(ExportPrism, SanitizesModuleName) {
  const std::string out = to_prism(small_chain(), "bad name!");
  EXPECT_NE(out.find("module badname"), std::string::npos);
  const std::string fallback = to_prism(small_chain(), "123");
  EXPECT_NE(fallback.find("module tml"), std::string::npos);
}

TEST(ExportDot, ContainsNodesAndEdges) {
  const std::string out = to_dot(small_chain(), "net");
  EXPECT_NE(out.find("digraph net {"), std::string::npos);
  EXPECT_NE(out.find("n0 [label=\"sending"), std::string::npos);
  EXPECT_NE(out.find("delivered"), std::string::npos);
  EXPECT_NE(out.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(out.find("r=1.5"), std::string::npos);
  // Initial state highlighted.
  EXPECT_NE(out.find("penwidth=2"), std::string::npos);
}

TEST(ExportDot, CarFigureHasElevenStates) {
  const Mdp car = build_car_mdp();
  const std::string out = to_dot(car, "fig1");
  for (StateId s = 0; s <= 10; ++s) {
    EXPECT_NE(out.find("n" + std::to_string(s) + " [label=\"S" +
                       std::to_string(s)),
              std::string::npos)
        << s;
  }
  EXPECT_NE(out.find("forward:"), std::string::npos);
  EXPECT_NE(out.find("left:"), std::string::npos);
}

TEST(ExportPrism, InvalidModelRejected) {
  Dtmc broken(1);
  EXPECT_THROW(to_prism(broken), ModelError);
  EXPECT_THROW(to_dot(broken), ModelError);
}

}  // namespace
}  // namespace tml
