// Tests for the PRISM-subset parser, including exporter round trips.

#include "src/mdp/prism_parser.hpp"

#include <clocale>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/casestudies/car.hpp"
#include "src/casestudies/wsn.hpp"
#include "src/checker/check.hpp"
#include "src/mdp/export.hpp"

namespace tml {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) ADD_FAILURE() << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

constexpr const char* kHandWritten = R"(
// a comment
dtmc

module net
  s : [0..1] init 0;
  [] s=0 -> 0.25 : (s'=0) + 0.75 : (s'=1);
  [] s=1 -> 1 : (s'=1);
endmodule

label "done" = (s=1);

rewards "total"
  s=0 : 1.5;
endrewards
)";

TEST(PrismParser, ParsesHandWrittenDtmc) {
  const PrismModel model = parse_prism(kHandWritten);
  EXPECT_EQ(model.type, PrismModel::Type::kDtmc);
  const Dtmc chain = model.dtmc();
  EXPECT_EQ(chain.num_states(), 2u);
  EXPECT_EQ(chain.initial_state(), 0u);
  EXPECT_NEAR(chain.transitions(0)[1].probability, 0.75, 1e-12);
  EXPECT_TRUE(chain.has_label(1, "done"));
  EXPECT_DOUBLE_EQ(chain.state_reward(0), 1.5);
}

TEST(PrismParser, ParsesMdpWithActions) {
  const std::string source = R"(
mdp
module m
  s : [0..1] init 0;
  [go] s=0 -> 1 : (s'=1);
  [wait] s=0 -> 1 : (s'=0);
  [stay] s=1 -> 1 : (s'=1);
endmodule
rewards "total"
  [go] s=0 : 2;
endrewards
)";
  const PrismModel model = parse_prism(source);
  EXPECT_EQ(model.type, PrismModel::Type::kMdp);
  EXPECT_EQ(model.mdp.choices(0).size(), 2u);
  EXPECT_DOUBLE_EQ(model.mdp.choices(0)[0].reward, 2.0);
  EXPECT_THROW(model.dtmc(), Error);
}

TEST(PrismParser, RoundTripWsn) {
  const Mdp wsn = build_wsn_mdp(WsnConfig{});
  const PrismModel parsed = parse_prism(to_prism(wsn, "wsn"));
  ASSERT_EQ(parsed.mdp.num_states(), wsn.num_states());
  EXPECT_EQ(parsed.mdp.initial_state(), wsn.initial_state());
  EXPECT_EQ(parsed.mdp.num_choices(), wsn.num_choices());
  // Semantics preserved: the headline property evaluates identically.
  EXPECT_NEAR(*check(parsed.mdp, "Rmin=? [ F \"delivered\" ]").value,
              *check(wsn, "Rmin=? [ F \"delivered\" ]").value, 1e-9);
}

TEST(PrismParser, RoundTripCar) {
  const Mdp car = build_car_mdp();
  const PrismModel parsed = parse_prism(to_prism(car, "car"));
  ASSERT_EQ(parsed.mdp.num_states(), car.num_states());
  EXPECT_NEAR(
      *check(parsed.mdp, "Pmin=? [ F (\"goal\" | \"unsafe\") ]").value,
      *check(car, "Pmin=? [ F (\"goal\" | \"unsafe\") ]").value, 1e-9);
  // Labels carried over.
  EXPECT_EQ(count(parsed.mdp.states_with_label("unsafe")), 2u);
}

TEST(PrismParser, RoundTripDtmcWithRewards) {
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 0.4}, Transition{2, 0.6}});
  chain.set_transitions(1, {Transition{2, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  chain.set_state_reward(0, 1.0);
  chain.set_state_reward(1, 2.5);
  chain.add_label(2, "goal");
  const PrismModel parsed = parse_prism(to_prism(chain));
  const Dtmc back = parsed.dtmc();
  EXPECT_NEAR(*check(back, "R=? [ F \"goal\" ]").value,
              *check(chain, "R=? [ F \"goal\" ]").value, 1e-12);
}

TEST(PrismParser, UnnamedRewardsBlockParses) {
  // `rewards ... endrewards` without a quoted structure name is valid PRISM.
  const std::string source = R"(
dtmc
module m
  s : [0..1] init 0;
  [] s=0 -> 1 : (s'=1);
  [] s=1 -> 1 : (s'=1);
endmodule
rewards
  s=0 : 2.0;
endrewards
)";
  const PrismModel model = parse_prism(source);
  EXPECT_DOUBLE_EQ(model.mdp.state_reward(0), 2.0);
}

TEST(PrismParser, RewardsBeforeLabelsParses) {
  // PRISM imposes no ordering on trailing blocks; hand-edited files
  // routinely put rewards first.
  const std::string source = R"(
dtmc
module m
  s : [0..1] init 0;
  [] s=0 -> 1 : (s'=1);
  [] s=1 -> 1 : (s'=1);
endmodule

rewards "steps"
  s=0 : 1.0;
endrewards

label "done" = (s=1);

rewards
  s=1 : 0.5;
endrewards
)";
  const PrismModel model = parse_prism(source);
  EXPECT_TRUE(model.mdp.has_label(1, "done"));
  EXPECT_DOUBLE_EQ(model.mdp.state_reward(0), 1.0);
  EXPECT_DOUBLE_EQ(model.mdp.state_reward(1), 0.5);
}

TEST(PrismParser, CheckedInWsnFileRoundTrips) {
  const std::string source = read_file(std::string(TML_SOURCE_DIR) +
                                       "/wsn.prism");
  const PrismModel parsed = parse_prism(source);
  // Reparse its own export: same model, same headline value.
  const PrismModel reparsed = parse_prism(to_prism(parsed.mdp, "wsn"));
  ASSERT_EQ(reparsed.mdp.num_states(), parsed.mdp.num_states());
  EXPECT_NEAR(*check(reparsed.mdp, "Rmin=? [ F \"delivered\" ]").value,
              *check(parsed.mdp, "Rmin=? [ F \"delivered\" ]").value, 1e-9);
}

TEST(PrismParser, CheckedInCarFileRoundTrips) {
  const std::string source = read_file(std::string(TML_SOURCE_DIR) +
                                       "/car.prism");
  const PrismModel parsed = parse_prism(source);
  const PrismModel reparsed = parse_prism(to_prism(parsed.mdp, "car"));
  ASSERT_EQ(reparsed.mdp.num_states(), parsed.mdp.num_states());
  EXPECT_NEAR(
      *check(reparsed.mdp, "Pmin=? [ F (\"goal\" | \"unsafe\") ]").value,
      *check(parsed.mdp, "Pmin=? [ F (\"goal\" | \"unsafe\") ]").value, 1e-9);
}

TEST(PrismParser, FalseLabelParses) {
  const std::string source = R"(
dtmc
module m
  s : [0..0] init 0;
  [] s=0 -> 1 : (s'=0);
endmodule
label "never" = false;
)";
  const PrismModel model = parse_prism(source);
  EXPECT_TRUE(empty(model.mdp.states_with_label("never")));
}

TEST(PrismParser, Errors) {
  EXPECT_THROW(parse_prism(""), ParseError);
  EXPECT_THROW(parse_prism("ctmc\nmodule m endmodule"), ParseError);
  // Missing semicolon.
  EXPECT_THROW(parse_prism("dtmc module m s : [0..0] init 0 endmodule"),
               ParseError);
  // Non-stochastic row.
  EXPECT_THROW(parse_prism(R"(
dtmc
module m
  s : [0..0] init 0;
  [] s=0 -> 0.5 : (s'=0);
endmodule
)"),
               ModelError);
  // Out-of-range target.
  EXPECT_THROW(parse_prism(R"(
dtmc
module m
  s : [0..0] init 0;
  [] s=0 -> 1 : (s'=3);
endmodule
)"),
               ParseError);
  // A dtmc with two commands for one state.
  EXPECT_THROW(parse_prism(R"(
dtmc
module m
  s : [0..0] init 0;
  [] s=0 -> 1 : (s'=0);
  [] s=0 -> 1 : (s'=0);
endmodule
)"),
               ModelError);
  // Trailing junk.
  EXPECT_THROW(parse_prism(R"(
dtmc
module m
  s : [0..0] init 0;
  [] s=0 -> 1 : (s'=0);
endmodule
garbage
)"),
               ParseError);
}

// ---------------------------------------------------------------------------
// The ParseError contract: one case per diagnostic the parser can raise,
// each pinned to its full message and 1-based line/column.

constexpr const char* kModule =
    "dtmc\n"
    "module m\n"
    "  s : [0..1] init 0;\n"
    "  [] s=0 -> 1 : (s'=1);\n"
    "  [] s=1 -> 1 : (s'=1);\n"
    "endmodule\n";

/// kModule with its first command (line 4) replaced by `command`.
std::string with_command(const std::string& command) {
  return "dtmc\nmodule m\n  s : [0..1] init 0;\n" + command +
         "\n  [] s=1 -> 1 : (s'=1);\nendmodule\n";
}

struct ParseErrorCase {
  const char* name;
  std::string source;
  const char* message;  // full ParseError::what()
};

std::vector<ParseErrorCase> parse_error_cases() {
  const std::string m = kModule;
  return {
      {"model_type", "ctmc\nmodule m endmodule",
       "PRISM parse error at line 1, column 1: "
       "expected model type 'dtmc' or 'mdp'"},
      {"expect_module", "dtmc\nmod m",
       "PRISM parse error at line 2, column 1: expected 'module'"},
      {"expect_identifier", "dtmc\nmodule :m\n",
       "PRISM parse error at line 2, column 8: expected identifier"},
      {"expect_colon", "dtmc\nmodule m\n  s [0..1] init 0;\n",
       "PRISM parse error at line 3, column 5: expected ':'"},
      {"expect_dots", "dtmc\nmodule m\n  s : [0 1] init 0;\n",
       "PRISM parse error at line 3, column 10: expected '..'"},
      {"expect_init", "dtmc\nmodule m\n  s : [0..1] 0;\n",
       "PRISM parse error at line 3, column 14: expected 'init'"},
      {"expect_integer", "dtmc\nmodule m\n  s : [0..x] init 0;\n",
       "PRISM parse error at line 3, column 11: expected integer"},
      {"state_range", "dtmc\nmodule m\n  s : [1..3] init 1;\n",
       "PRISM parse error at line 3, column 21: state range must be [0..N]"},
      {"initial_state", "dtmc\nmodule m\n  s : [0..1] init 5;\n",
       "PRISM parse error at line 3, column 21: initial state out of range"},
      {"guard_variable", with_command("  [] t=0 -> 1 : (s'=1);"),
       "PRISM parse error at line 4, column 7: unknown variable 't'"},
      {"guard_state", with_command("  [] s=7 -> 1 : (s'=1);"),
       "PRISM parse error at line 4, column 9: guard state out of range"},
      {"expect_arrow", with_command("  [] s=0 1 : (s'=1);"),
       "PRISM parse error at line 4, column 10: expected '->'"},
      {"expect_number", with_command("  [] s=0 -> x : (s'=1);"),
       "PRISM parse error at line 4, column 13: expected number"},
      {"not_finite", with_command("  [] s=0 -> nan : (s'=1);"),
       "PRISM parse error at line 4, column 13: number is not finite"},
      {"probability_negative", with_command("  [] s=0 -> -0.5 : (s'=1);"),
       "PRISM parse error at line 4, column 17: probability is negative"},
      {"probability_above_one", with_command("  [] s=0 -> 1.5 : (s'=1);"),
       "PRISM parse error at line 4, column 16: probability exceeds 1"},
      {"update_variable", with_command("  [] s=0 -> 1 : (t'=1);"),
       "PRISM parse error at line 4, column 19: unknown variable in update"},
      {"expect_prime", with_command("  [] s=0 -> 1 : (s=1);"),
       "PRISM parse error at line 4, column 19: expected '''"},
      {"update_target", with_command("  [] s=0 -> 1 : (s'=9);"),
       "PRISM parse error at line 4, column 22: update target out of range"},
      {"expect_semicolon", with_command("  [] s=0 -> 1 : (s'=1)"),
       "PRISM parse error at line 5, column 3: expected ';'"},
      {"expect_quote", m + "label done = (s=1);\n",
       "PRISM parse error at line 7, column 7: expected '\"'"},
      {"unterminated_string", m + "label \"done = (s=1);\n",
       "PRISM parse error at line 8, column 1: unterminated string"},
      {"expect_paren", m + "label \"done\" = s=1;\n",
       "PRISM parse error at line 7, column 16: expected '('"},
      {"label_variable", m + "label \"done\" = (t=1);\n",
       "PRISM parse error at line 7, column 18: unknown variable in label"},
      {"label_state", m + "label \"done\" = (s=4);\n",
       "PRISM parse error at line 7, column 20: label state out of range"},
      {"reward_negative", m + "rewards\n  s=0 : -3.0;\nendrewards\n",
       "PRISM parse error at line 8, column 13: reward is negative"},
      {"reward_variable", m + "rewards\n  t=0 : 1;\nendrewards\n",
       "PRISM parse error at line 8, column 4: unknown variable in reward"},
      {"reward_state", m + "rewards\n  s=5 : 1;\nendrewards\n",
       "PRISM parse error at line 8, column 6: reward state out of range"},
      {"reward_action_identifier", m + "rewards\n  [] s=0 : 1;\nendrewards\n",
       "PRISM parse error at line 8, column 4: expected identifier"},
      {"reward_unknown_action", m + "rewards\n  [go] s=0 : 1;\nendrewards\n",
       "PRISM parse error at line 8, column 16: "
       "action reward for unknown command"},
      {"trailing_input", m + "garbage\n",
       "PRISM parse error at line 7, column 1: unexpected trailing input"},
      // Integers keep strtol's reading: a '+' sign needs a digit after it,
      // and an overflowing literal saturates (so it lands out of range)
      // instead of failing as a malformed integer.
      {"plus_without_digit", with_command("  [] s=+x -> 1 : (s'=1);"),
       "PRISM parse error at line 4, column 8: expected integer"},
      {"plus_minus", with_command("  [] s=+-1 -> 1 : (s'=1);"),
       "PRISM parse error at line 4, column 8: expected integer"},
      {"overflow_saturates",
       with_command("  [] s=99999999999999999999 -> 1 : (s'=1);"),
       "PRISM parse error at line 4, column 28: guard state out of range"},
      {"negative_overflow_saturates",
       with_command("  [] s=-99999999999999999999 -> 1 : (s'=1);"),
       "PRISM parse error at line 4, column 29: guard state out of range"},
  };
}

TEST(PrismParser, ParseErrorMessagesAndPositions) {
  for (const ParseErrorCase& c : parse_error_cases()) {
    try {
      (void)parse_prism(c.source);
      ADD_FAILURE() << c.name << ": accepted";
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), c.message) << c.name;
    }
  }
}

TEST(PrismParser, NonStochasticRowIsModelErrorWithFullMessage) {
  try {
    (void)parse_prism(with_command("  [] s=0 -> 0.5 : (s'=1);"));
    FAIL() << "non-stochastic row accepted";
  } catch (const ModelError& e) {
    EXPECT_STREQ(e.what(),
                 "Mdp state 0 choice 0: distribution sums to 0.500000");
  }
}

TEST(PrismParser, ExplicitPlusSignIsAccepted) {
  const PrismModel model =
      parse_prism(with_command("  [] s=+0 -> 1 : (s'=+1);"));
  ASSERT_EQ(model.mdp.choices(0).size(), 1u);
  EXPECT_EQ(model.mdp.choices(0)[0].transitions[0].target, 1u);
}

/// A model exercising every token class, one token per entry.
const std::vector<std::string>& model_tokens() {
  static const std::vector<std::string> tokens = {
      "mdp", "module", "m", "s", ":", "[", "0", "..", "2", "]", "init", "0",
      ";",
      "[", "go", "]", "s", "=", "0", "->", "0.25", ":", "(", "s", "'", "=",
      "1", ")", "+", "0.75", ":", "(", "s", "'", "=", "2", ")", ";",
      "[", "]", "s", "=", "0", "->", "1", ":", "(", "s", "'", "=", "0", ")",
      ";",
      "[", "]", "s", "=", "1", "->", "1", ":", "(", "s", "'", "=", "2", ")",
      ";",
      "[", "stay", "]", "s", "=", "2", "->", "1", ":", "(", "s", "'", "=",
      "2", ")", ";",
      "endmodule",
      "label", "\"done\"", "=", "(", "s", "=", "2", ")", "|", "(", "s", "=",
      "1", ")", ";",
      "label", "\"never\"", "=", "false", ";",
      "rewards", "\"cost\"", "[", "go", "]", "s", "=", "0", ":", "2.5", ";",
      "s", "=", "1", ":", "1", ";", "endrewards"};
  return tokens;
}

std::string join_tokens(const std::string& separator) {
  std::string out;
  for (const std::string& token : model_tokens()) out += token + separator;
  return out;
}

TEST(PrismParser, LineEndingsTabsAndCommentsDoNotChangeTheModel) {
  const std::string reference = to_prism(parse_prism(join_tokens(" ")).mdp);
  for (const std::string separator :
       {"\r\n", "\t", " \t\r\n\v\f", "// note\n", "\t// note\r\n\t",
        " // a\n// b\n"}) {
    EXPECT_EQ(to_prism(parse_prism(join_tokens(separator)).mdp), reference)
        << "separator " << testing::PrintToString(separator);
  }
}

// ---------------------------------------------------------------------------
// Locale independence.

/// Switches LC_NUMERIC to a comma-decimal locale for one test and restores
/// the C locale on every exit path. Bare CI containers ship localedef but
/// no compiled locales, so as a fallback one is generated into a scratch
/// directory and found via LOCPATH.
class CommaLocale {
 public:
  CommaLocale() {
    for (const char* name :
         {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"}) {
      if (std::setlocale(LC_NUMERIC, name) != nullptr) {
        active_ = true;
        return;
      }
    }
    const std::string dir = testing::TempDir() + "tml_locales";
    const std::string command = "mkdir -p '" + dir +
                                "' && localedef -i de_DE -f UTF-8 '" + dir +
                                "/de_DE.UTF-8' >/dev/null 2>&1";
    (void)std::system(command.c_str());
    ::setenv("LOCPATH", dir.c_str(), 1);
    set_locpath_ = true;
    active_ = std::setlocale(LC_NUMERIC, "de_DE.UTF-8") != nullptr;
  }
  ~CommaLocale() {
    std::setlocale(LC_NUMERIC, "C");
    if (set_locpath_) ::unsetenv("LOCPATH");
  }
  bool active() const { return active_; }

 private:
  bool active_ = false;
  bool set_locpath_ = false;
};

TEST(PrismParser, CommaDecimalLocaleDoesNotChangeParsing) {
  // Regression: number lexing went through strtod, which honours
  // LC_NUMERIC — under a comma-decimal locale "0.75" silently truncated to
  // 0 at the '.', skewing every probability without any error. Parsing now
  // goes through std::from_chars and must be byte-identical across locales.
  const std::string source =
      read_file(std::string(TML_SOURCE_DIR) + "/wsn.prism");
  const PrismModel reference = parse_prism(source);
  const double expected =
      *check(reference.mdp, "Rmin=? [ F \"delivered\" ]").value;

  const CommaLocale locale;
  if (!locale.active()) {
    GTEST_SKIP() << "no comma-decimal locale available on this system";
  }
  // The premise of the regression: the C library itself is now
  // comma-decimal, so strtod really would mis-parse a dot literal.
  ASSERT_STREQ(std::localeconv()->decimal_point, ",");
  EXPECT_DOUBLE_EQ(std::strtod("0,5", nullptr), 0.5);
  EXPECT_DOUBLE_EQ(std::strtod("0.5", nullptr), 0.0);

  // Model parse, formula parse (thresholds have decimal literals too), and
  // the exporter round trip all agree with the C-locale reference.
  const PrismModel parsed = parse_prism(source);
  ASSERT_EQ(parsed.mdp.num_states(), reference.mdp.num_states());
  EXPECT_NEAR(*check(parsed.mdp, "Rmin=? [ F \"delivered\" ]").value,
              expected, 1e-9);
  const PrismModel round_tripped = parse_prism(to_prism(parsed.mdp, "wsn"));
  ASSERT_EQ(round_tripped.mdp.num_states(), reference.mdp.num_states());
  EXPECT_NEAR(*check(round_tripped.mdp, "Rmin=? [ F \"delivered\" ]").value,
              expected, 1e-9);
  EXPECT_TRUE(check(parsed.mdp, "P>=0.25 [ F \"delivered\" ]").satisfied);
}

}  // namespace
}  // namespace tml
