#include "src/mdp/prism_parser.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "src/common/numeric.hpp"

namespace tml {

namespace {

// The C locale's isspace set, spelled out: <cctype> consults the global
// locale on every call.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
         c == '\f';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

bool is_word(char c) {
  return is_digit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         c == '_';
}

/// Scanner over a view of the source. Identifiers and strings come back as
/// views into it, so tokens cost no allocation; the view must outlive every
/// token taken from it.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (is_space(c)) {
        ++pos_;
      } else if (c == '/' && text_.substr(pos_, 2) == "//") {
        pos_ = std::min(text_.find('\n', pos_), text_.size());
      } else {
        break;
      }
    }
  }

  bool eof() {
    skip_ws();
    return pos_ >= text_.size();
  }

  bool consume(char token) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == token) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume(std::string_view token) {
    skip_ws();
    if (text_.substr(pos_).starts_with(token)) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  /// Consumes a keyword respecting identifier boundaries.
  bool consume_word(std::string_view word) {
    skip_ws();
    if (!text_.substr(pos_).starts_with(word)) return false;
    const std::size_t end = pos_ + word.size();
    if (end < text_.size() && is_word(text_[end])) return false;
    pos_ = end;
    return true;
  }

  void expect(char token) {
    if (!consume(token)) fail(std::string("expected '") + token + "'");
  }

  void expect(std::string_view token) {
    if (!consume(token)) fail("expected '" + std::string(token) + "'");
  }

  std::string_view identifier() {
    skip_ws();
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && is_word(text_[pos_])) ++pos_;
    if (pos_ == begin) fail("expected identifier");
    return text_.substr(begin, pos_ - begin);
  }

  std::string_view quoted() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected '\"'");
    const std::size_t begin = pos_ + 1;
    const std::size_t end = text_.find('"', begin);
    if (end == std::string_view::npos) {
      pos_ = text_.size();
      fail("unterminated string");
    }
    pos_ = end + 1;
    return text_.substr(begin, end - begin);
  }

  /// A decimal integer as strtol reads one: an optional sign, and a
  /// literal beyond the range of long saturates rather than failing.
  long integer() {
    skip_ws();
    std::size_t at = pos_;
    // from_chars takes no '+'; strtol allows one, but only before a digit.
    if (at < text_.size() && text_[at] == '+') {
      ++at;
      if (at >= text_.size() || !is_digit(text_[at])) fail("expected integer");
    }
    const char* first = text_.data() + at;
    long value = 0;
    const auto [end, ec] =
        std::from_chars(first, text_.data() + text_.size(), value);
    if (end == first) fail("expected integer");
    if (ec == std::errc::result_out_of_range) {
      value = *first == '-' ? std::numeric_limits<long>::min()
                            : std::numeric_limits<long>::max();
    }
    pos_ = static_cast<std::size_t>(end - text_.data());
    return value;
  }

  double number() {
    skip_ws();
    // Locale-independent parse (src/common/numeric.hpp): a PRISM file's
    // "0.5" must not read as 0 under a comma-decimal LC_NUMERIC locale,
    // which is what the strtod this replaces silently did. Reject the
    // textual forms a stochastic model never contains ("nan", "inf", and
    // overflowing literals) before they can poison the numeric engines
    // downstream.
    double value = 0.0;
    const std::size_t consumed = parse_double(text_.substr(pos_), &value);
    if (consumed == 0) fail("expected number");
    if (!std::isfinite(value)) fail("number is not finite");
    pos_ += consumed;
    return value;
  }

  /// A transition probability: a finite number in [0, 1].
  double probability() {
    const double value = number();
    if (value < 0.0) fail("probability is negative");
    if (value > 1.0) fail("probability exceeds 1");
    return value;
  }

  /// A reward (rate): finite and non-negative.
  double reward() {
    const double value = number();
    if (value < 0.0) fail("reward is negative");
    return value;
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  [[noreturn]] void fail(const std::string& message) const {
    // Report 1-based line and column of the current position: tooling and
    // humans both index PRISM files by line, not byte offset.
    const std::string_view before = text_.substr(0, pos_);
    const std::size_t line = 1 + static_cast<std::size_t>(std::count(
                                     before.begin(), before.end(), '\n'));
    const std::size_t line_start = before.rfind('\n');
    const std::size_t column =
        1 + pos_ - (line_start == std::string_view::npos ? 0 : line_start + 1);
    throw ParseError("PRISM parse error at line " + std::to_string(line) +
                     ", column " + std::to_string(column) + ": " + message);
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Dtmc PrismModel::dtmc() const {
  TML_REQUIRE(type == Type::kDtmc, "PrismModel::dtmc: model is an MDP");
  Dtmc chain(mdp.num_states());
  chain.set_initial_state(mdp.initial_state());
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    const auto& choices = mdp.choices(s);
    TML_ASSERT(choices.size() == 1, "PrismModel::dtmc: multiple choices");
    chain.set_transitions(s, choices[0].transitions);
    chain.set_state_reward(s, mdp.state_reward(s) + choices[0].reward);
    chain.set_state_name(s, mdp.state_name(s));
    for (const std::string& label : mdp.labels_of(s)) {
      chain.add_label(s, label);
    }
  }
  return chain;
}

PrismModel parse_prism(const std::string& source) {
  Lexer lex(source);

  PrismModel model;
  if (lex.consume_word("dtmc")) {
    model.type = PrismModel::Type::kDtmc;
  } else if (lex.consume_word("mdp")) {
    model.type = PrismModel::Type::kMdp;
  } else {
    lex.fail("expected model type 'dtmc' or 'mdp'");
  }

  lex.expect("module");
  (void)lex.identifier();  // module name

  // State variable: ident : [lo..hi] init k;
  const std::string_view var = lex.identifier();
  lex.expect(':');
  lex.expect('[');
  const long lo = lex.integer();
  lex.expect("..");
  const long hi = lex.integer();
  lex.expect(']');
  lex.expect("init");
  const long init = lex.integer();
  lex.expect(';');
  if (lo != 0 || hi < lo) lex.fail("state range must be [0..N]");
  if (init < lo || init > hi) lex.fail("initial state out of range");

  model.mdp.resize(static_cast<std::size_t>(hi) + 1);
  model.mdp.set_initial_state(static_cast<StateId>(init));

  // Each distinct action name is declared once; the keys view `source`.
  std::unordered_map<std::string_view, ActionId> actions;
  const auto action_id = [&](std::string_view name) {
    const auto [it, inserted] = actions.try_emplace(name, ActionId{0});
    if (inserted) it->second = model.mdp.declare_action(std::string(name));
    return it->second;
  };

  // Commands until 'endmodule'. Consecutive commands of one state are
  // collected in `pending` and handed over together, so each state's
  // choice list is allocated once at its exact size, as is each choice's
  // distribution (`row` is reused across commands).
  std::vector<Choice> pending;
  StateId pending_state = 0;
  const auto flush = [&] {
    if (pending.empty()) return;
    std::vector<Choice>& choices = model.mdp.mutable_choices(pending_state);
    choices.reserve(choices.size() + pending.size());
    std::move(pending.begin(), pending.end(), std::back_inserter(choices));
    pending.clear();
  };
  std::vector<Transition> row;
  while (!lex.consume_word("endmodule")) {
    lex.expect('[');
    const ActionId action =
        action_id(lex.peek() != ']' ? lex.identifier() : "tau");
    lex.expect(']');
    const std::string_view guard_var = lex.identifier();
    if (guard_var != var) {
      lex.fail("unknown variable '" + std::string(guard_var) + "'");
    }
    lex.expect('=');
    const long from = lex.integer();
    if (from < lo || from > hi) lex.fail("guard state out of range");
    lex.expect("->");
    row.clear();
    do {
      const double p = lex.probability();
      lex.expect(':');
      lex.expect('(');
      if (lex.identifier() != var) lex.fail("unknown variable in update");
      lex.expect('\'');
      lex.expect('=');
      const long to = lex.integer();
      if (to < lo || to > hi) lex.fail("update target out of range");
      lex.expect(')');
      row.push_back(Transition{static_cast<StateId>(to), p});
    } while (lex.consume('+'));
    lex.expect(';');
    if (static_cast<StateId>(from) != pending_state) {
      flush();
      pending_state = static_cast<StateId>(from);
    }
    pending.push_back(
        Choice{action, 0.0, std::vector<Transition>(row.begin(), row.end())});
  }
  flush();

  // Trailing blocks: `label` definitions and `rewards ... endrewards`
  // structures, in any order and any number (PRISM imposes no ordering;
  // hand-edited files routinely put rewards first). Multiple rewards
  // blocks accumulate, matching PRISM's additive reward semantics within
  // a structure.
  while (true) {
    if (lex.consume_word("label")) {
      const std::string_view name = lex.quoted();
      lex.expect('=');
      if (!lex.consume_word("false")) {
        // Declared at its first state, so `label "x" = false;` declares
        // nothing.
        std::optional<std::uint32_t> label;
        do {
          lex.expect('(');
          if (lex.identifier() != var) lex.fail("unknown variable in label");
          lex.expect('=');
          const long s = lex.integer();
          if (s < lo || s > hi) lex.fail("label state out of range");
          lex.expect(')');
          if (!label) label = model.mdp.declare_label(std::string(name));
          model.mdp.add_label(static_cast<StateId>(s), *label);
        } while (lex.consume('|'));
      }
      lex.expect(';');
      continue;
    }
    if (!lex.consume_word("rewards")) break;
    // The structure name is optional — `rewards ... endrewards` without a
    // quoted name is valid PRISM.
    if (lex.peek() == '"') (void)lex.quoted();
    while (!lex.consume_word("endrewards")) {
      std::string_view action;
      if (lex.consume('[')) {
        action = lex.identifier();
        lex.expect(']');
      }
      if (lex.identifier() != var) lex.fail("unknown variable in reward");
      lex.expect('=');
      const long s = lex.integer();
      if (s < lo || s > hi) lex.fail("reward state out of range");
      lex.expect(':');
      const double r = lex.reward();
      lex.expect(';');
      const StateId state = static_cast<StateId>(s);
      if (action.empty()) {
        model.mdp.set_state_reward(state,
                                   model.mdp.state_reward(state) + r);
        continue;
      }
      bool matched = false;
      if (const auto it = actions.find(action); it != actions.end()) {
        for (Choice& choice : model.mdp.mutable_choices(state)) {
          if (choice.action == it->second) {
            choice.reward += r;
            matched = true;
          }
        }
      }
      if (!matched) lex.fail("action reward for unknown command");
    }
  }

  if (!lex.eof()) lex.fail("unexpected trailing input");

  model.mdp.validate();
  if (model.type == PrismModel::Type::kDtmc) {
    for (StateId s = 0; s < model.mdp.num_states(); ++s) {
      if (model.mdp.choices(s).size() != 1) {
        throw ModelError(
            "parse_prism: dtmc state " + std::to_string(s) +
            " has multiple commands");
      }
    }
  }
  return model;
}

}  // namespace tml
