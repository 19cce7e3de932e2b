#include "src/mdp/export.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>
#include <string_view>
#include <vector>

namespace tml {

namespace {

/// A probability/reward as `%.12g` prints it: no trailing-zero noise.
std::string_view format_num(double v, char (&buffer)[32]) {
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, v,
                                       std::chars_format::general, 12);
  return {buffer, static_cast<std::size_t>(end - buffer)};
}

std::string num(double v) {
  char buffer[32];
  return std::string(format_num(v, buffer));
}

/// PRISM identifiers cannot contain arbitrary characters; sanitize names.
std::string ident(const std::string& name, const std::string& fallback) {
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      out.push_back(c);
    }
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    return fallback;
  }
  return out;
}

/// Where a PRISM writer sends its text. A pass with no string only counts
/// bytes, so `render` can allocate the text once at its exact size: the
/// text of a large model runs to tens of MB, and a growing stream plus the
/// copy taken out of it held up to three times that at once.
class Out {
 public:
  explicit Out(std::string* text) : text_(text) {}

  Out& operator<<(std::string_view s) {
    if (text_ != nullptr) text_->append(s);
    size_ += s.size();
    return *this;
  }
  Out& operator<<(std::size_t v) {
    char buffer[24];
    const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, v);
    return *this << std::string_view(buffer,
                                     static_cast<std::size_t>(end - buffer));
  }
  Out& operator<<(char) = delete;  // would print as an integer
  /// Doubles go through here, integers through operator<<.
  Out& number(double v) {
    char buffer[32];
    return *this << format_num(v, buffer);
  }
  std::size_t size() const { return size_; }

 private:
  std::string* text_;
  std::size_t size_ = 0;
};

template <class Write>
std::string render(const Write& write) {
  Out count(nullptr);
  write(count);
  std::string text;
  text.reserve(count.size());
  Out out(&text);
  write(out);
  return text;
}

template <class Model>
void emit_labels(Out& os, const Model& model,
                 const std::vector<std::string>& labels) {
  for (const std::string& label : labels) {
    const StateSet set = model.states_with_label(label);
    os << "label \"" << label << "\" = ";
    bool first = true;
    for (std::size_t s = 0; s < model.num_states(); ++s) {
      if (!set[s]) continue;
      if (!first) os << " | ";
      os << "(s=" << s << ")";
      first = false;
    }
    if (first) os << "false";
    os << ";\n";
  }
}

/// The banner, the model type, the module line and the state variable.
template <class Model>
void emit_header(Out& os, const char* type, const Model& model,
                 const std::string& module_name) {
  os << "// generated by tml::to_prism\n" << type << "\n\n"
     << "module " << ident(module_name, "tml") << "\n"
     << "  s : [0.." << model.num_states() - 1 << "] init "
     << std::size_t{model.initial_state()} << ";\n";
}

void emit_row(Out& os, const std::vector<Transition>& transitions) {
  bool first = true;
  for (const Transition& t : transitions) {
    if (!first) os << " + ";
    os.number(t.probability) << " : (s'=" << std::size_t{t.target} << ")";
    first = false;
  }
  os << ";\n";
}

std::string state_caption(const std::string& name, StateId s) {
  return name.empty() ? "s" + std::to_string(s) : name;
}

}  // namespace

std::string to_prism(const Mdp& mdp, const std::string& module_name) {
  mdp.validate();
  std::vector<std::string> actions;
  for (ActionId a = 0; a < mdp.num_actions(); ++a) {
    actions.push_back(ident(mdp.action_name(a), "act"));
  }
  return render([&](Out& os) {
    emit_header(os, "mdp", mdp, module_name);
    for (std::size_t s = 0; s < mdp.num_states(); ++s) {
      for (const Choice& choice : mdp.choices(static_cast<StateId>(s))) {
        os << "  [" << actions[choice.action] << "] s=" << s << " -> ";
        emit_row(os, choice.transitions);
      }
    }
    os << "endmodule\n\n";
    emit_labels(os, mdp, mdp.all_labels());

    os << "\nrewards \"total\"\n";
    for (std::size_t s = 0; s < mdp.num_states(); ++s) {
      const double reward = mdp.state_reward(static_cast<StateId>(s));
      if (reward != 0.0) {
        os << "  s=" << s << " : ";
        os.number(reward) << ";\n";
      }
      for (const Choice& choice : mdp.choices(static_cast<StateId>(s))) {
        if (choice.reward != 0.0) {
          os << "  [" << actions[choice.action] << "] s=" << s << " : ";
          os.number(choice.reward) << ";\n";
        }
      }
    }
    os << "endrewards\n";
  });
}

std::string to_prism(const Dtmc& chain, const std::string& module_name) {
  chain.validate();
  // Labels are listed in first-use order, scanning states in order (the
  // order as_mdp() would declare them in).
  std::vector<std::string> labels;
  for (StateId s = 0; s < chain.num_states(); ++s) {
    for (std::string& label : chain.labels_of(s)) {
      if (std::find(labels.begin(), labels.end(), label) == labels.end()) {
        labels.push_back(std::move(label));
      }
    }
  }
  return render([&](Out& os) {
    emit_header(os, "dtmc", chain, module_name);
    for (std::size_t s = 0; s < chain.num_states(); ++s) {
      os << "  [] s=" << s << " -> ";
      emit_row(os, chain.transitions(static_cast<StateId>(s)));
    }
    os << "endmodule\n\n";
    emit_labels(os, chain, labels);

    os << "\nrewards \"total\"\n";
    for (std::size_t s = 0; s < chain.num_states(); ++s) {
      const double reward = chain.state_reward(static_cast<StateId>(s));
      if (reward != 0.0) {
        os << "  s=" << s << " : ";
        os.number(reward) << ";\n";
      }
    }
    os << "endrewards\n";
  });
}

std::string to_dot(const Mdp& mdp, const std::string& graph_name) {
  mdp.validate();
  std::ostringstream os;
  os << "digraph " << ident(graph_name, "tml") << " {\n";
  os << "  rankdir=LR;\n  node [shape=circle];\n";
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    os << "  n" << s << " [label=\"" << state_caption(mdp.state_name(s), s);
    const auto labels = mdp.labels_of(s);
    for (const std::string& l : labels) os << "\\n" << l;
    if (mdp.state_reward(s) != 0.0) os << "\\nr=" << num(mdp.state_reward(s));
    os << "\"";
    if (s == mdp.initial_state()) os << ", penwidth=2";
    os << "];\n";
  }
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    for (const Choice& choice : mdp.choices(s)) {
      for (const Transition& t : choice.transitions) {
        os << "  n" << s << " -> n" << t.target << " [label=\""
           << mdp.action_name(choice.action) << ":" << num(t.probability)
           << "\"];\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const Dtmc& chain, const std::string& graph_name) {
  return to_dot(chain.as_mdp(), graph_name);
}

}  // namespace tml
