#include "src/mdp/model.hpp"

#include <algorithm>
#include <cmath>

namespace tml {

namespace {

/// `where()` names the row in a message; it is only called when a check
/// fails, so validating a valid model builds no strings.
template <class Where>
void check_distribution(const std::vector<Transition>& transitions,
                        std::size_t num_states, double tol,
                        const Where& where) {
  if (transitions.empty()) {
    throw ModelError(where() + ": empty distribution");
  }
  double sum = 0.0;
  for (const Transition& t : transitions) {
    if (t.target >= num_states) {
      throw ModelError(where() + ": target state " +
                       std::to_string(t.target) + " out of range");
    }
    if (t.probability < -tol || t.probability > 1.0 + tol) {
      throw ModelError(where() + ": probability " +
                       std::to_string(t.probability) + " out of [0,1]");
    }
    sum += t.probability;
  }
  if (std::abs(sum - 1.0) > tol) {
    throw ModelError(where() + ": distribution sums to " +
                     std::to_string(sum));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Mdp

StateId Mdp::add_state(const std::string& name) {
  const StateId id = static_cast<StateId>(states_.size());
  states_.push_back(StateData{name, {}, {}});
  state_rewards_.push_back(0.0);
  return id;
}

void Mdp::resize(std::size_t num_states) {
  TML_REQUIRE(num_states >= states_.size(), "Mdp::resize: cannot shrink");
  states_.resize(num_states);
  state_rewards_.resize(num_states, 0.0);
}

void Mdp::set_initial_state(StateId s) {
  TML_REQUIRE(s < states_.size(), "Mdp: initial state out of range");
  initial_state_ = s;
}

ActionId Mdp::declare_action(const std::string& name) {
  TML_REQUIRE(!name.empty(), "Mdp: empty action name");
  auto it = action_ids_.find(name);
  if (it != action_ids_.end()) return it->second;
  const ActionId id = static_cast<ActionId>(action_names_.size());
  action_names_.push_back(name);
  action_ids_.emplace(name, id);
  return id;
}

const std::string& Mdp::action_name(ActionId a) const {
  TML_REQUIRE(a < action_names_.size(), "Mdp: unknown action id " << a);
  return action_names_[a];
}

std::uint32_t Mdp::add_choice(StateId state, ActionId action,
                              std::vector<Transition> transitions,
                              double action_reward) {
  TML_REQUIRE(state < states_.size(), "Mdp::add_choice: state out of range");
  TML_REQUIRE(action < action_names_.size(),
              "Mdp::add_choice: undeclared action id " << action);
  states_[state].choices.push_back(
      Choice{action, action_reward, std::move(transitions)});
  return static_cast<std::uint32_t>(states_[state].choices.size() - 1);
}

std::uint32_t Mdp::add_choice(StateId state, const std::string& action,
                              std::vector<Transition> transitions,
                              double action_reward) {
  return add_choice(state, declare_action(action), std::move(transitions),
                    action_reward);
}

const std::vector<Choice>& Mdp::choices(StateId state) const {
  TML_REQUIRE(state < states_.size(), "Mdp::choices: state out of range");
  return states_[state].choices;
}

std::vector<Choice>& Mdp::mutable_choices(StateId state) {
  TML_REQUIRE(state < states_.size(), "Mdp::choices: state out of range");
  return states_[state].choices;
}

std::size_t Mdp::num_choices() const {
  std::size_t n = 0;
  for (const auto& s : states_) n += s.choices.size();
  return n;
}

void Mdp::set_state_reward(StateId state, double reward) {
  TML_REQUIRE(state < states_.size(), "Mdp: state out of range");
  state_rewards_[state] = reward;
}

double Mdp::state_reward(StateId state) const {
  TML_REQUIRE(state < states_.size(), "Mdp: state out of range");
  return state_rewards_[state];
}

std::uint32_t Mdp::declare_label(const std::string& label) {
  TML_REQUIRE(!label.empty(), "Mdp: empty label");
  auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(label_names_.size());
  label_names_.push_back(label);
  label_ids_.emplace(label, id);
  return id;
}

void Mdp::add_label(StateId state, const std::string& label) {
  TML_REQUIRE(state < states_.size(), "Mdp::add_label: state out of range");
  add_label(state, declare_label(label));
}

void Mdp::add_label(StateId state, std::uint32_t label) {
  TML_REQUIRE(state < states_.size(), "Mdp::add_label: state out of range");
  TML_REQUIRE(label < label_names_.size(),
              "Mdp::add_label: undeclared label id " << label);
  auto& labels = states_[state].labels;
  if (std::find(labels.begin(), labels.end(), label) == labels.end()) {
    labels.push_back(label);
  }
}

bool Mdp::has_label(StateId state, const std::string& label) const {
  TML_REQUIRE(state < states_.size(), "Mdp::has_label: state out of range");
  auto it = label_ids_.find(label);
  if (it == label_ids_.end()) return false;
  const auto& labels = states_[state].labels;
  return std::find(labels.begin(), labels.end(), it->second) != labels.end();
}

StateSet Mdp::states_with_label(const std::string& label) const {
  StateSet set(states_.size(), false);
  auto it = label_ids_.find(label);
  if (it == label_ids_.end()) return set;
  for (std::size_t s = 0; s < states_.size(); ++s) {
    const auto& labels = states_[s].labels;
    if (std::find(labels.begin(), labels.end(), it->second) != labels.end()) {
      set[s] = true;
    }
  }
  return set;
}

std::vector<std::string> Mdp::labels_of(StateId state) const {
  TML_REQUIRE(state < states_.size(), "Mdp::labels_of: state out of range");
  std::vector<std::string> out;
  for (std::uint32_t id : states_[state].labels) out.push_back(label_names_[id]);
  return out;
}

std::vector<std::string> Mdp::all_labels() const { return label_names_; }

const std::string& Mdp::state_name(StateId state) const {
  TML_REQUIRE(state < states_.size(), "Mdp::state_name: out of range");
  return states_[state].name;
}

void Mdp::set_state_name(StateId state, const std::string& name) {
  TML_REQUIRE(state < states_.size(), "Mdp::set_state_name: out of range");
  states_[state].name = name;
}

StateId Mdp::state_by_name(const std::string& name) const {
  std::optional<StateId> found;
  for (std::size_t s = 0; s < states_.size(); ++s) {
    if (states_[s].name == name) {
      TML_REQUIRE(!found.has_value(), "Mdp: ambiguous state name " << name);
      found = static_cast<StateId>(s);
    }
  }
  TML_REQUIRE(found.has_value(), "Mdp: unknown state name " << name);
  return *found;
}

void Mdp::validate(double tol) const {
  if (states_.empty()) throw ModelError("Mdp: no states");
  if (initial_state_ >= states_.size()) {
    throw ModelError("Mdp: initial state out of range");
  }
  for (std::size_t s = 0; s < states_.size(); ++s) {
    const auto& state = states_[s];
    if (state.choices.empty()) {
      throw ModelError("Mdp: state " + std::to_string(s) + " (" + state.name +
                       ") has no choices");
    }
    for (std::size_t c = 0; c < state.choices.size(); ++c) {
      check_distribution(state.choices[c].transitions, states_.size(), tol,
                         [&] {
                           return "Mdp state " + std::to_string(s) +
                                  " choice " + std::to_string(c);
                         });
    }
  }
}

Dtmc Mdp::induced_dtmc(const Policy& policy) const {
  TML_REQUIRE(policy.choice_index.size() == states_.size(),
              "induced_dtmc: policy size mismatch");
  Dtmc chain(states_.size());
  chain.set_initial_state(initial_state_);
  for (std::size_t s = 0; s < states_.size(); ++s) {
    const std::uint32_t c = policy.choice_index[s];
    TML_REQUIRE(c < states_[s].choices.size(),
                "induced_dtmc: policy chooses missing choice " << c
                    << " in state " << s);
    const Choice& choice = states_[s].choices[c];
    chain.set_transitions(static_cast<StateId>(s), choice.transitions);
    chain.set_state_reward(static_cast<StateId>(s),
                           state_rewards_[s] + choice.reward);
    chain.set_state_name(static_cast<StateId>(s), states_[s].name);
    for (std::uint32_t id : states_[s].labels) {
      chain.add_label(static_cast<StateId>(s), label_names_[id]);
    }
  }
  return chain;
}

Dtmc Mdp::induced_dtmc(const RandomizedPolicy& policy) const {
  TML_REQUIRE(policy.choice_probabilities.size() == states_.size(),
              "induced_dtmc: policy size mismatch");
  Dtmc chain(states_.size());
  chain.set_initial_state(initial_state_);
  for (std::size_t s = 0; s < states_.size(); ++s) {
    const auto& probs = policy.choice_probabilities[s];
    TML_REQUIRE(probs.size() == states_[s].choices.size(),
                "induced_dtmc: choice distribution size mismatch in state "
                    << s);
    std::unordered_map<StateId, double> merged;
    double reward = state_rewards_[s];
    for (std::size_t c = 0; c < probs.size(); ++c) {
      const Choice& choice = states_[s].choices[c];
      reward += probs[c] * choice.reward;
      for (const Transition& t : choice.transitions) {
        merged[t.target] += probs[c] * t.probability;
      }
    }
    std::vector<Transition> row;
    row.reserve(merged.size());
    for (const auto& [target, p] : merged) row.push_back({target, p});
    std::sort(row.begin(), row.end(),
              [](const Transition& a, const Transition& b) {
                return a.target < b.target;
              });
    chain.set_transitions(static_cast<StateId>(s), std::move(row));
    chain.set_state_reward(static_cast<StateId>(s), reward);
    chain.set_state_name(static_cast<StateId>(s), states_[s].name);
    for (std::uint32_t id : states_[s].labels) {
      chain.add_label(static_cast<StateId>(s), label_names_[id]);
    }
  }
  return chain;
}

Policy Mdp::first_choice_policy() const {
  Policy p;
  p.choice_index.assign(states_.size(), 0);
  return p;
}

RandomizedPolicy Mdp::uniform_policy() const {
  RandomizedPolicy p;
  p.choice_probabilities.resize(states_.size());
  for (std::size_t s = 0; s < states_.size(); ++s) {
    const std::size_t n = states_[s].choices.size();
    p.choice_probabilities[s].assign(n, n == 0 ? 0.0 : 1.0 / double(n));
  }
  return p;
}

// ---------------------------------------------------------------------------
// Dtmc

Dtmc::Dtmc(std::size_t num_states)
    : rows_(num_states), state_rewards_(num_states, 0.0) {}

StateId Dtmc::add_state(const std::string& name) {
  const StateId id = static_cast<StateId>(rows_.size());
  rows_.push_back(Row{name, {}, {}});
  state_rewards_.push_back(0.0);
  return id;
}

void Dtmc::set_initial_state(StateId s) {
  TML_REQUIRE(s < rows_.size(), "Dtmc: initial state out of range");
  initial_state_ = s;
}

void Dtmc::set_transitions(StateId state, std::vector<Transition> transitions) {
  TML_REQUIRE(state < rows_.size(), "Dtmc::set_transitions: out of range");
  rows_[state].transitions = std::move(transitions);
}

const std::vector<Transition>& Dtmc::transitions(StateId state) const {
  TML_REQUIRE(state < rows_.size(), "Dtmc::transitions: out of range");
  return rows_[state].transitions;
}

void Dtmc::set_state_reward(StateId state, double reward) {
  TML_REQUIRE(state < rows_.size(), "Dtmc: state out of range");
  state_rewards_[state] = reward;
}

double Dtmc::state_reward(StateId state) const {
  TML_REQUIRE(state < rows_.size(), "Dtmc: state out of range");
  return state_rewards_[state];
}

std::uint32_t Dtmc::label_id(const std::string& label) {
  TML_REQUIRE(!label.empty(), "Dtmc: empty label");
  auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(label_names_.size());
  label_names_.push_back(label);
  label_ids_.emplace(label, id);
  return id;
}

void Dtmc::add_label(StateId state, const std::string& label) {
  TML_REQUIRE(state < rows_.size(), "Dtmc::add_label: out of range");
  const std::uint32_t id = label_id(label);
  auto& labels = rows_[state].labels;
  if (std::find(labels.begin(), labels.end(), id) == labels.end()) {
    labels.push_back(id);
  }
}

bool Dtmc::has_label(StateId state, const std::string& label) const {
  TML_REQUIRE(state < rows_.size(), "Dtmc::has_label: out of range");
  auto it = label_ids_.find(label);
  if (it == label_ids_.end()) return false;
  const auto& labels = rows_[state].labels;
  return std::find(labels.begin(), labels.end(), it->second) != labels.end();
}

StateSet Dtmc::states_with_label(const std::string& label) const {
  StateSet set(rows_.size(), false);
  auto it = label_ids_.find(label);
  if (it == label_ids_.end()) return set;
  for (std::size_t s = 0; s < rows_.size(); ++s) {
    const auto& labels = rows_[s].labels;
    if (std::find(labels.begin(), labels.end(), it->second) != labels.end()) {
      set[s] = true;
    }
  }
  return set;
}

std::vector<std::string> Dtmc::labels_of(StateId state) const {
  TML_REQUIRE(state < rows_.size(), "Dtmc::labels_of: out of range");
  std::vector<std::string> out;
  for (std::uint32_t id : rows_[state].labels) out.push_back(label_names_[id]);
  return out;
}

std::vector<std::string> Dtmc::all_labels() const { return label_names_; }

const std::string& Dtmc::state_name(StateId state) const {
  TML_REQUIRE(state < rows_.size(), "Dtmc::state_name: out of range");
  return rows_[state].name;
}

void Dtmc::set_state_name(StateId state, const std::string& name) {
  TML_REQUIRE(state < rows_.size(), "Dtmc::set_state_name: out of range");
  rows_[state].name = name;
}

StateId Dtmc::state_by_name(const std::string& name) const {
  std::optional<StateId> found;
  for (std::size_t s = 0; s < rows_.size(); ++s) {
    if (rows_[s].name == name) {
      TML_REQUIRE(!found.has_value(), "Dtmc: ambiguous state name " << name);
      found = static_cast<StateId>(s);
    }
  }
  TML_REQUIRE(found.has_value(), "Dtmc: unknown state name " << name);
  return *found;
}

void Dtmc::validate(double tol) const {
  if (rows_.empty()) throw ModelError("Dtmc: no states");
  if (initial_state_ >= rows_.size()) {
    throw ModelError("Dtmc: initial state out of range");
  }
  for (std::size_t s = 0; s < rows_.size(); ++s) {
    check_distribution(rows_[s].transitions, rows_.size(), tol,
                       [&] { return "Dtmc state " + std::to_string(s); });
  }
}

Mdp Dtmc::as_mdp() const {
  Mdp mdp(rows_.size());
  mdp.set_initial_state(initial_state_);
  const ActionId tau = mdp.declare_action("tau");
  for (std::size_t s = 0; s < rows_.size(); ++s) {
    mdp.add_choice(static_cast<StateId>(s), tau, rows_[s].transitions);
    mdp.set_state_reward(static_cast<StateId>(s), state_rewards_[s]);
    mdp.set_state_name(static_cast<StateId>(s), rows_[s].name);
    for (std::uint32_t id : rows_[s].labels) {
      mdp.add_label(static_cast<StateId>(s), label_names_[id]);
    }
  }
  return mdp;
}

}  // namespace tml
