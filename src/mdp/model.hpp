// Core model types: MDP, DTMC, policies.
//
// The paper's models are finite MDPs M = (S, A, R, P, L) (§II): finite
// states, finitely many action choices per state, transition distributions
// P(s'|s,a), rewards R (we support both state rewards and action rewards —
// the WSN case study charges one unit per forwarding *attempt*, an action
// reward), and a labeling L of states with atomic propositions used by PCTL.
//
// A DTMC is the special case with exactly one choice per state; the checker
// treats them separately because the algorithms differ (linear system vs.
// min/max value iteration). `Mdp::induced_dtmc` connects the two: fixing a
// memoryless deterministic policy turns an MDP into a DTMC.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/bitset.hpp"
#include "src/common/error.hpp"

namespace tml {

using StateId = std::uint32_t;
using ActionId = std::uint32_t;

/// One probabilistic edge of a transition distribution.
struct Transition {
  StateId target = 0;
  double probability = 0.0;
};

/// One enabled action in a state: the action id, the reward earned for
/// taking it, and the distribution over successor states.
struct Choice {
  ActionId action = 0;
  double reward = 0.0;
  std::vector<Transition> transitions;
};

/// Set of states identified by a bit per state (word-packed; see
/// src/common/bitset.hpp for the set-algebra helpers complement /
/// set_union / set_intersection / count / empty).
using StateSet = Bitset;

/// Memoryless deterministic policy: for each state, the index of the chosen
/// entry in that state's choice list (NOT the action id — a state may enable
/// the same action id at most once, but indices are always well defined).
struct Policy {
  std::vector<std::uint32_t> choice_index;

  std::uint32_t at(StateId s) const {
    TML_REQUIRE(s < choice_index.size(), "Policy: state out of range");
    return choice_index[s];
  }
};

/// Memoryless randomized policy: per state, a distribution over the state's
/// choices. Used by max-entropy IRL, where the soft-optimal policy is
/// stochastic.
struct RandomizedPolicy {
  std::vector<std::vector<double>> choice_probabilities;
};

class Dtmc;

/// Finite Markov decision process with labels and rewards.
///
/// Construction: create with the number of states (or use `add_state`),
/// populate choices with `add_choice`, label states with `add_label`, then
/// call `validate()` once before handing the model to any algorithm.
class Mdp {
 public:
  Mdp() = default;
  explicit Mdp(std::size_t num_states) { resize(num_states); }

  // -- structure ----------------------------------------------------------

  std::size_t num_states() const { return states_.size(); }
  StateId add_state(const std::string& name = "");
  void resize(std::size_t num_states);

  StateId initial_state() const { return initial_state_; }
  void set_initial_state(StateId s);

  /// Registers (or looks up) an action name and returns its id.
  ActionId declare_action(const std::string& name);
  const std::string& action_name(ActionId a) const;
  std::size_t num_actions() const { return action_names_.size(); }

  /// Adds a choice to `state`; transition probabilities must sum to 1.
  /// Returns the index of the new choice within the state.
  std::uint32_t add_choice(StateId state, ActionId action,
                           std::vector<Transition> transitions,
                           double action_reward = 0.0);
  std::uint32_t add_choice(StateId state, const std::string& action,
                           std::vector<Transition> transitions,
                           double action_reward = 0.0);

  const std::vector<Choice>& choices(StateId state) const;
  std::vector<Choice>& mutable_choices(StateId state);

  /// Total number of (state, choice) pairs.
  std::size_t num_choices() const;

  // -- rewards ------------------------------------------------------------

  void set_state_reward(StateId state, double reward);
  double state_reward(StateId state) const;
  const std::vector<double>& state_rewards() const { return state_rewards_; }

  // -- labels -------------------------------------------------------------

  /// Registers (or looks up) a label name and returns its id; a builder
  /// that labels many states resolves the name once and then calls
  /// `add_label(state, id)`.
  std::uint32_t declare_label(const std::string& label);
  void add_label(StateId state, const std::string& label);
  void add_label(StateId state, std::uint32_t label);
  bool has_label(StateId state, const std::string& label) const;

  /// Returns the bitset of states carrying `label` (all-false if the label
  /// was never used).
  StateSet states_with_label(const std::string& label) const;
  std::vector<std::string> labels_of(StateId state) const;
  std::vector<std::string> all_labels() const;

  // -- names --------------------------------------------------------------

  const std::string& state_name(StateId state) const;
  void set_state_name(StateId state, const std::string& name);
  /// Looks up a state by name; throws if absent or ambiguous.
  StateId state_by_name(const std::string& name) const;

  // -- semantics ----------------------------------------------------------

  /// Checks structural sanity: at least one state, every state has >= 1
  /// choice, every distribution sums to 1 within `tol`, probabilities are in
  /// [0,1], every target index is valid. Throws ModelError on violation.
  void validate(double tol = 1e-9) const;

  /// The DTMC obtained by resolving every state with the policy.
  /// State ids, rewards and labels carry over; the action reward of the
  /// chosen choice is added to the state reward of the DTMC.
  Dtmc induced_dtmc(const Policy& policy) const;

  /// The DTMC induced by a randomized policy (transition probabilities and
  /// rewards are mixed according to the choice distribution).
  Dtmc induced_dtmc(const RandomizedPolicy& policy) const;

  /// The policy choosing choice 0 everywhere (useful as a VI seed).
  Policy first_choice_policy() const;

  /// The uniform randomized policy.
  RandomizedPolicy uniform_policy() const;

 private:
  struct StateData {
    std::string name;
    std::vector<Choice> choices;
    std::vector<std::uint32_t> labels;  // indices into label_names_
  };

  std::vector<StateData> states_;
  std::vector<double> state_rewards_;
  StateId initial_state_ = 0;
  std::vector<std::string> action_names_;
  std::unordered_map<std::string, ActionId> action_ids_;
  std::vector<std::string> label_names_;
  std::unordered_map<std::string, std::uint32_t> label_ids_;
};

/// Discrete-time Markov chain: exactly one distribution per state.
///
/// Implemented as a thin facade with the same label/reward machinery as Mdp
/// but a single transition row per state.
class Dtmc {
 public:
  Dtmc() = default;
  explicit Dtmc(std::size_t num_states);

  std::size_t num_states() const { return rows_.size(); }
  StateId add_state(const std::string& name = "");

  StateId initial_state() const { return initial_state_; }
  void set_initial_state(StateId s);

  /// Sets the full transition row of a state (must sum to 1).
  void set_transitions(StateId state, std::vector<Transition> transitions);
  const std::vector<Transition>& transitions(StateId state) const;

  void set_state_reward(StateId state, double reward);
  double state_reward(StateId state) const;
  const std::vector<double>& state_rewards() const { return state_rewards_; }

  void add_label(StateId state, const std::string& label);
  bool has_label(StateId state, const std::string& label) const;
  StateSet states_with_label(const std::string& label) const;
  std::vector<std::string> labels_of(StateId state) const;
  std::vector<std::string> all_labels() const;

  const std::string& state_name(StateId state) const;
  void set_state_name(StateId state, const std::string& name);
  StateId state_by_name(const std::string& name) const;

  void validate(double tol = 1e-9) const;

  /// View of this chain as a one-choice-per-state MDP (used to share checker
  /// plumbing where convenient).
  Mdp as_mdp() const;

 private:
  struct Row {
    std::string name;
    std::vector<Transition> transitions;
    std::vector<std::uint32_t> labels;
  };

  std::uint32_t label_id(const std::string& label);

  std::vector<Row> rows_;
  std::vector<double> state_rewards_;
  StateId initial_state_ = 0;
  std::vector<std::string> label_names_;
  std::unordered_map<std::string, std::uint32_t> label_ids_;
};

}  // namespace tml
