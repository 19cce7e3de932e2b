#include "src/checker/steady_state.hpp"

#include <algorithm>
#include <limits>

#include "src/mdp/solver.hpp"

namespace tml {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// x with x·(I − P') = e_source over `states` (position i is states[i];
/// `index` maps a state to its position, kNone outside), where P' keeps the
/// positive DTMC edges s → t between those states for which keep(s, t)
/// holds. The rows come straight from the CSR arrays, as in the one-choice
/// solves, and one transposed envelope-LU solve answers.
template <typename Keep>
std::vector<double> left_solve(const CompiledModel& model,
                               const std::vector<StateId>& states,
                               const std::vector<std::uint32_t>& index,
                               StateId source, Keep&& keep) {
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();
  SparseMatrix a;
  for (std::uint32_t i = 0; i < states.size(); ++i) {
    const StateId s = states[i];
    a.add(i, 1.0);
    for (std::uint32_t t = choice_start[s]; t < choice_start[s + 1]; ++t) {
      if (prob[t] > 0.0 && index[target[t]] != kNone && keep(s, target[t])) {
        a.add(index[target[t]], -prob[t]);
      }
    }
    a.end_row();
  }
  std::vector<double> e(states.size(), 0.0);
  e[index[source]] = 1.0;
  return EnvelopeLU(a).solve_transposed(e);
}

}  // namespace

std::vector<std::vector<StateId>> bottom_sccs(const CompiledModel& model) {
  TML_REQUIRE(model.deterministic(),
              "bottom_sccs: compiled model is not a DTMC");
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();
  const SccDecomposition& scc = model.scc();
  // A block is bottom iff no member has a positive edge leaving it.
  std::vector<std::vector<StateId>> bottoms;
  for (std::uint32_t b = 0; b < scc.num_blocks(); ++b) {
    const auto block = scc.block(b);
    const bool closed = std::all_of(block.begin(), block.end(), [&](StateId s) {
      for (std::uint32_t k = choice_start[s]; k < choice_start[s + 1]; ++k) {
        if (prob[k] > 0.0 && scc.component[target[k]] != b) return false;
      }
      return true;
    });
    if (closed) bottoms.emplace_back(block.begin(), block.end());
  }
  return bottoms;
}

std::vector<double> stationary_distribution(
    const CompiledModel& model, const std::vector<StateId>& component) {
  TML_REQUIRE(model.deterministic(),
              "stationary_distribution: compiled model is not a DTMC");
  TML_REQUIRE(!component.empty(), "stationary_distribution: empty component");
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();
  const StateId r = component[0];
  const std::vector<std::uint32_t>& scc = model.scc().component;
  std::vector<std::uint32_t> local(model.num_states(), kNone);
  for (std::uint32_t i = 0; i < component.size(); ++i) {
    local[component[i]] = i;
  }
  for (StateId s : component) {
    for (std::uint32_t t = choice_start[s]; t < choice_start[s + 1]; ++t) {
      TML_REQUIRE(prob[t] <= 0.0 || local[target[t]] != kNone,
                  "stationary_distribution: component is not closed (edge "
                      << s << " -> " << target[t] << ")");
    }
    // Closed but not strongly connected: not one recurrent class, and with
    // several classes π is not unique.
    if (scc[s] != scc[r]) {
      throw NumericError(
          "stationary_distribution: component is closed but not irreducible");
    }
  }
  // π = π·P with π_r = 1 for r = component[0] is π·(I − P') = e_r, P'
  // dropping the edges into r. The rest of B is transient once r is cut
  // off, so I − P' is a nonsingular M-matrix.
  std::vector<double> pi = left_solve(
      model, component, local, r, [r](StateId, StateId t) { return t != r; });
  // Numeric hygiene: clamp tiny negatives, renormalize.
  double total = 0.0;
  for (double& p : pi) {
    p = std::max(p, 0.0);
    total += p;
  }
  for (double& p : pi) p /= total;
  return pi;
}

std::vector<double> long_run_distribution(const CompiledModel& model) {
  const auto bottoms = bottom_sccs(model);
  const std::size_t n = model.num_states();
  StateSet in_bottom(n, false);
  for (const auto& component : bottoms) {
    for (StateId s : component) in_bottom[s] = true;
  }
  // entry·(I − P') = e_init, P' cutting every edge out of a bottom state:
  // on a bottom state, entry is the probability that the chain enters its
  // component there (the transient states' entries count visits).
  std::vector<StateId> all(n);
  for (StateId s = 0; s < n; ++s) all[s] = s;
  const std::vector<double> entry =
      left_solve(model, all, all, model.initial_state(),
                 [&](StateId s, StateId) { return !in_bottom[s]; });
  std::vector<double> occupancy(n, 0.0);
  for (const auto& component : bottoms) {
    double reach = 0.0;
    for (StateId s : component) reach += entry[s];
    if (reach <= 0.0) continue;
    const std::vector<double> pi = stationary_distribution(model, component);
    for (std::size_t i = 0; i < component.size(); ++i) {
      occupancy[component[i]] += reach * pi[i];
    }
  }
  return occupancy;
}

double long_run_probability(const CompiledModel& model,
                            const StateSet& states) {
  TML_REQUIRE(states.size() == model.num_states(),
              "long_run_probability: set size mismatch");
  const std::vector<double> occupancy = long_run_distribution(model);
  double total = 0.0;
  for (StateId s = 0; s < model.num_states(); ++s) {
    if (states[s]) total += occupancy[s];
  }
  return total;
}

}  // namespace tml
