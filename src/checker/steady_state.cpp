#include "src/checker/steady_state.hpp"

#include <algorithm>

#include "src/common/matrix.hpp"
#include "src/mdp/solver.hpp"

namespace tml {

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
  const std::size_t k = component.size();
  std::vector<int> local(model.num_states(), -1);
  for (std::size_t i = 0; i < k; ++i) {
    local[component[i]] = static_cast<int>(i);
  }
  // Closedness check.
  for (StateId s : component) {
    for (std::uint32_t t = choice_start[s]; t < choice_start[s + 1]; ++t) {
      TML_REQUIRE(prob[t] <= 0.0 || local[target[t]] >= 0,
                  "stationary_distribution: component is not closed (edge "
                      << s << " -> " << target[t] << ")");
    }
  }
  // Solve π (P − I) = 0 with Σ π = 1: transpose system with the last
  // equation replaced by the normalization row.
  Matrix a(k, k);
  std::vector<double> b(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    // Row j of the system: Σ_i π_i P(i, j) − π_j = 0.
    a(j, j) -= 1.0;
  }
  for (std::size_t i = 0; i < k; ++i) {
    const StateId s = component[i];
    for (std::uint32_t t = choice_start[s]; t < choice_start[s + 1]; ++t) {
      if (prob[t] <= 0.0) continue;
      a(static_cast<std::size_t>(local[target[t]]), i) += prob[t];
    }
  }
  for (std::size_t i = 0; i < k; ++i) a(k - 1, i) = 1.0;
  b[k - 1] = 1.0;
  std::vector<double> pi = solve_linear_system(std::move(a), std::move(b));
  // Numeric hygiene: clamp tiny negatives, renormalize.
  double total = 0.0;
  for (double& p : pi) {
    p = std::max(p, 0.0);
    total += p;
  }
  TML_REQUIRE(total > 0.0, "stationary_distribution: degenerate solution");
  for (double& p : pi) p /= total;
  return pi;
}

std::vector<double> long_run_distribution(const CompiledModel& model) {
  const auto bottoms = bottom_sccs(model);
  std::vector<double> occupancy(model.num_states(), 0.0);
  for (const auto& component : bottoms) {
    StateSet member(model.num_states(), false);
    for (StateId s : component) member[s] = true;
    const double reach =
        dtmc_reachability(model, member)[model.initial_state()];
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
