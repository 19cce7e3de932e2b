// Long-run (steady-state) analysis for DTMCs.
//
// PRISM's S operator, provided here as an API-level extension: the
// long-run probability of sitting in a φ-state is
//
//     S(φ) = Σ_{B ∈ BSCC} P(reach B) · π_B(Sat φ ∩ B),
//
// where the bottom strongly connected components (BSCCs) are the closed
// blocks of the model's cached SCC condensation (CompiledModel::scc()),
// each BSCC's stationary distribution π_B solves
// π_B P|_B = π_B with Σ π_B = 1, and P(reach B) sums the probabilities of
// entering B at each of its states. Both are left systems x·(I − P') = e
// over M-matrices, solved by one transposed sparse LU each
// (EnvelopeLU::solve_transposed, src/mdp/solver.hpp): one for the entry
// probabilities of all BSCCs, one per reached BSCC for π_B. Useful for the
// WSN setting's long-run questions (e.g. the long-run fraction of time a
// node spends ignoring).
//
// All analyses run on the compiled CSR form, which must be deterministic;
// callers holding a builder Dtmc compile it once.

#pragma once

#include <vector>

#include "src/mdp/compiled.hpp"
#include "src/mdp/model.hpp"

namespace tml {

/// Bottom strongly connected components of the chain: the closed blocks of
/// CompiledModel::scc(), each sorted by state id, in the condensation's
/// block order (Tarjan emission order, roots tried in ascending state id).
std::vector<std::vector<StateId>> bottom_sccs(const CompiledModel& model);

/// Stationary distribution of the chain restricted to one BSCC, indexed
/// like `component`. Throws Error if the states are not closed, and
/// NumericError if they are closed but not one strongly connected class.
std::vector<double> stationary_distribution(
    const CompiledModel& model, const std::vector<StateId>& component);

/// Per-state long-run occupancy from the chain's initial state:
/// result[s] = long-run fraction of time spent in s.
std::vector<double> long_run_distribution(const CompiledModel& model);

/// Long-run probability of the state set from the initial state.
double long_run_probability(const CompiledModel& model, const StateSet& states);

}  // namespace tml
