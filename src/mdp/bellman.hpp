// The Bellman step shared by every iterative engine: optimize a per-choice
// value q(c) over a state's CSR choices. The engines differ only in q —
// an expectation, reward plus discounted expectation, or the robust inner
// optimization over an interval polytope (Suilen et al., "Robust MDPs:
// Where AI and Formal Methods Meet") — and keep their per-state quirks
// (Pmin's min(1, ·) clamp, total reward's ±inf handling) outside the
// kernel. Templates, so q inlines: no indirect call in a per-state loop.
//
// `iterate_to_fixpoint` is the one delta-stopped convergence driver. The
// sound reachability engine stops on its bracket gap instead and keeps its
// own per-block loop (src/checker/reachability.cpp).

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/budget.hpp"
#include "src/common/error.hpp"
#include "src/common/fault.hpp"
#include "src/common/parallel.hpp"
#include "src/common/stats.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/solver.hpp"

namespace tml {

/// Optimal choice of one state: its value and its local choice index.
struct BestChoice {
  double value = 0.0;
  std::uint32_t choice = 0;
};

/// Optimizes `q(c)` over the global choice indices c of state `s` (which
/// must have at least one choice, as every validated model does). Ties go
/// to the smallest index, which keeps policies deterministic.
template <typename Q>
inline BestChoice best_choice(const CompiledModel& model, StateId s,
                              Objective objective, Q&& q) {
  const std::uint32_t begin = model.first_choice(s);
  const std::uint32_t end = model.last_choice(s);
  BestChoice best{q(begin), 0};
  for (std::uint32_t c = begin + 1; c < end; ++c) {
    const double v = q(c);
    if (objective == Objective::kMaximize ? v > best.value : v < best.value) {
      best = {v, c - begin};
    }
  }
  return best;
}

/// `init + Σ_k P(k|c) · values[target_k]`, summed in CSR order.
inline double expectation(const CompiledModel& model, std::uint32_t c,
                          std::span<const double> values, double init = 0.0) {
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();
  for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
    init += prob[k] * values[target[k]];
  }
  return init;
}

/// Jacobi sweeps from the seed in `result->values` until the sweep delta
/// drops below tolerance. A sweep covers `positions` positions of the
/// engine's own state order: `sweep(begin, end, values, next)` writes the
/// states at positions [begin, end) of `next` from the previous iterate
/// (states it never writes keep their seed) and returns the chunk's max
/// delta. An engine that sweeps every state passes num_states() and
/// position = state; one that pins states first passes the length of its
/// list of unknown states. Chunks are kDefaultGrain positions and the delta
/// is a max-reduction, so every iterate is bitwise identical for every
/// thread count. Polls the budget once per sweep (flagging, not throwing);
/// throws NumericError on a NaN delta and, with throw_on_nonconvergence,
/// when max_iterations run out.
template <typename Sweep>
void iterate_to_fixpoint(const char* engine, const SolverOptions& options,
                         SolveResult* result, std::size_t positions,
                         Sweep&& sweep) {
  std::vector<double> next = result->values;
  double last_delta = 0.0;
  BudgetTracker tracker(options.budget);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    if (!tracker.tick()) {
      result->budget_status = BudgetStatus::kBudgetExhausted;
      result->budget_stop = tracker.stop();
      break;
    }
    const std::vector<double>& values = result->values;
    const double delta = parallel_transform_reduce(
        std::size_t{0}, positions, kDefaultGrain, 0.0,
        [&](std::size_t begin, std::size_t end) {
          return sweep(begin, end, std::span<const double>(values), next);
        },
        [](double a, double b) { return std::max(a, b); }, options.threads);
    result->values.swap(next);
    result->iterations = iter + 1;
    // +Inf deltas are legitimate (total reward propagating infinite
    // values); NaN never is — it would silently burn max_iterations.
    last_delta = fault::poison("solver.sweep", delta);
    if (std::isnan(last_delta)) {
      throw NumericError(std::string(engine) +
                         ": non-finite sweep delta at iteration " +
                         std::to_string(result->iterations));
    }
    if (last_delta < options.tolerance && !fault::fire("checker.converge")) {
      result->converged = true;
      break;
    }
  }
  static stats::Counter& c_iters = stats::counter("checker.vi.iterations");
  static stats::Gauge& g_delta = stats::gauge("checker.vi.last_delta");
  c_iters.add(result->iterations);
  g_delta.set(last_delta);
  if (!result->converged && result->budget_status == BudgetStatus::kOk &&
      options.throw_on_nonconvergence) {
    throw NumericError(std::string(engine) + ": no convergence after " +
                       std::to_string(result->iterations) + " iterations");
  }
}

}  // namespace tml
