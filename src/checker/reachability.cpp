#include "src/checker/reachability.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "src/common/fault.hpp"
#include "src/common/parallel.hpp"
#include "src/common/stats.hpp"
#include "src/mdp/bellman.hpp"
#include "src/mdp/graph.hpp"
#include "src/mdp/solver.hpp"

namespace tml {

namespace {

void record_bounded_sweeps(std::size_t sweeps, std::uint64_t state_updates) {
  static stats::Counter& c_sweeps = stats::counter("checker.bounded.sweeps");
  static stats::Counter& c_updates =
      stats::counter("checker.bounded.state_updates");
  c_sweeps.add(sweeps);
  c_updates.add(state_updates);
}

/// The bounded/cumulative sweeps accept a budget as a trailing pointer
/// (nullptr = process default) to keep the dozens of existing thread-only
/// call sites source-compatible.
Budget budget_or_default(const Budget* budget) {
  return budget != nullptr ? *budget : default_budget();
}

/// Checks an interval gap for injected or genuine NaN.
double checked_gap(double gap) {
  gap = fault::poison("checker.sweep", gap);
  if (std::isnan(gap)) {
    throw NumericError(
        "mdp_reachability(interval): NaN convergence gap — model or update "
        "sequence produced non-finite values");
  }
  return gap;
}

/// One Bellman step of P(F target) at state s: the optimal choice's
/// expectation of `values`, with Pmin's min(1, ·) clamp against rounding
/// overshoot. Pmax needs no clamp: an expectation of nonnegative values
/// never drops below 0.
double reach_step(const CompiledModel& model, StateId s, Objective objective,
                  std::span<const double> values) {
  const double best =
      best_choice(model, s, objective, [&](std::uint32_t c) {
        return expectation(model, c, values);
      }).value;
  return objective == Objective::kMaximize ? best : std::min(1.0, best);
}

/// The states a fixed-horizon sweep updates, layer by layer: `order` lists
/// the states of layer 0, then layer 1, ..., and order[0, layer_end[d])
/// holds layers 0..d. Sweep k (the (k+1)-th step) updates layers <= k+1.
struct Frontier {
  std::vector<StateId> order;
  std::vector<std::size_t> layer_end;

  std::size_t live(std::size_t k) const {
    return layer_end[std::min(k + 1, layer_end.size() - 1)];
  }
};

/// Every state in one layer: each sweep updates them all.
Frontier every_state(std::size_t n) {
  Frontier frontier;
  frontier.order.resize(n);
  std::iota(frontier.order.begin(), frontier.order.end(), StateId{0});
  frontier.layer_end.push_back(n);
  return frontier;
}

/// Backward BFS from `goal` through `stay` states over the positive-edge
/// predecessors, to depth `bound`: layer d holds the states whose shortest
/// stay-path to goal has d steps, sorted by id. A state outside layers
/// 0..k has value exactly 0 after k steps of bounded until.
Frontier goal_distance_layers(const CompiledModel& model, const StateSet& stay,
                              const StateSet& goal, std::size_t bound) {
  Frontier frontier;
  StateSet seen = goal;
  for (StateId s = 0; s < model.num_states(); ++s) {
    if (goal[s]) frontier.order.push_back(s);
  }
  frontier.layer_end.push_back(frontier.order.size());
  std::size_t layer_begin = 0;
  while (frontier.layer_end.size() <= bound &&
         layer_begin < frontier.order.size()) {
    const std::size_t layer_stop = frontier.order.size();
    for (std::size_t i = layer_begin; i < layer_stop; ++i) {
      for (StateId p : model.predecessors(frontier.order[i])) {
        if (stay[p] && !seen[p]) {
          seen.set(p);
          frontier.order.push_back(p);
        }
      }
    }
    std::sort(frontier.order.begin() + layer_stop, frontier.order.end());
    frontier.layer_end.push_back(frontier.order.size());
    layer_begin = layer_stop;
  }
  return frontier;
}

/// `steps` Jacobi applications of the per-state update `step(s, values)`
/// from `values`, polling the budget once per sweep: the one fixed-horizon
/// sweep behind the bounded-until and cumulative-reward entry points. Sweep
/// k updates only the states in `frontier.live(k)`; every other state keeps
/// its value, which the caller guarantees `step` would reproduce exactly,
/// so the result is the full sweep's, bit for bit.
template <typename Step>
std::vector<double> fixed_horizon(const char* engine,
                                  std::vector<double> values,
                                  std::size_t steps, std::size_t threads,
                                  const Budget* budget,
                                  const Frontier& frontier, Step&& step) {
  std::vector<double> next = values;
  BudgetTracker tracker(budget_or_default(budget));
  std::uint64_t state_updates = 0;
  for (std::size_t k = 0; k < steps; ++k) {
    if (!tracker.tick()) tracker.require_ok(engine);
    const std::size_t live = frontier.live(k);
    state_updates += live;
    parallel_for(
        0, live, kDefaultGrain,
        [&](std::size_t chunk_begin, std::size_t chunk_end) {
          for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
            const StateId s = frontier.order[i];
            next[s] = step(s, std::span<const double>(values));
          }
        },
        threads);
    values.swap(next);
  }
  record_bounded_sweeps(steps, state_updates);
  return values;
}

/// Restricts an until problem to a plain reachability problem: states in
/// neither `stay` nor `goal` are made absorbing (they can never contribute),
/// then P[F goal] on the modified model equals P[stay U goal] on the
/// original. Empty when no state escapes (every F and G query): the caller
/// then solves its own model and keeps its cached predecessor/SCC
/// structure.
std::optional<CompiledModel> absorb_escape_states(const CompiledModel& model,
                                                  const StateSet& stay,
                                                  const StateSet& goal) {
  StateSet escape = set_union(stay, goal);
  escape.flip();
  if (escape.none()) return std::nullopt;
  return model.make_absorbing(escape);
}

/// Qualitative sets for an entry point: reuse the caller's cached
/// prob0/prob1 (WarmStart::zero/one — valid after a support-preserving
/// patch, since the sets are pure graph properties of the positive
/// support) or recompute from scratch.
Prob01 prob01_for(const CompiledModel& model, const StateSet& targets,
                  Objective objective, const SolverOptions& options) {
  const std::size_t n = model.num_states();
  if (options.warm != nullptr && options.warm->zero.size() == n &&
      options.warm->one.size() == n) {
    return Prob01{options.warm->zero, options.warm->one};
  }
  return reach_prob01(model, targets, objective);
}

void record_scc_count(std::size_t blocks) {
  static stats::Gauge& g_scc = stats::gauge("checker.scc_count");
  g_scc.set(static_cast<double>(blocks));
}

/// Closed-form solve of a single-state SCC block against already-final
/// successor values: with self-loop mass a_c and external inflow
/// b_c = Σ_{t≠s} p(t|s,c)·v(t) per choice, the fixpoint of choice c is
/// b_c / (1 - a_c). Pure self-loop choices (a_c = 1) never advance the state
/// and are skipped: a Pmin state owning one would be in the Pmin zero set
/// (pinned 0), and for Pmax such a choice yields value 0 from here on, which
/// never beats a competing exit and equals the a-priori 0 fallback otherwise.
double solve_single_state(const CompiledModel& model, StateId s,
                          Objective objective,
                          const std::vector<double>& values) {
  const auto& row_start = model.row_start();
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();
  bool any = false;
  double best = 0.0;
  for (std::uint32_t c = row_start[s]; c < row_start[s + 1]; ++c) {
    double self = 0.0;
    double inflow = 0.0;
    for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
      if (target[k] == s) {
        self += prob[k];
      } else {
        inflow += prob[k] * values[target[k]];
      }
    }
    if (self >= 1.0) continue;
    const double q = std::min(1.0, inflow / (1.0 - self));
    if (!any || (objective == Objective::kMaximize ? q > best : q < best)) {
      best = q;
      any = true;
    }
  }
  return best;
}

/// Sound interval iteration over the SCC condensation (see the header for
/// the invariants); the certified bracket is returned in SolveResult::lo/hi.
SolveResult reach_interval(const CompiledModel& model, const Prob01& sets,
                           Objective objective, const SolverOptions& options) {
  const std::size_t n = model.num_states();
  const auto& row_start = model.row_start();
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();
  const StateSet& zero = sets.zero;
  const StateSet& one = sets.one;
  const SccDecomposition& scc = model.scc();
  record_scc_count(scc.num_blocks());

  std::vector<double> lo(n, 0.0);
  std::vector<double> hi(n, 1.0);
  for (StateId s = 0; s < n; ++s) {
    if (one[s]) lo[s] = 1.0;
    if (zero[s]) hi[s] = 0.0;
  }

  // MEC deflation/inflation (Pmax only). Inside a maximal end component all
  // states share one Pmax value: v = max over exit choices c of
  // (sum of p * v(t) over t OUTSIDE the MEC) / p_out(c), because committing
  // to exit choice c forever reaches its state with probability 1 (EC
  // property) and leaves via t with probability p_t / p_out. Every sweep we
  // snap BOTH bounds of every MEC to that normalized best-exit form:
  //  * deflation (hi): iteration from above otherwise converges to the
  //    greatest fixpoint, which overshoots inside end components (cycling
  //    forever keeps upper value 1);
  //  * inflation (lo): the plain lower iterate climbs through a MEC at a
  //    rate proportional to the exit probability — with a 1e-3 exit it
  //    needs millions of sweeps, while the commit-to-exit policy bound is
  //    exact the moment the external values are.
  // Pmin needs neither: an end component among the unknown states would let
  // a scheduler avoid the target forever, so its states would already be
  // pinned by the Pmin zero set.
  struct MecExit {
    double p_out = 0.0;  ///< total probability mass leaving the MEC
    std::vector<std::pair<StateId, double>> external;  ///< targets outside
  };
  struct Mec {
    std::vector<StateId> states;
    std::vector<MecExit> exits;
  };
  std::vector<std::vector<Mec>> block_mecs(scc.num_blocks());
  if (objective == Objective::kMaximize) {
    StateSet undecided = set_union(zero, one);
    undecided.flip();
    for (auto& members : maximal_end_components(model, undecided)) {
      Mec mec;
      auto inside = [&](StateId t) {
        return std::binary_search(members.begin(), members.end(), t);
      };
      for (StateId s : members) {
        for (std::uint32_t c = row_start[s]; c < row_start[s + 1]; ++c) {
          MecExit exit;
          for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1];
               ++k) {
            if (prob[k] > 0.0 && !inside(target[k])) {
              exit.p_out += prob[k];
              exit.external.emplace_back(target[k], prob[k]);
            }
          }
          if (exit.p_out > 0.0) mec.exits.push_back(std::move(exit));
        }
      }
      // End components are contained in SCCs, so a MEC lives in one block.
      const std::uint32_t b = scc.component[members.front()];
      mec.states = std::move(members);
      block_mecs[b].push_back(std::move(mec));
    }
  }

  std::vector<double> next_lo = lo;
  std::vector<double> next_hi = hi;
  std::size_t total_sweeps = 0;
  bool all_converged = true;
  // On exhaustion the engine stops at the current sweep boundary and
  // returns lo/hi as they stand: the bracket is sound after EVERY sweep
  // (lower iterate under-approximates, upper over-approximates, and
  // untouched downstream blocks still hold their initial certified 0/1
  // bounds), so a budget-truncated run degrades to a wider — never wrong —
  // certified interval.
  BudgetTracker tracker(options.budget);
  bool budget_fired = false;

  // States whose bounds the MEC snap rewrites after a sweep: their gap is
  // taken after the snap, every other state's inside the sweep.
  StateSet in_mec(n, false);
  for (const auto& mecs : block_mecs) {
    for (const Mec& mec : mecs) {
      for (StateId s : mec.states) in_mec.set(s);
    }
  }

  // The unknown states of each block, in block order: block b's are
  // unknown[unknown_start[b], unknown_start[b + 1]). Sweeps and the pool's
  // chunk floor see only these, not the block's pinned states.
  std::vector<StateId> unknown;
  std::vector<std::size_t> unknown_start(scc.num_blocks() + 1, 0);
  for (std::uint32_t b = 0; b < scc.num_blocks(); ++b) {
    for (StateId s : scc.block(b)) {
      if (!zero[s] && !one[s]) unknown.push_back(s);
    }
    unknown_start[b + 1] = unknown.size();
  }

  // One Jacobi sweep of unknown[begin, end), both bounds in one pool job:
  // the lower iterate into next_lo, the upper into next_hi. The clamps
  // keep the lower iterate monotone non-decreasing and the upper monotone
  // non-increasing, so rounding can never break the bracket direction.
  // Returns the largest gap among the swept states outside MECs (max is
  // exact, so the order of the fold does not matter).
  auto sweep = [&](std::size_t begin, std::size_t end) {
    return parallel_transform_reduce(
        begin, end, kDefaultGrain, 0.0,
        [&](std::size_t chunk_begin, std::size_t chunk_end) {
          double local = 0.0;
          for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
            const StateId s = unknown[i];
            next_lo[s] =
                std::max(reach_step(model, s, objective, lo), lo[s]);
            next_hi[s] =
                std::min(reach_step(model, s, objective, hi), hi[s]);
            if (!in_mec[s]) local = std::max(local, next_hi[s] - next_lo[s]);
          }
          return local;
        },
        [](double a, double b) { return std::max(a, b); }, options.threads);
  };

  for (std::uint32_t b = 0; b < scc.num_blocks() && !budget_fired; ++b) {
    const std::size_t begin = unknown_start[b];
    const std::size_t end = unknown_start[b + 1];
    if (begin == end) continue;

    const auto block = scc.block(b);
    if (block.size() == 1) {
      // Downstream values are final, so the closed form is final too; its
      // gap is bounded by the worst downstream gap (the 1/(1-a) factor in
      // the value cancels against the (1-a) total external mass).
      const StateId s = block.front();
      lo[s] = std::max(lo[s], solve_single_state(model, s, objective, lo));
      hi[s] = std::min(hi[s], solve_single_state(model, s, objective, hi));
      next_lo[s] = lo[s];
      next_hi[s] = hi[s];
      continue;
    }

    bool converged = false;
    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
      if (!tracker.tick()) {
        budget_fired = true;
        break;
      }
      double gap = sweep(begin, end);
      lo.swap(next_lo);
      hi.swap(next_hi);
      ++total_sweeps;
      for (const Mec& mec : block_mecs[b]) {
        double exit_lo = 0.0;
        double exit_hi = 0.0;
        for (const MecExit& exit : mec.exits) {
          double q_lo = 0.0;
          double q_hi = 0.0;
          for (const auto& [t, p] : exit.external) {
            q_lo += p * lo[t];
            q_hi += p * hi[t];
          }
          exit_lo = std::max(exit_lo, q_lo / exit.p_out);
          exit_hi = std::max(exit_hi, q_hi / exit.p_out);
        }
        for (StateId s : mec.states) {
          lo[s] = std::max(lo[s], exit_lo);
          hi[s] = std::min(hi[s], exit_hi);
          gap = std::max(gap, hi[s] - lo[s]);
        }
      }
      if (checked_gap(gap) < options.tolerance &&
          !fault::fire("checker.converge")) {
        converged = true;
        break;
      }
    }
    for (std::size_t i = begin; i < end; ++i) {
      next_lo[unknown[i]] = lo[unknown[i]];
      next_hi[unknown[i]] = hi[unknown[i]];
    }
    if (!converged) {
      if (!budget_fired && options.throw_on_nonconvergence) {
        throw NumericError("mdp_reachability(interval): block " +
                           std::to_string(b) +
                           " gap did not close within " +
                           std::to_string(options.max_iterations) + " sweeps");
      }
      all_converged = false;
    }
  }

  double final_gap = 0.0;
  for (StateId s = 0; s < n; ++s) {
    final_gap = std::max(final_gap, hi[s] - lo[s]);
  }
  {
    static stats::Counter& c_sweeps =
        stats::counter("checker.interval_sweeps");
    static stats::Gauge& g_gap = stats::gauge("checker.final_gap");
    c_sweeps.add(total_sweeps);
    g_gap.set(final_gap);
  }

  SolveResult result;
  result.iterations = total_sweeps;
  result.converged = all_converged;
  result.budget_status = tracker.status();
  result.budget_stop = tracker.stop();
  result.values.resize(n);
  for (StateId s = 0; s < n; ++s) {
    // Pinned states report exactly 0/1; everything else the bracket midpoint.
    result.values[s] =
        one[s] ? 1.0 : (zero[s] ? 0.0 : 0.5 * (lo[s] + hi[s]));
  }
  result.lo = std::move(lo);
  result.hi = std::move(hi);
  return result;
}

}  // namespace

std::vector<double> mdp_reachability(const CompiledModel& model,
                                     const StateSet& targets,
                                     Objective objective,
                                     const SolverOptions& options) {
  SolveResult result =
      mdp_reachability_bracket(model, targets, objective, options);
  // A bare vector has no channel for the exhaustion flag; surface the typed
  // error instead of a silent partial.
  require_finished(result, "mdp_reachability");
  return std::move(result.values);
}

SolveResult mdp_reachability_bracket(const CompiledModel& model,
                                     const StateSet& targets,
                                     Objective objective,
                                     const SolverOptions& options) {
  TML_REQUIRE(targets.size() == model.num_states(),
              "mdp_reachability_bracket: target set size mismatch");
  Prob01 sets = prob01_for(model, targets, objective, options);
  SolveResult result = reach_interval(model, sets, objective, options);
  // Hand the qualitative sets back so the caller can feed them into the next
  // WarmStart after a support-preserving patch (skipping the graph analyses).
  result.zero = std::move(sets.zero);
  result.one = std::move(sets.one);
  return result;
}

SolveResult mdp_until_bracket(const CompiledModel& model, const StateSet& stay,
                              const StateSet& goal, Objective objective,
                              const SolverOptions& options) {
  const auto absorbed = absorb_escape_states(model, stay, goal);
  return mdp_reachability_bracket(absorbed ? *absorbed : model, goal,
                                  objective, options);
}

std::vector<double> mdp_bounded_until(const CompiledModel& model,
                                      const StateSet& stay,
                                      const StateSet& goal, std::size_t bound,
                                      Objective objective,
                                      std::size_t threads,
                                      const Budget* budget) {
  const std::size_t n = model.num_states();
  TML_REQUIRE(stay.size() == n && goal.size() == n,
              "mdp_bounded_until: set size mismatch");
  std::vector<double> values(n, 0.0);
  for (StateId s = 0; s < n; ++s) {
    if (goal[s]) values[s] = 1.0;
  }
  // A state more than k+1 stay-steps from goal reads only zeros in sweep k
  // and would compute exactly 0.0, so the sweeps skip it.
  return fixed_horizon(
      "mdp_bounded_until", std::move(values), bound, threads, budget,
      goal_distance_layers(model, stay, goal, bound),
      [&](StateId s, std::span<const double> prev) {
        return goal[s] ? 1.0 : reach_step(model, s, objective, prev);
      });
}

SolveResult dtmc_until_bracket(const CompiledModel& model, const StateSet& stay,
                               const StateSet& goal,
                               const SolverOptions& options) {
  const auto absorbed = absorb_escape_states(model, stay, goal);
  return dtmc_reachability_bracket(absorbed ? *absorbed : model, goal,
                                   options);
}

std::vector<double> mdp_cumulative_reward(const CompiledModel& model,
                                          std::size_t horizon,
                                          Objective objective,
                                          std::size_t threads,
                                          const Budget* budget) {
  return fixed_horizon(
      "mdp_cumulative_reward", std::vector<double>(model.num_states(), 0.0),
      horizon, threads, budget, every_state(model.num_states()),
      [&](StateId s, std::span<const double> prev) {
        return best_choice(model, s, objective, [&](std::uint32_t c) {
                 return expectation(
                     model, c, prev,
                     model.state_reward(s) + model.choice_reward(c));
               }).value;
      });
}

}  // namespace tml
