// Statistical model checking (SMC) for DTMCs.
//
// A simulation-based alternative to the exact engines: the probability of
// a path formula is estimated by Monte-Carlo sampling with a
// Chernoff–Hoeffding guarantee — after
//
//     n >= ln(2/δ) / (2 ε²)
//
// samples, the estimate p̂ satisfies P(|p̂ − p| > ε) < δ. Bounded
// operators are decided exactly per sample. Unbounded F/U/G walk until the
// path is *decided*: reaching the goal (or violating the stay region)
// decides immediately, and a graph precomputation (the reach_prob01 zero
// set on the relevant submodel) decides paths that enter a region from which the
// outcome is certain — the trap states that used to burn the whole
// `max_steps` budget. A path still undecided at `max_steps` is counted in
// `SmcResult::truncated`; when the truncation rate exceeds
// `SmcOptions::max_truncation_rate` (default 0: none tolerated),
// `smc_check` throws NumericError instead of silently reporting an
// estimate biased low. Tolerated truncation widens the reported interval:
// the true satisfaction probability of a truncated path is unknown, so
// `epsilon` grows by the truncation rate (estimate ∈ [hits/n,
// (hits+truncated)/n] before sampling error).
//
// SMC serves two roles here: an independent oracle for the exact checkers
// in the test suite, and the only practical engine when state spaces
// outgrow the linear-algebra engines — the scalability note of the
// paper's future work.

#pragma once

#include "src/checker/results.hpp"
#include "src/common/budget.hpp"
#include "src/common/rng.hpp"
#include "src/logic/pctl.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/model.hpp"

namespace tml {

struct SmcOptions {
  double epsilon = 0.01;        ///< absolute error bound
  double delta = 0.02;          ///< failure probability of the bound
  std::size_t max_steps = 5000; ///< truncation horizon for unbounded paths
  /// Largest tolerated fraction of sample paths still undecided at
  /// `max_steps`. Above it `smc_check` throws NumericError (the estimate
  /// would be silently biased); below it the truncated count is reported
  /// and the guarantee interval widened accordingly.
  double max_truncation_rate = 0.0;
  std::uint64_t seed = 1;
  /// Worker threads for the sample loop (0 = TML_THREADS / hardware). The
  /// budget is sharded into `shard_size` blocks, each with an independent
  /// Rng stream split off `seed`, so the result is bitwise identical for
  /// every thread count (threads = 1 runs the same shards serially).
  std::size_t threads = 0;
  std::size_t shard_size = 1024;  ///< samples per RNG shard (thread-agnostic)
  /// Resource budget. Polled once per shard at fixed batch boundaries
  /// (independent of thread count), so an iteration cap of k runs exactly
  /// the first k shards — bitwise reproducible across TML_THREADS. On
  /// exhaustion smc_check returns the estimate over the samples actually
  /// drawn with `epsilon` recomputed to the guarantee those samples earn
  /// (1.0 when nothing was drawn), flagged kBudgetExhausted.
  Budget budget = default_budget();
};

struct SmcResult {
  double estimate = 0.0;     ///< p̂ (always over the full budget)
  std::size_t samples = 0;   ///< n drawn
  double epsilon = 0.0;      ///< guarantee half-width
  double confidence = 0.0;   ///< 1 − δ
  /// For bounded operators (P⋈b): verdict by comparing p̂ against the
  /// bound. `decisive` is true when the verdict separated from b by more
  /// than ε — detected as soon as no outcome of the remaining budget could
  /// keep the final estimate within ε of b, not only by the comparison at
  /// the end. `decided_after` records how many samples (a whole number of
  /// shards) had been consumed when the verdict became certain (0 when it
  /// never did; p̂ itself is still reported over the full budget).
  bool satisfied = false;
  bool decisive = false;
  std::size_t decided_after = 0;
  /// Sample paths still undecided when the `max_steps` horizon hit (merged
  /// per shard in shard order — deterministic across thread counts). Only
  /// non-zero when `max_truncation_rate` tolerated them; `epsilon` already
  /// includes the widening `truncated / samples`.
  std::size_t truncated = 0;
  /// kBudgetExhausted when the sample budget stopped at a shard boundary
  /// before the full Chernoff sample size; `samples`/`epsilon` then report
  /// the confidence actually earned and `decisive` stays false unless the
  /// partial prefix already separated from the bound.
  BudgetStatus budget_status = BudgetStatus::kOk;
  BudgetStop budget_stop = BudgetStop::kNone;
};

/// Per-sample verdict of one simulated trajectory.
enum class PathSample {
  kSatisfied,  ///< the path provably satisfies the formula
  kViolated,   ///< the path provably violates the formula
  kUndecided,  ///< truncated at max_steps with the outcome still open
};

/// Required sample size for the (ε, δ) guarantee.
std::size_t chernoff_sample_size(double epsilon, double delta);

/// Evaluates one sampled trajectory against a path formula (exposed for
/// tests). Unbounded operators walk up to `max_steps` and report
/// kUndecided when the horizon hits first. The compiled model must be
/// deterministic; successors are drawn straight from the CSR probability
/// spans (no per-step weight vector is built). `certain_no` / `certain_yes`
/// optionally name states where the outcome is already graph-certain
/// (cannot reach the goal / cannot violate the invariant): entering one
/// decides the path without walking further.
PathSample sample_path_outcome(const CompiledModel& model,
                               const PathFormula& path,
                               const StateSet& left_sat,
                               const StateSet& right_sat,
                               std::size_t max_steps, Rng& rng,
                               const StateSet* certain_no = nullptr,
                               const StateSet* certain_yes = nullptr);

/// Estimates the probability of the path formula of `formula` (which must
/// be a kProb or kProbQuery node) from the chain's initial state. The model
/// is compiled once; every sample walks the flat CSR arrays.
SmcResult smc_check(const CompiledModel& model, const StateFormula& formula,
                    const SmcOptions& options = {});
SmcResult smc_check(const Dtmc& chain, const StateFormula& formula,
                    const SmcOptions& options = {});

}  // namespace tml
