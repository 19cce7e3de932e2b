// Dynamic-programming solvers for MDPs: value iteration, policy
// iteration, Q-values, exact policy evaluation — and the one sparse direct
// solver of the library.
//
// Two reward criteria are supported:
//  * discounted infinite-horizon (`discount < 1`), the standard RL setting
//    used by the car case study and by IRL, and
//  * undiscounted expected total reward until absorption in a target set
//    (stochastic shortest path), used by the WSN `R{attempts}` property.
//
// Both value iterations are the shared Bellman step (best_choice over a
// per-choice Q-value) on the shared delta-stopped convergence driver
// (iterate_to_fixpoint), both in src/mdp/bellman.hpp — the driver that
// robust interval-MDP reachability runs on too.
//
// One-choice systems — a DTMC's unbounded P[F]/R[F], a policy's discounted
// value — are solved directly, by one sparse LU: the rows of A = I − γ·P
// over the unknown states come straight from the CSR arrays, are ordered
// by reverse Cuthill–McKee, stored in envelope (profile) form and factored
// without pivoting. Every such A is a nonsingular M-matrix (the unknowns
// are transient, or γ < 1), so every pivot is positive in exact arithmetic;
// a computed pivot that is not positive and finite throws NumericError.
// The cost is O(n·b²) time and O(n·b) memory for envelope width b (about
// C+1 on a C-capacity queue mesh) instead of the dense O(n³) and O(n²).
// Steady-state analysis (src/checker/steady_state) factors its left
// systems x·(I − P') = e the same way and solves them transposed
// (solve_transposed).
//
// The prob0/prob1 precomputation lives in src/mdp/graph (reach_prob01);
// the PCTL-specific machinery (bounded until, until/reachability
// operators) lives in src/checker; this module is the plain
// decision-theoretic layer.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/budget.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/model.hpp"

namespace tml {

/// Optimization direction for MDP solvers.
enum class Objective { kMaximize, kMinimize };

/// Engine for unbounded reachability/until (mdp_reachability and everything
/// layered on it: mdp_until_bracket, the PCTL checker). There is one: sound interval
/// iteration over the SCC condensation, which returns a certified bracket
/// (SolveResult::lo/hi) containing the exact value up to floating-point
/// rounding of the Bellman operator itself (see src/checker/reachability.hpp).
enum class SolveMethod {
  kIntervalTopological,
};

/// Qualitative sets cached from an earlier solve of the SAME graph (same
/// states, same positive-probability support, same target set and
/// objective) whose probabilities were then perturbed in place — exactly
/// what patch_probabilities() certifies. prob0/prob1 are pure graph
/// properties of the positive support, so the reachability engine reuses
/// them and skips the graph analyses. No solver reads a numeric seed: the
/// DTMC solves are direct, and the interval engine starts from the
/// graph-certain 0/1 bounds.
struct WarmStart {
  std::vector<double> values;  ///< inert; removed with perfbench's use
  std::vector<double> lo;      ///< inert; removed with perfbench's use
  std::vector<double> hi;      ///< inert; removed with perfbench's use
  StateSet dirty;              ///< inert; removed with perfbench's use
  double widen = 0.0;          ///< inert; removed with perfbench's use
  /// Cached prob0/prob1 sets from the earlier run (same objective!); both
  /// num_states-sized = reuse, skipping the graph analyses entirely.
  /// Anything else = recompute.
  StateSet zero;
  StateSet one;
};

/// Convergence / iteration-limit knobs shared by the iterative solvers.
struct SolverOptions {
  double tolerance = 1e-10;      ///< sup-norm convergence threshold
  std::size_t max_iterations = 100000;
  bool throw_on_nonconvergence = true;
  /// Worker threads for the per-state sweeps (0 = TML_THREADS / hardware).
  /// Sweeps are Jacobi-style — every state reads the previous iterate —
  /// and the convergence delta is a max-reduction, so values, policies and
  /// iteration counts are bitwise identical for every thread count.
  std::size_t threads = 0;
  /// Engine for unbounded reachability/until (ignored by the discounted
  /// and total-reward solvers). Sound interval iteration is the only one;
  /// the field stays so callers that name the engine keep compiling.
  SolveMethod method = SolveMethod::kIntervalTopological;
  /// Resource budget (wall clock / sweep cap / cancellation). One tick per
  /// sweep (or policy-iteration round). On exhaustion the solver stops at
  /// the sweep boundary and returns its current iterate flagged
  /// `budget_status = kBudgetExhausted` instead of throwing — under the
  /// interval engine the returned lo/hi bracket is still certified sound.
  /// Entry points returning a bare vector (mdp_reachability,
  /// interval_reachability) throw BudgetExhausted instead, and so do the
  /// DTMC direct solves, which tick once per EnvelopeLU::kColumnsPerTick
  /// factored columns.
  Budget budget = default_budget();
  /// Optional cached prob0/prob1 sets for the reachability engine
  /// (non-owning; must outlive the call). nullptr = compute them. See
  /// WarmStart for the caller contract.
  const WarmStart* warm = nullptr;
};

/// Result of a value-iteration style computation.
struct SolveResult {
  std::vector<double> values;  ///< per-state value
  Policy policy;               ///< greedy policy achieving `values`
  std::size_t iterations = 0;
  bool converged = false;
  /// Certified per-state bracket `lo[s] <= v*(s) <= hi[s]`: from the
  /// reachability engine, with `hi - lo < tolerance` on convergence, and
  /// from the DTMC direct solves, with the residual-based width
  /// dtmc_reachability_bracket states. Empty for the discounted and MDP
  /// total-reward solvers.
  std::vector<double> lo;
  std::vector<double> hi;
  /// kBudgetExhausted when the solver stopped at a checkpoint because its
  /// SolverOptions::budget fired; the result is the partial iterate at that
  /// boundary (still a sound bracket for the interval engine).
  BudgetStatus budget_status = BudgetStatus::kOk;
  /// Which budget axis fired (kNone when budget_status is kOk).
  BudgetStop budget_stop = BudgetStop::kNone;
  /// Qualitative prob0/prob1 sets the interval engine pinned (filled by
  /// mdp_reachability_bracket / mdp_until_bracket). A later solve of the
  /// same graph after a support-preserving patch can hand them back as
  /// WarmStart::zero/one to skip the graph analyses; empty otherwise.
  StateSet zero;
  StateSet one;
};

/// For thin entry points that return a bare vector: throws BudgetExhausted,
/// carrying `bracket`, when the solve behind `result` stopped on its budget
/// rather than finishing.
void require_finished(const SolveResult& result, const char* engine,
                      std::optional<Bracket> bracket = std::nullopt);

/// Discounted value iteration: V(s) = opt_a [ r(s) + r(s,a) + γ Σ P V ].
/// `discount` must lie in (0, 1).
SolveResult value_iteration_discounted(const CompiledModel& model,
                                       double discount, Objective objective,
                                       const SolverOptions& options = {});

/// Howard policy iteration for the discounted criterion: exact policy
/// evaluation (linear solve) alternating with greedy improvement.
/// Terminates in finitely many iterations with the exact optimum — used as
/// an oracle against value iteration in tests and faster on models where
/// VI's γ-contraction is slow.
SolveResult policy_iteration_discounted(const CompiledModel& model,
                                        double discount, Objective objective,
                                        const SolverOptions& options = {});

/// Expected total reward accumulated until reaching `targets` (which pin
/// value 0), optimizing in the given direction. States from which targets
/// are not reached with probability 1 under the optimizing behaviour have
/// infinite expected reward; the solver reports +inf for them (using a
/// reachability precomputation). For Rmin, each end component of
/// zero-reward choices is collapsed every sweep to its cheapest normalized
/// exit — value iteration from 0 would stall at 0 inside one — and the
/// returned policy walks to that exit and takes it.
SolveResult total_reward_to_target(const CompiledModel& model,
                                   const StateSet& targets,
                                   Objective objective,
                                   const SolverOptions& options = {});

/// Q-values for the discounted criterion at a given value function:
/// Q(s, c) = r(s) + r(s,c) + γ Σ_t P(t|s,c) V(t).
/// Indexed [state][choice].
std::vector<std::vector<double>> q_values_discounted(
    const CompiledModel& model, std::span<const double> values,
    double discount, std::size_t threads = 0);

/// Exact policy evaluation for the discounted criterion by one sparse
/// direct solve on the policy-selected rows (the induced chain is never
/// materialized — the CSR rows of the chosen choices feed the system
/// directly).
std::vector<double> evaluate_policy_discounted(const CompiledModel& model,
                                               const Policy& policy,
                                               double discount);

/// Probability of eventually reaching `targets` in a DTMC: prob0/prob1
/// graph preprocessing, then one sparse direct solve over the remaining
/// states. `values` is the solution; `lo`/`hi` is its certified per-state
/// bracket. With δ ≥ ‖F(x) − x‖∞ the residual of one Bellman application
/// F, and h the expected number of steps to leave the solved states
/// (a second right-hand side through the same factors), the exact value
/// lies in x ± δ·h. δ carries a rounding term of (d+3)·ε_mach times the
/// magnitudes summed in each row of d entries — twice the standard bound
/// for that sum — and h is itself bounded from its own residual. The
/// factorization ticks `options.budget` once per kColumnsPerTick columns
/// and throws BudgetExhausted when it fires; the other options are unused.
SolveResult dtmc_reachability_bracket(const CompiledModel& model,
                                      const StateSet& targets,
                                      const SolverOptions& options = {});

/// P[ stay U goal ] on a DTMC with the bracket and budget of
/// dtmc_reachability_bracket. The escape states (¬stay ∧ ¬goal) are pinned
/// to 0 by the graph pass (dtmc_until_prob01) and read as fixed successors,
/// so the model is solved in place and its cached predecessor lists are
/// reused: no absorbing copy is built.
SolveResult dtmc_until_bracket(const CompiledModel& model, const StateSet& stay,
                               const StateSet& goal,
                               const SolverOptions& options = {});

/// Expected total reward (state plus choice reward per step) of a DTMC
/// until reaching `targets` (value 0 there), by one sparse direct solve
/// with the certified bracket and budget of dtmc_reachability_bracket.
/// States that reach the target with probability < 1 get +inf.
SolveResult dtmc_total_reward_bracket(const CompiledModel& model,
                                      const StateSet& targets,
                                      const SolverOptions& options = {});

/// `dtmc_reachability_bracket(model, targets).values`.
std::vector<double> dtmc_reachability(const CompiledModel& model,
                                      const StateSet& targets);

/// `dtmc_total_reward_bracket(model, targets).values`.
std::vector<double> dtmc_total_reward(const CompiledModel& model,
                                      const StateSet& targets);

// ---------------------------------------------------------------------------
// The sparse direct solver behind the one-choice solves.

/// Square sparse matrix in compressed rows: row i holds the entries
/// (col[k], value[k]) for k in [row_start[i], row_start[i + 1]). Repeated
/// (i, j) entries add up.
struct SparseMatrix {
  std::vector<std::uint32_t> row_start{0};
  std::vector<std::uint32_t> col;
  std::vector<double> value;

  std::size_t size() const { return row_start.size() - 1; }
  /// Appends entry (j, v) to the row being built.
  void add(std::uint32_t j, double v) {
    col.push_back(j);
    value.push_back(v);
  }
  /// Closes the row being built; the next add() starts the next row.
  void end_row() {
    row_start.push_back(static_cast<std::uint32_t>(col.size()));
  }
};

/// Reverse Cuthill–McKee order of the symmetrised pattern of `a`:
/// order[k] is the row placed k-th. Each connected component is laid out
/// breadth-first from a pseudo-peripheral row (George–Liu), neighbours in
/// increasing degree, ties by index, so the order is deterministic.
std::vector<std::uint32_t> rcm_order(const SparseMatrix& a);

/// LU factorization A = L·U of a matrix under rcm_order, without
/// pivoting, in envelope form: row k of L and column k of U are stored
/// from the first column/row of k's symmetrised envelope up to k, and fill
/// never leaves the envelope. For the M-matrices the one-choice solves
/// build, every pivot is positive; any pivot that is not positive and
/// finite (or the armed fault site `solver.pivot`) throws NumericError.
class EnvelopeLU {
 public:
  /// Columns factored per tick of the budget.
  static constexpr std::size_t kColumnsPerTick = 16;

  /// Factors `a`; ticks `budget` once per kColumnsPerTick columns and
  /// throws BudgetExhausted when it fires.
  explicit EnvelopeLU(const SparseMatrix& a,
                      const Budget& budget = default_budget());

  /// Solves A x = b through the stored factors.
  std::vector<double> solve(std::span<const double> b) const;

  /// Solves Aᵀ x = b through the same factors (Aᵀ = Uᵀ·Lᵀ).
  std::vector<double> solve_transposed(std::span<const double> b) const;

  std::size_t size() const { return diag_.size(); }

 private:
  std::vector<std::uint32_t> order_;  // position k → row of A
  std::vector<std::uint32_t> first_;  // first position of k's envelope
  std::vector<std::size_t> offset_;   // start of position k's strip
  std::vector<double> lower_;         // L(k, first_[k] .. k−1); unit diagonal
  std::vector<double> upper_;         // U(first_[k] .. k−1, k)
  std::vector<double> diag_;          // U(k, k)
};

}  // namespace tml
