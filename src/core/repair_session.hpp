// Streaming repair sessions: learn → certify → repair, one batch at a time.
//
// A RepairSession keeps a PCTL safety property φ certified over a chain
// that is re-learned as trajectory batches arrive (the streaming version of
// the paper's learn-then-repair loop, §II/§IV-A). Each feed(batch):
//
//   1. folds the batch into a persistent count table (IncrementalMle — each
//      batch costs O(batch), not O(history)) and re-estimates the chain;
//   2. delta-patches the cached compiled model in place
//      (patch_probabilities): Laplace smoothing keeps the support stable,
//      so almost every batch is a probability rewrite, not a recompile;
//   3. re-certifies φ with the engine check() uses for DTMC P[U]:
//      dtmc_until_bracket, one sparse LU with its certified x ± δ·h
//      bracket (src/mdp/solver.hpp);
//   4. only if the certified verdict is "violated", runs Model Repair,
//      warm-starting the NLP from the previous batch's repaired point, and
//      re-certifies the repaired chain the same way.
//
// Every step shares one session Budget: each batch runs under an even
// split of what remains (Budget::split), so a slow batch degrades
// gracefully instead of starving the rest of the stream. A certification
// the budget stops records kBudgetExhausted with the sound bracket [0, 1],
// which counts as violated.
//
// Scope: DTMC structures and unbounded probabilistic properties
// P⋈b[F φ_t] / P⋈b[φ_1 U φ_2] with label-defined operand sets — the same
// fragment Model Repair solves in closed form, which is what makes the
// repair step well-defined.

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/budget.hpp"
#include "src/core/model_repair.hpp"
#include "src/core/session_journal.hpp"
#include "src/learn/mle.hpp"
#include "src/logic/pctl.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/trajectory.hpp"

namespace tml {

struct RepairSessionConfig {
  /// Laplace pseudocount for the streaming MLE. Must be positive: zero
  /// smoothing lets unobserved structural transitions estimate to 0, which
  /// changes the support and forfeits the delta patch (see
  /// IncrementalMle).
  double pseudocount = 1.0;
  /// Builds the feasible repair class Feas_MP on the current learned chain
  /// (same role as in mdp_model_repair). Required if repairs may run; a
  /// session without it only certifies and reports violations.
  std::function<PerturbationScheme(const Dtmc&)> scheme_for;
  /// NLP / parametric configuration for the repair step. The per-batch
  /// budget overrides `repair.solver.budget` and the elimination budget.
  ModelRepairConfig repair;
  double tolerance = 1e-6;   ///< inert; removed with perfbench's use
  double widen_scale = 4.0;  ///< inert; removed with perfbench's use
  /// Session-wide resource budget. Each feed() runs under
  /// `budget.split(remaining batches)` (see expected_batches); the deadline
  /// is absolute and the cancel token is shared, so cancelling the session
  /// stops the current batch too.
  Budget budget = default_budget();
  /// Expected number of batches, used to split the session budget evenly.
  /// 0 = unknown: each batch may use everything that remains.
  std::size_t expected_batches = 0;
  std::size_t threads = 0;  ///< inert; removed with perfbench's use
  /// Durable write-ahead journal path (src/core/session_journal.hpp).
  /// Empty = volatile session. When set, every feed() appends the batch to
  /// the journal (fsync'd) BEFORE processing it, and every
  /// `checkpoint_every` batches appends a full-state checkpoint, so a
  /// killed process can RepairSession::resume() and replay to a
  /// byte-identical SessionReport.
  std::string journal_path;
  /// fsync every journal record (durable against power loss, not just
  /// process death). Tests that only need kill-resume determinism can turn
  /// it off for speed.
  bool journal_fsync = true;
  /// Checkpoint cadence in batches; 0 = never checkpoint (resume then
  /// replays every journaled batch from scratch).
  std::size_t checkpoint_every = 8;
};

/// Outcome of one feed() call.
struct BatchOutcome {
  std::size_t index = 0;         ///< 0-based batch number
  std::size_t trajectories = 0;  ///< trajectories in this batch
  /// Delta-compile result for the learning step: true = in-place patch,
  /// false = first batch or a structural change forced a full recompile.
  bool patched = false;
  std::size_t dirty_states = 0;  ///< states whose distribution changed
  double max_abs_delta = 0.0;    ///< largest per-transition |Δp|
  /// Certified bracket of the property value at the initial state for the
  /// batch's FINAL chain (post-repair when a repair ran).
  double lo = 0.0;
  double hi = 0.0;
  /// Certified verdict of the LEARNED chain (pre-repair). `violated` is
  /// conservative: true also when the bracket straddles the bound (as the
  /// [0, 1] of a budget-stopped certification always does).
  bool violated = false;
  bool repaired = false;          ///< a repair step ran
  bool repair_feasible = false;   ///< ...and produced a satisfying chain
  double repair_cost = 0.0;       ///< g(Z) at the repaired point
  double epsilon_bisimilarity = 0.0;  ///< Prop. 1 bound of the repair
  std::size_t sweeps = 0;  ///< inert; removed with perfbench's use
  BudgetStatus budget_status = BudgetStatus::kOk;
  BudgetStop budget_stop = BudgetStop::kNone;
};

struct SessionReport {
  std::vector<BatchOutcome> batches;
  std::size_t repairs = 0;        ///< batches that triggered a repair
  std::size_t patch_hits = 0;     ///< batches absorbed by the delta patch
  /// φ certified on the session's final chain (last batch's verdict).
  bool final_satisfied = false;
};

class RepairSession {
 public:
  /// `structure` fixes the states, the support, and the labels; `property`
  /// must be an unbounded P⋈b[F/U] formula over the structure's labels
  /// (throws ModelError otherwise).
  RepairSession(Dtmc structure, StateFormulaPtr property,
                RepairSessionConfig config);

  /// Reopens a journaled session after a crash. `config.journal_path` must
  /// name the journal of a previous session run with the SAME structure,
  /// property and config (the caller's contract; shape mismatches against
  /// the structure are caught, semantic drift is not). Restores the latest
  /// checkpoint, deterministically re-feeds the batches journaled after
  /// it, and reopens the journal for appending, so the resumed session's
  /// encode_session_report(report()) is byte-identical to an uninterrupted
  /// run's (modulo wall-clock budget deadlines — use unlimited or
  /// iteration-capped budgets for bitwise replay). A torn/corrupt tail
  /// record — the append a crash interrupted — is dropped with a warning
  /// (journal_warning()); its batch was never processed, so the caller
  /// re-feeds it from the source (see fed_batches()).
  static RepairSession resume(Dtmc structure, StateFormulaPtr property,
                              RepairSessionConfig config);

  /// Processes one batch (learn → certify → repair if violated) and returns
  /// its outcome (also appended to report()). Journaled sessions append
  /// the batch record before any processing (write-ahead).
  const BatchOutcome& feed(const TrajectoryDataset& batch);

  const SessionReport& report() const { return report_; }
  /// The session's current chain: the last learned estimate, with the last
  /// repair applied when one ran.
  const Dtmc& current() const { return current_; }
  const IncrementalMle& learner() const { return mle_; }

  /// Batches fed so far (== report().batches.size()). After resume(), the
  /// count recovered from the journal: callers streaming from a source
  /// skip this many leading batches and feed the rest.
  std::size_t fed_batches() const { return report_.batches.size(); }
  /// Batches recovered by resume() (0 for a fresh session).
  std::size_t resumed_batches() const { return resumed_batches_; }
  /// True when resume() dropped a torn/corrupt journal tail.
  bool journal_tail_dropped() const { return journal_tail_dropped_; }
  /// What resume() dropped, human-readable (empty when the tail was clean).
  const std::string& journal_warning() const { return journal_warning_; }

 private:
  /// Per-batch budget share (even split of what remains of the session
  /// budget over the batches still expected).
  Budget batch_budget() const;
  /// Patches the cached compiled model to `chain` (recompiling when the
  /// patch cannot apply) and returns the certified bracket of φ's
  /// probability at the initial state; a budget stop records itself in
  /// `outcome` and returns [0, 1].
  Bracket certify(const Dtmc& chain, const Budget& budget,
                  BatchOutcome& outcome, bool record_patch);
  /// Appends a kCheckpoint record when the cadence is due.
  void maybe_checkpoint();
  /// Full-state snapshot: MLE counts, current chain rows, report, last
  /// repair point. Bitwise round trip.
  std::string encode_checkpoint() const;
  void restore_checkpoint(const std::string& payload);

  Dtmc structure_;
  StateFormulaPtr property_;
  RepairSessionConfig config_;
  IncrementalMle mle_;
  Dtmc current_;

  // Property decomposition (fixed for the session: labels never change).
  StateSet goal_;
  StateSet stay_;  ///< all-true for F properties

  // Cached compiled form of the current chain, patched in place.
  std::optional<CompiledModel> compiled_;

  std::optional<std::vector<double>> last_repair_point_;
  SessionReport report_;

  // Durable-session state (null/false for volatile sessions).
  std::unique_ptr<SessionJournal> journal_;
  bool replaying_ = false;  ///< resume() re-feed in progress: no journaling
  std::size_t resumed_batches_ = 0;
  bool journal_tail_dropped_ = false;
  std::string journal_warning_;
};

/// Bitwise-stable binary encoding of a SessionReport: two runs produced
/// the identical report iff the encodings compare equal byte-for-byte
/// (doubles are raw IEEE-754 bit patterns). The comparison key of the
/// crash-replay tests, and the report codec inside journal checkpoints.
std::string encode_session_report(const SessionReport& report);
SessionReport decode_session_report(const std::string& payload);

/// Journal payload codec for trajectory batches (kBatch records).
/// decode(encode(b)) reproduces the dataset exactly, weights included.
std::string encode_batch(const TrajectoryDataset& batch);
TrajectoryDataset decode_batch(const std::string& payload);

}  // namespace tml
