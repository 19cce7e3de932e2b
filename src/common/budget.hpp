// Shared resource budgets and cooperative cancellation for every engine.
//
// A `Budget` bounds how much work a call may do along three axes:
//
//  * wall-clock — an *absolute* steady_clock deadline (so one budget can be
//    threaded through a pipeline of stages and they all race the same
//    clock; `deadline_in()` is the convenience for "N ms from now");
//  * deterministic work units — `max_iterations` caps the engine's natural
//    outer unit (VI/interval sweeps, SMC shards, eliminated states, NLP
//    outer rounds, IRL gradient steps) and `max_evaluations` caps finer
//    units where an engine has them (NLP objective/constraint
//    evaluations);
//  * cooperative cancellation — a `CancelToken` shared between the caller
//    (who flips it, e.g. from a SIGINT handler) and every loop holding a
//    copy of the budget.
//
// Engines poll through a `BudgetTracker`: `tick()` once per work unit.
// Iteration/evaluation caps and the cancel flag are checked every tick;
// the clock is only read on the first tick and then once every
// `kClockStride` ticks (stats-instrumented as budget.clock_reads), so an
// already-expired deadline is caught before any work and the steady-state
// cost is one relaxed load + integer compare per unit.
//
// Degradation contract. On exhaustion an engine must do one of exactly two
// things — never return garbage, never hang:
//
//  * rich results (SolveResult, SmcResult, IrlResult, SolveOutcome,
//    TrustedLearnerReport) carry `budget_status = kBudgetExhausted` plus
//    the `BudgetStop` axis that fired, together with the best *sound*
//    partial answer available (certified lo/hi bracket, estimate with the
//    confidence actually earned, best-feasible point so far);
//  * thin entry points that can only return a plain vector throw the typed
//    `BudgetExhausted` error, with the stopped solve's certified `Bracket`
//    when it had one.
//
// Determinism contract (src/common/parallel.hpp). Iteration and evaluation
// caps count deterministic units, so an iteration-capped budget stops at
// the same unit regardless of thread count — results stay bitwise
// reproducible across TML_THREADS. Deadlines and cancellation are honoured
// only at those same checkpoint boundaries: *when* they fire depends on
// wall time, but the set of states a partial result can be in is the same
// deterministic checkpoint sequence.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/common/error.hpp"

namespace tml {

/// Cooperative cancellation flag, shared by value: every copy of a token
/// observes the same flag, so a budget embedded in options structs and
/// copied across threads still sees the caller's `cancel()`.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Requests cancellation; safe to call from a signal handler thread.
  void cancel() const { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }
  void reset() const { flag_->store(false, std::memory_order_relaxed); }

  /// Raw pointer to the shared flag, for async-signal contexts. A store
  /// through this pointer is the only thing a signal handler may do with a
  /// token: cancel() is a shared_ptr dereference plus an atomic store and is
  /// fine, but a handler installed before/after the token's lifetime needs a
  /// stable address it can pre-load. The pointee lives as long as any copy
  /// of the token; the caller keeps a copy alive while the handler is
  /// installed (see tools/tml_check.cpp).
  std::atomic<bool>* raw_flag() const { return flag_.get(); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Which budget axis stopped the work.
enum class BudgetStop : std::uint8_t {
  kNone = 0,       ///< budget never fired
  kDeadline,       ///< wall-clock deadline passed
  kIterationCap,   ///< max_iterations work units consumed
  kEvaluationCap,  ///< max_evaluations fine-grained units consumed
  kCancelled,      ///< CancelToken flipped
};

/// Coarse verdict carried on every rich engine result.
enum class BudgetStatus : std::uint8_t {
  kOk = 0,               ///< ran to its natural end within budget
  kBudgetExhausted = 1,  ///< stopped early; result is a flagged partial
};

const char* to_string(BudgetStop stop);

/// Resource budget for one engine call (or a whole pipeline — the deadline
/// is absolute). Default-constructed budgets are unlimited.
struct Budget {
  using Clock = std::chrono::steady_clock;

  /// Absolute wall-clock deadline; `time_point{}` (the default) means no
  /// deadline.
  Clock::time_point deadline{};
  /// Cap on the engine's outer deterministic work units; 0 = unlimited.
  std::uint64_t max_iterations = 0;
  /// Cap on fine-grained evaluations where the engine has them (NLP
  /// objective/constraint evaluations); 0 = unlimited.
  std::uint64_t max_evaluations = 0;
  /// Cooperative cancellation; shared across copies of this budget.
  CancelToken cancel;

  bool has_deadline() const { return deadline != Clock::time_point{}; }
  bool unlimited() const {
    return !has_deadline() && max_iterations == 0 && max_evaluations == 0;
  }

  /// Sets the deadline to `now + budget_ms` and returns *this (chainable).
  Budget& deadline_in_ms(std::int64_t budget_ms);

  /// Wall-clock time left until the deadline: zero when already past,
  /// Clock::duration::max() when no deadline is set. Honours fault-injected
  /// clock skew like the tracker's deadline checks.
  Clock::duration remaining() const;

  /// An even 1/n share of what is left of this budget, for dividing a
  /// session budget across n units of work (streaming batches): the share's
  /// deadline is `now + remaining()/n` (none if this budget has none) and
  /// each work-unit cap is divided by n (a nonzero cap never drops below 1,
  /// so a capped budget cannot silently become uncapped or unusable). The
  /// cancel token is shared — cancelling the session cancels every share.
  Budget split(std::uint64_t n) const;
};

/// Certified enclosure `lo <= v <= hi` of a checked quantity at one state
/// (the model's initial state), with the sweeps the engine spent on it.
struct Bracket {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t sweeps = 0;
};

/// Thrown by thin entry points (plain-vector returns, parametric
/// elimination) that cannot carry a flagged partial result. `bracket()` is
/// the stopped solve's certified bracket where its engine has one (the
/// checker's top-level unbounded MDP P), else empty.
class BudgetExhausted : public Error {
 public:
  BudgetExhausted(const std::string& what, BudgetStop stop,
                  std::optional<Bracket> bracket = std::nullopt)
      : Error(what), stop_(stop), bracket_(bracket) {}
  BudgetStop stop() const { return stop_; }
  const std::optional<Bracket>& bracket() const { return bracket_; }

 private:
  BudgetStop stop_;
  std::optional<Bracket> bracket_;
};

/// Process-wide default budget, picked up by every options struct whose
/// budget member the caller leaves untouched. tml_check --timeout-ms sets it
/// so even engines reached without an options struct are bounded.
Budget default_budget();
void set_default_budget(const Budget& budget);

/// Per-call polling state over one Budget. Cheap to construct; engines
/// make one per loop (or pass a pointer down through helpers).
class BudgetTracker {
 public:
  /// Clock reads happen on tick 1 and then every kClockStride ticks.
  static constexpr std::uint64_t kClockStride = 16;

  explicit BudgetTracker(const Budget& budget);

  /// Counts `n` outer work units; returns true while within budget. After
  /// the first false, subsequent calls keep returning false (the stop axis
  /// is latched).
  bool tick(std::uint64_t n = 1);

  /// Counts `n` fine-grained evaluations against max_evaluations (also
  /// re-checks cancellation). Returns true while within budget.
  bool tick_evaluations(std::uint64_t n = 1);

  bool ok() const { return stop_ == BudgetStop::kNone; }
  bool exhausted() const { return !ok(); }
  BudgetStop stop() const { return stop_; }
  BudgetStatus status() const {
    return ok() ? BudgetStatus::kOk : BudgetStatus::kBudgetExhausted;
  }
  std::uint64_t iterations() const { return iterations_; }
  std::uint64_t evaluations() const { return evaluations_; }

  /// Throws BudgetExhausted naming `site` if the budget has fired. For
  /// thin entry points with no partial result to salvage.
  void require_ok(const char* site) const;

 private:
  bool clock_or_cancel_fired();
  bool deadline_passed() const;

  Budget budget_;
  std::uint64_t iterations_ = 0;
  std::uint64_t evaluations_ = 0;
  std::uint64_t ticks_to_clock_ = 0;  // 0 => read clock on next tick
  BudgetStop stop_ = BudgetStop::kNone;
};

}  // namespace tml
