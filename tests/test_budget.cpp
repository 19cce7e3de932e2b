// Tests for the shared resource-budget / cancellation layer and its
// degradation contract: every budgeted engine either finishes, returns a
// flagged partial that is still sound, or throws the typed BudgetExhausted
// error — and iteration-capped runs are bitwise identical across thread
// counts.

#include "src/common/budget.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/checker/interval.hpp"
#include "src/checker/reachability.hpp"
#include "src/common/fault.hpp"
#include "src/checker/smc.hpp"
#include "src/core/trusted_learner.hpp"
#include "src/irl/max_ent_irl.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/solver.hpp"
#include "src/opt/kkt.hpp"
#include "src/opt/solvers.hpp"
#include "src/parametric/parametric_dtmc.hpp"
#include "src/parametric/state_elimination.hpp"

namespace tml {
namespace {

class BudgetTest : public ::testing::Test {
 protected:
  // CI's fault job runs this suite with TML_FAULT armed from the
  // environment; budget semantics are asserted exactly, so shed any
  // env-armed fault first (the fault battery itself lives in
  // test_fault.cpp).
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { set_default_budget(Budget{}); }
};

Budget iteration_cap(std::uint64_t n) {
  Budget b;
  b.max_iterations = n;
  return b;
}

Budget expired_deadline() {
  Budget b;
  b.deadline = Budget::Clock::now() - std::chrono::seconds(1);
  return b;
}

// ---------------------------------------------------------------------------
// BudgetTracker mechanics.

TEST_F(BudgetTest, UnlimitedBudgetNeverFires) {
  BudgetTracker tracker(Budget{});
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(tracker.tick());
  EXPECT_TRUE(tracker.ok());
  EXPECT_EQ(tracker.stop(), BudgetStop::kNone);
  EXPECT_EQ(tracker.status(), BudgetStatus::kOk);
}

TEST_F(BudgetTest, IterationCapRunsExactlyCapUnits) {
  BudgetTracker tracker(iteration_cap(3));
  EXPECT_TRUE(tracker.tick());
  EXPECT_TRUE(tracker.tick());
  EXPECT_TRUE(tracker.tick());
  EXPECT_FALSE(tracker.tick());  // the 4th unit must not run
  EXPECT_EQ(tracker.stop(), BudgetStop::kIterationCap);
  EXPECT_EQ(tracker.iterations(), 3u);  // clamped to the cap
  // The stop is latched: once exhausted, always exhausted.
  EXPECT_FALSE(tracker.tick());
  EXPECT_EQ(tracker.status(), BudgetStatus::kBudgetExhausted);
}

TEST_F(BudgetTest, EvaluationCapFiresIndependently) {
  Budget b;
  b.max_evaluations = 2;
  BudgetTracker tracker(b);
  EXPECT_TRUE(tracker.tick());  // iterations are unlimited
  EXPECT_TRUE(tracker.tick_evaluations());
  EXPECT_TRUE(tracker.tick_evaluations());
  EXPECT_FALSE(tracker.tick_evaluations());
  EXPECT_EQ(tracker.stop(), BudgetStop::kEvaluationCap);
}

TEST_F(BudgetTest, ExpiredDeadlineCaughtBeforeAnyWork) {
  // The clock is read on the FIRST tick, so an already-passed deadline
  // stops the loop before a single unit of work runs.
  BudgetTracker tracker(expired_deadline());
  EXPECT_FALSE(tracker.tick());
  EXPECT_EQ(tracker.stop(), BudgetStop::kDeadline);
}

TEST_F(BudgetTest, CancelTokenCheckedEveryTick) {
  Budget b;
  BudgetTracker tracker(b);
  EXPECT_TRUE(tracker.tick());
  b.cancel.cancel();  // copies share the flag
  EXPECT_FALSE(tracker.tick());
  EXPECT_EQ(tracker.stop(), BudgetStop::kCancelled);
}

TEST_F(BudgetTest, RawFlagAliasesTheSharedToken) {
  // The async-signal path (tools/tml_check.cpp) pre-loads raw_flag() and
  // stores through it from the handler; every copy of the token must
  // observe that store.
  CancelToken token;
  const CancelToken copy = token;
  std::atomic<bool>* flag = token.raw_flag();
  ASSERT_NE(flag, nullptr);
  EXPECT_EQ(flag, copy.raw_flag());
  flag->store(true, std::memory_order_relaxed);
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(copy.cancelled());
  token.reset();
  EXPECT_FALSE(flag->load(std::memory_order_relaxed));
}

// ---------------------------------------------------------------------------
// Budget::split edge cases.

TEST_F(BudgetTest, SplitZeroSharesThrows) {
  EXPECT_THROW(Budget{}.split(0), Error);
}

TEST_F(BudgetTest, SplitOneKeepsCapsAndDeadlineWindow) {
  Budget b = iteration_cap(10);
  b.max_evaluations = 20;
  b.deadline_in_ms(60'000);
  const Budget share = b.split(1);
  EXPECT_EQ(share.max_iterations, 10u);
  EXPECT_EQ(share.max_evaluations, 20u);
  ASSERT_TRUE(share.has_deadline());
  // remaining()/1 re-anchors at now, so the share's deadline can only move
  // earlier (never extends the session budget).
  EXPECT_LE(share.deadline, b.deadline);
  EXPECT_GT(share.remaining(), Budget::Clock::duration::zero());
}

TEST_F(BudgetTest, SplitOfUnlimitedBudgetStaysUnlimited) {
  const Budget share = Budget{}.split(8);
  EXPECT_TRUE(share.unlimited());
  EXPECT_FALSE(share.has_deadline());
}

TEST_F(BudgetTest, SplitExpiredDeadlineSharesStayExpired) {
  const Budget share = expired_deadline().split(4);
  ASSERT_TRUE(share.has_deadline());
  EXPECT_EQ(share.remaining(), Budget::Clock::duration::zero());
  BudgetTracker tracker(share);
  EXPECT_FALSE(tracker.tick());
  EXPECT_EQ(tracker.stop(), BudgetStop::kDeadline);
}

TEST_F(BudgetTest, SplitCapsNeverDropBelowOne) {
  Budget b = iteration_cap(3);
  b.max_evaluations = 2;
  const Budget share = b.split(10);
  // A capped budget must not silently become uncapped (0) or unusable.
  EXPECT_EQ(share.max_iterations, 1u);
  EXPECT_EQ(share.max_evaluations, 1u);
}

TEST_F(BudgetTest, SplitSharesCancelToken) {
  Budget session = iteration_cap(100);
  const Budget share_a = session.split(2);
  const Budget share_b = session.split(2);
  session.cancel.cancel();
  BudgetTracker a(share_a);
  BudgetTracker b(share_b);
  EXPECT_FALSE(a.tick());
  EXPECT_FALSE(b.tick());
  EXPECT_EQ(a.stop(), BudgetStop::kCancelled);
  EXPECT_EQ(b.stop(), BudgetStop::kCancelled);
}

TEST_F(BudgetTest, RequireOkThrowsTypedError) {
  BudgetTracker tracker(iteration_cap(1));
  EXPECT_TRUE(tracker.tick());
  EXPECT_FALSE(tracker.tick());
  try {
    tracker.require_ok("test-site");
    FAIL() << "require_ok did not throw";
  } catch (const BudgetExhausted& e) {
    EXPECT_EQ(e.stop(), BudgetStop::kIterationCap);
    EXPECT_NE(std::string(e.what()).find("test-site"), std::string::npos);
  }
}

TEST_F(BudgetTest, DefaultBudgetPickup) {
  Budget b = iteration_cap(7);
  set_default_budget(b);
  // Freshly default-constructed options pick it up.
  SolverOptions options;
  EXPECT_EQ(options.budget.max_iterations, 7u);
  set_default_budget(Budget{});
  SolverOptions fresh;
  EXPECT_EQ(fresh.budget.max_iterations, 0u);
  EXPECT_TRUE(fresh.budget.unlimited());
}

// ---------------------------------------------------------------------------
// Slowly-mixing fixture: a gambler's-ruin walk whose spectral gap makes
// value iteration take hundreds of sweeps — room for a budget to fire
// mid-solve. Exact value at the start: (i+1)/(m+1) for 0-based position i.

constexpr std::size_t kWalk = 120;
constexpr StateId kFail = 0;
constexpr StateId kGoal = 1;

Mdp slow_walk() {
  Mdp mdp(2 + kWalk);
  mdp.add_choice(kFail, "loop", {Transition{kFail, 1.0}});
  mdp.add_choice(kGoal, "loop", {Transition{kGoal, 1.0}});
  mdp.add_label(kGoal, "goal");
  for (std::size_t pos = 0; pos < kWalk; ++pos) {
    const StateId s = static_cast<StateId>(2 + pos);
    const StateId down = pos == 0 ? kFail : static_cast<StateId>(s - 1);
    const StateId up =
        pos == kWalk - 1 ? kGoal : static_cast<StateId>(s + 1);
    mdp.add_choice(s, "step", {Transition{down, 0.5}, Transition{up, 0.5}});
  }
  return mdp;
}

StateSet goal_targets(const CompiledModel& model) {
  StateSet targets(model.num_states());
  targets.set(kGoal);
  return targets;
}

TEST_F(BudgetTest, IntervalEngineReturnsSoundFlaggedBracket) {
  const CompiledModel model = compile(slow_walk());
  const StateSet targets = goal_targets(model);
  const StateId start = static_cast<StateId>(2 + kWalk / 2);
  const double exact =
      static_cast<double>(kWalk / 2 + 1) / static_cast<double>(kWalk + 1);

  SolverOptions options;
  options.budget = iteration_cap(10);  // far too few sweeps to converge
  const SolveResult partial = mdp_reachability_bracket(
      model, targets, Objective::kMaximize, options);
  EXPECT_EQ(partial.budget_status, BudgetStatus::kBudgetExhausted);
  EXPECT_EQ(partial.budget_stop, BudgetStop::kIterationCap);
  EXPECT_FALSE(partial.converged);
  // The partial bracket must still contain the exact value — budget
  // truncation widens the bracket, it never invalidates it.
  EXPECT_LE(partial.lo[start], exact);
  EXPECT_GE(partial.hi[start], exact);
  EXPECT_GT(partial.hi[start] - partial.lo[start], 1e-6);

  // Without the cap the same call converges, unflagged.
  SolverOptions full;
  const SolveResult converged = mdp_reachability_bracket(
      model, targets, Objective::kMaximize, full);
  EXPECT_EQ(converged.budget_status, BudgetStatus::kOk);
  EXPECT_TRUE(converged.converged);
  EXPECT_NEAR(converged.values[start], exact, 1e-6);
}

TEST_F(BudgetTest, ThinEntryPointThrowsTyped) {
  const CompiledModel model = compile(slow_walk());
  const StateSet targets = goal_targets(model);
  SolverOptions options;
  options.budget = iteration_cap(5);
  try {
    (void)mdp_reachability(model, targets, Objective::kMaximize, options);
    FAIL() << "budgeted mdp_reachability did not throw";
  } catch (const BudgetExhausted& e) {
    EXPECT_EQ(e.stop(), BudgetStop::kIterationCap);
  }
}

TEST_F(BudgetTest, IterationCapBitwiseDeterministicAcrossThreads) {
  const CompiledModel model = compile(slow_walk());
  const StateSet targets = goal_targets(model);
  SolverOptions one;
  one.budget = iteration_cap(17);
  one.threads = 1;
  SolverOptions four = one;
  four.budget = iteration_cap(17);
  four.threads = 4;
  const SolveResult a = mdp_reachability_bracket(
      model, targets, Objective::kMaximize, one);
  const SolveResult b = mdp_reachability_bracket(
      model, targets, Objective::kMaximize, four);
  ASSERT_EQ(a.lo.size(), b.lo.size());
  for (std::size_t s = 0; s < a.lo.size(); ++s) {
    EXPECT_EQ(a.lo[s], b.lo[s]) << "lo diverged at state " << s;
    EXPECT_EQ(a.hi[s], b.hi[s]) << "hi diverged at state " << s;
  }
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.budget_stop, b.budget_stop);
}

TEST_F(BudgetTest, DiscountedSolverFlagsPartial) {
  // Rewards make the discounted fixpoint nonzero, so VI needs ~ln(tol)/ln(γ)
  // sweeps and the 3-sweep cap genuinely truncates it.
  Mdp rewarded = slow_walk();
  for (StateId s = 0; s < rewarded.num_states(); ++s) {
    rewarded.set_state_reward(s, 1.0);
  }
  const CompiledModel model = compile(rewarded);
  SolverOptions options;
  options.budget = iteration_cap(3);
  options.throw_on_nonconvergence = true;  // must NOT throw: budget, not
                                           // divergence, stopped it
  const SolveResult result = value_iteration_discounted(
      model, 0.99, Objective::kMaximize, options);
  EXPECT_EQ(result.budget_status, BudgetStatus::kBudgetExhausted);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 3u);
  EXPECT_EQ(result.values.size(), model.num_states());
}

TEST_F(BudgetTest, RobustReachabilityThrowsTypedOnIterationCap) {
  const IntervalMdp widened = IntervalMdp::widen(slow_walk(), 0.01);
  const StateSet targets = goal_targets(widened.nominal());
  SolverOptions options;
  options.budget = iteration_cap(3);  // the walk needs hundreds of sweeps
  try {
    (void)interval_reachability(widened, targets, Objective::kMaximize,
                                Nature::kAdversarial, options);
    FAIL() << "iteration-capped interval_reachability did not throw";
  } catch (const BudgetExhausted& e) {
    EXPECT_EQ(e.stop(), BudgetStop::kIterationCap);
  }
}

TEST_F(BudgetTest, RobustReachabilityThrowsTypedOnCancel) {
  const IntervalMdp widened = IntervalMdp::widen(slow_walk(), 0.01);
  const StateSet targets = goal_targets(widened.nominal());
  SolverOptions options;
  options.budget = Budget{};  // own token, not the process default's
  options.budget.cancel.cancel();
  try {
    (void)interval_reachability(widened, targets, Objective::kMaximize,
                                Nature::kCooperative, options);
    FAIL() << "cancelled interval_reachability did not throw";
  } catch (const BudgetExhausted& e) {
    EXPECT_EQ(e.stop(), BudgetStop::kCancelled);
  }
}

TEST_F(BudgetTest, BoundedUntilThrowsOnExpiredDeadline) {
  const CompiledModel model = compile(slow_walk());
  StateSet stay(model.num_states(), true);
  const StateSet goal = goal_targets(model);
  const Budget expired = expired_deadline();
  EXPECT_THROW((void)mdp_bounded_until(model, stay, goal, 50,
                                       Objective::kMaximize, 0, &expired),
               BudgetExhausted);
}

// ---------------------------------------------------------------------------
// SMC: budget-truncated runs report the confidence actually earned and the
// shard prefix is deterministic across thread counts.

Dtmc split_chain(double p_goal) {
  Dtmc chain(3);
  chain.set_transitions(0,
                        {Transition{1, p_goal}, Transition{2, 1.0 - p_goal}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  chain.add_label(1, "goal");
  return chain;
}

TEST_F(BudgetTest, SmcPartialReportsHonestConfidence) {
  const Dtmc chain = split_chain(0.3);
  const StateFormulaPtr query = parse_pctl("P=? [ F \"goal\" ]");
  SmcOptions options;
  options.epsilon = 0.01;
  options.delta = 0.01;
  options.shard_size = 256;
  options.budget = iteration_cap(4);  // 4 shards = 1024 of ~26k samples
  const SmcResult result = smc_check(chain, *query, options);
  EXPECT_EQ(result.budget_status, BudgetStatus::kBudgetExhausted);
  EXPECT_EQ(result.samples, 4u * 256u);
  // The reported interval is recomputed from the achieved sample count —
  // much wider than requested, and still a valid Chernoff bound, so the
  // true value 0.3 lies inside it.
  EXPECT_GT(result.epsilon, options.epsilon);
  EXPECT_NEAR(result.estimate, 0.3, result.epsilon);
}

TEST_F(BudgetTest, SmcZeroBudgetIsFullyUndecided) {
  const Dtmc chain = split_chain(0.3);
  SmcOptions options;
  options.budget = iteration_cap(0);
  options.budget.cancel.cancel();  // fires on the first shard tick
  const SmcResult result = smc_check(chain, *parse_pctl("P=? [ F \"goal\" ]"),
                                     options);
  EXPECT_EQ(result.budget_status, BudgetStatus::kBudgetExhausted);
  EXPECT_EQ(result.samples, 0u);
  EXPECT_EQ(result.epsilon, 1.0);  // no samples, no guarantee
}

TEST_F(BudgetTest, SmcBudgetPrefixDeterministicAcrossThreads) {
  const Dtmc chain = split_chain(0.42);
  const StateFormulaPtr query = parse_pctl("P=? [ F \"goal\" ]");
  SmcOptions one;
  one.epsilon = 0.01;
  one.delta = 0.01;
  one.shard_size = 128;
  one.budget = iteration_cap(9);
  one.threads = 1;
  SmcOptions four = one;
  four.budget = iteration_cap(9);
  four.threads = 4;
  const SmcResult a = smc_check(chain, *query, one);
  const SmcResult b = smc_check(chain, *query, four);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.estimate, b.estimate);  // bitwise: same shard prefix
  EXPECT_EQ(a.epsilon, b.epsilon);
}

// ---------------------------------------------------------------------------
// NLP: exhausted solves surface the best point found so far, flagged.

Problem quadratic_problem() {
  Problem p;
  p.dimension = 2;
  p.objective = [](std::span<const double> x) {
    return (x[0] - 0.3) * (x[0] - 0.3) + (x[1] + 0.2) * (x[1] + 0.2);
  };
  p.box = Box::uniform(2, -1.0, 1.0);
  return p;
}

TEST_F(BudgetTest, NlpFlagsExhaustedAndReturnsFinitePoint) {
  SolveOptions options;
  options.budget = iteration_cap(2);  // inner iterations, far from enough
  const SolveOutcome out = solve(quadratic_problem(), options);
  EXPECT_EQ(out.budget_status, BudgetStatus::kBudgetExhausted);
  EXPECT_EQ(out.budget_stop, BudgetStop::kIterationCap);
  ASSERT_EQ(out.x.size(), 2u);
  EXPECT_TRUE(std::isfinite(out.x[0]));
  EXPECT_TRUE(std::isfinite(out.x[1]));
}

TEST_F(BudgetTest, NlpUnbudgetedStaysUnflagged) {
  const SolveOutcome out = solve(quadratic_problem(), SolveOptions{});
  EXPECT_EQ(out.budget_status, BudgetStatus::kOk);
  EXPECT_EQ(out.budget_stop, BudgetStop::kNone);
  EXPECT_EQ(out.status, SolveStatus::kOptimal);
}

/// quadratic_problem plus the constraint x0 + x1 >= 0.5 in the form the KKT
/// solver takes (Hessian diagonal, constraint gradient).
Problem kkt_problem() {
  Problem p = quadratic_problem();
  p.objective_gradient = [](std::span<const double> x) {
    return std::vector<double>{2.0 * (x[0] - 0.3), 2.0 * (x[1] + 0.2)};
  };
  p.objective_hessian_diagonal = {2.0, 2.0};
  p.constraints.push_back(Constraint{
      "sum", [](std::span<const double> x) { return 0.5 - x[0] - x[1]; },
      [](std::span<const double>) { return std::vector<double>{-1.0, -1.0}; }});
  return p;
}

TEST_F(BudgetTest, KktFlagsExhaustedAndReturnsBestFeasible) {
  // One SQP iteration is allowed: the step from the origin lands on the
  // (linear) constraint, and the poll before the second iteration stops
  // the solve there, uncertified, without the multistart fallback.
  SolveOptions options;
  options.budget = iteration_cap(1);
  const SolveOutcome out =
      solve_repair(kkt_problem(), std::vector<double>{0.0, 0.0}, options);
  EXPECT_EQ(out.budget_status, BudgetStatus::kBudgetExhausted);
  EXPECT_EQ(out.budget_stop, BudgetStop::kIterationCap);
  EXPECT_EQ(out.iterations, 1u);
  EXPECT_FALSE(out.minimality_certified);
  EXPECT_EQ(out.status, SolveStatus::kOptimal);  // the iterate is feasible
  ASSERT_EQ(out.x.size(), 2u);
  EXPECT_NEAR(out.x[0] + out.x[1], 0.5, 1e-12);
}

TEST_F(BudgetTest, KktHonoursCancellationAndDeadline) {
  for (const bool cancelled : {true, false}) {
    SolveOptions options;
    if (cancelled) {
      options.budget.cancel.cancel();
    } else {
      options.budget = expired_deadline();
    }
    const SolveOutcome out =
        solve_repair(kkt_problem(), std::vector<double>{0.0, 0.0}, options);
    EXPECT_EQ(out.budget_status, BudgetStatus::kBudgetExhausted);
    EXPECT_EQ(out.budget_stop, cancelled ? BudgetStop::kCancelled
                                         : BudgetStop::kDeadline);
    EXPECT_EQ(out.iterations, 0u);
    // Nothing feasible was visited: the start point, flagged infeasible.
    EXPECT_EQ(out.status, SolveStatus::kInfeasible);
    EXPECT_EQ(out.x, (std::vector<double>{0.0, 0.0}));
  }
}

TEST_F(BudgetTest, KktUnbudgetedCertifies) {
  const SolveOutcome out =
      solve_repair(kkt_problem(), std::vector<double>{0.0, 0.0}, {});
  EXPECT_EQ(out.budget_status, BudgetStatus::kOk);
  EXPECT_TRUE(out.minimality_certified);
  // (0.3, -0.2) projected onto x0 + x1 = 0.5.
  EXPECT_NEAR(out.x[0], 0.5, 1e-12);
  EXPECT_NEAR(out.x[1], 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// IRL: a capped fit returns the last completed iterate, flagged.

TEST_F(BudgetTest, IrlFlagsExhaustedFit) {
  Mdp mdp(3);
  mdp.add_choice(0, "left", {Transition{1, 1.0}});
  mdp.add_choice(0, "right", {Transition{2, 1.0}});
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.add_choice(2, "stay", {Transition{2, 1.0}});
  StateFeatures features(3, 2);
  features.set(1, 0, 1.0);
  features.set(2, 1, 1.0);
  IrlOptions options;
  options.horizon = 5;
  options.tolerance = 1e-12;  // unreachable in 2 iterations
  options.budget = iteration_cap(2);
  const std::vector<double> target{4.0, 1.0};
  const IrlResult result =
      fit_to_feature_counts(mdp, features, target, options);
  EXPECT_EQ(result.budget_status, BudgetStatus::kBudgetExhausted);
  EXPECT_EQ(result.iterations, 2u);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.theta.size(), 2u);
}

// ---------------------------------------------------------------------------
// Parametric elimination: no usable partial exists, so it throws.

TEST_F(BudgetTest, ParametricEliminationThrowsTyped) {
  VariablePool pool;
  const Var x = pool.declare("x");
  ParametricDtmc chain(4, std::move(pool));
  chain.set_transition(0, 1, RationalFunction::variable(x));
  chain.set_transition(0, 0, one_minus(RationalFunction::variable(x)));
  chain.set_transition(1, 2, RationalFunction(0.5));
  chain.set_transition(1, 1, RationalFunction(0.5));
  chain.set_transition(2, 3, RationalFunction(1.0));
  chain.set_transition(3, 3, RationalFunction(1.0));
  StateSet targets(4, false);
  targets[3] = true;
  const Budget expired = expired_deadline();
  EXPECT_THROW((void)reachability_probability(chain, targets, {&expired}),
               BudgetExhausted);
  // Unbudgeted, the same query succeeds.
  EXPECT_NO_THROW((void)reachability_probability(chain, targets));
}

// ---------------------------------------------------------------------------
// trusted_learn: per-stage budgets degrade stage by stage, recorded in the
// report instead of aborting the pipeline.

Dtmc retry_structure() {
  Dtmc chain(2);
  chain.set_transitions(0, {Transition{0, 0.5}, Transition{1, 0.5}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_state_reward(0, 1.0);
  chain.add_label(1, "done");
  return chain;
}

Trajectory one_step(StateId from, StateId to) {
  Trajectory t;
  t.initial_state = from;
  t.steps.push_back(Step{from, 0, 0, to});
  return t;
}

TrajectoryDataset observations(int successes, int total) {
  TrajectoryDataset data;
  for (int i = 0; i < total; ++i) {
    data.add(one_step(0, i < successes ? 1 : 0));
  }
  return data;
}

TEST_F(BudgetTest, TrustedLearnRecordsStageBudgets) {
  // Learned p(success) = 0.2 ⇒ expected attempts 5 > 2: property violated,
  // so Model Repair runs — under a cancelled budget it must degrade, be
  // recorded in the stage report, and leave the pipeline to conclude
  // unsatisfiable rather than crash.
  TrustedLearnerConfig config;
  config.perturbation = [](const Dtmc& learned) {
    PerturbationScheme scheme(learned);
    const Var v = scheme.add_variable("v", 0.0, 0.05);
    scheme.attach_balanced(v, 0, /*raise=*/1, /*lower=*/0);
    return scheme;
  };
  Budget cancelled;
  cancelled.cancel.cancel();
  config.model_repair_budget = cancelled;
  const TrustedLearnerReport report =
      trusted_learn(retry_structure(), observations(2, 10),
                    *parse_pctl("R<=2 [ F \"done\" ]"), config);
  EXPECT_EQ(report.stage, TmlStage::kUnsatisfiable);
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].stage, TmlStage::kLearnedModelSatisfies);
  EXPECT_EQ(report.stages[0].budget_status, BudgetStatus::kOk);
  EXPECT_EQ(report.stages[1].stage, TmlStage::kModelRepair);
  // The repair stage either caught BudgetExhausted or saw the NLP return a
  // flagged infeasible partial; both are recorded, neither crashes.
  EXPECT_TRUE(report.stages[1].ran);
}

TEST_F(BudgetTest, TrustedLearnUnbudgetedStagesSucceed) {
  TrustedLearnerConfig config;
  config.perturbation = [](const Dtmc& learned) {
    PerturbationScheme scheme(learned);
    const Var v = scheme.add_variable("v", 0.0, 0.45);
    scheme.attach_balanced(v, 0, /*raise=*/1, /*lower=*/0);
    return scheme;
  };
  const TrustedLearnerReport report =
      trusted_learn(retry_structure(), observations(2, 10),
                    *parse_pctl("R<=2 [ F \"done\" ]"), config);
  EXPECT_EQ(report.stage, TmlStage::kModelRepair);
  ASSERT_GE(report.stages.size(), 2u);
  for (const TmlStageReport& stage : report.stages) {
    EXPECT_EQ(stage.budget_status, BudgetStatus::kOk);
  }
}

}  // namespace
}  // namespace tml
