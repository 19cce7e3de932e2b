// Tests for the deterministic parallel execution layer: pool lifecycle and
// exception propagation, the thread-count-invariance contract of
// parallel_for / parallel_transform_reduce, RNG stream splitting, and
// end-to-end bitwise determinism of the parallel engines (SMC, multi-start
// NLP) across thread counts.

#include "src/common/parallel.hpp"

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/checker/interval.hpp"
#include "src/checker/smc.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/logic/parser.hpp"
#include "src/opt/solvers.hpp"

namespace tml {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  std::vector<std::atomic<int>> counts(257);
  pool.run(counts.size(), 8,
           [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::vector<int> order;
  pool.run(5, 8, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // inline → strictly in order
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, SurvivesRepeatedRunsAndShutdown) {
  for (int round = 0; round < 3; ++round) {
    ThreadPool pool(2);
    std::atomic<int> total{0};
    for (int rep = 0; rep < 10; ++rep) {
      pool.run(16, 3, [&](std::size_t) { total.fetch_add(1); });
    }
    EXPECT_EQ(total.load(), 160);
  }  // ~ThreadPool joins the workers; leaking/stuck threads would hang here
}

TEST(ThreadPool, RethrowsSmallestIndexException) {
  ThreadPool pool(4);
  try {
    pool.run(64, 8, [](std::size_t i) {
      if (i == 7 || i == 50) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7");
  }
}

TEST(ThreadPool, NestedRunExecutesInline) {
  ThreadPool& pool = ThreadPool::global();
  std::atomic<int> inner_total{0};
  pool.run(4, 4, [&](std::size_t) {
    // Re-entrant use degrades to inline execution instead of deadlocking
    // on the shared worker set.
    ThreadPool::global().run(8, 4,
                             [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ParallelFor, CoversRangeWithoutOverlap) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    std::vector<int> touched(1000, 0);
    parallel_for(
        0, touched.size(), 64,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) ++touched[i];
        },
        threads);
    EXPECT_EQ(std::accumulate(touched.begin(), touched.end(), 0), 1000);
    EXPECT_EQ(*std::min_element(touched.begin(), touched.end()), 1);
  }
}

TEST(ParallelFor, SmallSweepsRunOnTheCallingThread) {
  // A per-state sweep of fewer than kMinParallelChunks chunks never wakes
  // the pool, whatever thread count it asks for.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> elsewhere{0};
  parallel_for(
      0, (kMinParallelChunks - 1) * kDefaultGrain, kDefaultGrain,
      [&](std::size_t, std::size_t) {
        if (std::this_thread::get_id() != caller) elsewhere.fetch_add(1);
      },
      8);
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ParallelFor, EmptyRangeIsANoop) {
  bool called = false;
  parallel_for(5, 5, 64, [&](std::size_t, std::size_t) { called = true; }, 8);
  EXPECT_FALSE(called);
}

TEST(ParallelTransformReduce, BitwiseIdenticalAcrossThreadCounts) {
  // A float sum whose result depends on association: identical partials
  // folded in chunk order must give the same bits for every thread count.
  const auto run = [](std::size_t threads) {
    return parallel_transform_reduce(
        std::size_t{0}, 10000, 64, 0.0,
        [](std::size_t begin, std::size_t end) {
          double acc = 0.0;
          for (std::size_t i = begin; i < end; ++i) {
            acc += std::sin(static_cast<double>(i)) * 1e-3;
          }
          return acc;
        },
        [](double a, double b) { return a + b; }, threads);
  };
  const double reference = run(1);
  for (std::size_t threads : {2u, 3u, 8u}) {
    EXPECT_EQ(reference, run(threads)) << threads << " threads";
  }
}

TEST(ThreadCountResolution, EnvDefaultAndOverride) {
  EXPECT_GE(hardware_thread_count(), 1u);
  EXPECT_EQ(resolve_thread_count(3), 3u);
  set_default_thread_count(5);
  EXPECT_EQ(default_thread_count(), 5u);
  EXPECT_EQ(resolve_thread_count(0), 5u);
  set_default_thread_count(0);  // restore env/hardware resolution
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(RngSplit, DeterministicAndIndependentOfParentState) {
  Rng parent(42);
  (void)parent.uniform();  // advancing the parent must not affect split
  Rng a = parent.split(3);
  Rng b = Rng(42).split(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.engine()(), b.engine()());
  // Distinct stream ids give distinct streams.
  Rng c = Rng(42).split(4);
  EXPECT_NE(Rng(42).split(3).engine()(), c.engine()());
}

TEST(RngSplit, ChildStreamsAreDecorrelated) {
  // Smoke statistic: the mean of child-i uniforms should look uniform and
  // the streams of adjacent ids should not track each other.
  const Rng root(7);
  const int kDraws = 4000;
  double max_mean_err = 0.0;
  double max_corr = 0.0;
  for (std::uint64_t id = 0; id < 8; ++id) {
    Rng x = root.split(id);
    Rng y = root.split(id + 1);
    double sx = 0.0, sy = 0.0, sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (int i = 0; i < kDraws; ++i) {
      const double u = x.uniform();
      const double v = y.uniform();
      sx += u;
      sy += v;
      sxy += u * v;
      sxx += u * u;
      syy += v * v;
    }
    const double n = kDraws;
    const double cov = sxy / n - (sx / n) * (sy / n);
    const double var_x = sxx / n - (sx / n) * (sx / n);
    const double var_y = syy / n - (sy / n) * (sy / n);
    max_mean_err = std::max(max_mean_err, std::abs(sx / n - 0.5));
    max_corr = std::max(max_corr, std::abs(cov / std::sqrt(var_x * var_y)));
  }
  EXPECT_LT(max_mean_err, 0.03);
  EXPECT_LT(max_corr, 0.06);
}

TEST(RngIndex, StaysInBoundsAndHitsAllValues) {
  Rng rng(11);
  std::set<std::size_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::size_t v = rng.index(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // non-power-of-two n: rejection must not bias
  EXPECT_EQ(rng.index(1), 0u);
  EXPECT_THROW(rng.index(0), Error);
}

Dtmc split_chain(double p_goal) {
  Dtmc chain(3);
  chain.set_transitions(0,
                        {Transition{1, p_goal}, Transition{2, 1.0 - p_goal}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  chain.add_label(1, "goal");
  return chain;
}

TEST(SmcParallel, BitwiseIdenticalAcrossThreadCounts) {
  const Dtmc chain = split_chain(0.3);
  const StateFormulaPtr f = parse_pctl("P<=0.5 [ F \"goal\" ]");
  SmcOptions options;
  options.epsilon = 0.02;
  options.seed = 9;
  options.threads = 1;
  const SmcResult reference = smc_check(chain, *f, options);
  for (std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    const SmcResult result = smc_check(chain, *f, options);
    EXPECT_EQ(result.estimate, reference.estimate) << threads << " threads";
    EXPECT_EQ(result.samples, reference.samples);
    EXPECT_EQ(result.satisfied, reference.satisfied);
    EXPECT_EQ(result.decisive, reference.decisive);
    EXPECT_EQ(result.decided_after, reference.decided_after);
  }
}

TEST(SmcParallel, DecidedAfterReportsEarlyCertainty) {
  // p = 0.05 against P<=0.5 with ε = 0.02: the verdict is certain long
  // before the full Chernoff budget is consumed.
  const Dtmc chain = split_chain(0.05);
  const StateFormulaPtr f = parse_pctl("P<=0.5 [ F \"goal\" ]");
  SmcOptions options;
  options.epsilon = 0.02;
  const SmcResult result = smc_check(chain, *f, options);
  EXPECT_TRUE(result.satisfied);
  EXPECT_TRUE(result.decisive);
  EXPECT_GT(result.decided_after, 0u);
  EXPECT_LT(result.decided_after, result.samples);
  EXPECT_EQ(result.decided_after % options.shard_size, 0u);
}

TEST(SmcParallel, IndecisiveRunReportsZeroDecidedAfter) {
  const Dtmc chain = split_chain(0.3);
  const StateFormulaPtr f = parse_pctl("P<=0.3 [ F \"goal\" ]");
  SmcOptions options;
  options.epsilon = 0.05;  // p̂ stays within ε of the bound
  const SmcResult result = smc_check(chain, *f, options);
  EXPECT_FALSE(result.decisive);
  EXPECT_EQ(result.decided_after, 0u);
}

/// Gambler's ruin on 1200 interior cells: state 0 is ruin, state 1201 the
/// goal. Each cell either steps (up 0.3, down 0.7) or hedges (up 0.2, stay
/// 0.3, down 0.5), so every cell reaches goal and ruin with positive
/// probability and none is pinned by the graph pass.
Mdp ruin_walk() {
  constexpr StateId kCells = 1200;
  Mdp mdp(kCells + 2);
  mdp.add_choice(0, "loop", {Transition{0, 1.0}});
  mdp.add_choice(kCells + 1, "loop", {Transition{kCells + 1, 1.0}});
  mdp.add_label(kCells + 1, "goal");
  for (StateId s = 1; s <= kCells; ++s) {
    mdp.add_choice(s, "step",
                   {Transition{s + 1, 0.3}, Transition{s - 1, 0.7}});
    mdp.add_choice(s, "hedge", {Transition{s + 1, 0.2}, Transition{s, 0.3},
                                Transition{s - 1, 0.5}});
  }
  return mdp;
}

TEST(RobustParallel, BitwiseIdenticalAcrossThreadCounts) {
  // 1200 unknown states: nineteen 64-state sweep chunks, enough for the
  // pool, each resolving its polytopes in its own scratch buffer.
  const Mdp walk = ruin_walk();
  const IntervalMdp widened = IntervalMdp::widen(walk, 0.01);
  const StateSet goal = walk.states_with_label("goal");
  const bool was_enabled = stats::enabled();
  stats::set_enabled(true);
  for (const Nature nature : {Nature::kAdversarial, Nature::kCooperative}) {
    SolverOptions options;
    options.threads = 1;
    const std::vector<double> reference = interval_reachability(
        widened, goal, Objective::kMaximize, nature, options);
    EXPECT_GE(stats::gauge("checker.robust.unknown_states").value(),
              static_cast<double>(kMinParallelChunks * kDefaultGrain));
    for (const std::size_t threads : {2u, 4u, 7u}) {
      options.threads = threads;
      const std::vector<double> values = interval_reachability(
          widened, goal, Objective::kMaximize, nature, options);
      ASSERT_EQ(values.size(), reference.size());
      for (StateId s = 0; s < values.size(); ++s) {
        ASSERT_EQ(values[s], reference[s])
            << "state " << s << ", " << threads << " threads, "
            << (nature == Nature::kAdversarial ? "adversarial"
                                               : "cooperative");
      }
    }
  }
  stats::set_enabled(was_enabled);
}

Problem two_basin_problem() {
  // f(x) = min over two basins; multi-start must find the deeper one at
  // x = 2 regardless of which thread solved which start.
  Problem problem;
  problem.dimension = 1;
  problem.box.lower = {-4.0};
  problem.box.upper = {4.0};
  problem.objective = [](std::span<const double> x) {
    const double a = x[0] + 2.0;
    const double b = x[0] - 2.0;
    return std::min(a * a + 0.5, b * b);
  };
  problem.objective_gradient = [](std::span<const double> x) {
    const double a = x[0] + 2.0;
    const double b = x[0] - 2.0;
    return std::vector<double>{a * a + 0.5 < b * b ? 2.0 * a : 2.0 * b};
  };
  return problem;
}

TEST(MultiStartParallel, IdenticalArgminAcrossThreadCounts) {
  const Problem problem = two_basin_problem();
  SolveOptions options;
  options.num_starts = 8;
  options.threads = 1;
  const SolveOutcome reference = solve(problem, options);
  EXPECT_EQ(reference.status, SolveStatus::kOptimal);
  EXPECT_NEAR(reference.x[0], 2.0, 1e-4);
  for (std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    const SolveOutcome outcome = solve(problem, options);
    EXPECT_EQ(outcome.status, reference.status) << threads << " threads";
    ASSERT_EQ(outcome.x.size(), reference.x.size());
    EXPECT_EQ(outcome.x[0], reference.x[0]) << threads << " threads";
    EXPECT_EQ(outcome.objective, reference.objective);
    EXPECT_EQ(outcome.iterations, reference.iterations);
    EXPECT_EQ(outcome.starts_tried, reference.starts_tried);
  }
}

}  // namespace
}  // namespace tml
