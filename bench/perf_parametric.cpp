// Microbenchmarks: parametric state elimination scaling in the number of
// chain states and the number of parameters (the cost driver the paper's
// "more scalable repair algorithms" future work refers to).

#include <benchmark/benchmark.h>

#include <string>

#include "src/parametric/state_elimination.hpp"

namespace tml {
namespace {

/// Serial retry chain of `n` hops; hop i uses parameter i % num_params.
ParametricDtmc serial_chain(std::size_t n, std::size_t num_params) {
  VariablePool pool;
  std::vector<Var> vars;
  for (std::size_t k = 0; k < num_params; ++k) {
    vars.push_back(pool.declare("v" + std::to_string(k)));
  }
  ParametricDtmc chain(n + 1, std::move(pool));
  for (StateId s = 0; s < n; ++s) {
    const RationalFunction stay =
        RationalFunction(Polynomial(0.5)) *
        (RationalFunction(1.0) +
         RationalFunction::variable(vars[s % num_params]));
    chain.set_transition(s, s, stay);
    chain.set_transition(s, s + 1, one_minus(stay));
    chain.set_state_reward(s, RationalFunction(1.0));
  }
  chain.set_transition(static_cast<StateId>(n), static_cast<StateId>(n),
                       RationalFunction(1.0));
  return chain;
}

StateSet last_state(const ParametricDtmc& chain) {
  StateSet set(chain.num_states(), false);
  set[chain.num_states() - 1] = true;
  return set;
}

void BM_EliminationStates(benchmark::State& state) {
  const ParametricDtmc chain =
      serial_chain(static_cast<std::size_t>(state.range(0)), 2);
  const StateSet goal = last_state(chain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(expected_total_reward(chain, goal));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EliminationStates)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Complexity(benchmark::oAuto);

void BM_EliminationParameters(benchmark::State& state) {
  const ParametricDtmc chain =
      serial_chain(12, static_cast<std::size_t>(state.range(0)));
  const StateSet goal = last_state(chain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(expected_total_reward(chain, goal));
  }
}
BENCHMARK(BM_EliminationParameters)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_EliminationReachability(benchmark::State& state) {
  const ParametricDtmc chain =
      serial_chain(static_cast<std::size_t>(state.range(0)), 2);
  const StateSet goal = last_state(chain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reachability_probability(chain, goal));
  }
}
BENCHMARK(BM_EliminationReachability)->Arg(8)->Arg(16)->Arg(32);

void BM_RationalEvaluate(benchmark::State& state) {
  const ParametricDtmc chain = serial_chain(16, 2);
  const StateSet goal = last_state(chain);
  const RationalFunction f = expected_total_reward(chain, goal);
  const std::vector<double> point{0.1, -0.2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.evaluate(point));
  }
}
BENCHMARK(BM_RationalEvaluate);

void BM_RationalGradient(benchmark::State& state) {
  const ParametricDtmc chain = serial_chain(16, 2);
  const StateSet goal = last_state(chain);
  const RationalFunction f = expected_total_reward(chain, goal);
  const std::vector<Var> vars{0, 1};
  const std::vector<double> point{0.1, -0.2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.evaluate_gradient(vars, point));
  }
}
BENCHMARK(BM_RationalGradient);

/// n×n grid walk: state (r,c) retries in place with a parameterized
/// self-loop, moves right/down toward the absorbing goal corner, and every
/// row has a back edge to its first column — so each row is a nontrivial
/// SCC of size n. With `with_trap` a 5% slice of each move escapes to an
/// absorbing trap, making P(F goal) a nontrivial function; without it every
/// state reaches the goal with probability 1 (usable for expected reward).
ParametricDtmc grid_chain(std::size_t n, std::size_t num_params,
                          bool with_trap) {
  VariablePool pool;
  std::vector<Var> vars;
  for (std::size_t k = 0; k < num_params; ++k) {
    vars.push_back(pool.declare("v" + std::to_string(k)));
  }
  const StateId goal = static_cast<StateId>(n * n);
  const StateId trap = static_cast<StateId>(n * n + 1);
  ParametricDtmc chain(n * n + (with_trap ? 2 : 1), std::move(pool));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const StateId s = static_cast<StateId>(r * n + c);
      const RationalFunction stay =
          RationalFunction(Polynomial(0.3)) *
          (RationalFunction(1.0) +
           RationalFunction::variable(vars[s % num_params]));
      RationalFunction rest = one_minus(stay);
      chain.set_transition(s, s, stay);
      if (with_trap) {
        // Parametric escape slice: the branch ratio itself depends on the
        // parameters, so P(F goal) does not collapse to a constant.
        const RationalFunction slice =
            RationalFunction(Polynomial(0.1)) *
            (RationalFunction(1.0) +
             RationalFunction::variable(vars[(s + 1) % num_params]));
        chain.add_transition(s, trap, rest * slice);
        rest = rest * one_minus(slice);
      }
      const StateId down = r + 1 < n ? static_cast<StateId>((r + 1) * n + c)
                                     : goal;
      if (c + 1 < n) {
        const StateId right = static_cast<StateId>(r * n + c + 1);
        const double back_share = c > 0 ? 0.2 : 0.0;
        chain.add_transition(s, right, rest * (0.8 - back_share));
        chain.add_transition(s, down, rest * 0.2);
        if (c > 0) {
          chain.add_transition(s, static_cast<StateId>(r * n), rest * 0.2);
        }
      } else {
        chain.add_transition(s, down, rest * 0.7);
        chain.add_transition(s, static_cast<StateId>(r * n), rest * 0.3);
      }
      chain.set_state_reward(s, RationalFunction(1.0));
    }
  }
  chain.set_transition(goal, goal, RationalFunction(1.0));
  if (with_trap) chain.set_transition(trap, trap, RationalFunction(1.0));
  return chain;
}

StateSet goal_only(const ParametricDtmc& chain, std::size_t n) {
  StateSet set(chain.num_states(), false);
  set[static_cast<StateId>(n * n)] = true;
  return set;
}

void BM_GridReward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ParametricDtmc chain = grid_chain(n, 4, /*with_trap=*/false);
  const StateSet goal = goal_only(chain, n);
  EliminationStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(expected_total_reward(chain, goal, {}, &stats));
  }
  // record_elimination folds across runs, so average back to per-run.
  state.counters["fill_in"] = benchmark::Counter(
      static_cast<double>(stats.fill_in_edges),
      benchmark::Counter::kAvgIterations);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GridReward)
    ->ArgName("n")
    ->Arg(3)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_GridReachability(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ParametricDtmc chain = grid_chain(n, 4, /*with_trap=*/true);
  const StateSet goal = goal_only(chain, n);
  EliminationStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reachability_probability(chain, goal, {}, &stats));
  }
  state.counters["fill_in"] = benchmark::Counter(
      static_cast<double>(stats.fill_in_edges),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_GridReachability)
    ->ArgName("n")
    ->Arg(3)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tml

// main() lives in perf_main.cpp (BENCHMARK_MAIN() + stats JSON block).
