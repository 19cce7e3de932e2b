// Microbenchmarks: PCTL model checking throughput on grid models of
// growing size (DTMC sparse direct solve and MDP value-iteration engine).

#include <benchmark/benchmark.h>

#include "src/casestudies/generator.hpp"
#include "src/casestudies/wsn.hpp"
#include "src/checker/check.hpp"
#include "src/checker/interval.hpp"
#include "src/checker/reachability.hpp"
#include "src/checker/smc.hpp"
#include "src/common/parallel.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/solver.hpp"

namespace tml {
namespace {

/// Random-walk DTMC on an n×n grid with a goal corner.
Dtmc grid_chain(std::size_t n) {
  const std::size_t total = n * n;
  Dtmc chain(total);
  auto id = [n](std::size_t r, std::size_t c) {
    return static_cast<StateId>(r * n + c);
  };
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (r == n - 1 && c == n - 1) {
        chain.set_transitions(id(r, c), {Transition{id(r, c), 1.0}});
        continue;
      }
      std::vector<Transition> row;
      std::vector<StateId> targets;
      if (r + 1 < n) targets.push_back(id(r + 1, c));
      if (c + 1 < n) targets.push_back(id(r, c + 1));
      const double stay = 0.3;
      row.push_back(Transition{id(r, c), stay});
      for (std::size_t k = 0; k < targets.size(); ++k) {
        row.push_back(Transition{
            targets[k], (1.0 - stay) / static_cast<double>(targets.size())});
      }
      chain.set_transitions(id(r, c), std::move(row));
      chain.set_state_reward(id(r, c), 1.0);
    }
  }
  chain.add_label(static_cast<StateId>(total - 1), "goal");
  return chain;
}

/// Grid walk with a per-cell leak to an absorbing trap. Unlike grid_chain,
/// where every state reaches the goal almost surely (the prob0/prob1 graph
/// pass pins the whole grid and no engine iterates), here every value is
/// strictly inside (0, 1), so the solve benches below measure the numeric
/// engines rather than the qualitative precomputation.
Dtmc leaky_grid_chain(std::size_t n) {
  const std::size_t total = n * n + 1;  // last state is the trap
  const StateId trap = static_cast<StateId>(n * n);
  Dtmc chain(total);
  auto id = [n](std::size_t r, std::size_t c) {
    return static_cast<StateId>(r * n + c);
  };
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (r == n - 1 && c == n - 1) {
        chain.set_transitions(id(r, c), {Transition{id(r, c), 1.0}});
        continue;
      }
      std::vector<StateId> targets;
      if (r + 1 < n) targets.push_back(id(r + 1, c));
      if (c + 1 < n) targets.push_back(id(r, c + 1));
      std::vector<Transition> row;
      row.push_back(Transition{id(r, c), 0.3});
      row.push_back(Transition{trap, 0.05});
      for (std::size_t k = 0; k < targets.size(); ++k) {
        row.push_back(
            Transition{targets[k], 0.65 / static_cast<double>(targets.size())});
      }
      chain.set_transitions(id(r, c), std::move(row));
    }
  }
  chain.set_transitions(trap, {Transition{trap, 1.0}});
  chain.add_label(id(n - 1, n - 1), "goal");
  return chain;
}

/// Compiled CSR pipeline, including the compile() step per query.
void BM_GridReachabilityCompiled(benchmark::State& state) {
  const Dtmc chain = grid_chain(static_cast<std::size_t>(state.range(0)));
  const StateSet goal = chain.states_with_label("goal");
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtmc_reachability(compile(chain), goal));
  }
  state.SetComplexityN(state.range(0) * state.range(0));
}
BENCHMARK(BM_GridReachabilityCompiled)->Arg(4)->Arg(8)->Arg(16)->Arg(24)
    ->Arg(32)->Complexity(benchmark::oAuto);

/// Compiled pipeline when the model is compiled once and queried repeatedly
/// (the steady-state of every optimizer loop in the library).
void BM_GridReachabilityPrecompiled(benchmark::State& state) {
  const Dtmc chain = grid_chain(static_cast<std::size_t>(state.range(0)));
  const CompiledModel model = compile(chain);
  const StateSet goal = model.states_with_label("goal");
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtmc_reachability(model, goal));
  }
  state.SetComplexityN(state.range(0) * state.range(0));
}
BENCHMARK(BM_GridReachabilityPrecompiled)->Arg(4)->Arg(8)->Arg(16)->Arg(24)
    ->Arg(32)->Complexity(benchmark::oAuto);

void BM_DtmcReachability(benchmark::State& state) {
  const Dtmc chain = grid_chain(static_cast<std::size_t>(state.range(0)));
  const StateFormulaPtr f = parse_pctl("P=? [ F \"goal\" ]");
  for (auto _ : state) {
    benchmark::DoNotOptimize(check(chain, *f));
  }
  state.SetComplexityN(state.range(0) * state.range(0));
}
BENCHMARK(BM_DtmcReachability)->Arg(4)->Arg(8)->Arg(16)->Arg(24)
    ->Complexity(benchmark::oAuto);

void BM_DtmcExpectedReward(benchmark::State& state) {
  const Dtmc chain = grid_chain(static_cast<std::size_t>(state.range(0)));
  const StateFormulaPtr f = parse_pctl("R=? [ F \"goal\" ]");
  for (auto _ : state) {
    benchmark::DoNotOptimize(check(chain, *f));
  }
}
BENCHMARK(BM_DtmcExpectedReward)->Arg(4)->Arg(8)->Arg(16)->Arg(24);

void BM_DtmcBoundedUntil(benchmark::State& state) {
  const Dtmc chain = grid_chain(16);
  const StateFormulaPtr f = parse_pctl(
      "P=? [ true U<=" + std::to_string(state.range(0)) + " \"goal\" ]");
  for (auto _ : state) {
    benchmark::DoNotOptimize(check(chain, *f));
  }
}
BENCHMARK(BM_DtmcBoundedUntil)->Arg(8)->Arg(32)->Arg(128);

void BM_MdpWsnCheck(benchmark::State& state) {
  WsnConfig config;
  config.grid = static_cast<std::size_t>(state.range(0));
  const Mdp mdp = build_wsn_mdp(config);
  const StateFormulaPtr f = parse_pctl("Rmin=? [ F \"delivered\" ]");
  for (auto _ : state) {
    benchmark::DoNotOptimize(check(mdp, *f));
  }
}
BENCHMARK(BM_MdpWsnCheck)->Arg(3)->Arg(5)->Arg(8)->Arg(12);

/// SMC thread sweep: the Chernoff budget is sharded over the pool; the
/// result is bitwise identical at every point of the sweep.
void BM_SmcThreads(benchmark::State& state) {
  const CompiledModel model = compile(grid_chain(16));
  const StateFormulaPtr f = parse_pctl("P<=0.9 [ true U<=64 \"goal\" ]");
  SmcOptions options;
  options.epsilon = 0.02;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(smc_check(model, *f, options));
  }
}
BENCHMARK(BM_SmcThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// Value-iteration thread sweep on a grid large enough to split into many
/// chunks (64×64 = 4096 states = 64 chunks at the default grain).
void BM_GridVIThreads(benchmark::State& state) {
  const CompiledModel model = compile(grid_chain(64));
  const StateSet goal = model.states_with_label("goal");
  SolverOptions options;
  options.tolerance = 1e-8;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mdp_reachability(model, goal, Objective::kMaximize, options));
  }
}
BENCHMARK(BM_GridVIThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// Bounded-until sweep thread scaling on the same grid.
void BM_BoundedUntilThreads(benchmark::State& state) {
  const CompiledModel model = compile(grid_chain(64));
  const StateSet goal = model.states_with_label("goal");
  const StateSet all(model.num_states(), true);
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mdp_bounded_until(model, all, goal, 128, Objective::kMaximize,
                          threads));
  }
}
BENCHMARK(BM_BoundedUntilThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

/// Robust Pmax under adversarial nature on check-large's grid-robust
/// models (40×40 grid robot, hazard 0.05, widened by 0.01), by thread
/// count. The graph pass pins all but a few dozen of the 1600 states, so
/// the sweeps stay under the pool's chunk floor.
void BM_GridRobustThreads(benchmark::State& state) {
  GeneratorSpec spec;
  spec.family = GeneratorFamily::kGridRobot;
  spec.size = 40;
  spec.seed = 3;
  spec.hazard_density = 0.05;
  const Mdp grid = generate_grid_robot(spec);
  const IntervalMdp widened = IntervalMdp::widen(grid, 0.01);
  const StateSet goal = grid.states_with_label("goal");
  SolverOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(interval_reachability(
        widened, goal, Objective::kMaximize, Nature::kAdversarial, options));
  }
}
BENCHMARK(BM_GridRobustThreads)->Arg(1)->Arg(2)->UseRealTime();

/// Unbounded reachability (sound interval iteration) on the leaky grid
/// family: every value lies strictly inside (0, 1), so the numeric engine
/// actually runs. The grid is acyclic apart from self-loops, so every SCC
/// is a single state and each block is solved in closed form in one
/// dependency-ordered pass. The `method:2` rows of BENCH_sound.json are this
/// configuration, recorded when the unsound engines still existed.
void BM_GridSolveMethod(benchmark::State& state) {
  const CompiledModel model =
      compile(leaky_grid_chain(static_cast<std::size_t>(state.range(0))));
  const StateSet goal = model.states_with_label("goal");
  (void)model.scc();  // decomposition is cached; measure steady-state solves
  SolverOptions options;
  options.tolerance = 1e-8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mdp_reachability(model, goal, Objective::kMaximize, options));
  }
  state.SetComplexityN(state.range(0) * state.range(0));
}
BENCHMARK(BM_GridSolveMethod)->ArgName("grid")->Arg(16)->Arg(32)->Arg(64);

void BM_PctlParse(benchmark::State& state) {
  const std::string text =
      "P>0.99 [ F (\"changedlane\" | \"reducedspeed\") ] & "
      "R{\"attempts\"}<=40 [ F \"delivered\" ]";
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_pctl(text));
  }
}
BENCHMARK(BM_PctlParse);

}  // namespace
}  // namespace tml

// main() lives in perf_main.cpp (BENCHMARK_MAIN() + stats JSON block).
