// Microbenchmarks: NLP solver throughput on repair-shaped problems.

#include <benchmark/benchmark.h>

#include "src/opt/kkt.hpp"
#include "src/opt/solvers.hpp"

namespace tml {
namespace {

/// Repair-shaped NLP of dimension d: min ‖v‖² s.t. Σ 1/(0.1 + v_i) <= b.
Problem repair_problem(std::size_t dim) {
  Problem p;
  p.dimension = dim;
  p.objective = [](std::span<const double> v) {
    double acc = 0.0;
    for (double x : v) acc += x * x;
    return acc;
  };
  p.objective_gradient = [](std::span<const double> v) {
    std::vector<double> g(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) g[i] = 2.0 * v[i];
    return g;
  };
  const double bound = 8.0 * static_cast<double>(dim);
  p.constraints.push_back(Constraint{
      "sum",
      [bound](std::span<const double> v) {
        double acc = 0.0;
        for (double x : v) acc += 1.0 / (0.1 + x);
        return acc - bound;
      },
      [](std::span<const double> v) {
        std::vector<double> g(v.size());
        for (std::size_t i = 0; i < v.size(); ++i) {
          const double d = 0.1 + v[i];
          g[i] = -1.0 / (d * d);
        }
        return g;
      }});
  p.objective_hessian_diagonal.assign(dim, 2.0);
  p.box = Box::uniform(dim, 0.0, 0.5);
  return p;
}

void run_with(benchmark::State& state, Algorithm algorithm) {
  const Problem p = repair_problem(static_cast<std::size_t>(state.range(0)));
  SolveOptions options;
  options.algorithm = algorithm;
  options.num_starts = 2;
  options.max_inner_iterations = 400;
  options.max_outer_iterations = 6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(p, options));
  }
}

void BM_Penalty(benchmark::State& state) {
  run_with(state, Algorithm::kPenalty);
}
BENCHMARK(BM_Penalty)->Arg(2)->Arg(4)->Arg(8);

void BM_AugmentedLagrangian(benchmark::State& state) {
  run_with(state, Algorithm::kAugmentedLagrangian);
}
BENCHMARK(BM_AugmentedLagrangian)->Arg(2)->Arg(4)->Arg(8);

void BM_NelderMead(benchmark::State& state) {
  run_with(state, Algorithm::kNelderMead);
}
BENCHMARK(BM_NelderMead)->Arg(2)->Arg(4)->Arg(8);

/// The repair NLP's certified path: the SQP/KKT solve from the nominal
/// point (0), as repair_properties runs it.
void BM_Kkt(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  const Problem p = repair_problem(dim);
  const std::vector<double> nominal(dim, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_repair(p, nominal, SolveOptions{}));
  }
}
BENCHMARK(BM_Kkt)->Arg(2)->Arg(4)->Arg(8);

/// Multi-start thread sweep: 8 independent local solves fan out over the
/// pool; the ordered reduction keeps the argmin identical at every point.
void BM_MultiStartThreads(benchmark::State& state) {
  const Problem p = repair_problem(8);
  SolveOptions options;
  options.num_starts = 8;
  options.max_inner_iterations = 400;
  options.max_outer_iterations = 6;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(p, options));
  }
}
BENCHMARK(BM_MultiStartThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_NumericGradientOverhead(benchmark::State& state) {
  // Same problem without analytic gradients: measures the finite-difference
  // tax the Q-constraint repair pays.
  Problem p = repair_problem(4);
  p.objective_gradient = nullptr;
  p.constraints[0].gradient = nullptr;
  SolveOptions options;
  options.num_starts = 2;
  options.max_inner_iterations = 400;
  options.max_outer_iterations = 6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(p, options));
  }
}
BENCHMARK(BM_NumericGradientOverhead);

}  // namespace
}  // namespace tml

// main() lives in perf_main.cpp (BENCHMARK_MAIN() + stats JSON block).
