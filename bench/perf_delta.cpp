// Microbenchmarks: streaming re-certification cost per batch — cold
// (recompile + sparse LU) vs patched (delta patch + sparse LU), on a
// chain-of-clusters DTMC. This is the step RepairSession::feed takes for
// each learned or repaired chain: patch_probabilities() when the support
// is unchanged, then dtmc_until_bracket's envelope LU with its certified
// bracket.
//
// Fixture. C clusters of K states, each cluster one nontrivial SCC (a 0.5
// cycle plus self-loops), feeding forward into the next plus a direct leak
// into the absorbing goal/trap states, so every transient value is strictly
// inside (0, 1).
//
//   * BM_ColdRecertify      — per batch: perturb one cluster, compile(),
//                             LU bracket
//   * BM_PatchRecertify     — per batch: perturb one cluster,
//                             patch_probabilities(), LU bracket
//   * BM_PatchRecertifyAllDirty — every cluster perturbed
//
// The LU solves every unknown state whatever changed, so the two patched
// variants differ only in the patch's rewrite. Before timing, each patched
// fixture checks once that the bracket of the patched model equals a
// fresh compile's bitwise. Regenerate the recorded numbers with:
//
//   ./bench/perf_delta --benchmark_out=BENCH_delta.json
//                      --benchmark_out_format=json     (one command line)
//
// (see EXPERIMENTS.md for the recorded per-batch latencies).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/mdp/compiled.hpp"
#include "src/mdp/model.hpp"
#include "src/mdp/solver.hpp"

namespace tml {
namespace {

constexpr std::size_t kClusterSize = 16;

/// C clusters of K states feeding forward, last cluster leaking into
/// absorbing goal/trap. State (i, j) = i*K + j; goal = C*K, trap = C*K + 1.
Dtmc cluster_chain(std::size_t clusters, std::size_t k = kClusterSize) {
  const std::size_t n = clusters * k + 2;
  const StateId goal = static_cast<StateId>(clusters * k);
  const StateId trap = goal + 1;
  Dtmc chain(n);
  for (std::size_t i = 0; i < clusters; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const StateId s = static_cast<StateId>(i * k + j);
      const StateId cycle = static_cast<StateId>(i * k + (j + 1) % k);
      const StateId fwd = i + 1 < clusters
                              ? static_cast<StateId>((i + 1) * k)
                              : (j % 2 == 0 ? goal : trap);
      const StateId sink = j % 2 == 0 ? goal : trap;
      chain.set_transitions(
          s, {Transition{cycle, 0.5}, Transition{s, 0.125},
              Transition{fwd, 0.25}, Transition{sink, 0.125}});
    }
  }
  chain.set_transitions(goal, {Transition{goal, 1.0}});
  chain.set_transitions(trap, {Transition{trap, 1.0}});
  chain.add_label(goal, "goal");
  return chain;
}

/// Moves one 1/1024 unit between the cycle and self-loop edges of every
/// state of cluster `i` (direction alternates with `flip`) — a
/// support-preserving small-delta batch dirtying exactly that cluster.
void perturb_cluster(Dtmc& chain, std::size_t i, bool flip,
                     std::size_t k = kClusterSize) {
  const double d = flip ? 1.0 / 1024.0 : -1.0 / 1024.0;
  for (std::size_t j = 0; j < k; ++j) {
    const StateId s = static_cast<StateId>(i * k + j);
    std::vector<Transition> row(chain.transitions(s).begin(),
                                chain.transitions(s).end());
    row[0].probability += d;
    row[1].probability -= d;
    chain.set_transitions(s, std::move(row));
  }
}

StateSet goal_set(const CompiledModel& model) {
  return model.states_with_label("goal");
}

SolveResult certify(const CompiledModel& model) {
  return dtmc_reachability_bracket(model, goal_set(model));
}

/// Perturbs cluster 0 (or every cluster) of `chain`.
void perturb(Dtmc& chain, std::size_t clusters, bool all, bool flip) {
  for (std::size_t i = 0; i < (all ? clusters : 1); ++i) {
    perturb_cluster(chain, i, flip);
  }
}

/// One-time contract check per fixture: the patched model's bracket must
/// equal a fresh compile's bitwise.
bool verify_bitwise(std::size_t clusters, bool all, std::string& error) {
  Dtmc chain = cluster_chain(clusters);
  CompiledModel model = compile(chain);
  perturb(chain, clusters, all, true);
  if (!patch_probabilities(model, chain).patched) {
    error = "patch fell back to full compile";
    return false;
  }
  const SolveResult patched = certify(model);
  const SolveResult cold = certify(compile(chain));
  if (patched.lo != cold.lo || patched.hi != cold.hi ||
      patched.values != cold.values) {
    error = "patched bracket differs bitwise from a fresh compile's";
    return false;
  }
  return true;
}

void BM_ColdRecertify(benchmark::State& state) {
  const std::size_t clusters = static_cast<std::size_t>(state.range(0));
  Dtmc chain = cluster_chain(clusters);
  bool flip = true;
  for (auto _ : state) {
    perturb(chain, clusters, false, flip);
    flip = !flip;
    const SolveResult result = certify(compile(chain));
    benchmark::DoNotOptimize(result.lo.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void patch_recertify(benchmark::State& state, bool all) {
  const std::size_t clusters = static_cast<std::size_t>(state.range(0));
  std::string error;
  if (!verify_bitwise(clusters, all, error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  Dtmc chain = cluster_chain(clusters);
  CompiledModel model = compile(chain);
  bool flip = true;
  for (auto _ : state) {
    perturb(chain, clusters, all, flip);
    flip = !flip;
    if (!patch_probabilities(model, chain).patched) {
      state.SkipWithError("patch fell back to full compile");
      return;
    }
    const SolveResult result = certify(model);
    benchmark::DoNotOptimize(result.lo.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_PatchRecertify(benchmark::State& state) {
  patch_recertify(state, false);
}

void BM_PatchRecertifyAllDirty(benchmark::State& state) {
  patch_recertify(state, true);
}

BENCHMARK(BM_ColdRecertify)->ArgName("clusters")->Arg(8)->Arg(32);
BENCHMARK(BM_PatchRecertify)->ArgName("clusters")->Arg(8)->Arg(32);
BENCHMARK(BM_PatchRecertifyAllDirty)->ArgName("clusters")->Arg(8)->Arg(32);

}  // namespace
}  // namespace tml
