// Unit tests for the interval-MDP robust verification baseline
// (src/checker/interval.cpp): the order-based greedy inner step, degenerate
// intervals collapsing to the point solver, hand-computed robust
// reachability under adversarial and cooperative nature, the graph pass
// that pins prob0/prob1 states before the sweep, and a seeded
// soundness battery: on random widened MDPs, every concrete model drawn
// inside the boxes has a point value between the pessimistic and the
// optimistic robust value.
//
// Seed rotation: TML_FUZZ_SEED overrides the battery's base seed, and CI
// runs this suite (label `fuzz`) with several rotating seeds under Asan.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/checker/interval.hpp"
#include "src/checker/reachability.hpp"
#include "src/common/rng.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/model.hpp"
#include "tests/oracle.hpp"

namespace tml {
namespace {

/// resolve_polytope over an index-aligned box, copied out of the scratch.
std::vector<double> resolve(const std::vector<StateId>& targets,
                            const std::vector<double>& lower,
                            const std::vector<double>& upper,
                            const std::vector<double>& values, bool maximize) {
  PolytopeScratch scratch;
  const std::span<const double> p =
      resolve_polytope({targets, lower, upper}, values, maximize, scratch);
  return {p.begin(), p.end()};
}

TEST(ResolvePolytope, GreedyFillsBestStatesFirst) {
  // Successor 0 (value 1.0) in [0.2, 0.6], successor 1 (value 0.5) in
  // [0.1, 0.5], successor 2 (value 0.0) in [0.1, 0.4].
  const std::vector<StateId> targets = {0, 1, 2};
  const std::vector<double> lower = {0.2, 0.1, 0.1};
  const std::vector<double> upper = {0.6, 0.5, 0.4};
  const std::vector<double> values = {1.0, 0.5, 0.0};

  // Maximize: start every edge at its lower bound (total 0.4) and hand the
  // 0.6 slack to the highest-value successors first: target 0 soaks 0.4 to
  // its cap, target 1 gets the remaining 0.2.
  const std::vector<double> up = resolve(targets, lower, upper, values, true);
  ASSERT_EQ(up.size(), 3u);
  EXPECT_DOUBLE_EQ(up[0], 0.6);
  EXPECT_DOUBLE_EQ(up[1], 0.3);
  EXPECT_DOUBLE_EQ(up[2], 0.1);
  EXPECT_DOUBLE_EQ(up[0] + up[1] + up[2], 1.0);

  // Minimize: slack flows to the lowest-value successors instead.
  const std::vector<double> down =
      resolve(targets, lower, upper, values, false);
  EXPECT_DOUBLE_EQ(down[0], 0.2);
  EXPECT_DOUBLE_EQ(down[1], 0.4);
  EXPECT_DOUBLE_EQ(down[2], 0.4);
  EXPECT_DOUBLE_EQ(down[0] + down[1] + down[2], 1.0);
}

TEST(ResolvePolytope, PointIntervalsReturnThePoint) {
  const std::vector<StateId> targets = {0, 1};
  const std::vector<double> bounds = {0.25, 0.75};
  const std::vector<double> values = {1.0, 0.0};
  for (const bool maximize : {true, false}) {
    const std::vector<double> p =
        resolve(targets, bounds, bounds, values, maximize);
    EXPECT_DOUBLE_EQ(p[0], 0.25);
    EXPECT_DOUBLE_EQ(p[1], 0.75);
  }
}

/// goal = 2, fail = 3; s0 -> s1/fail, s1 -> goal/fail, both 50:50 nominal.
Mdp two_step_chain() {
  Mdp mdp(4);
  mdp.add_choice(0, "a", {Transition{1, 0.5}, Transition{3, 0.5}});
  mdp.add_choice(1, "a", {Transition{2, 0.5}, Transition{3, 0.5}});
  mdp.add_choice(2, "loop", {Transition{2, 1.0}});
  mdp.add_choice(3, "loop", {Transition{3, 1.0}});
  mdp.add_label(2, "goal");
  return mdp;
}

TEST(IntervalReachability, HandComputedTwoStepChain) {
  const Mdp nominal = two_step_chain();
  const IntervalMdp widened = IntervalMdp::widen(nominal, 0.1);
  widened.validate();
  StateSet targets(4);
  targets.set(2);

  // Adversarial nature pushes both steps to their 0.4 floor; cooperative
  // nature lifts both to 0.6.
  const std::vector<double> worst = interval_reachability(
      widened, targets, Objective::kMaximize, Nature::kAdversarial);
  EXPECT_NEAR(worst[0], 0.4 * 0.4, 1e-9);
  EXPECT_NEAR(worst[1], 0.4, 1e-9);
  const std::vector<double> best = interval_reachability(
      widened, targets, Objective::kMaximize, Nature::kCooperative);
  EXPECT_NEAR(best[0], 0.6 * 0.6, 1e-9);
  EXPECT_NEAR(best[1], 0.6, 1e-9);
  // Absorbing endpoints are unaffected by the uncertainty.
  EXPECT_NEAR(worst[2], 1.0, 1e-12);
  EXPECT_NEAR(worst[3], 0.0, 1e-12);
}

/// One decision state: action "safe" hits goal with 0.5 nominal, action
/// "risky" with 0.55; widening by 0.25 gives [0.25,0.75] vs [0.3,0.8].
Mdp decision_state() {
  Mdp mdp(3);
  mdp.add_choice(0, "safe", {Transition{1, 0.5}, Transition{2, 0.5}});
  mdp.add_choice(0, "risky", {Transition{1, 0.55}, Transition{2, 0.45}});
  mdp.add_choice(1, "loop", {Transition{1, 1.0}});
  mdp.add_choice(2, "loop", {Transition{2, 1.0}});
  mdp.add_label(1, "goal");
  return mdp;
}

TEST(IntervalReachability, SchedulerAndNatureInteract) {
  const IntervalMdp widened = IntervalMdp::widen(decision_state(), 0.25);
  StateSet targets(3);
  targets.set(1);

  // max + adversarial: nature floors both actions (0.25 vs 0.3), the
  // scheduler takes the better floor.
  EXPECT_NEAR(interval_reachability(widened, targets, Objective::kMaximize,
                                    Nature::kAdversarial)[0],
              0.30, 1e-9);
  // max + cooperative: both ceilings (0.75 vs 0.8), scheduler takes 0.8.
  EXPECT_NEAR(interval_reachability(widened, targets, Objective::kMaximize,
                                    Nature::kCooperative)[0],
              0.80, 1e-9);
  // min + adversarial: nature RAISES each action (0.75 vs 0.8), the
  // minimizing scheduler picks the smaller ceiling.
  EXPECT_NEAR(interval_reachability(widened, targets, Objective::kMinimize,
                                    Nature::kAdversarial)[0],
              0.75, 1e-9);
  // min + cooperative: floors again (0.25 vs 0.3), scheduler picks 0.25.
  EXPECT_NEAR(interval_reachability(widened, targets, Objective::kMinimize,
                                    Nature::kCooperative)[0],
              0.25, 1e-9);
}

TEST(IntervalReachability, ZeroRadiusCollapsesToPointSolver) {
  const Mdp nominal = decision_state();
  const IntervalMdp degenerate = IntervalMdp::widen(nominal, 0.0);
  StateSet targets(3);
  targets.set(1);
  for (const Objective objective :
       {Objective::kMaximize, Objective::kMinimize}) {
    const std::vector<double> point =
        mdp_reachability(compile(nominal), targets, objective);
    for (const Nature nature : {Nature::kAdversarial, Nature::kCooperative}) {
      const std::vector<double> robust =
          interval_reachability(degenerate, targets, objective, nature);
      ASSERT_EQ(robust.size(), point.size());
      for (std::size_t s = 0; s < point.size(); ++s) {
        EXPECT_NEAR(robust[s], point[s], 1e-8) << "state " << s;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Graph pinning: the zero set always, the one set only when every support
// edge keeps a positive lower bound.

/// s0 -> goal (p) or back to s0 (1 - p); s1 is the goal, s2 a dead end that
/// never reaches it.
Mdp retry_chain(double p) {
  Mdp mdp(3);
  mdp.add_choice(0, "try", {Transition{1, p}, Transition{0, 1.0 - p}});
  mdp.add_choice(1, "loop", {Transition{1, 1.0}});
  mdp.add_choice(2, "loop", {Transition{2, 1.0}});
  mdp.add_label(1, "goal");
  return mdp;
}

TEST(IntervalPinning, OneSetIsPinnedWhenEveryEdgeKeepsItsSupport) {
  // Every edge keeps a lower bound of at least 0.49, so each nature still
  // retries with positive probability: s0 reaches goal almost surely and
  // is pinned to exactly 1, and the dead end to exactly 0.
  const IntervalMdp widened = IntervalMdp::widen(retry_chain(0.5), 0.01);
  StateSet targets(3);
  targets.set(1);
  for (const Nature nature : {Nature::kAdversarial, Nature::kCooperative}) {
    const std::vector<double> values = interval_reachability(
        widened, targets, Objective::kMaximize, nature);
    EXPECT_EQ(values[0], 1.0);
    EXPECT_EQ(values[1], 1.0);
    EXPECT_EQ(values[2], 0.0);
  }
}

TEST(IntervalPinning, OneSetIsNotPinnedWhenNatureCanDropAnEdge) {
  // Nominally s0 retries a 0.005 chance forever, so Pmax = 1. Widened by
  // 0.01, the goal edge's box is [0, 0.015]: adversarial nature puts 0 on
  // it at every step and s0 never reaches goal.
  const Mdp nominal = retry_chain(0.005);
  StateSet targets(3);
  targets.set(1);
  EXPECT_NEAR(mdp_reachability(compile(nominal), targets,
                               Objective::kMaximize)[0],
              1.0, 1e-9);
  const IntervalMdp widened = IntervalMdp::widen(nominal, 0.01);
  const std::vector<double> worst = interval_reachability(
      widened, targets, Objective::kMaximize, Nature::kAdversarial);
  EXPECT_EQ(worst[0], 0.0);
  const std::vector<double> best = interval_reachability(
      widened, targets, Objective::kMaximize, Nature::kCooperative);
  EXPECT_NEAR(best[0], 1.0, 1e-6);
}

TEST(IntervalPinning, ZeroProbabilityEdgesStayOutOfTheSupport) {
  // A listed 0-probability edge into goal is not a transition: widening
  // keeps its box at [0, 0], so s0 still never reaches goal.
  Mdp mdp(2);
  mdp.add_choice(0, "a", {Transition{0, 1.0}, Transition{1, 0.0}});
  mdp.add_choice(1, "loop", {Transition{1, 1.0}});
  mdp.add_label(1, "goal");
  const IntervalMdp widened = IntervalMdp::widen(mdp, 0.1);
  EXPECT_EQ(widened.upper()[1], 0.0);
  StateSet targets(2);
  targets.set(1);
  EXPECT_EQ(interval_reachability(widened, targets, Objective::kMaximize,
                                  Nature::kCooperative)[0],
            0.0);
}

// ---------------------------------------------------------------------------
// Soundness battery.

std::uint64_t base_seed() {
  if (const char* env = std::getenv("TML_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20261019ull;
}

/// A concrete model inside `box`: every choice starts at its lower bounds,
/// then its successors, in random order, take a random share of the mass
/// left, and a final greedy pass spends the rest up to the upper bounds.
Mdp sample_inside(const IntervalMdp& box, Rng& rng) {
  const CompiledModel& core = box.nominal();
  Mdp sample(core.num_states());
  for (StateId s = 0; s < core.num_states(); ++s) {
    for (std::uint32_t c = core.first_choice(s); c < core.last_choice(s);
         ++c) {
      const PolytopeSlice poly = box.polytope(c);
      const std::size_t m = poly.targets.size();
      std::vector<double> p(poly.lower.begin(), poly.lower.end());
      double left = 1.0 - std::accumulate(p.begin(), p.end(), 0.0);
      std::vector<std::size_t> order(m);
      std::iota(order.begin(), order.end(), 0);
      for (std::size_t i = m; i > 1; --i) {
        std::swap(order[i - 1], order[rng.index(i)]);
      }
      for (const bool greedy : {false, true}) {
        for (std::size_t i : order) {
          const double room = std::min(poly.upper[i] - p[i], left);
          const double add =
              greedy ? room : rng.uniform(0.0, std::max(0.0, room));
          p[i] += add;
          left -= add;
        }
      }
      std::vector<Transition> dist;
      for (std::size_t i = 0; i < m; ++i) {
        dist.push_back(Transition{poly.targets[i], p[i]});
      }
      sample.add_choice(s, "a", std::move(dist));
    }
  }
  return sample;
}

/// A robust solve that reports whether it met its tolerance. The robust
/// engine has no end-component handling under nature yet, so on a model
/// with a nearly closed cycle its lower iterate can still be climbing at the
/// sweep cap; it is then a sound LOWER bound on its fixpoint and nothing
/// more.
struct RobustRun {
  std::vector<double> values;
  bool converged = true;
};

RobustRun robust(const IntervalMdp& box, const StateSet& targets,
                 Objective objective, Nature nature) {
  RobustRun run;
  try {
    run.values = interval_reachability(box, targets, objective, nature);
  } catch (const NumericError&) {
    SolverOptions capped;
    capped.throw_on_nonconvergence = false;
    run.values = interval_reachability(box, targets, objective, nature, capped);
    run.converged = false;
  }
  return run;
}

TEST(IntervalSoundness, SampledModelsLieBetweenRobustValues) {
  Rng rng(base_seed());
  // Both robust values are lower iterates stopped at a sweep delta below
  // the tolerance, so they may sit slightly under their fixpoints. The
  // pessimistic side is a lower iterate of a value below every sample's, so
  // it is checked on every run; the optimistic side only when it converged.
  constexpr double kSlack = 1e-6;
  // A draw may put almost all of a choice's mass on a cycle, where the
  // point engine's gap closes too slowly to converge within its sweep cap.
  // Its bracket is certified at every sweep, so containment is asserted
  // against the bracket; unconverged draws are counted.
  SolverOptions point_options;
  point_options.throw_on_nonconvergence = false;
  std::size_t unconverged = 0;
  std::size_t robust_unconverged = 0;
  std::size_t draws = 0;
  for (int rep = 0; rep < 32; ++rep) {
    // Strided, so neighbouring base seeds draw disjoint model sets.
    const std::uint64_t seed = rng.seed() * 64 + static_cast<std::uint64_t>(rep);
    Rng model_rng(seed);
    oracle::RandomModelConfig cfg;
    cfg.num_states = 2 + model_rng.index(29);  // n <= 30
    const oracle::RandomModel rm = oracle::random_model(model_rng, cfg);
    for (const double radius : {0.01, 0.05, 0.1}) {
      const IntervalMdp box = IntervalMdp::widen(rm.mdp, radius);
      for (const Objective objective :
           {Objective::kMaximize, Objective::kMinimize}) {
        const RobustRun adversarial =
            robust(box, rm.targets, objective, Nature::kAdversarial);
        const RobustRun cooperative =
            robust(box, rm.targets, objective, Nature::kCooperative);
        // Adversarial nature opposes the scheduler: it is the pessimistic
        // bound for Pmax and the (higher) pessimistic bound for Pmin.
        const bool maximize = objective == Objective::kMaximize;
        const RobustRun& low = maximize ? adversarial : cooperative;
        const RobustRun& high = maximize ? cooperative : adversarial;
        robust_unconverged += !low.converged + !high.converged;
        for (int draw = 0; draw < 16; ++draw) {
          const SolveResult point = mdp_reachability_bracket(
              compile(sample_inside(box, model_rng)), rm.targets, objective,
              point_options);
          ++draws;
          if (!point.converged) ++unconverged;
          for (StateId s = 0; s < point.values.size(); ++s) {
            ASSERT_LE(low.values[s], point.hi[s] + kSlack)
                << "seed=" << seed << " radius=" << radius
                << (maximize ? " max" : " min") << " draw=" << draw
                << " state=" << s;
            if (!high.converged) continue;
            ASSERT_LE(point.lo[s], high.values[s] + kSlack)
                << "seed=" << seed << " radius=" << radius
                << (maximize ? " max" : " min") << " draw=" << draw
                << " state=" << s;
          }
        }
      }
    }
  }
  std::cout << "[ robust ] " << draws << " sampled models, " << unconverged
            << " with an unconverged point bracket; " << robust_unconverged
            << " robust solves hit the sweep cap\n";
}

}  // namespace
}  // namespace tml
