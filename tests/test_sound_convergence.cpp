// Regression test pinning down WHY unbounded reachability uses sound
// interval iteration: a chain of slowly-mixing SCCs on which a classic
// `delta < eps` stopping rule triggers while the iterate is still ~1.5e-2
// away from the true value (four orders of magnitude above the tolerance
// it claims). The sound engine refuses to stop there and returns a
// certified bracket around the exact answer.
//
// The model is K gambler's-ruin random walks (m states each, p = 1/2 up and
// down) chained one-directionally: falling off the bottom of any walk hits
// FAIL, climbing off the top enters the middle of the next walk (the last
// one exits to GOAL). Each walk is one SCC with spectral gap
// ~ pi^2 / (2 (m+1)^2), so per-sweep progress decays ~1e4 times slower than
// the error for m = 300 — exactly the regime where `delta < eps` lies.
//
// The exact value is closed-form: entering a walk at (0-based) position i
// reaches the top before the bottom with probability (i+1)/(m+1), so
// value(start) = ((m/2+1)/(m+1))^K.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/checker/reachability.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/solver.hpp"
#include "src/rational/exact.hpp"

namespace tml {
namespace {

constexpr std::size_t kWalkLength = 300;  // states per walk (even)
constexpr std::size_t kNumWalks = 2;
constexpr StateId kFail = 0;
constexpr StateId kGoal = 1;

StateId walk_state(std::size_t walk, std::size_t pos) {
  return static_cast<StateId>(2 + walk * kWalkLength + pos);
}

Mdp slow_chain() {
  const std::size_t m = kWalkLength;
  Mdp mdp(2 + kNumWalks * m);
  mdp.add_choice(kFail, "loop", {Transition{kFail, 1.0}});
  mdp.add_choice(kGoal, "loop", {Transition{kGoal, 1.0}});
  mdp.add_label(kGoal, "goal");
  for (std::size_t walk = 0; walk < kNumWalks; ++walk) {
    for (std::size_t pos = 0; pos < m; ++pos) {
      const StateId down = pos == 0 ? kFail : walk_state(walk, pos - 1);
      const StateId up = pos == m - 1
                             ? (walk + 1 == kNumWalks
                                    ? kGoal
                                    : walk_state(walk + 1, m / 2))
                             : walk_state(walk, pos + 1);
      mdp.add_choice(walk_state(walk, pos), "step",
                     {Transition{down, 0.5}, Transition{up, 0.5}});
    }
  }
  return mdp;
}

TEST(SoundConvergence, BracketContainsExactValueOnSlowChain) {
  const CompiledModel model = compile(slow_chain());
  StateSet targets(model.num_states());
  targets.set(kGoal);
  const StateId start = walk_state(0, kWalkLength / 2);

  // Exact closed-form value at the start state, in rational arithmetic.
  const BigRational per_walk(BigInt(static_cast<std::int64_t>(
                                 kWalkLength / 2 + 1)),
                             BigInt(static_cast<std::int64_t>(
                                 kWalkLength + 1)));
  BigRational exact(1);
  for (std::size_t i = 0; i < kNumWalks; ++i) exact *= per_walk;
  const double exact_d = exact.to_double();

  SolverOptions opts;
  opts.tolerance = 1e-6;
  opts.max_iterations = 5'000'000;

  // The sound engine keeps sweeping until the BRACKET closes, so its
  // midpoint is within tolerance of the exact value, and the certified
  // bounds genuinely contain it.
  const SolveResult bracket =
      mdp_reachability_bracket(model, targets, Objective::kMaximize, opts);
  ASSERT_TRUE(bracket.converged);
  EXPECT_NEAR(bracket.values[start], exact_d, opts.tolerance);
  EXPECT_LT(bracket.hi[start] - bracket.lo[start], opts.tolerance);
  const BigRational slack = BigRational::from_double(1e-12);
  EXPECT_TRUE(BigRational::from_double(bracket.lo[start]) <= exact + slack);
  EXPECT_TRUE(exact <= BigRational::from_double(bracket.hi[start]) + slack);

  // The plain reachability entry point reports the same certified midpoint.
  const std::vector<double> default_values =
      mdp_reachability(model, targets, Objective::kMaximize,
                       SolverOptions{.tolerance = 1e-6,
                                     .max_iterations = 5'000'000});
  EXPECT_NEAR(default_values[start], exact_d, 1e-5);
}

}  // namespace
}  // namespace tml
