// Differential test harness: the floating-point engines (sound interval
// iteration, MDP total-reward value iteration, and the sparse direct DTMC
// solves of reachability, expected total reward and the long-run
// distribution) are cross-checked against an exact rational-arithmetic
// oracle (tests/oracle.hpp) on seeded random models.
//
// The generator emits dyadic probabilities (k/1024), so the float model and
// the oracle's rational twin are bit-for-bit the same distribution — any
// disagreement is a solver defect, not generator rounding. The interval
// engine additionally has its certified bracket checked for containment:
// lo <= v* <= hi with exact rational comparisons (up to a 1e-12 slack that
// covers the rounding of the double Bellman backups themselves).
//
// Seed rotation: TML_FUZZ_SEED overrides the base seed, and CI runs this
// suite (label `fuzz`) with several rotating seeds under Asan.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/checker/reachability.hpp"
#include "src/checker/steady_state.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/solver.hpp"
#include "tests/oracle.hpp"

namespace tml {
namespace {

std::uint64_t base_seed() {
  if (const char* env = std::getenv("TML_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260805ull;
}

/// Runs each engine on one model/objective and compares against the oracle.
void check_against_oracle(const oracle::RandomModel& rm, Objective objective,
                          std::uint64_t seed) {
  const CompiledModel model = compile(rm.mdp);
  const std::vector<BigRational> exact =
      oracle::exact_reachability(model, rm.targets, objective);
  const std::size_t n = model.num_states();
  const char* dir = objective == Objective::kMaximize ? "max" : "min";

  SolverOptions opts;
  opts.tolerance = 1e-9;
  opts.max_iterations = 5000000;

  // Point values: the bracket midpoint lands within eps of the oracle.
  const std::vector<double> point =
      mdp_reachability(model, rm.targets, objective, opts);
  for (StateId s = 0; s < n; ++s) {
    EXPECT_NEAR(point[s], exact[s].to_double(), 1e-5)
        << "seed=" << seed << " " << dir << " state=" << s
        << " oracle=" << exact[s].to_string();
  }

  // DTMC direct solve on one-choice models (compile(Mdp) never marks a
  // model deterministic, so the chain is compiled as a Dtmc): values near
  // the oracle, and the certified bracket containing it exactly.
  if (model.num_choices() == n) {
    const CompiledModel chain =
        compile(rm.mdp.induced_dtmc(rm.mdp.first_choice_policy()));
    const SolveResult direct = dtmc_reachability_bracket(chain, rm.targets);
    for (StateId s = 0; s < n; ++s) {
      EXPECT_NEAR(direct.values[s], exact[s].to_double(), 1e-8)
          << "seed=" << seed << " dtmc state=" << s
          << " oracle=" << exact[s].to_string();
      EXPECT_TRUE(BigRational::from_double(direct.lo[s]) <= exact[s] &&
                  exact[s] <= BigRational::from_double(direct.hi[s]))
          << "seed=" << seed << " dtmc state=" << s << " bracket=["
          << direct.lo[s] << ", " << direct.hi[s]
          << "] oracle=" << exact[s].to_string();
    }
  }

  // Certified bracket: exact containment (with rounding slack) and width.
  const SolveResult bracket =
      mdp_reachability_bracket(model, rm.targets, objective, opts);
  ASSERT_TRUE(bracket.converged) << "seed=" << seed << " " << dir;
  const BigRational slack = BigRational::from_double(1e-12);
  for (StateId s = 0; s < n; ++s) {
    const BigRational lo = BigRational::from_double(bracket.lo[s]);
    const BigRational hi = BigRational::from_double(bracket.hi[s]);
    EXPECT_TRUE(lo <= exact[s] + slack)
        << "seed=" << seed << " " << dir << " state=" << s
        << " lo=" << bracket.lo[s] << " oracle=" << exact[s].to_string();
    EXPECT_TRUE(exact[s] <= hi + slack)
        << "seed=" << seed << " " << dir << " state=" << s
        << " hi=" << bracket.hi[s] << " oracle=" << exact[s].to_string();
    EXPECT_LT(bracket.hi[s] - bracket.lo[s], opts.tolerance + 1e-12)
        << "seed=" << seed << " " << dir << " state=" << s;
    // The reported point value is the clamped midpoint of the bracket.
    EXPECT_GE(bracket.values[s], bracket.lo[s] - 1e-15);
    EXPECT_LE(bracket.values[s], bracket.hi[s] + 1e-15);
  }

  // Bitwise determinism across thread counts for the parallel sweeps.
  opts.threads = 1;
  const std::vector<double> reference =
      mdp_reachability(model, rm.targets, objective, opts);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    opts.threads = threads;
    const std::vector<double> parallel =
        mdp_reachability(model, rm.targets, objective, opts);
    for (StateId s = 0; s < n; ++s) {
      EXPECT_EQ(parallel[s], reference[s])
          << "seed=" << seed << " " << dir << " state=" << s
          << " threads=" << threads;
    }
  }
}

TEST(Differential, DtmcEnginesMatchExactOracle) {
  Rng rng(base_seed());
  for (int rep = 0; rep < 4; ++rep) {
    oracle::RandomModelConfig cfg;
    cfg.num_states = 18;
    cfg.max_choices = 1;  // DTMC-shaped
    const std::uint64_t seed = rng.seed() + static_cast<std::uint64_t>(rep);
    Rng model_rng(seed);
    const oracle::RandomModel rm = oracle::random_model(model_rng, cfg);
    // Max and min coincide on deterministic models; checking both exercises
    // the two prob0/prob1 code paths against the same oracle values.
    check_against_oracle(rm, Objective::kMaximize, seed);
    check_against_oracle(rm, Objective::kMinimize, seed);
  }
}

TEST(Differential, DtmcUntilPinsEscapeStatesBitwise) {
  // dtmc_until_bracket pins the escape states (¬stay ∧ ¬goal) in place; the
  // answer must be bit for bit the one the absorbing copy used to give.
  Rng rng(base_seed() ^ 0x07u);
  for (int rep = 0; rep < 64; ++rep) {
    oracle::RandomModelConfig cfg;
    cfg.num_states = 2 + rng.index(39);
    cfg.max_choices = 1;
    const std::uint64_t seed = rng.seed() + static_cast<std::uint64_t>(rep);
    Rng model_rng(seed);
    const oracle::RandomModel rm = oracle::random_model(model_rng, cfg);
    const CompiledModel chain =
        compile(rm.mdp.induced_dtmc(rm.mdp.first_choice_policy()));
    StateSet stay(cfg.num_states);
    for (StateId s = 0; s < cfg.num_states; ++s) {
      if (model_rng.uniform() < 0.8) stay.set(s);
    }
    StateSet escape = set_union(stay, rm.targets);
    escape.flip();
    const SolveResult pinned = dtmc_until_bracket(chain, stay, rm.targets);
    const SolveResult absorbed = dtmc_reachability_bracket(
        escape.none() ? chain : chain.make_absorbing(escape), rm.targets);
    SCOPED_TRACE(seed);
    EXPECT_EQ(pinned.values, absorbed.values);
    EXPECT_EQ(pinned.lo, absorbed.lo);
    EXPECT_EQ(pinned.hi, absorbed.hi);
  }
}

TEST(Differential, DtmcTotalRewardMatchesExactOracle) {
  // Random DTMCs (n ≤ 40) with dyadic state rewards k/8: the float chain
  // and the oracle's rational twin are equal, so the direct solve must
  // land within 1e-9 relative of the exact value, its certified bracket
  // must contain it exactly, and infinite values must agree.
  Rng rng(base_seed() ^ 0x5EEDu);
  for (int rep = 0; rep < 24; ++rep) {
    oracle::RandomModelConfig cfg;
    cfg.num_states = 2 + rng.index(39);
    cfg.max_choices = 1;
    cfg.trap_prob = 0.03;
    const std::uint64_t seed = rng.seed() + static_cast<std::uint64_t>(rep);
    Rng model_rng(seed);
    oracle::RandomModel rm = oracle::random_model(model_rng, cfg);
    for (StateId s = 0; s < cfg.num_states; ++s) {
      rm.mdp.set_state_reward(
          s, static_cast<double>(model_rng.index(17)) / 8.0);
    }
    const CompiledModel chain =
        compile(rm.mdp.induced_dtmc(rm.mdp.first_choice_policy()));
    const std::vector<std::optional<BigRational>> exact =
        oracle::exact_total_reward(chain, rm.targets);
    const SolveResult got = dtmc_total_reward_bracket(chain, rm.targets);
    for (StateId s = 0; s < chain.num_states(); ++s) {
      if (!exact[s]) {
        EXPECT_TRUE(std::isinf(got.values[s]))
            << "seed=" << seed << " state=" << s << " value=" << got.values[s];
        continue;
      }
      const double want = exact[s]->to_double();
      EXPECT_NEAR(got.values[s], want, 1e-9 * std::max(1.0, std::abs(want)))
          << "seed=" << seed << " state=" << s
          << " oracle=" << exact[s]->to_string();
      EXPECT_TRUE(BigRational::from_double(got.lo[s]) <= *exact[s] &&
                  *exact[s] <= BigRational::from_double(got.hi[s]))
          << "seed=" << seed << " state=" << s << " bracket=[" << got.lo[s]
          << ", " << got.hi[s] << "] oracle=" << exact[s]->to_string();
    }
  }
}

TEST(Differential, LongRunMatchesExactOracle) {
  // Random DTMCs (n ≤ 60): the long-run distribution — one transposed
  // envelope-LU solve for the bottom entry probabilities, one per reached
  // bottom for its stationary distribution — lands within 1e-7 absolute of
  // the exact occupancy.
  Rng rng(base_seed() ^ 0x10E6u);
  for (int rep = 0; rep < 64; ++rep) {
    oracle::RandomModelConfig cfg;
    cfg.num_states = 2 + rng.index(59);
    cfg.max_choices = 1;
    const std::uint64_t seed = rng.seed() + static_cast<std::uint64_t>(rep);
    Rng model_rng(seed);
    const oracle::RandomModel rm = oracle::random_model(model_rng, cfg);
    const CompiledModel chain =
        compile(rm.mdp.induced_dtmc(rm.mdp.first_choice_policy()));
    const std::vector<BigRational> exact = oracle::exact_long_run(chain);
    const std::vector<double> got = long_run_distribution(chain);
    for (StateId s = 0; s < chain.num_states(); ++s) {
      EXPECT_NEAR(got[s], exact[s].to_double(), 1e-7)
          << "seed=" << seed << " state=" << s
          << " oracle=" << exact[s].to_string();
    }
  }
}

TEST(Differential, MdpEnginesMatchExactOracle) {
  Rng rng(base_seed() ^ 0xD1FFu);
  for (int rep = 0; rep < 4; ++rep) {
    oracle::RandomModelConfig cfg;
    cfg.num_states = 20;
    cfg.max_choices = 3;
    const std::uint64_t seed = rng.seed() + static_cast<std::uint64_t>(rep);
    Rng model_rng(seed);
    const oracle::RandomModel rm = oracle::random_model(model_rng, cfg);
    check_against_oracle(rm, Objective::kMaximize, seed);
    check_against_oracle(rm, Objective::kMinimize, seed);
  }
}

TEST(Differential, MdpTotalRewardMatchesExactOracle) {
  // Random MDPs (n ≤ 8, ≤ 3 choices) where about half the choices earn
  // nothing, so zero-reward end components are common: Rmin and Rmax from
  // value iteration land within 1e-6 relative of the optimum over every
  // memoryless policy, and infinite values agree.
  Rng rng(base_seed() ^ 0x2E3Au);
  for (int rep = 0; rep < 48; ++rep) {
    oracle::RandomModelConfig cfg;
    cfg.num_states = 2 + rng.index(7);
    cfg.max_choices = 3;
    cfg.trap_prob = 0.04;
    const std::uint64_t seed = rng.seed() + static_cast<std::uint64_t>(rep);
    Rng model_rng(seed);
    oracle::RandomModel rm = oracle::random_model(model_rng, cfg);
    for (StateId s = 0; s < cfg.num_states; ++s) {
      for (Choice& choice : rm.mdp.mutable_choices(s)) {
        choice.reward = model_rng.bernoulli(0.5)
                            ? 0.0
                            : static_cast<double>(1 + model_rng.index(8)) / 8.0;
      }
    }
    const CompiledModel model = compile(rm.mdp);
    SolverOptions opts;
    opts.tolerance = 1e-12;
    opts.max_iterations = 5000000;
    for (const Objective objective :
         {Objective::kMinimize, Objective::kMaximize}) {
      const char* dir = objective == Objective::kMaximize ? "max" : "min";
      const std::vector<std::optional<BigRational>> exact =
          oracle::exact_total_reward(model, rm.targets, objective);
      const SolveResult got =
          total_reward_to_target(model, rm.targets, objective, opts);
      for (StateId s = 0; s < model.num_states(); ++s) {
        if (!exact[s]) {
          EXPECT_TRUE(std::isinf(got.values[s]))
              << "seed=" << seed << " " << dir << " state=" << s
              << " value=" << got.values[s];
          continue;
        }
        const double want = exact[s]->to_double();
        EXPECT_NEAR(got.values[s], want, 1e-6 * std::max(1.0, want))
            << "seed=" << seed << " " << dir << " state=" << s
            << " oracle=" << exact[s]->to_string();
      }
    }
  }
}

TEST(Differential, LargerSparseMdp) {
  oracle::RandomModelConfig cfg;
  cfg.num_states = 40;
  cfg.max_choices = 2;
  cfg.max_successors = 3;
  Rng model_rng(base_seed() ^ 0xBEEFu);
  const oracle::RandomModel rm = oracle::random_model(model_rng, cfg);
  check_against_oracle(rm, Objective::kMaximize, model_rng.seed());
}

}  // namespace
}  // namespace tml
