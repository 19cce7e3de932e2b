// Randomized (fuzz-style) property tests across the logic and checker
// layers: generated formulas must round-trip through printer and parser,
// and checker results must respect PCTL's semantic laws on random models.

#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "src/casestudies/generator.hpp"
#include "src/checker/check.hpp"
#include "src/checker/smc.hpp"
#include "src/common/rng.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/prism_parser.hpp"
#include "src/mdp/solver.hpp"
#include "tests/oracle.hpp"

namespace tml {
namespace {

StateFormulaPtr random_state_formula(Rng& rng, int depth);

PathFormulaPtr random_path_formula(Rng& rng, int depth) {
  switch (rng.index(4)) {
    case 0:
      return pctl::next(random_state_formula(rng, depth - 1));
    case 1:
      return pctl::eventually(random_state_formula(rng, depth - 1),
                              rng.bernoulli(0.5)
                                  ? std::optional<std::size_t>(rng.index(9))
                                  : std::nullopt);
    case 2:
      return pctl::globally(random_state_formula(rng, depth - 1),
                            rng.bernoulli(0.5)
                                ? std::optional<std::size_t>(rng.index(9))
                                : std::nullopt);
    default:
      return pctl::until(random_state_formula(rng, depth - 1),
                         random_state_formula(rng, depth - 1),
                         rng.bernoulli(0.5)
                             ? std::optional<std::size_t>(rng.index(9))
                             : std::nullopt);
  }
}

StateFormulaPtr random_state_formula(Rng& rng, int depth) {
  const std::vector<std::string> labels{"a", "b", "goal"};
  if (depth <= 0 || rng.bernoulli(0.3)) {
    switch (rng.index(3)) {
      case 0: return pctl::truth();
      case 1: return pctl::falsity();
      default: return pctl::label(labels[rng.index(labels.size())]);
    }
  }
  switch (rng.index(6)) {
    case 0:
      return pctl::negation(random_state_formula(rng, depth - 1));
    case 1:
      return pctl::conjunction(random_state_formula(rng, depth - 1),
                               random_state_formula(rng, depth - 1));
    case 2:
      return pctl::disjunction(random_state_formula(rng, depth - 1),
                               random_state_formula(rng, depth - 1));
    case 3:
      return pctl::implication(random_state_formula(rng, depth - 1),
                               random_state_formula(rng, depth - 1));
    case 4: {
      const Comparison cmp = static_cast<Comparison>(rng.index(4));
      return pctl::prob(cmp, rng.uniform(0.0, 1.0),
                        random_path_formula(rng, depth));
    }
    default:
      return pctl::reward_reach(static_cast<Comparison>(rng.index(4)),
                                rng.uniform(0.0, 20.0),
                                random_state_formula(rng, depth - 1));
  }
}

Dtmc random_chain(Rng& rng, std::size_t n) {
  Dtmc chain(n);
  for (StateId s = 0; s < n; ++s) {
    // Two random targets with random split, plus optional self-mass.
    const StateId t1 = static_cast<StateId>(rng.index(n));
    const StateId t2 = static_cast<StateId>(rng.index(n));
    const double self = rng.uniform(0.0, 0.5);
    const double split = rng.uniform(0.0, 1.0);
    std::vector<Transition> row;
    auto add = [&row](StateId t, double p) {
      if (p <= 0.0) return;
      for (Transition& existing : row) {
        if (existing.target == t) {
          existing.probability += p;
          return;
        }
      }
      row.push_back(Transition{t, p});
    };
    add(s, self);
    add(t1, (1.0 - self) * split);
    add(t2, (1.0 - self) * (1.0 - split));
    chain.set_transitions(s, std::move(row));
    chain.set_state_reward(s, rng.uniform(0.0, 2.0));
    if (rng.bernoulli(0.4)) chain.add_label(s, "a");
    if (rng.bernoulli(0.3)) chain.add_label(s, "b");
    if (rng.bernoulli(0.2)) chain.add_label(s, "goal");
  }
  return chain;
}

class FuzzRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(FuzzRoundTrip, PrinterParserFixedPoint) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  for (int i = 0; i < 20; ++i) {
    const StateFormulaPtr f = random_state_formula(rng, 3);
    const std::string text = f->to_string();
    StateFormulaPtr reparsed;
    ASSERT_NO_THROW(reparsed = parse_pctl(text)) << text;
    EXPECT_EQ(reparsed->to_string(), text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRoundTrip, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Precedence corpus: the built-in printer parenthesizes fully, so the
// round-trip above can never catch a precedence bug. This corpus renders
// random boolean formulas with the MINIMAL parentheses the grammar allows
// (`=>` loosest and right-associative, then `|`, `&`, `!`) and asserts the
// parser rebuilds the exact same tree.

StateFormulaPtr random_boolean_formula(Rng& rng, int depth) {
  const std::vector<std::string> labels{"a", "b", "c"};
  if (depth <= 0 || rng.bernoulli(0.3)) {
    switch (rng.index(3)) {
      case 0: return pctl::truth();
      case 1: return pctl::falsity();
      default: return pctl::label(labels[rng.index(labels.size())]);
    }
  }
  switch (rng.index(4)) {
    case 0:
      return pctl::negation(random_boolean_formula(rng, depth - 1));
    case 1:
      return pctl::conjunction(random_boolean_formula(rng, depth - 1),
                               random_boolean_formula(rng, depth - 1));
    case 2:
      return pctl::disjunction(random_boolean_formula(rng, depth - 1),
                               random_boolean_formula(rng, depth - 1));
    default:
      return pctl::implication(random_boolean_formula(rng, depth - 1),
                               random_boolean_formula(rng, depth - 1));
  }
}

int connective_precedence(const StateFormula& f) {
  switch (f.kind()) {
    case StateFormula::Kind::kImplies: return 0;
    case StateFormula::Kind::kOr: return 1;
    case StateFormula::Kind::kAnd: return 2;
    case StateFormula::Kind::kNot: return 3;
    default: return 4;  // atoms
  }
}

std::string render_minimal(const StateFormula& f);

std::string render_operand(const StateFormula& child, int min_precedence) {
  std::string text = render_minimal(child);
  if (connective_precedence(child) < min_precedence) {
    text = "(" + text + ")";
  }
  return text;
}

std::string render_minimal(const StateFormula& f) {
  switch (f.kind()) {
    case StateFormula::Kind::kTrue: return "true";
    case StateFormula::Kind::kFalse: return "false";
    case StateFormula::Kind::kLabel: return "\"" + f.label() + "\"";
    case StateFormula::Kind::kNot:
      return "!" + render_operand(f.operand(), 3);
    case StateFormula::Kind::kAnd:
      // Left-associative: the left child may sit at the same level.
      return render_operand(f.operand(0), 2) + " & " +
             render_operand(f.operand(1), 3);
    case StateFormula::Kind::kOr:
      return render_operand(f.operand(0), 1) + " | " +
             render_operand(f.operand(1), 2);
    case StateFormula::Kind::kImplies:
      // Right-associative: the right child may sit at the same level.
      return render_operand(f.operand(0), 1) + " => " +
             render_operand(f.operand(1), 0);
    default:
      ADD_FAILURE() << "non-boolean formula in precedence corpus";
      return "false";
  }
}

class FuzzPrecedence : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPrecedence, MinimalParenthesesReparseToTheSameTree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  for (int i = 0; i < 40; ++i) {
    const StateFormulaPtr f = random_boolean_formula(rng, 4);
    const std::string text = render_minimal(*f);
    StateFormulaPtr reparsed;
    ASSERT_NO_THROW(reparsed = parse_pctl(text)) << text;
    // Identical trees print identically through the canonical printer.
    EXPECT_EQ(reparsed->to_string(), f->to_string()) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPrecedence, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// SMC differential: sampled estimates must agree with the exact engine on
// random chains, and truncation accounting must fire on chains whose hitting
// times exceed the horizon.

class FuzzSmcDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSmcDifferential, BoundedGloballyMatchesExactChecker) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 3);
  const Dtmc chain = random_chain(rng, 4 + rng.index(4));
  const StateFormulaPtr query = pctl::prob_query(
      Quantifier::kMax, pctl::globally(pctl::label("a"), 6));
  const double exact =
      quantitative_values(compile(chain), *query)[chain.initial_state()];
  SmcOptions options;
  options.epsilon = 0.02;
  options.delta = 0.02;
  const SmcResult smc = smc_check(chain, *query, options);
  EXPECT_EQ(smc.truncated, 0u);  // bounded operators never truncate
  // 0.05 ≫ ε: failure probability per seed is ~1e-12, not δ.
  EXPECT_NEAR(smc.estimate, exact, 0.05);
}

TEST_P(FuzzSmcDifferential, TruncationAccountingFiresOnSlowChains) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 211 + 13);
  // Geometric chain with expected hitting time 1/p ≫ max_steps.
  const double p = rng.uniform(0.0005, 0.005);
  Dtmc chain(2);
  chain.set_transitions(0, {Transition{0, 1.0 - p}, Transition{1, p}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.add_label(1, "goal");
  const StateFormulaPtr query = parse_pctl("P=? [ F \"goal\" ]");
  SmcOptions options;
  options.epsilon = 0.05;
  options.max_steps = 10;
  // Strict default: refuses the biased estimate.
  EXPECT_THROW(smc_check(chain, *query, options), NumericError);
  // Tolerated: counted, and the interval widens to bracket the truth (1).
  options.max_truncation_rate = 1.0;
  const SmcResult result = smc_check(chain, *query, options);
  EXPECT_GT(result.truncated, 0u);
  EXPECT_GT(result.epsilon, options.epsilon);
  EXPECT_GE(result.estimate + result.epsilon, 1.0 - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSmcDifferential, ::testing::Range(0, 8));

class FuzzSemantics : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSemantics, CheckerLawsOnRandomChains) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 11);
  const Dtmc chain = random_chain(rng, 4 + rng.index(5));
  const CompiledModel model = compile(chain);

  // Law 1: Sat(¬φ) is the complement of Sat(φ).
  for (int i = 0; i < 5; ++i) {
    const StateFormulaPtr f = random_state_formula(rng, 2);
    const StateSet sat = satisfying_states(model, *f);
    const StateSet neg = satisfying_states(model, *pctl::negation(f));
    EXPECT_EQ(neg, complement(sat));
  }

  // Law 2: P(F φ) = P(true U φ) (state-by-state).
  const StateFormulaPtr target = random_state_formula(rng, 1);
  const std::vector<double> ev = quantitative_values(
      model, *pctl::prob_query(Quantifier::kMax, pctl::eventually(target)));
  const std::vector<double> un = quantitative_values(
      model,
      *pctl::prob_query(Quantifier::kMax, pctl::until(pctl::truth(), target)));
  for (std::size_t s = 0; s < ev.size(); ++s) {
    EXPECT_NEAR(ev[s], un[s], 1e-9);
  }

  // Law 3: P(G φ) + P(F ¬φ) = 1.
  const std::vector<double> g = quantitative_values(
      model, *pctl::prob_query(Quantifier::kMax, pctl::globally(target)));
  const std::vector<double> f_neg = quantitative_values(
      model, *pctl::prob_query(Quantifier::kMax,
                               pctl::eventually(pctl::negation(target))));
  for (std::size_t s = 0; s < g.size(); ++s) {
    EXPECT_NEAR(g[s] + f_neg[s], 1.0, 1e-9);
  }

  // Law 4: bounded until is monotone in the bound and converges to the
  // unbounded value from below.
  const StateFormulaPtr stay = random_state_formula(rng, 1);
  double previous = -1.0;
  const std::vector<double> unbounded = quantitative_values(
      model, *pctl::prob_query(Quantifier::kMax, pctl::until(stay, target)));
  for (const std::size_t k : {0u, 1u, 2u, 4u, 8u, 32u}) {
    const std::vector<double> bounded = quantitative_values(
        model,
        *pctl::prob_query(Quantifier::kMax, pctl::until(stay, target, k)));
    EXPECT_GE(bounded[chain.initial_state()], previous - 1e-12);
    EXPECT_LE(bounded[chain.initial_state()],
              unbounded[chain.initial_state()] + 1e-9);
    previous = bounded[chain.initial_state()];
  }

  // Law 5: probabilities stay in [0, 1].
  for (double p : ev) {
    EXPECT_GE(p, -1e-12);
    EXPECT_LE(p, 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSemantics, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Quotient leg: checking the bisimulation quotient must agree with checking
// the original model. Unlike the suites above this leg honours
// TML_FUZZ_SEED, so CI's rotating-seed matrix exercises fresh random models
// on every run.

std::uint64_t fuzz_base_seed() {
  if (const char* env = std::getenv("TML_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260805ull;
}

class FuzzQuotient : public ::testing::TestWithParam<int> {};

TEST_P(FuzzQuotient, QuotientedCheckAgreesWithDirect) {
  const std::uint64_t seed =
      fuzz_base_seed() + static_cast<std::uint64_t>(GetParam()) * 7919;
  Rng rng(seed);
  oracle::RandomModelConfig cfg;
  cfg.num_states = 16 + rng.index(10);
  if (GetParam() % 2 == 0) cfg.max_choices = 1;  // alternate DTMC / MDP
  const oracle::RandomModel rm = oracle::random_model(rng, cfg);
  const CompiledModel model = compile(rm.mdp);

  const char* formulas[] = {
      "Pmax=? [ F \"goal\" ]",
      "Pmin=? [ !\"goal\" U \"goal\" ]",
      "Pmax=? [ F<=9 \"goal\" ]",
  };
  CheckOptions with_quotient;
  with_quotient.quotient = true;
  for (const char* text : formulas) {
    const StateFormulaPtr formula = parse_pctl(text);
    const CheckResult direct = check(model, *formula);
    const CheckResult quotiented = check(model, *formula, with_quotient);
    EXPECT_GT(quotiented.quotient_states, 0u) << text << " seed=" << seed;
    ASSERT_TRUE(direct.value.has_value()) << text;
    ASSERT_TRUE(quotiented.value.has_value()) << text;
    // Both paths solve to 1e-9-ish tolerance; 1e-6 absorbs the different
    // iteration counts the two state spaces need.
    EXPECT_NEAR(*quotiented.value, *direct.value, 1e-6)
        << text << " seed=" << seed;
    ASSERT_EQ(quotiented.values.size(), direct.values.size()) << text;
    for (std::size_t s = 0; s < direct.values.size(); ++s) {
      EXPECT_NEAR(quotiented.values[s], direct.values[s], 1e-6)
          << text << " seed=" << seed << " state=" << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzQuotient, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// PRISM front end: random byte edits of generated models. Every mutant must
// either parse to a model that validates or be rejected with ParseError or
// ModelError; any other exception (or, under ASan, a read past the source
// buffer) is a failure. Honours TML_FUZZ_SEED like FuzzQuotient.

/// Deletes, duplicates or overwrites 1-3 bytes of `text`. Overwrites draw
/// from the grammar's punctuation and digits, so most mutants stay close
/// enough to the grammar to reach the deeper parse paths.
std::string mutate_prism(Rng& rng, std::string text) {
  static constexpr std::string_view kAlphabet = "[]:;()+'=\".|/\n0123456789";
  const std::size_t edits = 1 + rng.index(3);
  for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = rng.index(text.size());
    switch (rng.index(3)) {
      case 0:
        text.erase(at, 1);
        break;
      case 1:
        text.insert(at, 1, text[at]);
        break;
      default:
        text[at] = kAlphabet[rng.index(kAlphabet.size())];
        break;
    }
  }
  return text;
}

class FuzzPrismParser : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPrismParser, MutantsParseValidOrFailTyped) {
  const std::uint64_t seed =
      fuzz_base_seed() + static_cast<std::uint64_t>(GetParam()) * 104729;
  Rng rng(seed);
  GeneratorSpec spec;
  spec.family = static_cast<GeneratorFamily>(GetParam() % 3);
  spec.size = spec.family == GeneratorFamily::kWsnField ? 1 : 3;
  spec.seed = seed;
  spec.hazard_density = 0.2;
  const std::string original = generate_prism(spec);

  std::size_t accepted = 0;
  for (int round = 0; round < 1000; ++round) {
    const std::string text = mutate_prism(rng, original);
    try {
      const PrismModel parsed = parse_prism(text);
      parsed.mdp.validate();
      if (parsed.type == PrismModel::Type::kDtmc) parsed.dtmc().validate();
      ++accepted;
    } catch (const ParseError&) {
    } catch (const ModelError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped failure: " << e.what() << " seed=" << seed
                    << " round=" << round << "\n" << text;
    }
  }
  // Edits inside comments or the numbers' digits still parse; a run where
  // nothing parses means the mutator no longer hits the grammar's interior.
  EXPECT_GT(accepted, 0u) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPrismParser, ::testing::Range(0, 6));

}  // namespace
}  // namespace tml
