// Tests for the parameterized model generator (src/casestudies/generator.hpp
// and the tml_gen CLI's library core).
//
// The generator exists to make 10^5–10^6-state fixtures reproducible: output
// must be byte-deterministic in (family, size, seed), must round-trip through
// the PRISM-subset parser into exactly the advertised state count, and the
// WSN family at size 1 must be semantically identical to the checked-in
// wsn.prism fixture (it *is* the paper's §V-A model).

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/casestudies/generator.hpp"
#include "src/checker/check.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/export.hpp"
#include "src/mdp/prism_parser.hpp"
#include "src/mdp/quotient.hpp"

namespace tml {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

CompiledModel compile_spec(const GeneratorSpec& spec) {
  const PrismModel parsed = parse_prism(generate_prism(spec));
  // DTMC sources compile through the Dtmc view so deterministic() holds
  // (compile(Mdp) never claims determinism, even for one-choice models).
  if (parsed.type == PrismModel::Type::kDtmc) return compile(parsed.dtmc());
  return compile(parsed.mdp);
}

TEST(Generator, RoundTripsWithAdvertisedStateCounts) {
  {
    GeneratorSpec spec;
    spec.family = GeneratorFamily::kGridRobot;
    spec.size = 4;
    EXPECT_EQ(expected_states(spec), 16u);
    const CompiledModel model = compile_spec(spec);
    EXPECT_EQ(model.num_states(), 16u);
    // Four moves per free cell, one absorbing stay on goal.
    EXPECT_FALSE(model.deterministic());
  }
  {
    GeneratorSpec spec;
    spec.family = GeneratorFamily::kQueueMesh;
    spec.size = 3;
    EXPECT_EQ(expected_states(spec), 16u);
    const CompiledModel model = compile_spec(spec);
    EXPECT_EQ(model.num_states(), 16u);
    EXPECT_TRUE(model.deterministic()) << "queue mesh is a DTMC";
  }
  {
    GeneratorSpec spec;
    spec.family = GeneratorFamily::kWsnField;
    spec.size = 3;
    spec.wsn_grid = 3;
    spec.jitter = 0.01;
    EXPECT_EQ(expected_states(spec), 3u * 9u + 2u);
    const CompiledModel model = compile_spec(spec);
    EXPECT_EQ(model.num_states(), 29u);
  }
}

TEST(Generator, ByteDeterministicInSeed) {
  GeneratorSpec spec;
  spec.family = GeneratorFamily::kQueueMesh;
  spec.size = 4;
  spec.seed = 99;
  const std::string once = generate_prism(spec);
  const std::string twice = generate_prism(spec);
  EXPECT_EQ(once, twice) << "identical spec must emit identical bytes";

  spec.seed = 100;
  EXPECT_NE(generate_prism(spec), once)
      << "the queue family draws its slot rates from the seed";

  // Hazard placement makes the grid family seed-sensitive too.
  GeneratorSpec grid;
  grid.family = GeneratorFamily::kGridRobot;
  grid.size = 6;
  grid.hazard_density = 0.2;
  grid.seed = 1;
  const std::string grid_one = generate_prism(grid);
  EXPECT_EQ(generate_prism(grid), grid_one);
  grid.seed = 2;
  EXPECT_NE(generate_prism(grid), grid_one);
}

TEST(Generator, WsnSizeOneMatchesCheckedInFixture) {
  GeneratorSpec spec;
  spec.family = GeneratorFamily::kWsnField;
  spec.size = 1;
  spec.wsn_grid = 3;
  const CompiledModel generated = compile_spec(spec);
  const CompiledModel fixture = compile(
      parse_prism(read_file(std::string(TML_SOURCE_DIR) + "/wsn.prism")).mdp);
  ASSERT_EQ(generated.num_states(), fixture.num_states());

  // Same verdicts and values on the properties the paper checks.
  const char* formulas[] = {
      "Pmax=? [ F \"delivered\" ]",
      "Pmin=? [ F \"delivered\" ]",
      "Rmin=? [ F \"delivered\" ]",
      "Pmax=? [ F<=32 \"delivered\" ]",
  };
  for (const char* text : formulas) {
    const StateFormulaPtr formula = parse_pctl(text);
    const CheckResult a = check(generated, *formula);
    const CheckResult b = check(fixture, *formula);
    ASSERT_TRUE(a.value.has_value()) << text;
    ASSERT_TRUE(b.value.has_value()) << text;
    EXPECT_NEAR(*a.value, *b.value, 1e-12) << text;
  }
}

TEST(Generator, ReplicatedWsnCollapsesToReplicaCountInvariantQuotient) {
  // jitter == 0 keeps the R replicas identical, so the bisimulation
  // quotient's block count must not grow with R — that is the whole
  // million-state scaling story.
  auto blocks_at = [](std::size_t replicas) {
    GeneratorSpec spec;
    spec.family = GeneratorFamily::kWsnField;
    spec.size = replicas;
    spec.wsn_grid = 3;
    const QuotientResult q = bisimulation_quotient(compile_spec(spec));
    EXPECT_TRUE(q.complete);
    return q.num_blocks();
  };
  const std::size_t at_two = blocks_at(2);
  EXPECT_EQ(blocks_at(8), at_two);
  EXPECT_EQ(blocks_at(32), at_two);

  // Nonzero jitter perturbs each replica's probabilities, which must break
  // the symmetry (the no-collapse control for the benchmarks).
  GeneratorSpec jittered;
  jittered.family = GeneratorFamily::kWsnField;
  jittered.size = 8;
  jittered.wsn_grid = 3;
  jittered.jitter = 0.01;
  const QuotientResult q = bisimulation_quotient(compile_spec(jittered));
  ASSERT_TRUE(q.complete);
  EXPECT_GT(q.num_blocks(), at_two);
}

TEST(Generator, ParseThenExportReproducesTheBytes) {
  // The parser must lose nothing the exporter writes: for every family,
  // seed and jitter, exporting the parsed model gives back the exact text.
  const struct {
    GeneratorFamily family;
    std::size_t size;
    const char* module;
  } families[] = {{GeneratorFamily::kGridRobot, 6, "grid_robot"},
                  {GeneratorFamily::kQueueMesh, 4, "queue_mesh"},
                  {GeneratorFamily::kWsnField, 3, "wsn_field"}};
  int cases = 0;
  for (const auto& f : families) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      for (const double jitter : {0.0, 0.04}) {
        GeneratorSpec spec;
        spec.family = f.family;
        spec.size = f.size;
        spec.seed = seed;
        spec.hazard_density = 0.05;
        spec.jitter = jitter;
        const std::string text = generate_prism(spec);
        const PrismModel parsed = parse_prism(text);
        const std::string back =
            family_is_dtmc(f.family) ? to_prism(parsed.dtmc(), f.module)
                                     : to_prism(parsed.mdp, f.module);
        EXPECT_EQ(back, text) << f.module << " seed=" << seed
                              << " jitter=" << jitter;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 120);
}

TEST(Generator, FamiliesCarryTheLabelsTheirPropertiesNeed) {
  GeneratorSpec grid;
  grid.family = GeneratorFamily::kGridRobot;
  grid.size = 5;
  const Mdp grid_mdp = parse_prism(generate_prism(grid)).mdp;
  EXPECT_EQ(grid_mdp.states_with_label("goal").count(), 1u);

  GeneratorSpec queue;
  queue.family = GeneratorFamily::kQueueMesh;
  queue.size = 3;
  const Mdp queue_mdp = parse_prism(generate_prism(queue)).mdp;
  EXPECT_EQ(queue_mdp.states_with_label("empty").count(), 1u);
  // "full" marks every state whose first station is saturated (q1 == C),
  // one per value of q2.
  EXPECT_EQ(queue_mdp.states_with_label("full").count(), queue.size + 1);

  GeneratorSpec wsn;
  wsn.family = GeneratorFamily::kWsnField;
  wsn.size = 2;
  wsn.wsn_grid = 3;
  const Mdp wsn_mdp = parse_prism(generate_prism(wsn)).mdp;
  EXPECT_EQ(wsn_mdp.states_with_label("delivered").count(), 1u);
}

}  // namespace
}  // namespace tml
