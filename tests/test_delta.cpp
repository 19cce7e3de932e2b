// Streaming-repair suite (ctest label `delta`).
//
// Exercises the delta-compile pipeline: support-preserving probability
// patches must equal a fresh compile bitwise, fall back on any structural
// change, and keep the graph caches honest; and the satellites —
// Budget::remaining/split, stats snapshots, IncrementalMle, the trajectory
// batch parser, and RepairSession itself (learn → patch → direct certify →
// repair) — each get their contract pinned down.
//
// The random generator emits dyadic k/1024 probabilities and the perturber
// below moves whole 1/1024 units between transitions of one choice, so every
// perturbed model is still exactly representable.

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/checker/reachability.hpp"
#include "src/common/budget.hpp"
#include "src/common/error.hpp"
#include "src/common/stats.hpp"
#include "src/core/repair_session.hpp"
#include "src/learn/mle.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/solver.hpp"
#include "src/mdp/trajectory.hpp"
#include "tests/oracle.hpp"

namespace tml {
namespace {

std::uint64_t base_seed() {
  if (const char* env = std::getenv("TML_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260805ull;
}

// ---------------------------------------------------------------------------
// Support-preserving dyadic perturbation

/// Moves whole 1/1024 probability units between two transitions of randomly
/// chosen choices, never draining a transition to zero — the support (and
/// hence the CSR structure) is preserved exactly, and every probability
/// stays dyadic so the oracle sees the identical distribution. Returns the
/// number of states whose rows changed.
std::size_t perturb_support_preserving(Mdp& mdp, Rng& rng,
                                       double state_prob = 0.4) {
  std::size_t changed = 0;
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    if (!rng.bernoulli(state_prob)) continue;
    bool touched = false;
    for (Choice& choice : mdp.mutable_choices(s)) {
      if (choice.transitions.size() < 2) continue;
      std::vector<long> units(choice.transitions.size());
      for (std::size_t i = 0; i < units.size(); ++i) {
        units[i] = std::lround(choice.transitions[i].probability * 1024.0);
      }
      const std::size_t donor = rng.index(units.size());
      std::size_t recipient = rng.index(units.size());
      if (recipient == donor) recipient = (recipient + 1) % units.size();
      if (units[donor] < 2) continue;  // would drain the donor to zero
      const long max_move = std::min<long>(units[donor] - 1, 8);
      const long move = 1 + static_cast<long>(
                                rng.index(static_cast<std::size_t>(max_move)));
      units[donor] -= move;
      units[recipient] += move;
      for (std::size_t i = 0; i < units.size(); ++i) {
        choice.transitions[i].probability =
            static_cast<double>(units[i]) / 1024.0;
      }
      touched = true;
    }
    if (touched) ++changed;
  }
  return changed;
}

// ---------------------------------------------------------------------------
// Delta compile: patch vs fresh compile

TEST(DeltaCompile, PatchEqualsFreshCompileBitwise) {
  Rng rng(base_seed());
  const oracle::RandomModel rm = oracle::random_model(rng);
  CompiledModel model = compile(rm.mdp);

  Mdp perturbed = rm.mdp;
  ASSERT_GT(perturb_support_preserving(perturbed, rng), 0u);
  const PatchResult patch = patch_probabilities(model, perturbed);
  ASSERT_TRUE(patch.patched);
  EXPECT_GT(patch.dirty_states, 0u);
  EXPECT_GT(patch.max_abs_delta, 0.0);
  // The smallest move is one 1/1024 unit; the cap is 8 units.
  EXPECT_GE(patch.max_abs_delta, 1.0 / 1024.0 - 1e-15);
  EXPECT_LE(patch.max_abs_delta, 8.0 / 1024.0 + 1e-15);

  const CompiledModel fresh = compile(perturbed);
  ASSERT_EQ(model.prob().size(), fresh.prob().size());
  for (std::size_t k = 0; k < fresh.prob().size(); ++k) {
    EXPECT_EQ(model.prob()[k], fresh.prob()[k]) << "entry " << k;
  }
  EXPECT_EQ(model.state_rewards(), fresh.state_rewards());
  EXPECT_EQ(model.choice_rewards(), fresh.choice_rewards());

  // dirty marks exactly the states whose rows changed.
  for (StateId s = 0; s < model.num_states(); ++s) {
    bool row_changed = false;
    for (std::uint32_t c = model.first_choice(s); c < model.last_choice(s);
         ++c) {
      for (std::size_t i = 0; i < model.probabilities(c).size(); ++i) {
        const std::uint32_t k = model.choice_start()[c] +
                                static_cast<std::uint32_t>(i);
        if (model.prob()[k] != compile(rm.mdp).prob()[k]) row_changed = true;
      }
    }
    EXPECT_EQ(patch.dirty[s], row_changed) << "state " << s;
  }

  // Support unchanged ⇒ the graph caches stay valid after the patch.
  EXPECT_NO_THROW(model.predecessors(0));
  EXPECT_NO_THROW(model.scc());
}

TEST(DeltaCompile, PatchNoChangeIsCleanNoOp) {
  Rng rng(base_seed() + 1);
  const oracle::RandomModel rm = oracle::random_model(rng);
  CompiledModel model = compile(rm.mdp);
  const PatchResult patch = patch_probabilities(model, rm.mdp);
  ASSERT_TRUE(patch.patched);
  EXPECT_EQ(patch.dirty_states, 0u);
  EXPECT_EQ(patch.max_abs_delta, 0.0);
}

TEST(DeltaCompile, FallsBackOnSupportChange) {
  Rng rng(base_seed() + 2);
  const oracle::RandomModel rm = oracle::random_model(rng);
  CompiledModel model = compile(rm.mdp);
  const std::vector<double> before = model.prob();

  // Drain one multi-successor transition to zero: same CSR structure, but
  // the positive support differs — the graph caches would be wrong.
  Mdp drained = rm.mdp;
  bool found = false;
  for (StateId s = 0; s < drained.num_states() && !found; ++s) {
    for (Choice& choice : drained.mutable_choices(s)) {
      if (choice.transitions.size() < 2) continue;
      Transition& donor = choice.transitions[0];
      Transition& recipient = choice.transitions[1];
      recipient.probability += donor.probability;
      donor.probability = 0.0;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  const PatchResult patch = patch_probabilities(model, drained);
  EXPECT_FALSE(patch.patched);
  EXPECT_EQ(model.prob(), before);  // left untouched
}

TEST(DeltaCompile, FallsBackOnStructuralChange) {
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 0.5}, Transition{2, 0.5}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  chain.add_label(1, "goal");
  CompiledModel model = compile(chain);

  Dtmc more_states(4);
  more_states.set_transitions(0, {Transition{1, 0.5}, Transition{2, 0.5}});
  more_states.set_transitions(1, {Transition{1, 1.0}});
  more_states.set_transitions(2, {Transition{3, 1.0}});
  more_states.set_transitions(3, {Transition{3, 1.0}});
  more_states.add_label(1, "goal");
  EXPECT_FALSE(patch_probabilities(model, more_states).patched);

  // Different labelling with identical numbers must also fall back: label
  // sets feed the property decomposition of cached analyses.
  Dtmc relabeled = chain;
  relabeled.add_label(2, "goal");
  EXPECT_FALSE(patch_probabilities(model, relabeled).patched);

  // The original still patches (and reports no dirty rows).
  EXPECT_TRUE(patch_probabilities(model, chain).patched);
}

// ---------------------------------------------------------------------------
// Staleness guard on the graph caches

TEST(DeltaCompile, StaleGraphCachesThrowAfterRawMutation) {
  Rng rng(base_seed() + 3);
  const oracle::RandomModel rm = oracle::random_model(rng);
  CompiledModel model = compile(rm.mdp);

  // Build both caches, then mutate in place: the caches now (potentially)
  // describe the old graph and must refuse to answer.
  model.predecessors(0);
  model.scc();
  model.set_prob(0, model.prob()[0]);
  EXPECT_THROW(model.predecessors(0), ModelError);
  EXPECT_THROW(model.scc(), ModelError);

  // Sanctioned recovery: drop the caches and they rebuild fresh.
  model.invalidate_graph_caches();
  EXPECT_NO_THROW(model.predecessors(0));
  EXPECT_NO_THROW(model.scc());

  // patch_probabilities re-blesses the caches: its support check proves
  // they are still exact, so no invalidation is needed.
  model.set_prob(0, model.prob()[0]);
  ASSERT_TRUE(patch_probabilities(model, rm.mdp).patched);
  EXPECT_NO_THROW(model.predecessors(0));
  EXPECT_NO_THROW(model.scc());
}

// ---------------------------------------------------------------------------
// Budget satellites

TEST(DeltaBudget, RemainingAndSplit) {
  const Budget unlimited;
  EXPECT_EQ(unlimited.remaining(), Budget::Clock::duration::max());
  const Budget share = unlimited.split(4);
  EXPECT_TRUE(share.unlimited());

  Budget capped;
  capped.max_iterations = 10;
  capped.max_evaluations = 3;
  const Budget quarter = capped.split(4);
  EXPECT_EQ(quarter.max_iterations, 2u);
  EXPECT_EQ(quarter.max_evaluations, 1u);  // floor of 1, never 0
  EXPECT_FALSE(quarter.has_deadline());

  Budget timed;
  timed.deadline_in_ms(10000);
  const auto before = timed.remaining();
  EXPECT_GT(before, Budget::Clock::duration::zero());
  EXPECT_LE(before, std::chrono::milliseconds(10000));
  const Budget half = timed.split(2);
  ASSERT_TRUE(half.has_deadline());
  EXPECT_LE(half.remaining(), std::chrono::milliseconds(5000));

  EXPECT_THROW(timed.split(0), Error);
}

TEST(DeltaBudget, SplitSharesCancellation) {
  Budget session;
  const Budget share = session.split(3);
  EXPECT_FALSE(share.cancel.cancelled());
  session.cancel.cancel();
  EXPECT_TRUE(share.cancel.cancelled());
}

// ---------------------------------------------------------------------------
// Stats snapshot / delta satellites

TEST(DeltaStats, SnapshotDeltaMeterPhase) {
  const bool was_enabled = stats::enabled();
  stats::set_enabled(true);

  const stats::Snapshot before = stats::snapshot();
  stats::counter("test.delta.counter").add(3);
  stats::gauge("test.delta.gauge").set(2.5);
  stats::timer("test.delta.timer").record(std::chrono::nanoseconds(1500));
  const stats::Snapshot after = stats::snapshot();

  const stats::Snapshot d = stats::delta(before, after);
  EXPECT_EQ(d.counter("test.delta.counter"), 3u);
  EXPECT_EQ(d.gauge("test.delta.gauge"), 2.5);
  EXPECT_EQ(d.timer("test.delta.timer").count, 1u);
  EXPECT_GE(d.timer("test.delta.timer").total_nanos, 1500u);

  // Reversed order clamps at zero instead of wrapping.
  const stats::Snapshot reversed = stats::delta(after, before);
  EXPECT_EQ(reversed.counter("test.delta.counter"), 0u);

  stats::set_enabled(was_enabled);
}

TEST(DeltaStats, PatchRecordsCounters) {
  const bool was_enabled = stats::enabled();
  stats::set_enabled(true);

  Rng rng(base_seed() + 70);
  const oracle::RandomModel rm = oracle::random_model(rng);
  CompiledModel model = compile(rm.mdp);

  Mdp current = rm.mdp;
  while (perturb_support_preserving(current, rng) == 0) {
  }

  const stats::Snapshot before = stats::snapshot();
  const PatchResult patch = patch_probabilities(model, current);
  ASSERT_TRUE(patch.patched);
  const stats::Snapshot d = stats::delta(before, stats::snapshot());

  EXPECT_EQ(d.counter("compile.patch_calls"), 1u);
  EXPECT_EQ(d.counter("compile.patch_hits"), 1u);
  EXPECT_EQ(d.counter("compile.patch_fallbacks"), 0u);
  EXPECT_GT(d.counter("compile.patch_dirty_states"), 0u);

  stats::set_enabled(was_enabled);
}

// ---------------------------------------------------------------------------
// Incremental MLE

Trajectory hop(StateId from, StateId to) {
  Trajectory t;
  t.initial_state = from;
  Step step;
  step.state = from;
  step.next_state = to;
  t.steps.push_back(step);
  return t;
}

TEST(DeltaMle, IncrementalEqualsOneShotBitwise) {
  Dtmc structure(3);
  structure.set_transitions(0, {Transition{1, 0.5}, Transition{2, 0.5}});
  structure.set_transitions(1, {Transition{0, 0.5}, Transition{1, 0.5}});
  structure.set_transitions(2, {Transition{2, 1.0}});

  TrajectoryDataset batch1;
  batch1.add(hop(0, 1), 3.0);
  batch1.add(hop(1, 0));
  TrajectoryDataset batch2;
  batch2.add(hop(0, 2), 2.0);
  batch2.add(hop(1, 1), 0.5);
  TrajectoryDataset batch3;
  batch3.add(hop(0, 1));
  batch3.add(hop(2, 2), 4.0);

  TrajectoryDataset combined;
  for (const TrajectoryDataset* b : {&batch1, &batch2, &batch3}) {
    for (std::size_t i = 0; i < b->size(); ++i) {
      combined.add(b->trajectories[i], b->weight(i));
    }
  }

  IncrementalMle inc(structure);
  inc.add(batch1);
  inc.add(batch2);
  inc.add(batch3);
  EXPECT_EQ(inc.batches(), 3u);
  EXPECT_GT(inc.total_weight(), 0.0);

  for (const double pseudocount : {0.0, 1.0}) {
    const Dtmc streaming = inc.dtmc(pseudocount);
    const Dtmc one_shot = mle_dtmc(structure, combined, pseudocount);
    for (StateId s = 0; s < structure.num_states(); ++s) {
      const auto& a = streaming.transitions(s);
      const auto& b = one_shot.transitions(s);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].target, b[i].target);
        EXPECT_EQ(a[i].probability, b[i].probability)
            << "state " << s << " transition " << i << " pseudocount "
            << pseudocount;
      }
    }
  }

  // The MDP view agrees with the one-shot estimator too.
  const Mdp streaming_mdp = inc.mdp(1.0);
  const Mdp one_shot_mdp = mle_mdp(structure.as_mdp(), combined, 1.0);
  for (StateId s = 0; s < structure.num_states(); ++s) {
    const auto& a = streaming_mdp.choices(s)[0].transitions;
    const auto& b = one_shot_mdp.choices(s)[0].transitions;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].probability, b[i].probability);
    }
  }
}

TEST(DeltaMle, DtmcViewRequiresDtmcStructure) {
  Mdp mdp(2);
  mdp.mutable_choices(0).push_back(Choice{0, 0.0, {Transition{1, 1.0}}});
  mdp.mutable_choices(1).push_back(Choice{0, 0.0, {Transition{1, 1.0}}});
  IncrementalMle inc(std::move(mdp));
  EXPECT_THROW(inc.dtmc(), ModelError);
}

TEST(DeltaMle, ZeroMassChoicesKeepThePrior) {
  Dtmc structure(2);
  structure.set_transitions(0, {Transition{0, 0.25}, Transition{1, 0.75}});
  structure.set_transitions(1, {Transition{1, 1.0}});
  IncrementalMle inc(structure);
  TrajectoryDataset batch;
  batch.add(hop(1, 1));
  inc.add(batch);
  const Dtmc learned = inc.dtmc();
  EXPECT_EQ(learned.transitions(0)[0].probability, 0.25);
  EXPECT_EQ(learned.transitions(0)[1].probability, 0.75);
}

// ---------------------------------------------------------------------------
// Trajectory batch parser

Dtmc named_chain() {
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 0.5}, Transition{2, 0.5}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  chain.set_state_name(0, "start");
  chain.set_state_name(1, "good");
  chain.set_state_name(2, "bad");
  return chain;
}

TEST(DeltaParser, NamesIdsWeightsCommentsAndSeparators) {
  const Dtmc chain = named_chain();
  const std::string text =
      "# leading comment\n"
      "start good good   # observed twice\n"
      "0 2 *2.5\n"
      "\n"
      "---\n"
      "start bad\n"
      "---\n"   // empty batch: skipped
      "---\n";
  const std::vector<TrajectoryDataset> batches =
      parse_trajectory_batches(text, chain);
  ASSERT_EQ(batches.size(), 2u);
  ASSERT_EQ(batches[0].size(), 2u);
  EXPECT_EQ(batches[0].trajectories[0].initial_state, 0u);
  EXPECT_EQ(batches[0].trajectories[0].state_sequence(),
            (std::vector<StateId>{0, 1, 1}));
  EXPECT_EQ(batches[0].weight(0), 1.0);
  EXPECT_EQ(batches[0].trajectories[1].state_sequence(),
            (std::vector<StateId>{0, 2}));
  EXPECT_EQ(batches[0].weight(1), 2.5);
  ASSERT_EQ(batches[1].size(), 1u);
  EXPECT_EQ(batches[1].trajectories[0].state_sequence(),
            (std::vector<StateId>{0, 2}));
}

TEST(DeltaParser, RejectsMalformedInput) {
  const Dtmc chain = named_chain();
  EXPECT_THROW(parse_trajectory_batches("start nowhere\n", chain), ModelError);
  EXPECT_THROW(parse_trajectory_batches("start good *oops\n", chain),
               ParseError);
  EXPECT_THROW(parse_trajectory_batches("start good *-1\n", chain),
               ParseError);
  EXPECT_THROW(parse_trajectory_batches("start\n", chain), ModelError);
  EXPECT_THROW(parse_trajectory_batches("7 7\n", chain), ModelError);
}

TEST(DeltaParser, RejectsNonFiniteAndMalformedWeights) {
  // Regression: the weight field went through std::stod, which accepts
  // "nan"/"inf" (poisoning every count downstream), locale-dependent
  // spellings, and partial parses like "2,5" -> 2. All of these must be
  // typed parse errors that name the offending line.
  const Dtmc chain = named_chain();
  for (const char* weight : {"*nan", "*inf", "*-inf", "*NaN", "*Infinity",
                             "*1e999", "*2,5", "*", "*2.5x"}) {
    const std::string text = std::string("start good ") + weight + "\n";
    try {
      parse_trajectory_batches(text, chain);
      FAIL() << "accepted weight '" << weight << "'";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
          << e.what();
    }
  }
  // The validated path still takes everything a weight should be.
  const std::vector<TrajectoryDataset> ok = parse_trajectory_batches(
      "start good *2.5\nstart bad *0\nstart good *1e-3\n", chain);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_DOUBLE_EQ(ok[0].weight(0), 2.5);
  EXPECT_DOUBLE_EQ(ok[0].weight(1), 0.0);
  EXPECT_DOUBLE_EQ(ok[0].weight(2), 1e-3);
}

// ---------------------------------------------------------------------------
// RepairSession end to end

RepairSessionConfig split_chain_config() {
  RepairSessionConfig config;
  config.pseudocount = 1.0;
  config.scheme_for = [](const Dtmc& learned) {
    PerturbationScheme scheme(learned);
    const Var v = scheme.add_variable("v", 0.0, 0.5);
    scheme.attach_balanced(v, 0, /*raise=*/1, /*lower=*/2);
    return scheme;
  };
  return config;
}

TEST(DeltaSession, CertifiesRepairsAndReports) {
  // Split chain: start → goal/trap; require P>=0.6 [F goal]. The first
  // batch supports the bound, the second drags the estimate below it and
  // must trigger a (feasible) repair.
  Dtmc structure(3);
  structure.set_transitions(0, {Transition{1, 0.5}, Transition{2, 0.5}});
  structure.set_transitions(1, {Transition{1, 1.0}});
  structure.set_transitions(2, {Transition{2, 1.0}});
  structure.add_label(1, "goal");

  RepairSessionConfig config = split_chain_config();
  config.expected_batches = 2;
  RepairSession session(structure, parse_pctl("P>=0.6 [ F \"goal\" ]"),
                        config);

  // Batch 1: 7×(0→1), 2×(0→2) ⇒ smoothed estimate (7+1)/(9+2) ≈ 0.73.
  TrajectoryDataset batch1;
  batch1.add(hop(0, 1), 7.0);
  batch1.add(hop(0, 2), 2.0);
  const BatchOutcome& first = session.feed(batch1);
  EXPECT_EQ(first.index, 0u);
  EXPECT_EQ(first.trajectories, 2u);
  EXPECT_FALSE(first.patched);  // first batch compiles cold
  EXPECT_FALSE(first.violated);
  EXPECT_FALSE(first.repaired);
  EXPECT_GT(first.lo, 0.6);
  EXPECT_LT(first.hi - first.lo, config.tolerance + 1e-12);

  // Batch 2: 14 more (0→2) ⇒ estimate (7+1)/(23+2) = 0.32: violated.
  TrajectoryDataset batch2;
  batch2.add(hop(0, 2), 14.0);
  const BatchOutcome& second = session.feed(batch2);
  EXPECT_EQ(second.index, 1u);
  EXPECT_TRUE(second.patched);  // Laplace smoothing keeps the support
  EXPECT_GT(second.dirty_states, 0u);
  EXPECT_GT(second.max_abs_delta, 0.0);
  EXPECT_TRUE(second.violated);
  EXPECT_TRUE(second.repaired);
  EXPECT_TRUE(second.repair_feasible);
  EXPECT_GT(second.repair_cost, 0.0);
  EXPECT_GE(second.epsilon_bisimilarity, 0.0);
  // The reported bracket is the post-repair chain's: back above the bound.
  EXPECT_GE(second.hi, 0.6 - 1e-6);

  const SessionReport& report = session.report();
  EXPECT_EQ(report.batches.size(), 2u);
  EXPECT_EQ(report.repairs, 1u);
  EXPECT_EQ(report.patch_hits, 1u);
  EXPECT_TRUE(report.final_satisfied);

  // The session's current chain satisfies the property under a fresh check.
  const SolveResult check = mdp_reachability_bracket(
      compile(session.current()),
      compile(session.current()).states_with_label("goal"),
      Objective::kMaximize, {});
  EXPECT_GE(check.hi[0], 0.6 - 1e-6);
}

TEST(DeltaSession, CertifyOnlySessionReportsViolationsWithoutRepairing) {
  Dtmc structure(4);
  structure.set_transitions(0, {Transition{1, 0.5}, Transition{2, 0.5}});
  structure.set_transitions(1, {Transition{3, 1.0}});
  structure.set_transitions(2, {Transition{3, 1.0}});
  structure.set_transitions(3, {Transition{3, 1.0}});
  structure.add_label(1, "bad");
  structure.add_label(3, "goal");

  RepairSessionConfig config;  // no scheme_for: certify-only
  RepairSession session(structure,
                        parse_pctl("P>=0.9 [ !\"bad\" U \"goal\" ]"), config);

  TrajectoryDataset batch;
  batch.add(hop(0, 1), 5.0);
  batch.add(hop(0, 2), 5.0);
  batch.add(hop(1, 3), 5.0);
  batch.add(hop(2, 3), 5.0);
  const BatchOutcome& outcome = session.feed(batch);
  // P[!bad U goal] ≈ 0.5 < 0.9: violated, but no repair without a scheme.
  EXPECT_TRUE(outcome.violated);
  EXPECT_FALSE(outcome.repaired);
  EXPECT_EQ(session.report().repairs, 0u);
  EXPECT_FALSE(session.report().final_satisfied);
}

TEST(DeltaSession, UntilSessionBuildsPredecessorsOnce) {
  // The until certification pins escape states inside the solve, so every
  // batch reuses the patched model's predecessor lists, as F does.
  Dtmc structure(4);
  structure.set_transitions(0, {Transition{1, 0.5}, Transition{2, 0.5}});
  structure.set_transitions(1, {Transition{3, 1.0}});
  structure.set_transitions(2, {Transition{3, 1.0}});
  structure.set_transitions(3, {Transition{3, 1.0}});
  structure.add_label(1, "bad");
  structure.add_label(3, "goal");
  const bool was_enabled = stats::enabled();
  stats::set_enabled(true);
  const stats::Counter& builds = stats::counter("compile.pred_builds");
  const RepairSessionConfig config;  // certify-only
  for (const char* property :
       {"P>=0.9 [ !\"bad\" U \"goal\" ]", "P>=0.9 [ F \"goal\" ]"}) {
    SCOPED_TRACE(property);
    const std::uint64_t start = builds.value();
    RepairSession session(structure, parse_pctl(property), config);
    for (int b = 0; b < 10; ++b) {
      TrajectoryDataset batch;
      batch.add(hop(0, 1), 1.0 + b);
      batch.add(hop(0, 2), 5.0);
      batch.add(hop(1, 3), 5.0);
      batch.add(hop(2, 3), 5.0);
      (void)session.feed(batch);
    }
    EXPECT_EQ(session.report().patch_hits, 9u);
    EXPECT_EQ(builds.value() - start, 1u);
  }
  stats::set_enabled(was_enabled);
}

TEST(DeltaSession, CancelledBudgetCertifiesTheWholeUnitInterval) {
  // The factorization stops on its first budget tick: the batch records the
  // stop and the sound bracket [0, 1], which straddles the bound.
  Dtmc structure(3);
  structure.set_transitions(0, {Transition{0, 0.5}, Transition{1, 0.25},
                                Transition{2, 0.25}});
  structure.set_transitions(1, {Transition{1, 1.0}});
  structure.set_transitions(2, {Transition{2, 1.0}});
  structure.add_label(1, "goal");

  RepairSessionConfig config;  // certify-only
  config.budget.cancel.cancel();
  RepairSession session(structure, parse_pctl("P>=0.4 [ F \"goal\" ]"),
                        config);
  TrajectoryDataset batch;
  batch.add(hop(0, 1), 8.0);
  const BatchOutcome& outcome = session.feed(batch);
  EXPECT_EQ(outcome.budget_status, BudgetStatus::kBudgetExhausted);
  EXPECT_EQ(outcome.budget_stop, BudgetStop::kCancelled);
  EXPECT_EQ(outcome.lo, 0.0);
  EXPECT_EQ(outcome.hi, 1.0);
  EXPECT_TRUE(outcome.violated);
  EXPECT_FALSE(session.report().final_satisfied);
}

TEST(DeltaSession, RejectsUnsupportedProperties) {
  Dtmc structure(2);
  structure.set_transitions(0, {Transition{1, 1.0}});
  structure.set_transitions(1, {Transition{1, 1.0}});
  structure.add_label(1, "goal");
  RepairSessionConfig config;
  EXPECT_THROW(RepairSession(structure, parse_pctl("R<=5 [ F \"goal\" ]"),
                             config),
               Error);
  EXPECT_THROW(
      RepairSession(structure, parse_pctl("P>=0.5 [ F<=3 \"goal\" ]"),
                    config),
      Error);
  config.pseudocount = 0.0;
  EXPECT_THROW(RepairSession(structure, parse_pctl("P>=0.5 [ F \"goal\" ]"),
                             config),
               Error);
}

}  // namespace
}  // namespace tml
