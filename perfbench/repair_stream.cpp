// repair-stream: the paper's learn -> certify -> repair loop, one
// RepairSession::feed per op.
//
// The chain is built so that every batch takes the same path. The start
// state splits between a goal-side hub and a trap-side hub; each hub
// enters one of K gambler's-ruin corridors over positions 0..L whose ends
// are the absorbing "trap" (0) and "goal" (L). Goal-side corridors are
// entered two steps from the goal with forward bias 0.6, trap-side ones
// two steps from the trap with forward bias 0.4. Even a corridor the data
// has never visited, which the smoothed MLE learns as a fair walk, keeps
// the goal side at >= 0.9 and the trap side at <= 0.1. The true split
// sends 30% of runs to the goal side, so P(F goal) is about 0.33, while
// the property asks P>=0.7 [ F "goal" ]: every learned chain, the first
// batch's included, violates it, and the one repair variable, which moves
// mass from the trap hub to the goal hub, can always close the gap inside
// its box. Each op is thus MLE -> patch -> warm certify -> elimination ->
// NLP -> re-certify.
//
// Trajectory batches are simulated from the true chain in set-up.

#include <cmath>
#include <optional>

#include "common.hpp"
#include "src/checker/check.hpp"
#include "src/checker/reachability.hpp"
#include "src/common/rng.hpp"
#include "src/core/model_repair.hpp"
#include "src/core/repair_session.hpp"
#include "src/learn/mle.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/compiled.hpp"

namespace perfbench {

namespace {

using namespace tml;

constexpr std::size_t kThreads = 2;
constexpr std::size_t kCorridors = 8;     // per side
constexpr std::size_t kLength = 20;       // ruin walk over positions 0..L
constexpr std::size_t kTrajectories = 32;  // per batch
constexpr double kGoalSide = 0.3;
constexpr double kBound = 0.7;
constexpr double kTolerance = 1e-6;
constexpr const char* kProperty = "P>=0.7 [ F \"goal\" ]";

constexpr StateId kStart = 0, kHubGoal = 1, kHubTrap = 2, kGoal = 3, kTrap = 4;

StateId corridor_state(std::size_t side, std::size_t corridor,
                       std::size_t position) {
  return static_cast<StateId>(5 + (side * kCorridors + corridor) *
                                      (kLength - 1) +
                              (position - 1));
}

Dtmc true_chain() {
  Dtmc chain(5 + 2 * kCorridors * (kLength - 1));
  chain.set_initial_state(kStart);
  chain.set_transitions(kStart, {Transition{kHubGoal, kGoalSide},
                                 Transition{kHubTrap, 1.0 - kGoalSide}});
  chain.set_transitions(kGoal, {Transition{kGoal, 1.0}});
  chain.set_transitions(kTrap, {Transition{kTrap, 1.0}});
  chain.add_label(kGoal, "goal");
  for (std::size_t side = 0; side < 2; ++side) {
    const double forward = side == 0 ? 0.6 : 0.4;
    std::vector<Transition> hub;
    for (std::size_t c = 0; c < kCorridors; ++c) {
      const std::size_t entry = side == 0 ? kLength - 2 : 2;
      hub.push_back(Transition{corridor_state(side, c, entry),
                               1.0 / static_cast<double>(kCorridors)});
      for (std::size_t i = 1; i < kLength; ++i) {
        const StateId up =
            i + 1 == kLength ? kGoal : corridor_state(side, c, i + 1);
        const StateId down = i == 1 ? kTrap : corridor_state(side, c, i - 1);
        chain.set_transitions(corridor_state(side, c, i),
                              {Transition{up, forward},
                               Transition{down, 1.0 - forward}});
      }
    }
    chain.set_transitions(side == 0 ? kHubGoal : kHubTrap, std::move(hub));
  }
  chain.validate();
  return chain;
}

PerturbationScheme scheme_for(const Dtmc& learned) {
  PerturbationScheme scheme(learned);
  const Var v = scheme.add_variable("v", 0.0, 0.95);
  scheme.attach_balanced(v, kStart, /*raise=*/kHubGoal, /*lower=*/kHubTrap);
  return scheme;
}

RepairSessionConfig session_config(std::size_t batches) {
  RepairSessionConfig config;
  config.pseudocount = 1.0;
  config.scheme_for = scheme_for;
  config.tolerance = kTolerance;
  config.threads = kThreads;
  config.repair.solver.threads = kThreads;
  config.expected_batches = batches;
  return config;
}

std::size_t batches_for(double seconds) {
  return static_cast<std::size_t>(std::max(1.0, std::round(seconds * 50.0)));
}

struct Inputs {
  Dtmc structure;
  std::vector<TrajectoryDataset> batches;
  std::uint64_t digest = 0;
};

Inputs make_inputs(std::uint64_t seed, double seconds) {
  Inputs in;
  in.structure = true_chain();
  const Dtmc& chain = in.structure;
  Rng rng(seed);
  const std::size_t batches = batches_for(seconds);
  in.batches.reserve(batches);
  std::uint64_t h = fnv1a("repair-stream");
  for (std::size_t b = 0; b < batches; ++b) {
    TrajectoryDataset batch;
    for (std::size_t t = 0; t < kTrajectories; ++t) {
      Trajectory trajectory;
      trajectory.initial_state = kStart;
      StateId s = kStart;
      while (s != kGoal && s != kTrap) {
        const auto& row = chain.transitions(s);
        double u = rng.uniform();
        StateId next = row.back().target;
        for (const Transition& tr : row) {
          if (u < tr.probability) {
            next = tr.target;
            break;
          }
          u -= tr.probability;
        }
        trajectory.steps.push_back(Step{s, 0, 0, next});
        s = next;
      }
      batch.trajectories.push_back(std::move(trajectory));
    }
    h = fnv1a(encode_batch(batch), h);
    in.batches.push_back(std::move(batch));
  }
  in.digest = h;
  return in;
}

/// The answer check of one batch: a violated learned chain must have been
/// repaired feasibly, and the final certified bracket must clear the bound
/// and be no wider than the certification tolerance.
std::optional<std::string> check_outcome(const BatchOutcome& o) {
  if (o.violated && !(o.repaired && o.repair_feasible)) {
    return "batch " + std::to_string(o.index) + ": repair infeasible";
  }
  if (!(o.lo >= kBound)) {
    return "batch " + std::to_string(o.index) + ": certified lo " +
           std::to_string(o.lo) + " below the bound";
  }
  if (!(o.hi - o.lo <= kTolerance)) {
    return "batch " + std::to_string(o.index) + ": bracket wider than " +
           "tolerance";
  }
  return std::nullopt;
}

/// RepairSession::feed taken apart into its layer calls, each under a span
/// of the benchmark's own (volatile session, F property: no journal and no
/// escape-state absorption). The repair step calls model_repair() whole
/// and splits its time by repeating its elimination and re-check calls.
/// (The library's stats timers would split it too, but switching the
/// stats registry on slows the multi-start NLP about 2.5x through its
/// shared counters.)
class TracedSession {
 public:
  TracedSession(const Dtmc& structure, std::size_t batches)
      : config_(session_config(batches)),
        property_(parse_pctl(kProperty)),
        mle_(structure),
        goal_(structure.states_with_label("goal")) {}

  BatchOutcome feed(const TrajectoryDataset& batch, Layers& layers) {
    BatchOutcome outcome;
    outcome.index = fed_++;
    outcome.trajectories = batch.size();
    Dtmc learned;
    {
      Span span(layers, "mle.ms");
      mle_.add(batch);
      learned = mle_.dtmc(config_.pseudocount);
    }
    SolveResult certified = certify(learned, 0.0, outcome, true, layers,
                                    "certify.warm_ms");
    const StateId init = learned.initial_state();
    outcome.lo = certified.lo[init];
    outcome.hi = certified.hi[init];
    outcome.violated = !(certified.lo[init] >= kBound &&
                         certified.hi[init] >= kBound);
    if (!outcome.violated) return outcome;

    outcome.repaired = true;
    const PerturbationScheme scheme = config_.scheme_for(learned);
    ModelRepairConfig repair_config = config_.repair;
    if (last_point_ && last_point_->size() == scheme.num_variables()) {
      repair_config.solver.warm_starts.push_back(*last_point_);
    }
    const Clock::time_point start = Clock::now();
    const ModelRepairResult repair =
        model_repair(scheme, *property_, repair_config);
    const double total_ms = ms_since(start);
    // model_repair() is elimination -> NLP -> numeric re-check. The
    // benchmark repeats the first and last on the same inputs under its own
    // spans; the NLP is the remainder.
    double elim_ms = 0.0, recheck_ms = 0.0;
    {
      const PerturbationScheme::Built built =
          scheme.build(repair_config.probability_margin);
      const Clock::time_point t = Clock::now();
      (void)parametric_property_function(built.chain, scheme.base(),
                                         *property_,
                                         repair_config.elimination);
      elim_ms = ms_since(t);
    }
    if (repair.repaired.has_value()) {
      const Clock::time_point t = Clock::now();
      (void)check(*repair.repaired, *property_);
      recheck_ms = ms_since(t);
    }
    layers.add_ms("state_elimination.ms", elim_ms);
    layers.add_ms("model_repair.nlp_ms", total_ms - elim_ms - recheck_ms);
    layers.add_ms("model_repair.recheck_ms", recheck_ms);
    outcome.repair_feasible = repair.feasible();
    if (repair.feasible() && repair.repaired.has_value()) {
      last_point_ = repair.variable_values;
      const SolveResult recheck =
          certify(*repair.repaired,
                  scheme.max_perturbation(repair.variable_values), outcome,
                  false, layers, "model_repair.recheck_ms");
      outcome.lo = recheck.lo[init];
      outcome.hi = recheck.hi[init];
    }
    return outcome;
  }

 private:
  SolveResult certify(const Dtmc& chain, double perturbation_bound,
                      BatchOutcome& outcome, bool record, Layers& layers,
                      const char* solve_span) {
    double delta = 0.0;
    StateSet dirty;
    bool patched = false;
    {
      Span span(layers, "compiled.patch_ms");
      if (!compiled_) {
        compiled_ = compile(chain);
        has_warm_ = false;
      } else {
        PatchResult patch = patch_probabilities(*compiled_, chain);
        if (patch.patched) {
          patched = true;
          delta = patch.max_abs_delta;
          dirty = std::move(patch.dirty);
        } else {
          compiled_ = compile(chain);
          has_warm_ = false;
        }
      }
    }
    if (record) {
      outcome.patched = patched;
      outcome.dirty_states = patched ? count(dirty) : compiled_->num_states();
      outcome.max_abs_delta = delta;
    }
    SolverOptions options;
    options.method = SolveMethod::kIntervalTopological;
    options.tolerance = config_.tolerance;
    options.threads = config_.threads;
    WarmStart seed;
    if (has_warm_ && patched) {
      seed = warm_;
      seed.dirty = dirty;
      seed.widen = std::min(
          1.0, config_.widen_scale * std::max(perturbation_bound, delta));
      options.warm = &seed;
    }
    SolveResult result;
    {
      Span span(layers, solve_span);
      result = mdp_reachability_bracket(*compiled_, goal_,
                                        Objective::kMaximize, options);
    }
    warm_.values = result.values;
    warm_.lo = result.lo;
    warm_.hi = result.hi;
    warm_.zero = result.zero;
    warm_.one = result.one;
    warm_.dirty = StateSet{};
    has_warm_ = true;
    outcome.sweeps += result.iterations;
    return result;
  }

  RepairSessionConfig config_;
  StateFormulaPtr property_;
  IncrementalMle mle_;
  StateSet goal_;
  std::optional<CompiledModel> compiled_;
  WarmStart warm_;
  bool has_warm_ = false;
  std::optional<std::vector<double>> last_point_;
  std::size_t fed_ = 0;
};

}  // namespace

std::uint64_t repair_stream_digest(std::uint64_t seed, double seconds) {
  return make_inputs(seed, seconds).digest;
}

WorkloadResult run_repair_stream(const Args& args) {
  WorkloadResult r;
  Inputs inputs;
  // Set-up takes tens of ms here, so it is repeated more often than in the
  // other workloads to keep its median steady.
  for (int rep = 0; rep < 9; ++rep) {
    const Clock::time_point start = Clock::now();
    Inputs fresh = make_inputs(args.seed, args.seconds);
    r.setup_s.push_back(ms_since(start) / 1000.0);
    if (rep > 0 && fresh.digest != inputs.digest) {
      r.correct = false;
      r.failures.push_back("set-up is not deterministic");
    }
    inputs = std::move(fresh);
  }
  r.digest = inputs.digest;
  const std::size_t batches = inputs.batches.size();

  std::size_t repairs = 0, patch_hits = 0;
  {
    RepairSession session(inputs.structure, parse_pctl(kProperty),
                          session_config(batches));
    // Timed pass: one feed per op; outcomes are checked afterwards.
    std::vector<std::optional<BatchOutcome>> outcomes(batches);
    std::vector<std::string> errors(batches);
    const Clock::time_point start = Clock::now();
    for (std::size_t b = 0; b < batches; ++b) {
      const Clock::time_point op_start = Clock::now();
      try {
        outcomes[b] = session.feed(inputs.batches[b]);
      } catch (const std::exception& e) {
        errors[b] = e.what();
      }
      r.op_ms.push_back(ms_since(op_start));
    }
    r.timed_s = ms_since(start) / 1000.0;
    r.attempted = batches;
    for (std::size_t b = 0; b < batches; ++b) {
      if (!outcomes[b]) {
        r.fail("batch " + std::to_string(b) + ": " + errors[b]);
        continue;
      }
      repairs += outcomes[b]->repaired ? 1 : 0;
      patch_hits += outcomes[b]->patched ? 1 : 0;
      if (const auto error = check_outcome(*outcomes[b])) r.fail(*error);
    }
  }
  r.context["batches"] = std::to_string(batches);
  r.context["trajectories_per_batch"] = std::to_string(kTrajectories);
  r.context["states"] = std::to_string(inputs.structure.num_states());
  r.context["repairs"] = std::to_string(repairs);
  r.context["patch_hits"] = std::to_string(patch_hits);
  r.context["solver_threads"] = std::to_string(kThreads);

  if (!args.trace) return r;

  Layers layers;
  TracedSession traced(inputs.structure, batches);
  std::size_t traced_failed = 0, patched = 0, repaired = 0, feasible = 0;
  double dirty = 0, sweeps = 0;
  const Clock::time_point start = Clock::now();
  for (const TrajectoryDataset& batch : inputs.batches) {
    try {
      const BatchOutcome o = traced.feed(batch, layers);
      if (check_outcome(o)) ++traced_failed;
      patched += o.patched ? 1 : 0;
      repaired += o.repaired ? 1 : 0;
      feasible += o.repair_feasible ? 1 : 0;
      dirty += static_cast<double>(o.dirty_states);
      sweeps += static_cast<double>(o.sweeps);
    } catch (const std::exception&) {
      ++traced_failed;
    }
  }
  const double traced_s = ms_since(start) / 1000.0;
  if (traced_failed != r.failed) {
    r.correct = false;
    r.failures.push_back("traced pass failed " +
                         std::to_string(traced_failed) + " batches, untraced " +
                         std::to_string(r.failed));
  }
  const double n = static_cast<double>(batches);
  const double reps = std::max<double>(1.0, static_cast<double>(repaired));
  auto& m = r.layer_metrics;
  put_layer(m, "mle.ms", layers.ms("mle.ms") / n);
  put_layer(m, "compiled.patch_ms", layers.ms("compiled.patch_ms") / n);
  put_layer(m, "compiled.patch_share", static_cast<double>(patched) / n);
  put_layer(m, "compiled.dirty_states", dirty / n);
  put_layer(m, "certify.warm_ms", layers.ms("certify.warm_ms") / n);
  put_layer(m, "certify.sweeps", sweeps / n);
  put_layer(m, "state_elimination.ms",
            layers.ms("state_elimination.ms") / reps);
  put_layer(m, "model_repair.nlp_ms", layers.ms("model_repair.nlp_ms") / reps);
  put_layer(m, "model_repair.recheck_ms",
            layers.ms("model_repair.recheck_ms") / reps);
  put_layer(m, "model_repair.feasible_share",
            static_cast<double>(feasible) / reps);
  put_layer(m, "trace.overhead_share", traced_s / r.timed_s - 1.0);
  return r;
}

}  // namespace perfbench
