#include "src/checker/smc.hpp"

#include <cmath>
#include <numeric>
#include <optional>

#include "src/checker/check.hpp"
#include "src/common/fault.hpp"
#include "src/common/parallel.hpp"
#include "src/common/stats.hpp"
#include "src/mdp/graph.hpp"

namespace tml {

std::size_t chernoff_sample_size(double epsilon, double delta) {
  TML_REQUIRE(epsilon > 0.0 && epsilon < 1.0,
              "chernoff_sample_size: epsilon out of (0,1)");
  TML_REQUIRE(delta > 0.0 && delta < 1.0,
              "chernoff_sample_size: delta out of (0,1)");
  return static_cast<std::size_t>(
      std::ceil(std::log(2.0 / delta) / (2.0 * epsilon * epsilon)));
}

namespace {

/// One simulation step of a deterministic compiled model: for a DTMC the
/// choice index equals the state id, so the state's transition row is the
/// CSR probability span itself. The inverse-CDF walk skips categorical()'s
/// per-call weight validation and total — compile() already guarantees a
/// stochastic row, so one uniform draw against the running prefix sum
/// suffices (this loop is the entire per-sample cost of SMC).
StateId step(const CompiledModel& model, StateId current, Rng& rng) {
  const std::span<const double> row = model.probabilities(current);
  const std::span<const StateId> targets = model.targets(current);
  TML_ASSERT(!row.empty(),
             "smc step: state " << current << " has no outgoing transitions");
  const double r = rng.uniform();
  double acc = 0.0;
  for (std::size_t i = 0; i + 1 < row.size(); ++i) {
    acc += row[i];
    if (r < acc) return targets[i];
  }
  return targets[row.size() - 1];
}

/// Graph-certain decision sets for the path formula, so sample paths that
/// enter a trap (goal unreachable) or a safe region (violation unreachable)
/// are decided right there instead of burning the max_steps budget —
/// truncation then only flags genuinely open paths. Empty optionals mean
/// "no precomputation applies" (bounded kNext needs none).
struct CertainSets {
  std::optional<StateSet> no;   ///< outcome certainly "violated" (F/U)
  std::optional<StateSet> yes;  ///< outcome certainly "satisfied" (G)
};

CertainSets certain_sets(const CompiledModel& model, const PathFormula& path,
                         const StateSet& left_sat, const StateSet& right_sat) {
  // The P(F T) = 0 sets of a chain: one choice per state, so either
  // objective gives the same sets.
  constexpr Objective kAny = Objective::kMinimize;
  CertainSets sets;
  switch (path.kind()) {
    case PathFormula::Kind::kNext:
      break;
    case PathFormula::Kind::kEventually:
      sets.no = reach_prob01(model, right_sat, kAny).zero;
      break;
    case PathFormula::Kind::kUntil: {
      // P0 of (stay U goal): escape states are made absorbing first, so
      // "cannot reach goal" is judged within the stay region.
      StateSet escape = set_union(left_sat, right_sat);
      escape.flip();
      sets.no =
          reach_prob01(model.make_absorbing(escape), right_sat, kAny).zero;
      break;
    }
    case PathFormula::Kind::kGlobally:
      // Satisfaction is certain once no ¬φ state is reachable any more.
      sets.yes = reach_prob01(model, complement(right_sat), kAny).zero;
      break;
  }
  return sets;
}

}  // namespace

PathSample sample_path_outcome(const CompiledModel& model,
                               const PathFormula& path,
                               const StateSet& left_sat,
                               const StateSet& right_sat,
                               std::size_t max_steps, Rng& rng,
                               const StateSet* certain_no,
                               const StateSet* certain_yes) {
  TML_REQUIRE(model.deterministic(),
              "sample_path_outcome: compiled model is not a DTMC");
  StateId current = model.initial_state();
  switch (path.kind()) {
    case PathFormula::Kind::kNext:
      return right_sat[step(model, current, rng)] ? PathSample::kSatisfied
                                                  : PathSample::kViolated;
    case PathFormula::Kind::kUntil:
    case PathFormula::Kind::kEventually: {
      const bool bounded = path.step_bound().has_value();
      const std::size_t bound = bounded ? *path.step_bound() : max_steps;
      const bool constrained = path.kind() == PathFormula::Kind::kUntil;
      for (std::size_t t = 0; /* step check below */; ++t) {
        if (right_sat[current]) return PathSample::kSatisfied;
        if (constrained && !left_sat[current]) return PathSample::kViolated;
        if (certain_no != nullptr && (*certain_no)[current]) {
          return PathSample::kViolated;
        }
        if (t >= bound) {
          // A bounded operator ran its exact horizon; an unbounded one hit
          // the truncation cut-off with the outcome still open.
          return bounded ? PathSample::kViolated : PathSample::kUndecided;
        }
        current = step(model, current, rng);
      }
    }
    case PathFormula::Kind::kGlobally: {
      const bool bounded = path.step_bound().has_value();
      const std::size_t bound = bounded ? *path.step_bound() : max_steps;
      for (std::size_t t = 0; t <= bound; ++t) {
        if (!right_sat[current]) return PathSample::kViolated;
        if (certain_yes != nullptr && (*certain_yes)[current]) {
          return PathSample::kSatisfied;
        }
        if (t == bound) break;
        current = step(model, current, rng);
      }
      return bounded ? PathSample::kSatisfied : PathSample::kUndecided;
    }
  }
  return PathSample::kViolated;
}

SmcResult smc_check(const CompiledModel& model, const StateFormula& formula,
                    const SmcOptions& options) {
  static stats::Timer& t_check = stats::timer("smc.check.time");
  static stats::Counter& c_runs = stats::counter("smc.runs");
  static stats::Counter& c_samples = stats::counter("smc.samples");
  static stats::Counter& c_truncated = stats::counter("smc.truncated_paths");
  static stats::Gauge& g_decided_after = stats::gauge("smc.decided_after");
  const stats::ScopedTimer span(t_check);

  TML_REQUIRE(model.deterministic(), "smc_check: compiled model is not a DTMC");
  TML_REQUIRE(formula.kind() == StateFormula::Kind::kProb ||
                  formula.kind() == StateFormula::Kind::kProbQuery,
              "smc_check: formula must be a P operator, got "
                  << formula.to_string());
  TML_REQUIRE(options.max_truncation_rate >= 0.0 &&
                  options.max_truncation_rate <= 1.0,
              "smc_check: max_truncation_rate out of [0,1]");
  const PathFormula& path = formula.path();
  // Operand satisfaction sets are resolved exactly (they are state
  // formulas; only the path probability is sampled).
  const StateSet right = satisfying_states(model, path.right());
  const StateSet left = path.kind() == PathFormula::Kind::kUntil
                            ? satisfying_states(model, path.left())
                            : StateSet(model.num_states(), true);
  const CertainSets certain = certain_sets(model, path, left, right);
  const StateSet* certain_no = certain.no ? &*certain.no : nullptr;
  const StateSet* certain_yes = certain.yes ? &*certain.yes : nullptr;

  SmcResult result;
  result.confidence = 1.0 - options.delta;
  const std::size_t required =
      chernoff_sample_size(options.epsilon, options.delta);

  // The sample budget is sharded into fixed-size blocks, each drawing from
  // an independent child stream of `seed`. The shard layout depends only on
  // (samples, shard_size), never on the thread count, so the hit and
  // truncation counts — and everything derived from them — are bitwise
  // identical whether the shards run serially or across any number of
  // workers.
  const std::size_t shard = std::max<std::size_t>(1, options.shard_size);
  const std::size_t num_shards = chunk_count(0, required, shard);
  std::vector<std::uint32_t> hits(num_shards, 0);
  std::vector<std::uint32_t> undecided(num_shards, 0);
  const Rng root(options.seed);

  // Shards run in fixed batches of kShardsPerBatch and the resource budget
  // is polled once per shard at the (serial) batch boundaries, so the set
  // of shards that runs is always a prefix of the deterministic shard
  // sequence: an iteration cap of k runs exactly shards 0..k−1 under every
  // thread count, and a deadline/cancellation stops at a whole-shard
  // boundary.
  BudgetTracker tracker(options.budget);
  constexpr std::size_t kShardsPerBatch = 8;
  std::size_t shards_run = 0;
  while (shards_run < num_shards) {
    const std::size_t batch_end =
        std::min(num_shards, shards_run + kShardsPerBatch);
    std::size_t allowed = shards_run;
    while (allowed < batch_end && tracker.tick()) ++allowed;
    if (allowed == shards_run) break;  // budget fired before this batch
    parallel_for(
        shards_run * shard, std::min(required, allowed * shard), shard,
        [&](std::size_t begin, std::size_t end) {
          const std::size_t s = begin / shard;
          Rng rng = root.split(s);
          std::uint32_t h = 0;
          std::uint32_t u = 0;
          for (std::size_t i = begin; i < end; ++i) {
            PathSample outcome =
                sample_path_outcome(model, path, left, right,
                                    options.max_steps, rng, certain_no,
                                    certain_yes);
            if (fault::fire("smc.sample")) outcome = PathSample::kUndecided;
            switch (outcome) {
              case PathSample::kSatisfied: ++h; break;
              case PathSample::kViolated: break;
              case PathSample::kUndecided: ++u; break;
            }
          }
          hits[s] = h;
          undecided[s] = u;
        },
        options.threads);
    shards_run = allowed;
  }

  result.samples = std::min(required, shards_run * shard);
  result.budget_status = tracker.status();
  result.budget_stop = tracker.stop();
  const std::size_t total = std::accumulate(hits.begin(), hits.end(),
                                            std::size_t{0});
  result.truncated = std::accumulate(undecided.begin(), undecided.end(),
                                     std::size_t{0});
  const double n = static_cast<double>(result.samples);
  result.estimate = n > 0.0 ? static_cast<double>(total) / n : 0.0;

  c_runs.bump();
  c_samples.add(result.samples);
  c_truncated.add(result.truncated);

  const double truncation_rate =
      n > 0.0 ? static_cast<double>(result.truncated) / n : 0.0;
  if (truncation_rate > options.max_truncation_rate) {
    throw NumericError(
        "smc_check: " + std::to_string(result.truncated) + " of " +
        std::to_string(result.samples) +
        " sample paths were still undecided at max_steps=" +
        std::to_string(options.max_steps) +
        "; the estimate would be silently biased low. Raise "
        "SmcOptions::max_steps, or accept the widened interval via "
        "SmcOptions::max_truncation_rate");
  }
  // Every truncated path could have gone either way: widen the reported
  // half-width so [estimate − ε, estimate + ε] still brackets the truth
  // with the Chernoff confidence. A budget-truncated run did not earn the
  // requested ε, only what its sample count supports (inverting the
  // Chernoff bound at the same δ); with no samples at all the interval is
  // vacuous.
  if (result.samples < required) {
    const double earned =
        n > 0.0 ? std::sqrt(std::log(2.0 / options.delta) / (2.0 * n)) : 1.0;
    result.epsilon = std::min(1.0, earned + truncation_rate);
  } else {
    result.epsilon = options.epsilon + truncation_rate;
  }

  if (n == 0.0) {
    // Budget fired before the first shard: nothing to decide.
    result.satisfied = false;
  } else if (formula.kind() == StateFormula::Kind::kProb) {
    result.satisfied =
        compare(result.estimate, formula.comparison(), formula.bound());
    // Certainty scan in shard order: after `drawn` samples with `acc` hits,
    // the final estimate is confined to [acc/n, (acc + n − drawn)/n]. The
    // verdict is decisive as soon as that whole interval clears the
    // ε-neighbourhood of the bound (at the last shard this degenerates to
    // the classical |p̂ − b| > ε check).
    std::size_t acc = 0;
    std::size_t drawn = 0;
    for (std::size_t s = 0; s < shards_run; ++s) {
      acc += hits[s];
      drawn += std::min(shard, result.samples - drawn);
      const double lo = static_cast<double>(acc) / n;
      const double hi =
          static_cast<double>(acc + (result.samples - drawn)) / n;
      if (lo > formula.bound() + result.epsilon ||
          hi < formula.bound() - result.epsilon) {
        result.decisive = true;
        result.decided_after = drawn;
        break;
      }
    }
  } else {
    result.satisfied = true;
    result.decisive = true;
    result.decided_after = result.samples;
  }
  g_decided_after.set(static_cast<double>(result.decided_after));
  return result;
}

SmcResult smc_check(const Dtmc& chain, const StateFormula& formula,
                    const SmcOptions& options) {
  return smc_check(compile(chain), formula, options);
}

}  // namespace tml
