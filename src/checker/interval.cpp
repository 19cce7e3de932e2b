#include "src/checker/interval.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "src/common/parallel.hpp"
#include "src/common/stats.hpp"
#include "src/mdp/bellman.hpp"
#include "src/mdp/graph.hpp"

namespace tml {

IntervalMdp IntervalMdp::widen(const Mdp& nominal, double radius) {
  TML_REQUIRE(radius >= 0.0, "IntervalMdp::widen: negative radius");
  IntervalMdp out;
  out.nominal_ = compile(nominal);  // validates; keeps transition order
  const auto& choice_start = out.nominal_.choice_start();
  const auto& prob = out.nominal_.prob();
  out.lower_.resize(prob.size());
  out.upper_.resize(prob.size());
  for (std::uint32_t c = 0; c < out.nominal_.num_choices(); ++c) {
    const bool singleton = choice_start[c + 1] - choice_start[c] == 1;
    for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
      if (singleton || prob[k] <= 0.0 || prob[k] >= 1.0) {
        out.lower_[k] = out.upper_[k] = prob[k];
      } else {
        out.lower_[k] = std::max(0.0, prob[k] - radius);
        out.upper_[k] = std::min(1.0, prob[k] + radius);
      }
    }
  }
  out.validate();
  return out;
}

PolytopeSlice IntervalMdp::polytope(std::uint32_t c) const {
  const std::uint32_t begin = nominal_.choice_start()[c];
  const std::size_t size = nominal_.choice_start()[c + 1] - begin;
  return {nominal_.targets(c), {lower_.data() + begin, size},
          {upper_.data() + begin, size}};
}

void IntervalMdp::validate() const {
  for (StateId s = 0; s < num_states(); ++s) {
    for (std::uint32_t c = nominal_.first_choice(s);
         c < nominal_.last_choice(s); ++c) {
      const PolytopeSlice box = polytope(c);
      double lo = 0.0, hi = 0.0;
      for (std::size_t i = 0; i < box.targets.size(); ++i) {
        if (box.lower[i] < -1e-12 || box.upper[i] > 1.0 + 1e-12 ||
            box.lower[i] > box.upper[i]) {
          throw ModelError("IntervalMdp: malformed interval in state " +
                           std::to_string(s));
        }
        lo += box.lower[i];
        hi += box.upper[i];
      }
      if (lo > 1.0 + 1e-9 || hi < 1.0 - 1e-9) {
        throw ModelError("IntervalMdp: empty polytope in state " +
                         std::to_string(s));
      }
    }
  }
}

std::span<const double> resolve_polytope(const PolytopeSlice& box,
                                         std::span<const double> values,
                                         bool maximize,
                                         PolytopeScratch& scratch) {
  // Start from the lower bounds, then spend the remaining budget
  // (1 − Σ lower) on successors in value order.
  const std::size_t m = box.targets.size();
  scratch.p.resize(m);
  scratch.order.resize(m);
  double budget = 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    scratch.p[i] = box.lower[i];
    budget -= box.lower[i];
  }
  TML_ASSERT(budget >= -1e-9, "resolve_polytope: lower bounds exceed 1");

  std::iota(scratch.order.begin(), scratch.order.end(), 0);
  std::sort(scratch.order.begin(), scratch.order.end(),
            [&](std::size_t a, std::size_t b) {
              const double va = values[box.targets[a]];
              const double vb = values[box.targets[b]];
              return maximize ? va > vb : va < vb;
            });
  for (std::size_t idx : scratch.order) {
    if (budget <= 0.0) break;
    const double add = std::min(box.upper[idx] - box.lower[idx], budget);
    scratch.p[idx] += add;
    budget -= add;
  }
  TML_ASSERT(budget <= 1e-9, "resolve_polytope: budget not exhausted");
  return scratch.p;
}

namespace {

/// True when every support edge keeps a positive lower bound: then every
/// distribution nature may pick has exactly the nominal support.
bool support_is_fixed(const IntervalMdp& mdp) {
  const auto& prob = mdp.nominal().prob();
  const auto& lower = mdp.lower();
  for (std::size_t k = 0; k < prob.size(); ++k) {
    if (prob[k] > 0.0 && lower[k] <= 0.0) return false;
  }
  return true;
}

/// One driver chunk's polytope scratch on cache lines of its own. Two
/// threads write their chunks' scratch on every state, and small adjacent
/// heap blocks share lines: the holder is line-aligned, and each buffer
/// reserves a line of slack past the widest row, so its live entries never
/// share a line with another chunk's.
struct alignas(64) ChunkScratch {
  PolytopeScratch buf;
};

constexpr std::size_t kLineSlack = 64 / sizeof(double);

}  // namespace

std::vector<double> interval_reachability(const IntervalMdp& mdp,
                                          const StateSet& targets,
                                          Objective objective, Nature nature,
                                          const SolverOptions& options) {
  mdp.validate();
  const CompiledModel& model = mdp.nominal();
  const std::size_t n = model.num_states();
  TML_REQUIRE(targets.size() == n,
              "interval_reachability: target set size mismatch");

  // Nature maximizes with the scheduler under cooperation, opposes it when
  // adversarial.
  const bool scheduler_max = objective == Objective::kMaximize;
  const bool nature_max =
      nature == Nature::kCooperative ? scheduler_max : !scheduler_max;

  // Qualitative pre-pass. Nature moves mass only along the nominal support
  // (widen keeps it), so the nominal zero set is robustly 0. When every
  // support edge keeps a positive lower bound, every nature keeps that
  // support with probabilities bounded below, so the nominal one set is
  // robustly 1; otherwise only the targets are pinned to 1.
  Prob01 sets = reach_prob01(model, targets, objective);
  if (!support_is_fixed(mdp)) sets.one = targets;

  SolveResult result;
  result.values.assign(n, 0.0);
  std::vector<StateId> unknown;
  for (StateId s = 0; s < n; ++s) {
    if (sets.one[s]) {
      result.values[s] = 1.0;
    } else if (!sets.zero[s]) {
      unknown.push_back(s);
    }
  }
  static stats::Gauge& g_unknown =
      stats::gauge("checker.robust.unknown_states");
  g_unknown.set(static_cast<double>(unknown.size()));

  // One scratch per driver chunk (a chunk runs on one thread at a time),
  // reserved up front, so no sweep allocates.
  const auto& choice_start = model.choice_start();
  std::size_t widest = 0;
  for (std::uint32_t c = 0; c < model.num_choices(); ++c) {
    widest =
        std::max<std::size_t>(widest, choice_start[c + 1] - choice_start[c]);
  }
  std::vector<ChunkScratch> scratch(
      chunk_count(0, unknown.size(), kDefaultGrain));
  for (ChunkScratch& chunk : scratch) {
    chunk.buf.p.reserve(widest + kLineSlack);
    chunk.buf.order.reserve(widest + kLineSlack);
  }

  iterate_to_fixpoint(
      "interval_reachability", options, &result, unknown.size(),
      [&](std::size_t begin, std::size_t end, std::span<const double> values,
          std::vector<double>& next) {
        PolytopeScratch& buf = scratch[begin / kDefaultGrain].buf;
        double local = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          const StateId s = unknown[i];
          next[s] = best_choice(model, s, objective, [&](std::uint32_t c) {
                      const PolytopeSlice box = mdp.polytope(c);
                      const std::span<const double> p =
                          resolve_polytope(box, values, nature_max, buf);
                      double q = 0.0;
                      for (std::size_t j = 0; j < p.size(); ++j) {
                        q += p[j] * values[box.targets[j]];
                      }
                      return q;
                    }).value;
          local = std::max(local, std::abs(next[s] - values[s]));
        }
        return local;
      });
  require_finished(result, "interval_reachability");
  return std::move(result.values);
}

}  // namespace tml
