#include "src/checker/interval.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "src/common/parallel.hpp"
#include "src/mdp/bellman.hpp"

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
      if (singleton || prob[k] >= 1.0) {
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

  SolveResult result;
  result.values.assign(n, 0.0);
  for (StateId s = 0; s < n; ++s) {
    if (targets[s]) result.values[s] = 1.0;
  }

  // One scratch per driver chunk (a chunk runs on one thread at a time);
  // grown in the first sweep, so later sweeps allocate nothing.
  std::vector<PolytopeScratch> scratch(chunk_count(0, n, kDefaultGrain));

  iterate_to_fixpoint(
      "interval_reachability", options, &result,
      [&](std::size_t begin, std::size_t end, std::span<const double> values,
          std::vector<double>& next) {
        PolytopeScratch& buf = scratch[begin / kDefaultGrain];
        double local = 0.0;
        for (StateId s = begin; s < end; ++s) {
          if (targets[s]) continue;
          next[s] = best_choice(model, s, objective, [&](std::uint32_t c) {
                      const PolytopeSlice box = mdp.polytope(c);
                      const std::span<const double> p =
                          resolve_polytope(box, values, nature_max, buf);
                      double q = 0.0;
                      for (std::size_t i = 0; i < p.size(); ++i) {
                        q += p[i] * values[box.targets[i]];
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
