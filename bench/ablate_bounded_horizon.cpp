// Extension experiment: bounded-time delivery probability before and
// after Model Repair.
//
// §III notes that a deployed controller would use bounded-time variants of
// the temporal properties. This bench prints the series
// P(F<=k "delivered") for the base WSN model, the X=40-repaired model, and
// the perturbation-cap model, over a sweep of step bounds k — the bounded
// view of what the unbounded expected-attempts repair bought.
//
// It also runs a bounded repair directly: find the minimal correction so
// that P(F<=60 delivered) >= 0.5, exercising the symbolic bounded engine
// (src/parametric/bounded.hpp) end to end.

#include <iostream>

#include "src/casestudies/wsn.hpp"
#include "src/checker/check.hpp"
#include "src/common/table.hpp"
#include "src/core/model_repair.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/solver.hpp"

using namespace tml;

namespace {

double bounded_delivery(const Mdp& mdp, std::size_t k) {
  return *check(mdp, "Pmax=? [ F<=" + std::to_string(k) + " \"delivered\" ]")
              .value;
}

}  // namespace

int main() {
  const WsnConfig config;
  const Mdp base = build_wsn_mdp(config);

  // The X=40 repair from table_wsn_model_repair (recomputed here).
  const StateFormulaPtr x40 = parse_pctl("Rmin<=40 [ F \"delivered\" ]");
  auto scheme_for = [&](const Dtmc& induced) {
    return wsn_perturbation(config, induced, 0.08);
  };
  auto rebuild = [&](std::span<const double> v) {
    return build_wsn_mdp(config, v[0], v[1]);
  };
  const MdpModelRepairResult repair =
      mdp_model_repair(base, *x40, scheme_for, rebuild);
  const Mdp repaired = repair.inner.feasible() ? *repair.repaired_mdp : base;
  const Mdp capped = build_wsn_mdp(config, 0.08, 0.08);

  std::cout << "=== Bounded-time view: P(F<=k delivered) ===\n\n";
  Table series({"k (steps)", "base model", "X=40 repaired", "at cap (0.08)"});
  for (const std::size_t k : {20u, 40u, 60u, 80u, 120u, 200u, 400u}) {
    series.add_row({std::to_string(k),
                    format_double(bounded_delivery(base, k), 4),
                    format_double(bounded_delivery(repaired, k), 4),
                    format_double(bounded_delivery(capped, k), 4)});
  }
  std::cout << series.to_string();

  // Direct bounded repair on the induced routing chain.
  const StateSet delivered = base.states_with_label("delivered");
  const Policy routing =
      total_reward_to_target(compile(base), delivered, Objective::kMinimize)
          .policy;
  const Dtmc induced = base.induced_dtmc(routing);
  const StateFormulaPtr bounded_property =
      parse_pctl("P>=0.5 [ F<=60 \"delivered\" ]");
  std::cout << "\nbounded repair: " << bounded_property->to_string() << "\n";
  std::cout << "base P(F<=60) = "
            << format_double(*check(induced, *bounded_property).value, 4)
            << "\n";
  const PerturbationScheme scheme = wsn_perturbation(config, induced, 0.08);
  const ModelRepairResult bounded_repair =
      model_repair(scheme, *bounded_property);
  std::cout << "status: " << to_string(bounded_repair.status) << "\n";
  if (bounded_repair.feasible()) {
    std::cout << "corrections: p = "
              << format_double(bounded_repair.variable_values[0], 4)
              << ", q = "
              << format_double(bounded_repair.variable_values[1], 4)
              << "; achieved P(F<=60) = "
              << format_double(bounded_repair.achieved, 4) << ", recheck "
              << (bounded_repair.recheck_passed ? "passed" : "FAILED") << "\n";
  } else {
    std::cout << "best achievable P(F<=60) = "
              << format_double(bounded_repair.achieved, 4) << "\n";
  }
  std::cout << "\nreading: the unbounded E[attempts] repair translates into "
               "a left-shift of the whole bounded-delivery curve; bounded "
               "properties are also repairable directly (symbolic "
               "polynomial constraint for short horizons, exact numeric "
               "per-iterate evaluation for long ones).\n";
  return 0;
}
