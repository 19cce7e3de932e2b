// Reproduces §V-A.2 — Data Repair in the wireless sensor network (E4).
//
// Message-routing traces are simulated from the noisy network; maximum
// likelihood re-learning on the raw traces violates the tight property
// R{attempts}<=19 [ F "delivered" ] (Model Repair is infeasible at this
// bound — see table_wsn_model_repair). Data Repair drops a fraction of the
// "message ignored" observations at n11, at n32, and at the remaining
// route nodes — the MLE transition probabilities become rational functions
// of the keep weights (the paper's 0.4/(0.4+0.6p) shape) and the outer
// machine-teaching NLP finds the smallest drop that restores the property.

#include <iostream>

#include "src/casestudies/wsn.hpp"
#include "src/checker/check.hpp"
#include "src/common/table.hpp"
#include "src/core/data_repair.hpp"
#include "src/learn/mle.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/solver.hpp"

using namespace tml;

int main() {
  const WsnConfig config;
  const Mdp mdp = build_wsn_mdp(config);
  const StateSet delivered = mdp.states_with_label("delivered");
  const Policy routing =
      total_reward_to_target(compile(mdp), delivered, Objective::kMinimize)
          .policy;
  const Dtmc induced = mdp.induced_dtmc(routing);

  std::cout << "=== WSN Data Repair (paper §V-A.2) ===\n";
  const TrajectoryDataset traces = generate_wsn_traces(mdp, 200, /*seed=*/42);
  std::size_t steps = 0;
  for (const auto& t : traces.trajectories) steps += t.length();
  std::cout << "traces: " << traces.size() << " routed queries, " << steps
            << " forwarding observations\n";

  const WsnDataRepairSetup setup =
      wsn_data_repair_setup(mdp, induced, traces);
  const StateFormulaPtr property = parse_pctl("R<=19 [ F \"delivered\" ]");

  // The model learned from the raw traces.
  const Dtmc learned = mle_dtmc(induced, setup.step_data);
  const CheckResult before = check(learned, *property);
  std::cout << "learned model E[attempts] = "
            << format_double(before.value.value(), 5)
            << (before.satisfied ? " (satisfies R<=19)"
                                 : " (violates R<=19)")
            << "\n\n";

  DataRepairConfig repair_config;
  repair_config.pseudocount = 1e-3;
  const DataRepairResult result = data_repair(
      induced, setup.step_data, setup.groups, *property, repair_config);

  Table table({"group", "observations", "keep weight", "drop fraction"});
  for (std::size_t g = 0; g < result.group_names.size(); ++g) {
    double count = 0;
    for (const RepairGroup& group : setup.groups) {
      if ("keep_" + group.name == result.group_names[g]) {
        count = static_cast<double>(group.members.size());
      }
    }
    table.add_row({result.group_names[g], format_double(count, 6),
                   result.keep_weights.empty()
                       ? "-"
                       : format_double(result.keep_weights[g], 4),
                   result.drop_fractions.empty()
                       ? "-"
                       : format_double(result.drop_fractions[g], 4)});
  }
  std::cout << table.to_string() << "\n";
  std::cout << "status: " << to_string(result.status) << "\n";
  if (result.feasible()) {
    std::cout << "re-learned model E[attempts] = "
              << format_double(result.achieved, 5) << " (bound 19), recheck "
              << (result.recheck_passed ? "passed" : "FAILED") << "\n";
  }
  std::cout << "\nparametric constraint f(keep weights):\n  "
            << (result.function_text.size() > 600
                    ? result.function_text.substr(0, 600) + " ..."
                    : result.function_text)
            << "\n";
  std::cout << "\npaper: data corrections (p=0.0605, q=0.0245, r=0.0316) make "
               "the re-learned model satisfy R<=19; our drop fractions "
               "differ in magnitude (different trace calibration) but the "
               "regime matches: Data Repair succeeds where bounded Model "
               "Repair was infeasible.\n";
  return 0;
}
