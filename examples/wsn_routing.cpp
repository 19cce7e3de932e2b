// WSN query routing (§V-A) end to end: build the network MDP, simulate
// routing traces, learn by maximum likelihood, run the full Trusted
// Machine Learning pipeline (verify → Model Repair → Data Repair), and
// report which stage produced a trusted model.
//
// This example exercises the §II pipeline on the paper's own case study at
// a bound between the paper's X=40 (model-repairable) and X=19 (needs data
// repair) regimes, so both repair stages are visible in one run.

#include <iostream>

#include "src/casestudies/wsn.hpp"
#include "src/checker/check.hpp"
#include "src/core/trusted_learner.hpp"
#include "src/learn/mle.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/solver.hpp"

using namespace tml;

namespace {

void run_pipeline(const WsnConfig& config, const Dtmc& induced,
                  const WsnDataRepairSetup& setup, const std::string& formula,
                  double cap) {
  std::cout << "--- trusted_learn against " << formula << " ---\n";
  TrustedLearnerConfig tml_config;
  tml_config.perturbation = [&config, cap](const Dtmc& learned) {
    return wsn_perturbation(config, learned, cap);
  };
  tml_config.groups = setup.groups;
  tml_config.data_repair.pseudocount = 1e-3;

  const TrustedLearnerReport report = trusted_learn(
      induced, setup.step_data, *parse_pctl(formula), tml_config);

  std::cout << "learned model value: " << *report.learned_value
            << (report.learned_satisfies ? " (already satisfies)\n"
                                         : " (violates)\n");
  if (report.model_repair) {
    std::cout << "model repair: " << to_string(report.model_repair->status);
    if (report.model_repair->feasible()) {
      std::cout << " with corrections (";
      for (std::size_t i = 0; i < report.model_repair->variable_values.size();
           ++i) {
        std::cout << (i ? ", " : "")
                  << report.model_repair->variable_names[i] << "="
                  << report.model_repair->variable_values[i];
      }
      std::cout << ")";
    }
    std::cout << "\n";
  }
  if (report.data_repair) {
    std::cout << "data repair: " << to_string(report.data_repair->status);
    if (report.data_repair->feasible()) {
      std::cout << " dropping fractions (";
      for (std::size_t i = 0; i < report.data_repair->drop_fractions.size();
           ++i) {
        std::cout << (i ? ", " : "") << report.data_repair->group_names[i]
                  << "=" << report.data_repair->drop_fractions[i];
      }
      std::cout << ")";
    }
    std::cout << "\n";
  }
  std::cout << "outcome: " << to_string(report.stage) << "\n\n";
}

}  // namespace

int main() {
  const WsnConfig config;
  const Mdp network = build_wsn_mdp(config);
  std::cout << "WSN: " << config.grid << "x" << config.grid
            << " grid, query from n33 to n11\n";

  // The routing controller's optimal policy and its induced chain.
  const StateSet delivered = network.states_with_label("delivered");
  const SolveResult routing = total_reward_to_target(
      compile(network), delivered, Objective::kMinimize);
  std::cout << "optimal routing needs " << routing.values[network.initial_state()]
            << " expected attempts\n";

  // Simulated routing traces and the learned model.
  const TrajectoryDataset traces = generate_wsn_traces(network, 200, 42);
  const Dtmc induced = network.induced_dtmc(routing.policy);
  const WsnDataRepairSetup setup =
      wsn_data_repair_setup(network, induced, traces);
  const Dtmc learned = mle_dtmc(induced, setup.step_data);
  std::cout << "model learned from " << setup.step_data.size()
            << " forwarding observations: "
            << *check(learned, "R=? [ F \"delivered\" ]").value
            << " expected attempts\n\n";

  // Loose bound: the learned model satisfies it outright.
  run_pipeline(config, induced, setup, "R<=100 [ F \"delivered\" ]", 0.08);
  // Medium bound: Model Repair fixes it with small corrections.
  run_pipeline(config, induced, setup, "R<=40 [ F \"delivered\" ]", 0.08);
  // Tight bound: only Data Repair can reach it.
  run_pipeline(config, induced, setup, "R<=19 [ F \"delivered\" ]", 0.08);
  return 0;
}
