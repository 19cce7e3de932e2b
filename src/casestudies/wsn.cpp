#include "src/casestudies/wsn.hpp"

#include <cmath>

#include "src/mdp/simulate.hpp"
#include "src/mdp/solver.hpp"

namespace tml {

namespace {

std::string node_name(std::size_t i, std::size_t j) {
  return "n" + std::to_string(i) + std::to_string(j);
}

double ignore_probability(const WsnConfig& config, std::size_t row,
                          std::size_t col, double p, double q) {
  double base = wsn_is_field_or_station_row(config, row)
                    ? config.ignore_field_station - p
                    : config.ignore_other - q;
  if (col == config.grid) base += config.far_column_bias;
  TML_REQUIRE(base > 0.0 && base < 1.0,
              "wsn: corrected ignore probability out of (0,1): " << base);
  return base;
}

}  // namespace

bool wsn_is_field_or_station_row(const WsnConfig& config, std::size_t i) {
  return i == 1 || i == config.grid;
}

Mdp build_wsn_mdp(const WsnConfig& config, double p, double q) {
  TML_REQUIRE(config.grid >= 2, "wsn: grid must be at least 2x2");
  const std::size_t n = config.grid;
  auto index = [n](std::size_t i, std::size_t j) {
    return static_cast<StateId>((i - 1) * n + (j - 1));
  };
  const StateId done = static_cast<StateId>(n * n);

  Mdp mdp(n * n + 1);
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      mdp.set_state_name(index(i, j), node_name(i, j));
      if (i == 1) mdp.add_label(index(i, j), "station");
      if (i == n) mdp.add_label(index(i, j), "field");
    }
  }
  mdp.set_state_name(done, "done");
  mdp.add_label(done, "delivered");
  mdp.set_initial_state(index(n, n));

  // Forwarding choices: each attempt costs reward 1; the entered node
  // accepts with probability 1 − ignore(entered node), else the message
  // stays for a retry.
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      const StateId s = index(i, j);
      if (i == 1 && j == 1) {
        // n11 forwards straight to the base station hub.
        const double ign = ignore_probability(config, 1, 1, p, q);
        mdp.add_choice(s, "deliver",
                       {Transition{done, 1.0 - ign}, Transition{s, ign}},
                       1.0);
        continue;
      }
      if (i > 1) {  // forward "up" toward the station row
        const StateId t = index(i - 1, j);
        const double ign = ignore_probability(config, i - 1, j, p, q);
        mdp.add_choice(s, "fwd_" + node_name(i - 1, j),
                       {Transition{t, 1.0 - ign}, Transition{s, ign}}, 1.0);
      }
      if (j > 1) {  // forward "left"
        const StateId t = index(i, j - 1);
        const double ign = ignore_probability(config, i, j - 1, p, q);
        mdp.add_choice(s, "fwd_" + node_name(i, j - 1),
                       {Transition{t, 1.0 - ign}, Transition{s, ign}}, 1.0);
      }
    }
  }
  mdp.add_choice(done, "stay", {Transition{done, 1.0}}, 0.0);
  mdp.validate();
  return mdp;
}

PerturbationScheme wsn_perturbation(const WsnConfig& config,
                                    const Dtmc& induced,
                                    double max_correction) {
  TML_REQUIRE(max_correction > 0.0, "wsn_perturbation: non-positive cap");
  PerturbationScheme scheme(induced);
  const Var p = scheme.add_variable("p", 0.0, max_correction);
  const Var q = scheme.add_variable("q", 0.0, max_correction);

  const std::size_t n = config.grid;
  const StateId done = induced.state_by_name("done");
  for (StateId s = 0; s < induced.num_states(); ++s) {
    if (s == done) continue;
    // Routing rows have the shape {hop target, self retry}; find the hop.
    const auto& row = induced.transitions(s);
    StateId hop = s;
    for (const Transition& t : row) {
      if (t.target != s) hop = t.target;
    }
    if (hop == s) continue;  // detached state
    // Class of the *entered* node decides which correction applies; the
    // "done" hop is n11's delivery, governed by the station row.
    std::size_t entered_row;
    if (hop == done) {
      entered_row = 1;
    } else {
      entered_row = static_cast<std::size_t>(hop) / n + 1;
    }
    const Var var = wsn_is_field_or_station_row(config, entered_row) ? p : q;
    // Correction raises the success probability, balanced against the
    // retry self-loop.
    scheme.attach_balanced(var, s, hop, s);
  }
  return scheme;
}

TrajectoryDataset generate_wsn_traces(const Mdp& mdp, std::size_t num_queries,
                                      std::uint64_t seed,
                                      std::size_t max_steps) {
  const StateSet delivered = mdp.states_with_label("delivered");
  const Policy policy =
      total_reward_to_target(compile(mdp), delivered, Objective::kMinimize)
          .policy;
  Rng rng(seed);
  SimulationOptions options;
  options.max_steps = max_steps;
  options.absorbing = delivered;
  return simulate_dataset(mdp, policy, rng, num_queries, options);
}

WsnDataRepairSetup wsn_data_repair_setup(const Mdp& mdp, const Dtmc& induced,
                                         const TrajectoryDataset& traces) {
  WsnDataRepairSetup setup;
  const StateId n11 = induced.state_by_name("n11");
  const StateId n32 = induced.state_by_name("n32");

  RepairGroup ign_n11{"n11", {}, false};
  RepairGroup ign_n32{"n32", {}, false};
  RepairGroup fwd_fail{"fwd_fail", {}, false};
  RepairGroup success{"success", {}, true};

  for (const Trajectory& trace : traces.trajectories) {
    for (const Step& step : trace.steps) {
      Trajectory single;
      single.initial_state = step.state;
      // The induced chain is a one-choice-per-state structure; steps are
      // re-indexed to choice 0 of the DTMC view.
      single.steps.push_back(Step{step.state, 0, 0, step.next_state});
      const std::size_t idx = setup.step_data.size();
      setup.step_data.add(std::move(single));
      const bool ignored = step.next_state == step.state;
      if (!ignored) {
        success.members.push_back(idx);
      } else if (step.state == n11) {
        ign_n11.members.push_back(idx);
      } else if (step.state == n32) {
        ign_n32.members.push_back(idx);
      } else {
        fwd_fail.members.push_back(idx);
      }
    }
  }
  TML_REQUIRE(!ign_n11.members.empty(),
              "wsn_data_repair_setup: no ignore observations at n11 — "
              "increase the trace count");
  TML_REQUIRE(!ign_n32.members.empty(),
              "wsn_data_repair_setup: no ignore observations at n32 — the "
              "routing policy must pass through n32");
  setup.groups = {std::move(ign_n11), std::move(ign_n32), std::move(fwd_fail),
                  std::move(success)};
  (void)mdp;
  return setup;
}

}  // namespace tml
