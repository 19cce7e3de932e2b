// Baseline comparison (paper §VI, related work):
//
//  1. Reward Repair vs potential-based reward shaping (Ng et al. [26]) on
//     the car controller. Shaping's policy-invariance theorem means even a
//     violently repulsive potential on the unsafe states cannot change the
//     unsafe optimal policy; Reward Repair changes it by design.
//  2. Model Repair vs interval-MDP robust verification (Puggelli et al.
//     [28]) on the WSN. Interval verification answers "does the property
//     hold for EVERY model within radius r of the nominal one?"; Model
//     Repair answers "which single model within the perturbation budget
//     satisfies it?". The table shows the robust-delivery envelope vs the
//     repaired point model.

#include <iostream>

#include "src/casestudies/car.hpp"
#include "src/casestudies/wsn.hpp"
#include "src/checker/check.hpp"
#include "src/checker/interval.hpp"
#include "src/common/table.hpp"
#include "src/core/reward_repair.hpp"
#include "src/irl/max_ent_irl.hpp"
#include "src/irl/shaping.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/solver.hpp"

using namespace tml;

int main() {
  std::cout << "=== Baseline 1: Reward Repair vs reward shaping (car) ===\n";
  {
    const Mdp car = build_car_mdp();
    const StateFeatures features = car_features(car);
    const TrajectoryDataset expert = car_expert_demonstrations(car);
    IrlOptions irl_options;
    irl_options.horizon = 10;
    irl_options.learning_rate = 0.1;
    irl_options.max_iterations = 4000;
    const IrlResult irl = max_ent_irl(car, features, expert, irl_options);
    const double discount = 0.9;
    const Mdp rewarded = with_linear_reward(car, features, irl.theta);

    Table table({"method", "action at S1", "policy"});
    const Policy learned =
        value_iteration_discounted(compile(rewarded), discount,
                                   Objective::kMaximize)
            .policy;
    table.add_row({"learned reward (IRL)",
                   std::to_string(car.choices(1)[learned.at(1)].action),
                   car_policy_unsafe(car, learned) ? "UNSAFE" : "safe"});

    for (const double scale : {1.0, 10.0, 100.0}) {
      const Mdp shaped = apply_potential_shaping(
          rewarded, repulsive_potential(rewarded, "unsafe", scale), discount);
      const Policy policy =
          value_iteration_discounted(compile(shaped), discount,
                                     Objective::kMaximize)
              .policy;
      table.add_row(
          {"+ shaping (scale " + format_double(scale, 3) + ")",
           std::to_string(car.choices(1)[policy.at(1)].action),
           car_policy_unsafe(car, policy) ? "UNSAFE" : "safe"});
    }

    QRepairConfig q_config;
    q_config.discount = discount;
    q_config.frozen = {0, 2};
    q_config.max_weight_change = 6.0;
    const QRepairResult repaired = reward_repair_q_constraints(
        car, features, irl.theta, {{1, 1, 0, 1e-3}}, q_config);
    table.add_row(
        {"Reward Repair",
         repaired.feasible()
             ? std::to_string(car.choices(1)[repaired.policy_after.at(1)].action)
             : "-",
         repaired.feasible() && !car_policy_unsafe(car, repaired.policy_after)
             ? "safe"
             : "UNSAFE"});
    std::cout << table.to_string();
    std::cout << "\nreading: potential-based shaping provably preserves the "
               "optimal policy (Ng et al.), so no shaping scale fixes the "
               "unsafe behaviour; Reward Repair changes the policy — that "
               "is the operation's point.\n\n";
  }

  std::cout << "=== Baseline 2: Model Repair vs interval robustness (WSN) "
               "===\n";
  {
    const WsnConfig config;
    const Mdp nominal = build_wsn_mdp(config);
    const StateSet delivered = nominal.states_with_label("delivered");
    // Bounded-delivery robust envelope: Pmin over interval models of
    // P(F<=120 delivered) is awkward under interval semantics; use the
    // unbounded reachability envelope (1 everywhere) is trivial — so
    // compare the envelope of delivery within a step bound via the
    // discounted proxy: robust reachability of "delivered" with
    // adversarial nature on the widened model equals 1 here; instead we
    // report the robust value of the 40-attempt *probability* surrogate
    // P(F<=40 delivered) computed at the interval corners.
    Table table({"transition uncertainty r", "P(F<=40) worst corner",
                 "P(F<=40) nominal", "P(F<=40) best corner"});
    for (const double r : {0.0, 0.01, 0.02, 0.04}) {
      const Mdp worst = build_wsn_mdp(config, -r, -r);
      const Mdp best = build_wsn_mdp(config, r, r);
      table.add_row(
          {format_double(r, 3),
           format_double(*check(worst, "Pmax=? [ F<=40 \"delivered\" ]").value,
                         4),
           format_double(
               *check(nominal, "Pmax=? [ F<=40 \"delivered\" ]").value, 4),
           format_double(*check(best, "Pmax=? [ F<=40 \"delivered\" ]").value,
                         4)});
    }
    std::cout << table.to_string();

    // Robust reachability certificate from the interval engine: even under
    // adversarial nature inside ±r the message is delivered a.s.
    const IntervalMdp widened = IntervalMdp::widen(nominal, 0.04);
    const std::vector<double> robust = interval_reachability(
        widened, delivered, Objective::kMaximize, Nature::kAdversarial);
    std::cout << "\ninterval certificate: Pmax(F delivered) >= "
              << format_double(robust[nominal.initial_state()], 4)
              << " for EVERY model within r=0.04 of the nominal one.\n";
    std::cout << "\nreading: interval verification certifies an envelope "
               "around the nominal model but cannot say how to FIX a "
               "violated bound; Model Repair picks the one perturbed model "
               "(p=0.056, q=0.037, see table_wsn_model_repair) that "
               "restores it — the two are complementary.\n";
  }
  return 0;
}
