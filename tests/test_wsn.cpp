// Tests for the WSN case study (§V-A), including the paper's three Model
// Repair regimes and the Data Repair setup.

#include <cmath>

#include <gtest/gtest.h>

#include "src/casestudies/wsn.hpp"
#include "src/checker/check.hpp"
#include "src/core/data_repair.hpp"
#include "src/core/model_repair.hpp"
#include "src/learn/mle.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/solver.hpp"

namespace tml {
namespace {

class WsnTest : public ::testing::Test {
 protected:
  WsnConfig config_;
  Mdp mdp_ = build_wsn_mdp(config_);
};

TEST_F(WsnTest, StructureMatchesGrid) {
  EXPECT_EQ(mdp_.num_states(), 10u);  // 9 nodes + done
  EXPECT_EQ(mdp_.state_name(mdp_.initial_state()), "n33");
  EXPECT_TRUE(mdp_.has_label(mdp_.state_by_name("done"), "delivered"));
  EXPECT_TRUE(mdp_.has_label(mdp_.state_by_name("n11"), "station"));
  EXPECT_TRUE(mdp_.has_label(mdp_.state_by_name("n33"), "field"));
  EXPECT_NO_THROW(mdp_.validate());
  // Corner node n33 has two forwarding choices; edge node n13 has one.
  EXPECT_EQ(mdp_.choices(mdp_.state_by_name("n33")).size(), 2u);
  EXPECT_EQ(mdp_.choices(mdp_.state_by_name("n13")).size(), 1u);
  // n11 only delivers.
  EXPECT_EQ(mdp_.choices(mdp_.state_by_name("n11")).size(), 1u);
}

TEST_F(WsnTest, EveryAttemptCostsOne) {
  for (StateId s = 0; s < mdp_.num_states(); ++s) {
    for (const Choice& c : mdp_.choices(s)) {
      if (mdp_.state_name(s) == "done") {
        EXPECT_DOUBLE_EQ(c.reward, 0.0);
      } else {
        EXPECT_DOUBLE_EQ(c.reward, 1.0);
      }
    }
  }
}

TEST_F(WsnTest, BaseExpectedAttemptsClosedForm) {
  // Optimal route n33→n32→n31→n21→n11→deliver: 4 field/station entries
  // (ignore a = 0.92) and one row-2 entry (b = 0.94):
  // E = 4/(1−a) + 1/(1−b) = 50 + 16.67 = 66.67.
  const CheckResult r = check(mdp_, "Rmin=? [ F \"delivered\" ]");
  EXPECT_NEAR(*r.value, 4.0 / 0.08 + 1.0 / 0.06, 1e-6);
}

TEST_F(WsnTest, OptimalRouteGoesThroughN32) {
  const StateSet delivered = mdp_.states_with_label("delivered");
  const Policy policy =
      total_reward_to_target(compile(mdp_), delivered, Objective::kMinimize)
          .policy;
  const StateId n33 = mdp_.state_by_name("n33");
  const Choice& first_hop = mdp_.choices(n33)[policy.at(n33)];
  StateId hop = n33;
  for (const Transition& t : first_hop.transitions) {
    if (t.target != n33) hop = t.target;
  }
  EXPECT_EQ(mdp_.state_name(hop), "n32");
}

TEST_F(WsnTest, CorrectionsLowerExpectedAttempts) {
  const Mdp repaired = build_wsn_mdp(config_, 0.05, 0.03);
  const double base = *check(mdp_, "Rmin=? [ F \"delivered\" ]").value;
  const double after = *check(repaired, "Rmin=? [ F \"delivered\" ]").value;
  EXPECT_LT(after, base);
  EXPECT_NEAR(after, 4.0 / 0.13 + 1.0 / 0.09, 1e-6);
}

TEST_F(WsnTest, InvalidCorrectionRejected) {
  EXPECT_THROW(build_wsn_mdp(config_, 0.95, 0.0), Error);
}

TEST_F(WsnTest, PaperRegimeX100Satisfied) {
  EXPECT_TRUE(check(mdp_, "Rmin<=100 [ F \"delivered\" ]").satisfied);
}

TEST_F(WsnTest, PaperRegimeX40RepairFeasible) {
  const StateFormulaPtr property = parse_pctl("Rmin<=40 [ F \"delivered\" ]");
  EXPECT_FALSE(check(mdp_, *property).satisfied);
  auto scheme_for = [&](const Dtmc& induced) {
    return wsn_perturbation(config_, induced, 0.08);
  };
  auto rebuild = [&](std::span<const double> v) {
    return build_wsn_mdp(config_, v[0], v[1]);
  };
  const MdpModelRepairResult result =
      mdp_model_repair(mdp_, *property, scheme_for, rebuild);
  ASSERT_TRUE(result.inner.feasible());
  EXPECT_TRUE(result.inner.recheck_passed);
  ASSERT_TRUE(result.repaired_mdp.has_value());
  EXPECT_TRUE(check(*result.repaired_mdp, *property).satisfied);
  // Small corrections, p (4 hops affected) larger than q (1 hop).
  EXPECT_GT(result.inner.variable_values[0], result.inner.variable_values[1]);
  EXPECT_LT(result.inner.variable_values[0], 0.08);
  EXPECT_TRUE(result.policy_stable);
}

TEST_F(WsnTest, PaperRegimeX19Infeasible) {
  const StateFormulaPtr property = parse_pctl("Rmin<=19 [ F \"delivered\" ]");
  auto scheme_for = [&](const Dtmc& induced) {
    return wsn_perturbation(config_, induced, 0.08);
  };
  auto rebuild = [&](std::span<const double> v) {
    return build_wsn_mdp(config_, v[0], v[1]);
  };
  const MdpModelRepairResult result =
      mdp_model_repair(mdp_, *property, scheme_for, rebuild);
  EXPECT_FALSE(result.inner.feasible());
  // Even at the caps, 4/0.16 + 1/0.14 ≈ 32.1 > 19.
  EXPECT_GT(result.inner.achieved, 19.0);
}

TEST_F(WsnTest, TraceGenerationReachesDelivery) {
  const TrajectoryDataset traces = generate_wsn_traces(mdp_, 50, 7);
  EXPECT_EQ(traces.size(), 50u);
  const StateId done = mdp_.state_by_name("done");
  std::size_t delivered = 0;
  for (const Trajectory& t : traces.trajectories) {
    if (t.final_state() == done) ++delivered;
  }
  // With E[attempts] ≈ 67 and a 400-step cap, nearly all queries deliver.
  EXPECT_GT(delivered, 45u);
}

TEST_F(WsnTest, MleFromTracesRecoversAttempts) {
  const StateSet delivered = mdp_.states_with_label("delivered");
  const Policy routing =
      total_reward_to_target(compile(mdp_), delivered, Objective::kMinimize)
          .policy;
  const Dtmc induced = mdp_.induced_dtmc(routing);
  const TrajectoryDataset traces = generate_wsn_traces(mdp_, 300, 3);
  const WsnDataRepairSetup setup = wsn_data_repair_setup(mdp_, induced, traces);
  const Dtmc learned = mle_dtmc(induced, setup.step_data);
  const double learned_attempts =
      *check(learned, "R=? [ F \"delivered\" ]").value;
  EXPECT_NEAR(learned_attempts, 66.67, 8.0);  // statistical tolerance
}

TEST_F(WsnTest, DataRepairSetupGroupsPartitionSteps) {
  const StateSet delivered = mdp_.states_with_label("delivered");
  const Policy routing =
      total_reward_to_target(compile(mdp_), delivered, Objective::kMinimize)
          .policy;
  const Dtmc induced = mdp_.induced_dtmc(routing);
  const TrajectoryDataset traces = generate_wsn_traces(mdp_, 100, 5);
  const WsnDataRepairSetup setup = wsn_data_repair_setup(mdp_, induced, traces);
  std::size_t grouped = 0;
  for (const RepairGroup& g : setup.groups) grouped += g.members.size();
  EXPECT_EQ(grouped, setup.step_data.size());
  // Exactly one pinned group (the successes).
  std::size_t pinned = 0;
  for (const RepairGroup& g : setup.groups) pinned += g.pinned ? 1 : 0;
  EXPECT_EQ(pinned, 1u);
}

TEST_F(WsnTest, DataRepairReachesTightBound) {
  const StateSet delivered = mdp_.states_with_label("delivered");
  const Policy routing =
      total_reward_to_target(compile(mdp_), delivered, Objective::kMinimize)
          .policy;
  const Dtmc induced = mdp_.induced_dtmc(routing);
  const TrajectoryDataset traces = generate_wsn_traces(mdp_, 200, 42);
  const WsnDataRepairSetup setup = wsn_data_repair_setup(mdp_, induced, traces);
  DataRepairConfig config;
  config.pseudocount = 1e-3;
  const DataRepairResult result =
      data_repair(induced, setup.step_data, setup.groups,
                  *parse_pctl("R<=19 [ F \"delivered\" ]"), config);
  ASSERT_TRUE(result.feasible());
  EXPECT_TRUE(result.recheck_passed);
  for (double keep : result.keep_weights) {
    EXPECT_GE(keep, 0.0);
    EXPECT_LE(keep, 1.0);
  }
}

TEST(WsnConfigTest, LargerGridsBuild) {
  WsnConfig config;
  config.grid = 4;
  const Mdp mdp = build_wsn_mdp(config);
  EXPECT_EQ(mdp.num_states(), 17u);
  EXPECT_NO_THROW(mdp.validate());
  EXPECT_TRUE(check(mdp, "Pmax>=1 [ F \"delivered\" ]").satisfied);
}

TEST(WsnConfigTest, RowClassification) {
  WsnConfig config;
  EXPECT_TRUE(wsn_is_field_or_station_row(config, 1));
  EXPECT_FALSE(wsn_is_field_or_station_row(config, 2));
  EXPECT_TRUE(wsn_is_field_or_station_row(config, 3));
}

}  // namespace
}  // namespace tml
