// Tests for the KKT (SQP) solve of the repair NLP: certified minima against
// brute-force scans of the closed form, the KKT residual, the paper's WSN
// regimes E2–E4, and thread-count invariance.

#include <algorithm>
#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "src/casestudies/wsn.hpp"
#include "src/checker/check.hpp"
#include "src/common/rng.hpp"
#include "src/core/data_repair.hpp"
#include "src/core/model_repair.hpp"
#include "src/learn/mle.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/solver.hpp"
#include "src/opt/kkt.hpp"

namespace tml {
namespace {

/// The slack RepairConstraint adds to a bound under the default solver
/// options: the constraint the NLP solves is f ⋈ bound ∓ margin.
double default_margin(double bound) {
  return 10.0 * SolveOptions{}.feasibility_tol * (1.0 + std::abs(bound));
}

/// The smallest cost Σ w_k v_k² on the boundary f(v) = level along the ray
/// v = r·u (u >= 0, ‖u‖ = 1) inside the box [0, cap]^d, where f decreases
/// along every ray from f(0) > level; +inf when the ray leaves the box
/// first. Bisection on r.
template <typename F>
double ray_cost(const F& f, std::span<const double> u, double cap,
                std::span<const double> w, double level,
                std::vector<double>* at = nullptr) {
  double r_max = std::numeric_limits<double>::infinity();
  for (double c : u) {
    if (c > 0.0) r_max = std::min(r_max, cap / c);
  }
  std::vector<double> v(u.size());
  const auto point = [&](double r) {
    for (std::size_t k = 0; k < u.size(); ++k) v[k] = r * u[k];
    return f(v);
  };
  if (point(r_max) > level) return std::numeric_limits<double>::infinity();
  double lo = 0.0, hi = r_max;
  for (int i = 0; i < 200 && hi - lo > 1e-15; ++i) {
    const double mid = 0.5 * (lo + hi);
    (point(mid) > level ? lo : hi) = mid;
  }
  (void)point(hi);
  if (at != nullptr) *at = v;
  double cost = 0.0;
  for (std::size_t k = 0; k < v.size(); ++k) cost += w[k] * v[k] * v[k];
  return cost;
}

/// Brute-force minimum of Σ w_k v_k² over {f(v) <= level} ∩ [0, cap]^d by
/// an angle scan of the positive orthant (d <= 3), refined by golden
/// section on each angle around the best scanned one.
template <typename F>
double scan_minimum(const F& f, std::size_t dim, double cap,
                    std::span<const double> w, double level,
                    std::vector<double>* at) {
  const double quarter = std::numbers::pi / 2.0;
  const auto direction = [&](double a, double b) {
    if (dim == 1) return std::vector<double>{1.0};
    if (dim == 2) return std::vector<double>{std::cos(a), std::sin(a)};
    return std::vector<double>{std::cos(a) * std::sin(b),
                               std::sin(a) * std::sin(b), std::cos(b)};
  };
  const auto cost_at = [&](double a, double b, std::vector<double>* v) {
    const std::vector<double> u = direction(a, b);
    return ray_cost(f, u, cap, w, level, v);
  };
  const int steps = dim == 1 ? 1 : dim == 2 ? 4000 : 160;
  double best = std::numeric_limits<double>::infinity();
  double best_a = 0.0, best_b = 0.0;
  for (int i = 0; i < steps; ++i) {
    for (int j = 0; j < (dim == 3 ? steps : 1); ++j) {
      const double a = quarter * i / std::max(1, steps - 1);
      const double b = quarter * j / std::max(1, steps - 1);
      const double c = cost_at(a, b, nullptr);
      if (c < best) {
        best = c;
        best_a = a;
        best_b = b;
      }
    }
  }
  // Golden-section refinement, one angle at a time, twice.
  const double h = dim == 3 ? quarter / (steps - 1) : quarter / 3999.0;
  for (int round = 0; dim > 1 && round < 2; ++round) {
    for (int which = 0; which < (dim == 3 ? 2 : 1); ++which) {
      double& angle = which == 0 ? best_a : best_b;
      double lo = std::max(0.0, angle - 2 * h);
      double hi = std::min(quarter, angle + 2 * h);
      const double g = (std::sqrt(5.0) - 1.0) / 2.0;
      for (int i = 0; i < 80; ++i) {
        const double x1 = hi - g * (hi - lo);
        const double x2 = lo + g * (hi - lo);
        double a1 = best_a, b1 = best_b, a2 = best_a, b2 = best_b;
        (which == 0 ? a1 : b1) = x1;
        (which == 0 ? a2 : b2) = x2;
        if (cost_at(a1, b1, nullptr) < cost_at(a2, b2, nullptr)) {
          hi = x2;
        } else {
          lo = x1;
        }
      }
      const double refined = 0.5 * (lo + hi);
      double a = best_a, b = best_b;
      (which == 0 ? a : b) = refined;
      const double c = cost_at(a, b, nullptr);
      if (c < best) {
        best = c;
        angle = refined;
      }
    }
  }
  (void)cost_at(best_a, best_b, at);
  return best;
}

/// A series of retry stages: stage s succeeds with probability succ[s] and
/// otherwise retries (one attempt each), so E[attempts] = Σ 1/succ[s]. Each
/// stage's success is raised by one of the scheme's variables.
struct SeriesRepair {
  Dtmc chain;
  std::vector<std::size_t> variable_of_stage;
};

PerturbationScheme series_scheme(const SeriesRepair& series, std::size_t dim,
                                 double cap) {
  PerturbationScheme scheme(series.chain);
  std::vector<Var> vars;
  for (std::size_t k = 0; k < dim; ++k) {
    vars.push_back(scheme.add_variable("v" + std::to_string(k), 0.0, cap));
  }
  for (std::size_t s = 0; s < series.variable_of_stage.size(); ++s) {
    scheme.attach_balanced(vars[series.variable_of_stage[s]],
                           static_cast<StateId>(s),
                           static_cast<StateId>(s + 1),
                           static_cast<StateId>(s));
  }
  return scheme;
}

TEST(KktRepair, RandomModelRepairsMatchTheScannedMinimum) {
  Rng rng(20261021);
  for (int rep = 0; rep < 24; ++rep) {
    const std::size_t dim = 1 + rep % 3;
    const std::size_t stages = dim + rng.index(3);
    SeriesRepair series;
    series.chain = Dtmc(stages + 1);
    for (std::size_t s = 0; s < stages; ++s) {
      const double succ = rng.uniform(0.05, 0.5);
      series.chain.set_transitions(
          static_cast<StateId>(s),
          {Transition{static_cast<StateId>(s), 1.0 - succ},
           Transition{static_cast<StateId>(s + 1), succ}});
      series.chain.set_state_reward(static_cast<StateId>(s), 1.0);
      series.variable_of_stage.push_back(s < dim ? s : rng.index(dim));
    }
    const auto last = static_cast<StateId>(stages);
    series.chain.set_transitions(last, {Transition{last, 1.0}});
    series.chain.add_label(last, "done");
    const double cap = 0.3;
    const PerturbationScheme scheme = series_scheme(series, dim, cap);

    ModelRepairConfig config;
    std::vector<double> w(dim, 1.0);
    if (rep % 2 == 1) {
      config.cost = RepairCost::kWeightedL2;
      for (double& x : w) x = rng.uniform(0.5, 4.0);
      config.cost_weights = w;
    }
    const auto attempts = [&](std::span<const double> v) {
      double acc = 0.0;
      for (std::size_t s = 0; s < stages; ++s) {
        const double succ = series.chain.transitions(static_cast<StateId>(s))
                                .back()
                                .probability;
        acc += 1.0 / (succ + v[series.variable_of_stage[s]]);
      }
      return acc;
    };
    const double f0 = attempts(std::vector<double>(dim, 0.0));
    const double f_cap = attempts(std::vector<double>(dim, cap));
    const double bound = f0 - rng.uniform(0.2, 0.8) * (f0 - f_cap);
    const StateFormulaPtr property =
        parse_pctl("R<=" + std::to_string(bound) + " [ F \"done\" ]");
    const double level = std::stod(std::to_string(bound));
    const ModelRepairResult result = model_repair(scheme, *property, config);
    SCOPED_TRACE("rep " + std::to_string(rep) + " dim " + std::to_string(dim));
    ASSERT_TRUE(result.feasible());
    EXPECT_TRUE(result.minimality_certified);
    EXPECT_LE(result.kkt_residual, kKktTolerance);
    EXPECT_TRUE(result.recheck_passed);

    // The closed form and the numeric chain agree, and the scan of the
    // closed form's margined boundary finds nothing cheaper.
    const auto f = [&](std::span<const double> v) {
      return result.property_function.evaluate(v);
    };
    std::vector<double> scanned;
    const double best = scan_minimum(
        f, dim, cap, w, level - default_margin(level), &scanned);
    EXPECT_LE(result.cost, best * (1.0 + 1e-9) + 1e-12);
    if (dim <= 2) {
      EXPECT_NEAR(result.cost, best, 1e-6 * (1.0 + best));
      for (std::size_t k = 0; k < dim; ++k) {
        EXPECT_NEAR(result.variable_values[k], scanned[k], 1e-6);
      }
    }
  }
}

TEST(KktRepair, RandomDataRepairsWithTargetOffsetsBeatEveryGridPoint) {
  // Retry data: droppable failures (target 1), optionally droppable
  // successes (target 1) and a synthetic-success group (target 0, box
  // [0, M]). E[attempts] = (S + F)/S in the weighted counts.
  Rng rng(777);
  for (int rep = 0; rep < 18; ++rep) {
    const int successes = 2 + static_cast<int>(rng.index(6));
    const int fails = 6 + static_cast<int>(rng.index(10));
    TrajectoryDataset data;
    const auto hop = [](StateId from, StateId to) {
      Trajectory t;
      t.initial_state = from;
      t.steps.push_back(Step{from, 0, 0, to});
      return t;
    };
    std::vector<RepairGroup> groups{RepairGroup{"success", {}, rep % 3 != 2},
                                    RepairGroup{"failure", {}, false}};
    for (int i = 0; i < successes; ++i) {
      groups[0].members.push_back(data.size());
      data.add(hop(0, 1));
    }
    for (int i = 0; i < fails; ++i) {
      groups[1].members.push_back(data.size());
      data.add(hop(0, 0));
    }
    if (rep % 2 == 0) {
      RepairGroup synthetic{"synthetic", {}, false};
      synthetic.target_weight = 0.0;
      synthetic.max_weight = 3.0;
      synthetic.members.push_back(data.size());
      data.add(hop(0, 1));
      groups.push_back(synthetic);
    }
    Dtmc structure(2);
    structure.set_transitions(0, {Transition{0, 0.5}, Transition{1, 0.5}});
    structure.set_transitions(1, {Transition{1, 1.0}});
    structure.set_state_reward(0, 1.0);
    structure.add_label(1, "done");

    const double base = static_cast<double>(successes + fails) / successes;
    const double bound = 1.0 + rng.uniform(0.5, 0.9) * (base - 1.0);
    const StateFormulaPtr property =
        parse_pctl("R<=" + std::to_string(bound) + " [ F \"done\" ]");
    DataRepairConfig config;
    config.pseudocount = 0.0;
    const DataRepairResult result =
        data_repair(structure, data, groups, *property, config);
    SCOPED_TRACE("rep " + std::to_string(rep));
    ASSERT_TRUE(result.feasible());
    EXPECT_TRUE(result.minimality_certified);
    EXPECT_LE(result.kkt_residual, kKktTolerance);
    EXPECT_TRUE(result.recheck_passed);

    // Every feasible point of a grid over the weight box costs at least
    // the certified minimum.
    std::vector<double> weight, target, hi;
    for (const RepairGroup& g : groups) {
      if (g.pinned) continue;
      weight.push_back(std::max(1.0, static_cast<double>(g.members.size())));
      target.push_back(g.target_weight);
      hi.push_back(g.max_weight);
    }
    const std::size_t dim = weight.size();
    ASSERT_EQ(dim, result.keep_weights.size());
    const double level =
        std::stod(std::to_string(bound)) - default_margin(bound);
    const int n = dim == 3 ? 41 : dim == 2 ? 201 : 2001;
    std::vector<int> idx(dim, 0);
    double grid_best = std::numeric_limits<double>::infinity();
    std::vector<double> p(dim);
    while (true) {
      double effort = 0.0;
      for (std::size_t k = 0; k < dim; ++k) {
        p[k] = hi[k] * idx[k] / (n - 1);
        effort += weight[k] * (target[k] - p[k]) * (target[k] - p[k]);
      }
      try {
        if (effort < grid_best &&
            result.property_function.evaluate(p) <= level) {
          grid_best = effort;
        }
      } catch (const Error&) {
        // Every success weight at 0: the MLE row is undefined there.
      }
      std::size_t k = 0;
      while (k < dim && ++idx[k] == n) idx[k++] = 0;
      if (k == dim) break;
    }
    ASSERT_TRUE(std::isfinite(grid_best));
    EXPECT_LE(result.effort, grid_best * (1.0 + 1e-9));
  }
}

TEST(KktRepair, ReportsItsResidualAndSolvesNewtonStyleInOneVariable) {
  // min ‖v‖² s.t. Σ 1/(0.1 + v_i) <= 8d on [0, 0.5]^d: by symmetry the
  // minimum is v_i = 1/8 − 0.1 = 0.025 with the constraint active.
  for (std::size_t dim : {1u, 2u, 4u, 8u}) {
    Problem p;
    p.dimension = dim;
    p.objective = [](std::span<const double> v) {
      double acc = 0.0;
      for (double x : v) acc += x * x;
      return acc;
    };
    p.objective_gradient = [](std::span<const double> v) {
      std::vector<double> g(v.size());
      for (std::size_t i = 0; i < v.size(); ++i) g[i] = 2.0 * v[i];
      return g;
    };
    p.objective_hessian_diagonal.assign(dim, 2.0);
    const double bound = 8.0 * static_cast<double>(dim);
    p.constraints.push_back(Constraint{
        "sum",
        [bound](std::span<const double> v) {
          double acc = 0.0;
          for (double x : v) acc += 1.0 / (0.1 + x);
          return acc - bound;
        },
        [](std::span<const double> v) {
          std::vector<double> g(v.size());
          for (std::size_t i = 0; i < v.size(); ++i) {
            g[i] = -1.0 / ((0.1 + v[i]) * (0.1 + v[i]));
          }
          return g;
        }});
    p.box = Box::uniform(dim, 0.0, 0.5);
    ASSERT_TRUE(kkt_applicable(p));
    const SolveOutcome out = solve_kkt(p, std::vector<double>(dim, 0.0), {});
    SCOPED_TRACE(dim);
    ASSERT_TRUE(out.minimality_certified);
    EXPECT_EQ(out.status, SolveStatus::kOptimal);
    EXPECT_LE(out.kkt_residual, kKktTolerance);
    EXPECT_LT(out.iterations, 30u);
    for (double x : out.x) EXPECT_NEAR(x, 0.025, 1e-9);
    // The residual, recomputed: λ from stationarity 2v + λ∇c = 0.
    const std::vector<double> grad = p.constraints[0].gradient(out.x);
    const double lambda = -2.0 * out.x[0] / grad[0];
    EXPECT_GT(lambda, 0.0);
    for (std::size_t i = 0; i < dim; ++i) {
      EXPECT_NEAR(2.0 * out.x[i] + lambda * grad[i], 0.0, 1e-9);
    }
    EXPECT_NEAR(p.constraints[0].value(out.x), 0.0, 1e-9);
  }
  // A single variable with one active constraint is a Newton root-find.
  Problem q;
  q.dimension = 1;
  q.objective = [](std::span<const double> v) { return v[0] * v[0]; };
  q.objective_gradient = [](std::span<const double> v) {
    return std::vector<double>{2.0 * v[0]};
  };
  q.objective_hessian_diagonal = {2.0};
  q.constraints.push_back(Constraint{
      "root", [](std::span<const double> v) { return 2.0 - std::exp(v[0]); },
      [](std::span<const double> v) {
        return std::vector<double>{-std::exp(v[0])};
      }});
  q.box = Box::uniform(1, 0.0, 3.0);
  const SolveOutcome root = solve_kkt(q, {0.0}, {});
  ASSERT_TRUE(root.minimality_certified);
  EXPECT_NEAR(root.x[0], std::log(2.0), 1e-12);
  EXPECT_LE(root.iterations, 8u);
}

TEST(KktRepair, SecondOrderCheckRejectsAStationaryPointThatIsNoMinimum) {
  // min (x − 1)² + y² outside the circle x² + y² >= 4: (2, 0) is the
  // minimum; (−2, 0) is a KKT point too (λ = 1.5), but the Lagrangian's
  // curvature along the circle there is 2 − 2λ = −1, so it is not one.
  Problem p;
  p.dimension = 2;
  p.objective = [](std::span<const double> v) {
    return (v[0] - 1.0) * (v[0] - 1.0) + v[1] * v[1];
  };
  p.objective_gradient = [](std::span<const double> v) {
    return std::vector<double>{2.0 * (v[0] - 1.0), 2.0 * v[1]};
  };
  p.objective_hessian_diagonal = {2.0, 2.0};
  p.constraints.push_back(Constraint{
      "outside",
      [](std::span<const double> v) { return 4.0 - v[0] * v[0] - v[1] * v[1]; },
      [](std::span<const double> v) {
        return std::vector<double>{-2.0 * v[0], -2.0 * v[1]};
      }});
  p.box = Box::uniform(2, -3.0, 3.0);
  const SolveOutcome saddle = solve_kkt(p, {-2.0, 0.0}, {});
  EXPECT_LE(saddle.kkt_residual, kKktTolerance);
  EXPECT_FALSE(saddle.minimality_certified);
  const SolveOutcome minimum = solve_kkt(p, {1.0, 0.5}, {});
  ASSERT_TRUE(minimum.minimality_certified);
  EXPECT_NEAR(minimum.x[0], 2.0, 1e-9);
  EXPECT_NEAR(minimum.x[1], 0.0, 1e-9);
}

TEST(KktRepair, SolveKktNeedsCurvatureAndGradients) {
  Problem p;
  p.dimension = 1;
  p.objective = [](std::span<const double> v) { return v[0] * v[0]; };
  p.box = Box::uniform(1, 0.0, 1.0);
  EXPECT_FALSE(kkt_applicable(p));  // no Hessian diagonal
  p.objective_hessian_diagonal = {2.0};
  EXPECT_TRUE(kkt_applicable(p));
  p.constraints.push_back(
      Constraint{"numeric", [](std::span<const double> v) { return v[0]; },
                 nullptr});
  EXPECT_FALSE(kkt_applicable(p));  // a constraint without a gradient
  EXPECT_THROW((void)solve_kkt(p, {0.5}, {}), Error);
  // solve_repair hands such problems to the multistart, uncertified.
  const SolveOutcome out = solve_repair(p, std::vector<double>{0.0}, {});
  EXPECT_EQ(out.status, SolveStatus::kOptimal);
  EXPECT_FALSE(out.minimality_certified);
  EXPECT_TRUE(std::isinf(out.kkt_residual));
}

// ---------------------------------------------------------------------------
// The paper's WSN regimes.

class WsnKktTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mdp_ = build_wsn_mdp(config_);
    const StateSet delivered = mdp_.states_with_label("delivered");
    const Policy routing =
        total_reward_to_target(compile(mdp_), delivered, Objective::kMinimize)
            .policy;
    induced_ = mdp_.induced_dtmc(routing);
  }

  WsnConfig config_;
  Mdp mdp_;
  Dtmc induced_;
};

TEST_F(WsnKktTest, E2IsTheScannedBoundaryOptimum) {
  const StateFormulaPtr property = parse_pctl("Rmin<=40 [ F \"delivered\" ]");
  const PerturbationScheme scheme = wsn_perturbation(config_, induced_, 0.08);
  const ModelRepairResult result = model_repair(scheme, *property);
  ASSERT_TRUE(result.feasible());
  EXPECT_TRUE(result.minimality_certified);
  EXPECT_LE(result.kkt_residual, kKktTolerance);
  EXPECT_TRUE(result.recheck_passed);
  const double level = 40.0 - default_margin(40.0);
  EXPECT_NEAR(result.achieved, level, 1e-9);  // on the margined bound

  const auto f = [&](std::span<const double> v) {
    return result.property_function.evaluate(v);
  };
  // The closed form is the paper's 4/(0.08+p) + 1/(0.06+q) route.
  EXPECT_NEAR(f(std::vector<double>{0.0, 0.0}), 4.0 / 0.08 + 1.0 / 0.06, 1e-9);
  std::vector<double> scanned;
  const std::vector<double> w{1.0, 1.0};
  const double best = scan_minimum(f, 2, 0.08, w, level, &scanned);
  EXPECT_NEAR(result.variable_values[0], scanned[0], 1e-6);
  EXPECT_NEAR(result.variable_values[1], scanned[1], 1e-6);
  EXPECT_NEAR(result.cost, best, 1e-6);
  EXPECT_NEAR(result.variable_values[0], 0.0573, 1e-4);
  EXPECT_NEAR(result.variable_values[1], 0.0320, 1e-4);
  EXPECT_LE(result.cost, 0.004309 + 1e-6);

  // The MDP-level repair lands on the same point, policy unchanged.
  const MdpModelRepairResult mdp_result = mdp_model_repair(
      mdp_, *property,
      [&](const Dtmc& induced) {
        return wsn_perturbation(config_, induced, 0.08);
      },
      [&](std::span<const double> v) {
        return build_wsn_mdp(config_, v[0], v[1]);
      });
  ASSERT_TRUE(mdp_result.inner.feasible());
  EXPECT_TRUE(mdp_result.inner.minimality_certified);
  EXPECT_TRUE(mdp_result.policy_stable);
  EXPECT_EQ(mdp_result.inner.variable_values, result.variable_values);
}

TEST_F(WsnKktTest, E3StaysInfeasible) {
  const StateFormulaPtr property = parse_pctl("Rmin<=19 [ F \"delivered\" ]");
  const ModelRepairResult result = model_repair(
      wsn_perturbation(config_, induced_, 0.08), *property);
  EXPECT_FALSE(result.feasible());
  EXPECT_FALSE(result.minimality_certified);
  EXPECT_GT(result.achieved, 19.0);
}

TEST_F(WsnKktTest, E4DataRepairIsCertified) {
  const TrajectoryDataset traces = generate_wsn_traces(mdp_, 200, 42);
  const WsnDataRepairSetup setup =
      wsn_data_repair_setup(mdp_, induced_, traces);
  const StateFormulaPtr property = parse_pctl("R<=19 [ F \"delivered\" ]");
  DataRepairConfig config;
  const DataRepairResult result = data_repair(
      induced_, setup.step_data, setup.groups, *property, config);
  ASSERT_TRUE(result.feasible());
  EXPECT_TRUE(result.minimality_certified);
  EXPECT_LE(result.kkt_residual, kKktTolerance);
  EXPECT_TRUE(result.recheck_passed);
  EXPECT_NEAR(result.achieved, 19.0 - default_margin(19.0), 1e-9);
}

TEST_F(WsnKktTest, IdenticalForEveryThreadCount) {
  const StateFormulaPtr property = parse_pctl("Rmin<=40 [ F \"delivered\" ]");
  const PerturbationScheme scheme = wsn_perturbation(config_, induced_, 0.08);
  ModelRepairConfig one;
  one.solver.threads = 1;
  ModelRepairConfig two;
  two.solver.threads = 2;
  const ModelRepairResult a = model_repair(scheme, *property, one);
  const ModelRepairResult b = model_repair(scheme, *property, two);
  EXPECT_EQ(a.variable_values, b.variable_values);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.kkt_residual, b.kkt_residual);
  // The infeasible regime runs the multistart fallback: also identical.
  const StateFormulaPtr tight = parse_pctl("Rmin<=19 [ F \"delivered\" ]");
  const ModelRepairResult c = model_repair(scheme, *tight, one);
  const ModelRepairResult d = model_repair(scheme, *tight, two);
  EXPECT_EQ(c.variable_values, d.variable_values);
  EXPECT_EQ(c.best_violation, d.best_violation);
}

}  // namespace
}  // namespace tml
