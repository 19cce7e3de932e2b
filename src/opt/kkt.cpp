#include "src/opt/kkt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "src/common/fault.hpp"
#include "src/common/matrix.hpp"
#include "src/common/stats.hpp"

namespace tml {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kMaxIterations = 100;
constexpr std::size_t kMaxHalvings = 30;
/// θ goes down to 2^-12 before a linearisation counts as unsolvable.
constexpr int kMaxRelaxations = 12;
/// Armijo fraction of the merit's predicted decrease.
constexpr double kArmijo = 1e-4;

/// Row-major dense square matrix: the repair NLP has a handful of variables.
struct Dense {
  std::size_t n = 0;
  std::vector<double> a;

  explicit Dense(std::size_t size) : n(size), a(size * size, 0.0) {}
  double& operator()(std::size_t i, std::size_t j) { return a[i * n + j]; }
  double operator()(std::size_t i, std::size_t j) const { return a[i * n + j]; }

  std::vector<double> times(std::span<const double> v) const {
    std::vector<double> out(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) out[i] += (*this)(i, j) * v[j];
    }
    return out;
  }
};

/// In-place Cholesky factor (lower triangle) of a symmetric matrix. False
/// unless every pivot exceeds `floor`, i.e. the matrix is positive definite
/// with that margin.
bool cholesky(Dense& m, double floor) {
  for (std::size_t j = 0; j < m.n; ++j) {
    double d = m(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= m(j, k) * m(j, k);
    if (!(d > floor)) return false;
    d = std::sqrt(d);
    m(j, j) = d;
    for (std::size_t i = j + 1; i < m.n; ++i) {
      double s = m(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= m(i, k) * m(j, k);
      m(i, j) = s / d;
    }
  }
  return true;
}

/// Solves L·Lᵀ·x = b in place for a factor from cholesky().
void cholesky_solve(const Dense& l, std::vector<double>& b) {
  for (std::size_t i = 0; i < l.n; ++i) {
    for (std::size_t k = 0; k < i; ++k) b[i] -= l(i, k) * b[k];
    b[i] /= l(i, i);
  }
  for (std::size_t i = l.n; i-- > 0;) {
    for (std::size_t k = i + 1; k < l.n; ++k) b[i] -= l(k, i) * b[k];
    b[i] /= l(i, i);
  }
}

struct QpSolution {
  std::vector<double> d;
  std::vector<double> multipliers;  ///< one per row, 0 when inactive
};

/// min ½dᵀGd + a·d  s.t.  rows[j]·d <= rhs[j], for G positive definite
/// given by its inverse: Goldfarb and Idnani's dual active-set method. It
/// starts at the unconstrained minimum, adds the most violated row with a
/// step that keeps the active rows tight and their multipliers
/// nonnegative, and drops a row whose multiplier reaches 0 on the way.
/// Empty when the rows have no common solution.
std::optional<QpSolution> solve_qp(const Dense& ginv,
                                   std::span<const double> a,
                                   const std::vector<std::vector<double>>& rows,
                                   std::span<const double> rhs) {
  const std::size_t n = a.size();
  const std::size_t m = rows.size();
  std::vector<double> d = ginv.times(a);
  for (double& v : d) v = -v;
  std::vector<std::vector<double>> ginv_rows(m);
  for (std::size_t j = 0; j < m; ++j) ginv_rows[j] = ginv.times(rows[j]);

  std::vector<std::size_t> active;
  std::vector<double> u;  // multipliers of the active rows
  std::vector<char> is_active(m, 0);
  const std::size_t max_steps = 8 * (m + n) + 8;
  std::size_t steps = 0;
  while (true) {
    // The most violated inactive row, by distance in d-space.
    std::size_t p = m;
    double worst = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      if (is_active[j]) continue;
      double lhs = 0.0;
      double scale = std::abs(rhs[j]);
      for (std::size_t k = 0; k < n; ++k) {
        lhs += rows[j][k] * d[k];
        scale += std::abs(rows[j][k] * d[k]);
      }
      const double excess = lhs - rhs[j];
      if (excess <= 1e-13 * scale) continue;
      const double distance = excess / std::max(norm2(rows[j]), 1e-300);
      if (distance > worst) {
        worst = distance;
        p = j;
      }
    }
    if (p == m) {
      QpSolution solution{std::move(d), std::vector<double>(m, 0.0)};
      for (std::size_t k = 0; k < active.size(); ++k) {
        solution.multipliers[active[k]] = u[k];
      }
      return solution;
    }

    double u_p = 0.0;
    while (true) {
      if (++steps > max_steps) return std::nullopt;
      const std::size_t q = active.size();
      // r solves (NᵀG⁻¹N)·r = NᵀG⁻¹n_p; v = G⁻¹(n_p − N·r) moves d off
      // row p while every active row stays tight.
      std::vector<double> r(q, 0.0);
      if (q > 0) {
        Dense gram(q);
        for (std::size_t k = 0; k < q; ++k) {
          for (std::size_t l = 0; l < q; ++l) {
            gram(k, l) = dot(rows[active[k]], ginv_rows[active[l]]);
          }
          r[k] = dot(rows[active[k]], ginv_rows[p]);
        }
        if (!cholesky(gram, 0.0)) return std::nullopt;
        cholesky_solve(gram, r);
      }
      std::vector<double> v = ginv_rows[p];
      for (std::size_t k = 0; k < q; ++k) axpy(v, -r[k], ginv_rows[active[k]]);
      const double along = dot(rows[p], v);
      // The largest dual step before an active multiplier reaches 0.
      double t_dual = kInf;
      std::size_t drop = q;
      for (std::size_t k = 0; k < q; ++k) {
        if (r[k] > 0.0 && u[k] / r[k] < t_dual) {
          t_dual = u[k] / r[k];
          drop = k;
        }
      }
      bool added = false;
      if (along <= 1e-14 * dot(rows[p], ginv_rows[p])) {
        // n_p is a combination of the active rows: only the multipliers
        // can move, and when none can give way the rows are inconsistent.
        if (drop == q) return std::nullopt;
        for (std::size_t k = 0; k < q; ++k) u[k] -= t_dual * r[k];
        u_p += t_dual;
      } else {
        const double t_primal = (dot(rows[p], d) - rhs[p]) / along;
        const double t = std::min(t_dual, t_primal);
        axpy(d, -t, v);
        for (std::size_t k = 0; k < q; ++k) {
          u[k] = std::max(0.0, u[k] - t * r[k]);
        }
        u_p += t;
        added = t_primal <= t_dual;
      }
      if (added) {
        active.push_back(p);
        u.push_back(u_p);
        is_active[p] = 1;
        break;
      }
      is_active[active[drop]] = 0;
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(drop));
      u.erase(u.begin() + static_cast<std::ptrdiff_t>(drop));
    }
  }
}

/// Everything the SQP reads at one point.
struct Point {
  std::vector<double> x;
  double objective = 0.0;
  std::vector<double> c;
  std::vector<double> grad_g;
  std::vector<std::vector<double>> grad_c;
  double l1_violation = 0.0;   ///< Σ max(0, c_i)
  double max_violation = 0.0;  ///< max(0, c_i)
};

/// Evaluates the problem at x. False when any number is non-finite; the
/// objective passes the "opt.eval" fault site like the multistart's.
bool evaluate_point(const Problem& problem, std::vector<double> x,
                    Point& out) {
  static stats::Counter& c_obj = stats::counter("opt.objective_evals");
  static stats::Counter& c_con = stats::counter("opt.constraint_evals");
  c_obj.bump();
  c_con.add(problem.constraints.size());
  out.x = std::move(x);
  out.objective = fault::poison("opt.eval", problem.objective(out.x));
  out.grad_g = problem.objective_gradient
                   ? problem.objective_gradient(out.x)
                   : numeric_gradient(problem.objective, out.x);
  bool finite = std::isfinite(out.objective);
  for (double g : out.grad_g) finite = finite && std::isfinite(g);
  const std::size_t m = problem.constraints.size();
  out.c.resize(m);
  out.grad_c.resize(m);
  out.l1_violation = 0.0;
  out.max_violation = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    out.c[i] = problem.constraints[i].value(out.x);
    out.grad_c[i] = problem.constraints[i].gradient(out.x);
    finite = finite && std::isfinite(out.c[i]);
    for (double g : out.grad_c[i]) finite = finite && std::isfinite(g);
    out.l1_violation += std::max(0.0, out.c[i]);
    out.max_violation = std::max(out.max_violation, out.c[i]);
  }
  return finite;
}

bool at_lower(const Box& box, std::span<const double> x, std::size_t j) {
  return !box.lower.empty() &&
         x[j] <= box.lower[j] + 1e-12 * (1.0 + std::abs(box.lower[j]));
}

bool at_upper(const Box& box, std::span<const double> x, std::size_t j) {
  return !box.upper.empty() &&
         x[j] >= box.upper[j] - 1e-12 * (1.0 + std::abs(box.upper[j]));
}

/// ∇g + Σ λ_i ∇c_i.
std::vector<double> lagrangian_gradient(const Point& pt,
                                        std::span<const double> lambda) {
  std::vector<double> grad = pt.grad_g;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    axpy(grad, lambda[i], pt.grad_c[i]);
  }
  return grad;
}

double stationarity_scale(const Point& pt) {
  double scale = 0.0;
  for (double g : pt.grad_g) scale = std::max(scale, std::abs(g));
  return 1.0 + scale;
}

/// The KKT residual of kkt.hpp at (pt, λ).
double kkt_residual(const Problem& problem, const Point& pt,
                    std::span<const double> lambda) {
  const std::vector<double> grad = lagrangian_gradient(pt, lambda);
  double stationarity = 0.0;
  for (std::size_t j = 0; j < grad.size(); ++j) {
    double r = grad[j];
    // A bound's multiplier absorbs the component pushing out of the box.
    if (at_lower(problem.box, pt.x, j)) r = std::min(r, 0.0);
    if (at_upper(problem.box, pt.x, j)) r = std::max(r, 0.0);
    stationarity = std::max(stationarity, std::abs(r));
  }
  double complementarity = 0.0;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    complementarity = std::max(complementarity, lambda[i] * std::abs(pt.c[i]));
  }
  const double scale = stationarity_scale(pt);
  return std::max({stationarity / scale, complementarity / scale,
                   pt.max_violation});
}

/// The quadratic model's step at `pt` with the constraints linearised at
/// levels[i] in place of c_i: rows ∇c_i·d <= −levels[i], then the box.
std::optional<QpSolution> model_step(const Problem& problem, const Point& pt,
                                     const Dense& ginv,
                                     std::span<const double> levels) {
  std::vector<std::vector<double>> rows(pt.grad_c.begin(), pt.grad_c.end());
  std::vector<double> rhs;
  for (double level : levels) rhs.push_back(-level);
  const std::size_t n = pt.x.size();
  for (std::size_t j = 0; j < n; ++j) {
    if (!problem.box.lower.empty()) {
      std::vector<double> row(n, 0.0);
      row[j] = -1.0;
      rows.push_back(std::move(row));
      rhs.push_back(pt.x[j] - problem.box.lower[j]);
    }
    if (!problem.box.upper.empty()) {
      std::vector<double> row(n, 0.0);
      row[j] = 1.0;
      rows.push_back(std::move(row));
      rhs.push_back(problem.box.upper[j] - pt.x[j]);
    }
  }
  std::optional<QpSolution> qp = solve_qp(ginv, pt.grad_g, rows, rhs);
  if (qp) qp->multipliers.resize(pt.c.size());  // the constraints' λ
  return qp;
}

struct Step {
  QpSolution qp;
  double theta = 1.0;  ///< relaxation of the violated constraints
};

/// The SQP step at `pt`: the model with the full linearisation, or, when
/// that has no solution in the box, with every violated c_i scaled by the
/// first θ = 2^-k that has one. Empty when none has: the linearisation
/// cannot reduce the violation inside the box.
std::optional<Step> sqp_step(const Problem& problem, const Point& pt,
                             const Dense& ginv) {
  std::vector<double> levels = pt.c;
  double theta = 1.0;
  for (int k = 0; k <= kMaxRelaxations; ++k) {
    if (std::optional<QpSolution> qp = model_step(problem, pt, ginv, levels)) {
      return Step{std::move(*qp), theta};
    }
    if (pt.l1_violation == 0.0) break;  // d = 0 is feasible: cannot fail
    theta *= 0.5;
    for (std::size_t i = 0; i < levels.size(); ++i) {
      if (pt.c[i] > 0.0) levels[i] = theta * pt.c[i];
    }
  }
  return std::nullopt;
}

/// Inverse of B, resetting B to the cost Hessian if it lost definiteness.
Dense inverse(Dense& b, std::span<const double> cost_hessian) {
  Dense factor = b;
  if (!cholesky(factor, 0.0)) {
    b = Dense(b.n);
    for (std::size_t j = 0; j < b.n; ++j) b(j, j) = cost_hessian[j];
    factor = b;
    (void)cholesky(factor, 0.0);  // a positive diagonal always factors
  }
  Dense inv(b.n);
  for (std::size_t j = 0; j < b.n; ++j) {
    std::vector<double> e(b.n, 0.0);
    e[j] = 1.0;
    cholesky_solve(factor, e);
    for (std::size_t i = 0; i < b.n; ++i) inv(i, j) = e[i];
  }
  return inv;
}

/// Powell's damped BFGS update of B for the step s and gradient change y:
/// y is blended toward B·s until sᵀy >= 0.2·sᵀBs, which keeps B positive
/// definite whatever the constraints' curvature.
void damped_bfgs(Dense& b, std::span<const double> s,
                 std::span<const double> y) {
  const std::vector<double> bs = b.times(s);
  const double sbs = dot(s, bs);
  if (!(sbs > 0.0)) return;
  const double sy = dot(s, y);
  const double theta = sy >= 0.2 * sbs ? 1.0 : 0.8 * sbs / (sbs - sy);
  std::vector<double> r(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    r[i] = theta * y[i] + (1.0 - theta) * bs[i];
  }
  const double sr = dot(s, r);
  for (std::size_t i = 0; i < s.size(); ++i) {
    for (std::size_t j = 0; j < s.size(); ++j) {
      b(i, j) += r[i] * r[j] / sr - bs[i] * bs[j] / sbs;
    }
  }
}

/// The second-order sufficient condition at a KKT point: the Lagrangian's
/// Hessian, from the exact cost Hessian plus central differences of the
/// exact constraint gradients, is positive definite on the tangent space of
/// the constraints and bounds whose multipliers are clearly positive (a
/// weakly active one is left free, which only widens the space tested).
bool second_order_sufficient(const Problem& problem, const Point& pt,
                             std::span<const double> lambda) {
  const std::size_t n = pt.x.size();
  const std::vector<double>& hg = problem.objective_hessian_diagonal;
  const double scale = stationarity_scale(pt);
  const std::vector<double> grad = lagrangian_gradient(pt, lambda);
  std::vector<char> fixed(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    fixed[j] = (at_lower(problem.box, pt.x, j) && grad[j] > 1e-7 * scale) ||
               (at_upper(problem.box, pt.x, j) && grad[j] < -1e-7 * scale);
  }
  // Orthonormal basis of the strongly active normals on the free
  // coordinates, then of its complement there: the tangent space.
  std::vector<std::vector<double>> normals;
  std::vector<std::vector<double>> tangent;
  const auto orthogonalise = [&](std::vector<double> v) {
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto* basis : {&normals, &tangent}) {
        for (const std::vector<double>& q : *basis) axpy(v, -dot(v, q), q);
      }
    }
    return v;
  };
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    std::vector<double> a = pt.grad_c[i];
    for (std::size_t j = 0; j < n; ++j) {
      if (fixed[j]) a[j] = 0.0;
    }
    const double size = norm2(a);
    if (!(lambda[i] * size > 1e-7 * scale)) continue;
    for (double& v : a) v /= size;
    a = orthogonalise(std::move(a));
    const double left = norm2(a);
    if (left < 1e-6) continue;  // dependent on the normals already taken
    for (double& v : a) v /= left;
    normals.push_back(std::move(a));
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (fixed[j]) continue;
    std::vector<double> e(n, 0.0);
    e[j] = 1.0;
    e = orthogonalise(std::move(e));
    const double left = norm2(e);
    if (left < 1e-6) continue;
    for (double& v : e) v /= left;
    tangent.push_back(std::move(e));
  }
  if (tangent.empty()) return true;

  double span_x = 1.0;
  for (double v : pt.x) span_x = std::max(span_x, std::abs(v));
  const double h = 1e-6 * span_x;
  std::vector<std::vector<double>> hz;
  for (const std::vector<double>& z : tangent) {
    std::vector<double> out(n);
    for (std::size_t j = 0; j < n; ++j) out[j] = hg[j] * z[j];
    std::vector<double> plus = pt.x;
    std::vector<double> minus = pt.x;
    axpy(plus, h, z);
    axpy(minus, -h, z);
    for (std::size_t i = 0; i < lambda.size(); ++i) {
      if (lambda[i] == 0.0) continue;
      const std::vector<double> gp = problem.constraints[i].gradient(plus);
      const std::vector<double> gm = problem.constraints[i].gradient(minus);
      for (std::size_t j = 0; j < n; ++j) {
        out[j] += lambda[i] * (gp[j] - gm[j]) / (2.0 * h);
      }
    }
    for (double v : out) {
      if (!std::isfinite(v)) return false;
    }
    hz.push_back(std::move(out));
  }
  const std::size_t t = tangent.size();
  Dense reduced(t);
  double largest = *std::max_element(hg.begin(), hg.end());
  for (std::size_t k = 0; k < t; ++k) {
    for (std::size_t l = 0; l < t; ++l) {
      reduced(k, l) =
          0.5 * (dot(tangent[k], hz[l]) + dot(tangent[l], hz[k]));
    }
    largest = std::max(largest, std::abs(reduced(k, k)));
  }
  return cholesky(reduced, 1e-8 * largest);
}

}  // namespace

bool kkt_applicable(const Problem& problem) {
  if (problem.objective_hessian_diagonal.size() != problem.dimension) {
    return false;
  }
  for (double h : problem.objective_hessian_diagonal) {
    if (!(h > 0.0) || !std::isfinite(h)) return false;
  }
  for (const Constraint& c : problem.constraints) {
    if (!c.gradient) return false;
  }
  return true;
}

SolveOutcome solve_kkt(const Problem& problem, std::vector<double> start,
                       const SolveOptions& options) {
  static stats::Counter& c_solves = stats::counter("opt.kkt.solves");
  static stats::Counter& c_iterations = stats::counter("opt.kkt.iterations");
  problem.validate();
  TML_REQUIRE(kkt_applicable(problem),
              "solve_kkt: needs a diagonal objective Hessian and constraint "
              "gradients");
  TML_REQUIRE(start.size() == problem.dimension,
              "solve_kkt: start point dimension mismatch");
  c_solves.bump();
  problem.box.project(start);

  SolveOutcome outcome;
  outcome.starts_tried = 1;
  BudgetTracker tracker(options.budget);
  // Best feasible iterate, else the least violated one.
  const auto record = [&](const Point& pt) {
    if (pt.max_violation <= options.feasibility_tol) {
      if (outcome.status != SolveStatus::kOptimal ||
          pt.objective < outcome.objective) {
        outcome.status = SolveStatus::kOptimal;
        outcome.x = pt.x;
        outcome.objective = pt.objective;
        outcome.max_violation = pt.max_violation;
      }
    } else if (outcome.status != SolveStatus::kOptimal &&
               pt.max_violation < outcome.max_violation) {
      outcome.x = pt.x;
      outcome.objective = pt.objective;
      outcome.max_violation = pt.max_violation;
    }
  };

  const std::size_t n = problem.dimension;
  const std::vector<double>& hg = problem.objective_hessian_diagonal;
  Point point;
  bool finite = evaluate_point(problem, std::move(start), point);
  if (finite) record(point);
  Dense b(n);
  for (std::size_t j = 0; j < n; ++j) b(j, j) = hg[j];
  double nu = 0.0;  // ℓ1 merit penalty, never decreased

  for (std::size_t iter = 0; finite && iter < kMaxIterations; ++iter) {
    if (!tracker.tick()) break;
    ++outcome.iterations;
    const Dense ginv = inverse(b, hg);
    const std::optional<Step> step = sqp_step(problem, point, ginv);
    if (!step) break;
    const std::vector<double>& d = step->qp.d;
    const std::vector<double>& lambda = step->qp.multipliers;
    const double residual = kkt_residual(problem, point, lambda);
    if (outcome.x == point.x) outcome.kkt_residual = residual;
    if (residual <= kKktTolerance) {
      outcome.status = SolveStatus::kOptimal;
      outcome.x = point.x;
      outcome.objective = point.objective;
      outcome.max_violation = point.max_violation;
      outcome.kkt_residual = residual;
      outcome.minimality_certified =
          second_order_sufficient(problem, point, lambda);
      break;
    }

    // ℓ1 merit: ν above every multiplier, and large enough that the step
    // is a descent direction when the point is infeasible (N&W 18.36).
    const double gd = dot(point.grad_g, d);
    const double dbd = dot(d, b.times(d));
    for (double l : lambda) nu = std::max(nu, 1.1 * l);
    if (point.l1_violation > 0.0) {
      nu = std::max(nu, (gd + 0.5 * std::max(0.0, dbd)) /
                            (0.5 * step->theta * point.l1_violation));
    }
    const double predicted = gd - nu * step->theta * point.l1_violation;
    if (!(predicted < 0.0)) break;
    const double merit0 = point.objective + nu * point.l1_violation;
    const auto merit = [&](const Point& pt) {
      return pt.objective + nu * pt.l1_violation;
    };
    const auto try_point = [&](std::vector<double> x, double alpha,
                               Point& trial) {
      problem.box.project(x);
      return evaluate_point(problem, std::move(x), trial) &&
             merit(trial) <= merit0 + kArmijo * alpha * predicted;
    };

    Point trial;
    std::vector<double> x_full = point.x;
    axpy(x_full, 1.0, d);
    bool accepted = try_point(x_full, 1.0, trial);
    if (!accepted && step->theta == 1.0 && std::isfinite(trial.objective)) {
      // Second-order correction: re-solve the model with each constraint
      // linearised through its value at the rejected full step.
      std::vector<double> levels(point.c.size());
      for (std::size_t i = 0; i < levels.size(); ++i) {
        levels[i] = trial.c[i] - dot(point.grad_c[i], d);
      }
      if (std::optional<QpSolution> soc =
              model_step(problem, point, ginv, levels)) {
        std::vector<double> x_soc = point.x;
        axpy(x_soc, 1.0, soc->d);
        accepted = try_point(std::move(x_soc), 1.0, trial);
      }
    }
    double alpha = 1.0;
    for (std::size_t k = 0; !accepted && k < kMaxHalvings; ++k) {
      alpha *= 0.5;
      std::vector<double> x = point.x;
      axpy(x, alpha, d);
      accepted = try_point(std::move(x), alpha, trial);
    }
    if (!accepted) break;

    // y = ∇²g·s + Σ λ_i Δ∇c_i: the cost part is exact, the constraints'
    // curvature comes from their gradient change.
    std::vector<double> s = trial.x;
    axpy(s, -1.0, point.x);
    std::vector<double> y(n);
    for (std::size_t j = 0; j < n; ++j) y[j] = hg[j] * s[j];
    for (std::size_t i = 0; i < lambda.size(); ++i) {
      axpy(y, lambda[i], trial.grad_c[i]);
      axpy(y, -lambda[i], point.grad_c[i]);
    }
    damped_bfgs(b, s, y);
    point = std::move(trial);
    record(point);
  }
  if (!finite) {
    static stats::Counter& c_nan = stats::counter("opt.nan_starts");
    c_nan.bump();
  }
  c_iterations.add(outcome.iterations);
  outcome.budget_status = tracker.status();
  outcome.budget_stop = tracker.stop();
  return outcome;
}

SolveOutcome solve_repair(const Problem& problem,
                          std::span<const double> nominal,
                          const SolveOptions& options) {
  static stats::Counter& c_fallbacks = stats::counter("opt.kkt.fallbacks");
  problem.validate();
  TML_REQUIRE(nominal.size() == problem.dimension,
              "solve_repair: nominal point dimension mismatch");
  if (kkt_applicable(problem)) {
    std::vector<std::vector<double>> starts;
    for (const std::vector<double>& w : options.warm_starts) {
      if (w.size() == problem.dimension) starts.push_back(w);
    }
    starts.emplace_back(nominal.begin(), nominal.end());
    std::size_t iterations = 0;
    for (std::size_t k = 0; k < starts.size(); ++k) {
      SolveOutcome outcome = solve_kkt(problem, std::move(starts[k]), options);
      iterations += outcome.iterations;
      if (outcome.minimality_certified ||
          outcome.budget_status == BudgetStatus::kBudgetExhausted) {
        outcome.iterations = iterations;
        outcome.starts_tried = k + 1;
        return outcome;
      }
    }
  }
  c_fallbacks.bump();
  return solve(problem, options);
}

}  // namespace tml
