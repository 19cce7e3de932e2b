// check-large: offline / CI checking of large generated models.
//
// One caller thread, CheckOptions::threads = 2. Every op parses in-memory
// PRISM text, compiles it (DTMC sources through PrismModel::dtmc(), as the
// serve cache does) and checks one formula. Ops cycle round-robin over
// seven job classes, each with a small fixed set of model seeds; the
// workload seed only rotates the order, so every run checks the same
// multiset of jobs and the latency distribution repeats run to run.
//
// Traced, the same op list is replayed with the benchmark's own spans
// around each layer call check() would make: parse, compile, quotient,
// prob0/prob1, SCC, and the sweep engine of the job's query.

#include <cmath>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "src/casestudies/generator.hpp"
#include "src/checker/check.hpp"
#include "src/checker/interval.hpp"
#include "src/checker/reachability.hpp"
#include "src/common/rng.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/graph.hpp"
#include "src/mdp/prism_parser.hpp"
#include "src/mdp/quotient.hpp"
#include "src/mdp/solver.hpp"

namespace perfbench {

namespace {

using namespace tml;

constexpr std::size_t kThreads = 2;
constexpr double kTolerance = 1e-6;
constexpr const char* kReferencePath = "perfbench/reference.tsv";

enum class Engine { kPmax, kRmin, kBounded, kDenseReward, kRobust };

struct JobClass {
  const char* name;
  GeneratorFamily family;
  std::size_t size;
  double hazard;
  double jitter;
  const char* formula;
  const char* target;  // label of the formula's target
  Engine engine;
  bool quotient;
  std::vector<std::uint64_t> seeds;
};

const std::vector<JobClass>& job_classes() {
  static const std::vector<JobClass> classes = {
      {"grid-pmax", GeneratorFamily::kGridRobot, 50, 0.05, 0.0,
       "Pmax=? [ F \"goal\" ]", "goal", Engine::kPmax, false, {3, 4, 5}},
      {"grid-rmin", GeneratorFamily::kGridRobot, 70, 0.0, 0.0,
       "Rmin=? [ F \"goal\" ]", "goal", Engine::kRmin, false, {1}},
      {"grid-bounded", GeneratorFamily::kGridRobot, 150, 0.0, 0.0,
       "Pmax=? [ F<=200 \"goal\" ]", "goal", Engine::kBounded, false, {1}},
      {"queue-reward", GeneratorFamily::kQueueMesh, 47, 0.0, 0.0,
       "R=? [ F \"full\" ]", "full", Engine::kDenseReward, false, {1, 2, 3}},
      {"wsn-quotient", GeneratorFamily::kWsnField, 11111, 0.0, 0.0,
       "Rmin=? [ F \"delivered\" ]", "delivered", Engine::kRmin, true, {1}},
      {"wsn-jitter", GeneratorFamily::kWsnField, 1111, 0.0, 0.04,
       "Rmin=? [ F \"delivered\" ]", "delivered", Engine::kRmin, true,
       {1, 2, 3}},
      {"grid-robust", GeneratorFamily::kGridRobot, 40, 0.05, 0.0,
       "Pmax=? [ F \"goal\" ]", "goal", Engine::kRobust, false, {3, 4, 5}},
  };
  return classes;
}

/// Occurrences of each class per cycle: every class appears this many
/// times in a cycle, walking its seed set.
constexpr std::size_t kPerClassPerCycle = 3;

struct Op {
  std::size_t job;     // index into job_classes()
  std::size_t input;   // index into Inputs::texts
  std::uint64_t model_seed;
};

struct Inputs {
  std::vector<std::string> texts;               // one per (class, seed)
  std::vector<std::vector<std::size_t>> index;  // [class][seed idx] -> text
  std::vector<Op> ops;
  std::uint64_t digest = 0;
};

std::size_t cycles_for(double seconds) {
  return static_cast<std::size_t>(std::max(1.0, std::round(seconds * 0.3)));
}

GeneratorSpec spec_of(const JobClass& job, std::uint64_t seed) {
  GeneratorSpec spec;
  spec.family = job.family;
  spec.size = job.size;
  spec.seed = seed;
  spec.hazard_density = job.hazard;
  spec.jitter = job.jitter;
  return spec;
}

/// The op list alone (no model text): class order and seed order are
/// rotated by the workload seed.
std::vector<Op> op_list(std::uint64_t seed, double seconds) {
  const auto& classes = job_classes();
  Rng rng(seed);
  const std::size_t class_shift = rng.index(classes.size());
  std::vector<std::size_t> seed_shift(classes.size());
  for (auto& s : seed_shift) s = rng.index(1u << 16);
  const std::size_t per_cycle = classes.size() * kPerClassPerCycle;
  const std::size_t total = cycles_for(seconds) * per_cycle;
  std::vector<Op> ops;
  ops.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t c = (i + class_shift) % classes.size();
    const std::size_t occurrence = i / classes.size();
    const std::size_t k =
        (occurrence + seed_shift[c]) % classes[c].seeds.size();
    ops.push_back(Op{c, k, classes[c].seeds[k]});
  }
  return ops;
}

Inputs make_inputs(std::uint64_t seed, double seconds) {
  Inputs in;
  const auto& classes = job_classes();
  in.index.resize(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (std::uint64_t model_seed : classes[c].seeds) {
      in.index[c].push_back(in.texts.size());
      in.texts.push_back(generate_prism(spec_of(classes[c], model_seed)));
    }
  }
  // Each text is hashed once; the op list folds in its ops' text hashes.
  std::vector<std::string> text_hash;
  for (const std::string& text : in.texts) text_hash.push_back(hex64(fnv1a(text)));
  in.ops = op_list(seed, seconds);
  std::uint64_t h = fnv1a("check-large");
  for (Op& op : in.ops) {
    op.input = in.index[op.job][op.input];
    h = fnv1a(std::string(job_classes()[op.job].name) + "/" +
                  std::to_string(op.model_seed) + ":" + text_hash[op.input],
              h);
  }
  in.digest = h;
  return in;
}

/// Reference answers, keyed "class/seed".
std::map<std::string, double> load_references() {
  std::map<std::string, double> refs;
  std::ifstream in(kReferencePath);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string job;
    std::uint64_t seed = 0;
    std::string value;
    if (fields >> job >> seed >> value) {
      refs[job + "/" + std::to_string(seed)] = std::strtod(value.c_str(),
                                                           nullptr);
    }
  }
  return refs;
}

bool matches(double value, double reference) {
  return std::isfinite(value) &&
         std::abs(value - reference) <=
             kTolerance * std::max(1.0, std::abs(reference));
}

CompiledModel compile_source(const PrismModel& parsed) {
  return parsed.type == PrismModel::Type::kDtmc ? compile(parsed.dtmc())
                                                : compile(parsed.mdp);
}

/// Bytes one full Jacobi sweep must move at least: the CSR offset and
/// column arrays once, plus `vectors` state-sized double vectors read or
/// written and `choice_vectors` choice-sized ones (computed, not measured).
double sweep_bytes(const CompiledModel& m, double vectors,
                   double choice_vectors) {
  const double n = static_cast<double>(m.num_states());
  const double c = static_cast<double>(m.num_choices());
  const double nnz = static_cast<double>(m.num_transitions());
  return 4.0 * (n + 1) + 4.0 * (c + 1) + 12.0 * nnz + 8.0 * vectors * n +
         8.0 * choice_vectors * c;
}

/// One untraced op: exactly the calls a user makes.
double run_op(const JobClass& job, const std::string& text) {
  const PrismModel parsed = parse_prism(text);
  const StateFormulaPtr formula = parse_pctl(job.formula);
  if (job.engine == Engine::kRobust) {
    const IntervalMdp imdp = IntervalMdp::widen(parsed.mdp, 0.01);
    SolverOptions options;
    options.threads = kThreads;
    const std::vector<double> values = interval_reachability(
        imdp, parsed.mdp.states_with_label(job.target), Objective::kMaximize,
        Nature::kAdversarial, options);
    return values[imdp.initial_state()];
  }
  const CompiledModel model = compile_source(parsed);
  CheckOptions options;
  options.threads = kThreads;
  options.quotient = job.quotient;
  const CheckResult result = check(model, *formula, options);
  return result.value.value_or(std::nan(""));
}

struct TraceTotals {
  double parse_bytes = 0;
  std::size_t parses = 0, compiles = 0, quotients = 0, pmax = 0, robust = 0,
              bounded = 0, rewards = 0, dense = 0;
  double blocks = 0, interval_sweeps = 0, reward_iterations = 0,
         dense_mb = 0, bytes = 0, sweep_ms = 0;
  std::map<std::string, std::pair<double, std::size_t>> job_ms;
};

/// One traced op: the layer calls check() makes, each under its own span.
/// Returns the value at the initial state; brackets are checked here.
double run_op_traced(const JobClass& job, const std::string& text,
                     Layers& layers, TraceTotals& totals, WorkloadResult& r) {
  PrismModel parsed;
  {
    Span span(layers, "prism_parser.ms");
    parsed = parse_prism(text);
  }
  totals.parse_bytes += static_cast<double>(text.size());
  ++totals.parses;
  if (job.engine == Engine::kRobust) {
    Span span(layers, "interval.robust_ms");
    ++totals.robust;
    const IntervalMdp imdp = IntervalMdp::widen(parsed.mdp, 0.01);
    SolverOptions options;
    options.threads = kThreads;
    return interval_reachability(imdp,
                                 parsed.mdp.states_with_label(job.target),
                                 Objective::kMaximize, Nature::kAdversarial,
                                 options)[imdp.initial_state()];
  }
  CompiledModel model;
  {
    Span span(layers, "compiled.compile_ms");
    model = compile_source(parsed);
  }
  ++totals.compiles;

  // The quotient pass, as CheckOptions::quotient runs it.
  QuotientResult quotient;
  const CompiledModel* solved = &model;
  if (job.quotient) {
    Span span(layers, "quotient.ms");
    quotient = bisimulation_quotient(model);
    ++totals.quotients;
    if (quotient.complete) {
      solved = &quotient.quotient;
      totals.blocks += static_cast<double>(quotient.num_blocks());
    }
  }
  const CompiledModel& m = *solved;
  const StateSet goal = m.states_with_label(job.target);
  const StateId init = m.initial_state();
  SolverOptions options;
  options.threads = kThreads;
  std::vector<double> values;
  switch (job.engine) {
    case Engine::kPmax: {
      // mdp_until: absorb escape states (none for F), pin prob0/prob1 by
      // graph analysis, condense SCCs, then the sound interval sweeps.
      CompiledModel absorbed;
      StateSet zero, one;
      {
        Span span(layers, "reachability.interval_ms");
        absorbed = m.make_absorbing(StateSet(m.num_states(), false));
      }
      {
        Span span(layers, "graph.prob01_ms");
        zero = complement(reachable_existential(absorbed, goal));
        one = prob1_existential(absorbed, goal);
      }
      {
        Span span(layers, "graph.scc_ms");
        (void)absorbed.scc();
      }
      WarmStart pinned;
      pinned.zero = std::move(zero);
      pinned.one = std::move(one);
      options.warm = &pinned;
      SolveResult bracket;
      {
        Span span(layers, "reachability.interval_ms");
        bracket = mdp_reachability_bracket(absorbed, goal,
                                           Objective::kMaximize, options);
      }
      ++totals.pmax;
      totals.interval_sweeps += static_cast<double>(bracket.iterations);
      if (!(bracket.hi[init] - bracket.lo[init] <= kTolerance)) {
        r.fail(std::string(job.name) + ": bracket wider than tolerance");
      }
      values = std::move(bracket.values);
      break;
    }
    case Engine::kRmin: {
      const Clock::time_point start = Clock::now();
      const SolveResult result =
          total_reward_to_target(m, goal, Objective::kMinimize, options);
      const double ms = ms_since(start);
      layers.add_ms("solver.reward_ms", ms);
      ++totals.rewards;
      totals.reward_iterations += static_cast<double>(result.iterations);
      totals.bytes += static_cast<double>(result.iterations) *
                      sweep_bytes(m, 3.0, 1.0);
      totals.sweep_ms += ms;
      values = result.values;
      break;
    }
    case Engine::kBounded: {
      constexpr std::size_t kSteps = 200;
      const Clock::time_point start = Clock::now();
      values = mdp_bounded_until(m, StateSet(m.num_states(), true), goal,
                                 kSteps, Objective::kMaximize, kThreads);
      const double ms = ms_since(start);
      layers.add_ms("reachability.bounded_ms", ms);
      ++totals.bounded;
      totals.bytes += static_cast<double>(kSteps) * sweep_bytes(m, 2.0, 0.0);
      totals.sweep_ms += ms;
      break;
    }
    case Engine::kDenseReward: {
      {
        Span span(layers, "solver.dense_dtmc_ms");
        values = dtmc_total_reward(m, goal);
      }
      ++totals.dense;
      const double n = static_cast<double>(m.num_states());
      totals.dense_mb += n * n * 8.0 / 1e6;
      break;
    }
    case Engine::kRobust:
      break;
  }
  if (job.quotient && quotient.complete) {
    Span span(layers, "quotient.ms");
    values = lift_values(quotient.state_map, values);
  }
  return values[model.initial_state()];
}

}  // namespace

std::uint64_t check_large_digest(std::uint64_t seed, double seconds) {
  return make_inputs(seed, seconds).digest;
}

WorkloadResult run_check_large(const Args& args) {
  WorkloadResult r;
  const auto& classes = job_classes();

  // Set-up, five times: generate every model text in memory.
  Inputs inputs;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    Inputs fresh = make_inputs(args.seed, args.seconds);
    r.setup_s.push_back(ms_since(start) / 1000.0);
    if (rep > 0 && fresh.digest != inputs.digest) {
      r.correct = false;
      r.failures.push_back("set-up is not deterministic");
    }
    inputs = std::move(fresh);
  }
  r.digest = inputs.digest;
  const std::map<std::string, double> refs = load_references();

  auto reference_of = [&](const Op& op) -> std::optional<double> {
    const auto it = refs.find(std::string(classes[op.job].name) + "/" +
                              std::to_string(op.model_seed));
    if (it == refs.end()) return std::nullopt;
    return it->second;
  };
  auto check_answer = [&](const Op& op, double value) {
    const std::optional<double> ref = reference_of(op);
    if (!ref) {
      r.fail(std::string(classes[op.job].name) + "/" +
             std::to_string(op.model_seed) + ": no reference value");
      return;
    }
    if (!matches(value, *ref)) {
      std::ostringstream msg;
      msg.precision(17);
      msg << classes[op.job].name << "/" << op.model_seed << ": got " << value
          << ", reference " << *ref;
      r.fail(msg.str());
    }
  };

  // Timed pass: exactly the user path; answers are checked afterwards.
  std::vector<double> values(inputs.ops.size(), std::nan(""));
  std::vector<std::string> errors(inputs.ops.size());
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < inputs.ops.size(); ++i) {
    const Op& op = inputs.ops[i];
    const Clock::time_point op_start = Clock::now();
    try {
      values[i] = run_op(classes[op.job], inputs.texts[op.input]);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
    r.op_ms.push_back(ms_since(op_start));
  }
  r.timed_s = ms_since(start) / 1000.0;
  r.attempted = inputs.ops.size();
  for (std::size_t i = 0; i < inputs.ops.size(); ++i) {
    const Op& op = inputs.ops[i];
    if (!errors[i].empty()) {
      r.fail(std::string(classes[op.job].name) + "/" +
             std::to_string(op.model_seed) + ": " + errors[i]);
    } else {
      check_answer(op, values[i]);
    }
  }
  r.context["ops"] = std::to_string(inputs.ops.size());
  r.context["job_classes"] = std::to_string(classes.size());
  r.context["solver_threads"] = std::to_string(kThreads);

  if (!args.trace) return r;

  // Traced pass over the same op list; its answers are checked too, but
  // the result line keeps the untraced pass's counts.
  Layers layers;
  TraceTotals totals;
  WorkloadResult traced_checks;
  const Clock::time_point traced_start = Clock::now();
  for (const Op& op : inputs.ops) {
    const JobClass& job = classes[op.job];
    const Clock::time_point op_start = Clock::now();
    try {
      const double value =
          run_op_traced(job, inputs.texts[op.input], layers, totals,
                        traced_checks);
      const std::optional<double> ref = reference_of(op);
      if (!ref || !matches(value, *ref)) {
        traced_checks.fail(std::string(job.name) + ": traced answer differs");
      }
    } catch (const std::exception& e) {
      traced_checks.fail(std::string(job.name) + ": " + e.what());
    }
    auto& [ms, n] = totals.job_ms[job.name];
    ms += ms_since(op_start);
    ++n;
  }
  const double traced_s = ms_since(traced_start) / 1000.0;
  if (traced_checks.failed != r.failed) {
    r.correct = false;
    r.failures.push_back("traced pass failed " +
                         std::to_string(traced_checks.failed) +
                         " ops, untraced " + std::to_string(r.failed));
  }

  auto per = [](double total, std::size_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  auto& m = r.layer_metrics;
  put_layer(m, "prism_parser.ms", per(layers.ms("prism_parser.ms"),
                                      totals.parses));
  put_layer(m, "prism_parser.mb_per_s",
            totals.parse_bytes / 1e6 /
                (layers.ms("prism_parser.ms") / 1000.0));
  put_layer(m, "compiled.compile_ms",
            per(layers.ms("compiled.compile_ms"), totals.compiles));
  put_layer(m, "quotient.ms", per(layers.ms("quotient.ms"), totals.quotients));
  put_layer(m, "quotient.blocks", per(totals.blocks, totals.quotients));
  put_layer(m, "graph.prob01_ms", per(layers.ms("graph.prob01_ms"),
                                      totals.pmax));
  put_layer(m, "graph.scc_ms", per(layers.ms("graph.scc_ms"), totals.pmax));
  put_layer(m, "reachability.interval_ms",
            per(layers.ms("reachability.interval_ms"), totals.pmax));
  put_layer(m, "reachability.sweeps", per(totals.interval_sweeps,
                                          totals.pmax));
  put_layer(m, "interval.robust_ms", per(layers.ms("interval.robust_ms"),
                                         totals.robust));
  put_layer(m, "reachability.bounded_ms",
            per(layers.ms("reachability.bounded_ms"), totals.bounded));
  put_layer(m, "solver.reward_ms", per(layers.ms("solver.reward_ms"),
                                       totals.rewards));
  put_layer(m, "solver.reward_iterations",
            per(totals.reward_iterations, totals.rewards));
  put_layer(m, "solver.dense_dtmc_ms",
            per(layers.ms("solver.dense_dtmc_ms"), totals.dense));
  put_layer(m, "solver.dense_mb", per(totals.dense_mb, totals.dense));
  put_layer(m, "sweep.bytes", totals.bytes);
  put_layer(m, "sweep.gbps", totals.bytes / 1e9 / (totals.sweep_ms / 1000.0));
  for (const auto& [name, acc] : totals.job_ms) {
    put_layer(m, "job." + name + ".ms", per(acc.first, acc.second));
  }
  put_layer(m, "trace.overhead_share", traced_s / r.timed_s - 1.0);
  return r;
}

namespace {

/// The answer of a job through an engine path other than the timed op's,
/// or nullopt where no other path converges.
std::optional<double> independent_answer(const JobClass& job,
                                         const PrismModel& parsed) {
  switch (job.engine) {
    case Engine::kPmax: {
      const CompiledModel m = compile_source(parsed);
      SolverOptions options;
      options.tolerance = 1e-12;
      return mdp_reachability_bracket(m, m.states_with_label(job.target),
                                      Objective::kMaximize, options)
          .values[m.initial_state()];
    }
    case Engine::kRmin: {
      if (job.family == GeneratorFamily::kWsnField && job.jitter == 0.0) {
        // Identical replicas: every replica count has the paper's
        // single-field value, 200/3 expected attempts.
        return 200.0 / 3.0;
      }
      // Unquotiented model: the quotient path is what the op times.
      const CompiledModel m = compile_source(parsed);
      return total_reward_to_target(m, m.states_with_label(job.target),
                                    Objective::kMinimize)
          .values[m.initial_state()];
    }
    case Engine::kDenseReward:
      // Value iteration does not converge on these slowly mixing queues
      // within its iteration cap; the dense solve is the reference.
    case Engine::kBounded:
    case Engine::kRobust:
      break;
  }
  return std::nullopt;
}

}  // namespace

/// Writes reference.tsv: every (class, seed) answered through an engine
/// path other than the timed op where one exists, cross-checked against
/// the timed op's own answer.
int write_check_large_references() {
  std::ofstream out(kReferencePath);
  out << "# check-large reference answers: class, model seed, value at the\n"
         "# initial state. Written by `tml_perfbench --write-reference`.\n";
  out.precision(17);
  int disagreements = 0;
  for (const JobClass& job : job_classes()) {
    for (std::uint64_t seed : job.seeds) {
      const std::string text = generate_prism(spec_of(job, seed));
      const double timed = run_op(job, text);
      double reference = timed;
      try {
        reference = independent_answer(job, parse_prism(text)).value_or(timed);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s/%llu: independent engine failed: %s\n",
                     job.name, static_cast<unsigned long long>(seed),
                     e.what());
        ++disagreements;
      }
      if (!matches(timed, reference)) {
        std::fprintf(stderr, "%s/%llu: op %.17g vs independent %.17g\n",
                     job.name, static_cast<unsigned long long>(seed), timed,
                     reference);
        ++disagreements;
      }
      out << job.name << "\t" << seed << "\t" << reference << "\n";
    }
  }
  return disagreements == 0 ? 0 : 1;
}

}  // namespace perfbench
