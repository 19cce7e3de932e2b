// tml_check — command-line PCTL model checker over PRISM-subset files.
//
//   tml_check <model.prism> "<pctl formula>" [--counterexample] [--dot]
//             [--stats] [--quotient] [--timeout-ms N]
//             [--session <traj-file>] [--session-pseudocount X]
//
// Loads a model written in the explicit single-module PRISM subset
// (src/mdp/prism_parser.hpp), checks the formula, prints the verdict and
// the measured value (plus the certified [lo, hi] bracket the same solve
// produced, for top-level unbounded P operators — F, U, G; `=?` and `⋈b`
// — on either model kind, and unbounded R[F] on DTMCs), and optionally:
//   --counterexample   for violated P<=b / P<b [F ...] properties on
//                      DTMCs, prints the strongest evidence paths;
//   --dot              dumps the model as Graphviz DOT to stdout;
//   --stats            enables the engine statistics registry, runs a
//                      cross-engine corroboration pass (SMC and parametric
//                      state elimination against the exact reachability
//                      value on an induced DTMC) and prints the full
//                      counter/timer registry as one JSON object;
//   --quotient         runs strong-bisimulation minimization
//                      (src/mdp/quotient.hpp) before solving and checks the
//                      quotient instead; semantically transparent (labels
//                      and rewards are respected), prints the block count,
//                      and degrades to the full model if refinement hits
//                      the budget.
//   --timeout-ms N     installs a wall-clock budget of N milliseconds as
//                      the process-wide default budget; every engine checks
//                      it at its checkpoint cadence. Ctrl-C (SIGINT) raises
//                      the same cooperative cancel token, so an interactive
//                      interrupt also unwinds through the budget machinery
//                      instead of killing the process mid-sweep.
//   --session FILE     streaming repair mode (DTMC models, boolean
//                      P⋈b[F/U] formulas): treats the model as the
//                      structure, reads trajectory batches from FILE (one
//                      state sequence per line, `---` between batches, `#`
//                      comments, optional trailing `*weight`), and drives a
//                      RepairSession — per batch: incremental MLE, delta
//                      CSR patch, warm-started certified re-check, Model
//                      Repair only when the certified verdict fails (over a
//                      generic balanced perturbation scheme raising/
//                      lowering each state's two largest transitions).
//                      Prints one line per batch and exits 0 iff the final
//                      chain certifies the property.
//   --session-pseudocount X
//                      Laplace smoothing for the streaming MLE (default 1;
//                      must stay positive to keep the support stable).
//   --journal FILE     durable session (with --session): write-ahead
//                      journal of every batch plus periodic full-state
//                      checkpoints, fsync'd per record. A killed run
//                      restarts with --resume and replays to the
//                      byte-identical session report.
//   --resume           resume a journaled session instead of starting
//                      fresh: restores the latest checkpoint from the
//                      --journal file, replays the batches recorded after
//                      it, then continues with the input batches not yet
//                      journaled. A torn tail record (the append a crash
//                      interrupted) is dropped with a printed warning and
//                      its batch re-fed from the input file.
//   --checkpoint-every N
//                      checkpoint cadence in batches (default 8; 0 = only
//                      the write-ahead batch log, no checkpoints).
//
// Exit code: 0 when the property is satisfied (or the query is
// quantitative), 1 when violated, 2 on usage/parse errors, 3 when the
// budget (or Ctrl-C) fired before a verdict — when the stopped solve was a
// top-level unbounded P on an MDP, the partial [lo, hi] bracket it had
// reached is printed before exiting.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "src/common/budget.hpp"

#include "src/checker/check.hpp"
#include "src/checker/counterexample.hpp"
#include "src/checker/smc.hpp"
#include "src/common/stats.hpp"
#include "src/core/repair_session.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/export.hpp"
#include "src/mdp/prism_parser.hpp"
#include "src/mdp/solver.hpp"
#include "src/parametric/parametric_dtmc.hpp"
#include "src/parametric/state_elimination.hpp"

using namespace tml;

namespace {

int usage() {
  std::cerr << "usage: tml_check <model.prism> \"<pctl formula>\" "
               "[--counterexample] [--dot] [--stats] [--quotient] "
               "[--timeout-ms N] "
               "[--session <traj-file>] [--session-pseudocount X] "
               "[--journal <file>] [--resume] [--checkpoint-every N]\n"
            << "example: tml_check wsn.prism 'Rmin<=40 [ F \"delivered\" ]'\n";
  return 2;
}

/// The cooperative cancel token SIGINT raises. Global because signal
/// handlers cannot capture. The handler body is restricted to
/// async-signal-safe operations: a relaxed store through a pre-loaded raw
/// pointer (no shared_ptr machinery on the signal path), a bump of a
/// volatile sig_atomic_t, and — on the second Ctrl-C, when the first one's
/// cooperative unwind is apparently wedged — _exit(130).
CancelToken g_interrupt;
std::atomic<bool>* const g_interrupt_flag = g_interrupt.raw_flag();
volatile std::sig_atomic_t g_sigint_count = 0;

extern "C" void on_sigint(int) {
  g_interrupt_flag->store(true, std::memory_order_relaxed);
  const std::sig_atomic_t seen = g_sigint_count;
  g_sigint_count = seen + 1;
  if (seen > 0) _exit(130);
}

/// Installs on_sigint for the life of the scope and restores the previous
/// disposition on every exit path — a caller embedding tml_check-style
/// checking (or a test harness running it in-process) gets its own SIGINT
/// behaviour back even when we unwind through an exception.
class SigintGuard {
 public:
  SigintGuard() {
    struct sigaction action {};
    action.sa_handler = on_sigint;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &previous_);
  }
  ~SigintGuard() { ::sigaction(SIGINT, &previous_, nullptr); }
  SigintGuard(const SigintGuard&) = delete;
  SigintGuard& operator=(const SigintGuard&) = delete;

 private:
  struct sigaction previous_ {};
};

/// Prints the certified initial-state [lo, hi] bracket the check's own
/// solve produced (CheckResult::bracket), or — with a budget `stop` — the
/// bracket it had reached when the budget (or Ctrl-C) stopped it
/// (BudgetExhausted::bracket), sound at every sweep boundary and so still a
/// usable answer. Prints nothing where the engine certifies no bracket.
void print_bracket(const std::optional<Bracket>& bracket,
                   BudgetStop stop = BudgetStop::kNone) {
  if (!bracket) return;
  const bool partial = stop != BudgetStop::kNone;
  // An exact bracket (a pinned state, an infinite reward) has width 0.
  const double width =
      bracket->lo == bracket->hi ? 0.0 : bracket->hi - bracket->lo;
  std::cout << (partial ? "partial" : "bracket") << ":  [" << bracket->lo
            << ", " << bracket->hi << "] (width " << width << ", "
            << bracket->sweeps << " sweeps";
  if (partial) std::cout << ", " << to_string(stop);
  std::cout << ")\n";
}

/// Exercises the sampling and parametric engines on a DTMC induced from the
/// loaded model, so the --stats JSON carries live numbers from every
/// tractable subsystem and the three independent engines corroborate one
/// another on the same reachability query. The probe target is the highest
/// state id — for generated models the absorbing "done" state; if it is
/// unreachable every engine agrees on 0 just as cheaply.
void corroborate(const PrismModel& model) {
  const std::size_t n = model.mdp.num_states();
  const StateId probe = static_cast<StateId>(n - 1);
  Dtmc chain(n);
  chain.set_initial_state(model.mdp.initial_state());
  for (StateId s = 0; s < n; ++s) {
    // First choice per state: an arbitrary but fixed memoryless scheduler
    // (the identity on DTMCs).
    chain.set_transitions(s, model.mdp.choices(s)[0].transitions);
  }
  chain.add_label(probe, "__probe__");
  StateSet targets(n, false);
  targets[probe] = true;

  const double exact =
      dtmc_reachability(compile(chain), targets)[chain.initial_state()];

  const ParametricDtmc parametric = ParametricDtmc::from_dtmc(chain);
  const RationalFunction closed_form =
      reachability_probability(parametric, targets);
  const double via_elimination = closed_form.evaluate({});

  SmcOptions options;
  options.epsilon = 0.02;
  options.delta = 0.02;
  options.max_truncation_rate = 1.0;  // corroboration must not throw
  const SmcResult smc =
      smc_check(chain, *parse_pctl("P=? [ F \"__probe__\" ]"), options);

  std::cout << "corroboration: P[F probe] exact=" << exact
            << " elimination=" << via_elimination
            << " smc=" << smc.estimate << " +/- " << smc.epsilon << " ("
            << smc.samples << " samples, " << smc.truncated << " truncated)\n";
}

/// Generic repair class for the --session mode: one balanced variable per
/// state with at least two transitions, raising the largest-probability
/// transition and lowering the second largest (box ±0.1, tightened at build
/// so every probability stays strictly inside (margin, 1−margin)).
PerturbationScheme generic_scheme(const Dtmc& chain) {
  PerturbationScheme scheme(chain);
  for (StateId s = 0; s < chain.num_states(); ++s) {
    const auto& transitions = chain.transitions(s);
    if (transitions.size() < 2) continue;
    std::size_t first = 0;
    std::size_t second = 1;
    if (transitions[second].probability > transitions[first].probability) {
      std::swap(first, second);
    }
    for (std::size_t k = 2; k < transitions.size(); ++k) {
      if (transitions[k].probability > transitions[first].probability) {
        second = first;
        first = k;
      } else if (transitions[k].probability >
                 transitions[second].probability) {
        second = k;
      }
    }
    const Var v =
        scheme.add_variable("z" + std::to_string(s), -0.1, 0.1);
    scheme.attach_balanced(v, s, transitions[first].target,
                           transitions[second].target);
  }
  return scheme;
}

/// Durable-session knobs forwarded from the command line into the
/// RepairSessionConfig (empty journal path = volatile session).
struct SessionDurability {
  std::string journal_path;
  bool resume = false;
  std::size_t checkpoint_every = 8;
};

int run_session(const PrismModel& model, const StateFormulaPtr& formula,
                const std::string& session_path, double pseudocount,
                const SessionDurability& durability) {
  if (model.type != PrismModel::Type::kDtmc) {
    std::cerr << "tml_check: --session needs a DTMC model\n";
    return 2;
  }
  const Dtmc structure = model.dtmc();

  std::ifstream in(session_path);
  if (!in) {
    std::cerr << "tml_check: cannot open " << session_path << "\n";
    return 2;
  }
  const std::vector<TrajectoryDataset> batches =
      parse_trajectory_batches(in, structure);
  if (batches.empty()) {
    std::cerr << "tml_check: " << session_path << " holds no batches\n";
    return 2;
  }

  RepairSessionConfig config;
  config.pseudocount = pseudocount;
  config.scheme_for = generic_scheme;
  config.expected_batches = batches.size();
  config.journal_path = durability.journal_path;
  config.checkpoint_every = durability.checkpoint_every;

  std::optional<RepairSession> session;
  std::size_t skip = 0;
  if (durability.resume) {
    session.emplace(RepairSession::resume(structure, formula, std::move(config)));
    skip = session->fed_batches();
    std::cout << "resume:   " << durability.journal_path << " (" << skip
              << " batches replayed";
    if (session->journal_tail_dropped()) {
      std::cout << "; " << session->journal_warning();
    }
    std::cout << ")\n";
    if (skip > batches.size()) {
      std::cerr << "tml_check: journal holds " << skip
                << " batches but " << session_path << " only " << batches.size()
                << "; wrong input file for this journal?\n";
      return 2;
    }
  } else {
    session.emplace(structure, formula, std::move(config));
  }

  std::cout << "session:  " << session_path << " (" << batches.size()
            << " batches)\n";
  for (std::size_t i = skip; i < batches.size(); ++i) {
    const TrajectoryDataset& batch = batches[i];
    const BatchOutcome& out = session->feed(batch);
    std::cout << "batch " << out.index << ": " << out.trajectories
              << " trajectories, "
              << (out.patched ? "patched" : "recompiled") << " ("
              << out.dirty_states << " dirty), bracket [" << out.lo << ", "
              << out.hi << "], "
              << (out.violated ? "VIOLATED" : "satisfied");
    if (out.repaired) {
      std::cout << ", repair "
                << (out.repair_feasible ? "feasible" : "infeasible")
                << " (cost " << out.repair_cost << ", eps "
                << out.epsilon_bisimilarity << ")";
    }
    if (out.budget_status == BudgetStatus::kBudgetExhausted) {
      std::cout << ", budget " << to_string(out.budget_stop);
    }
    std::cout << "\n";
  }
  const SessionReport& report = session->report();
  std::cout << "session:  " << report.batches.size() << " batches, "
            << report.patch_hits << " patch hits, " << report.repairs
            << " repairs, final "
            << (report.final_satisfied ? "SATISFIED" : "VIOLATED") << "\n";
  return report.final_satisfied ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string path = argv[1];
  const std::string formula_text = argv[2];
  bool want_counterexample = false;
  bool want_dot = false;
  bool want_stats = false;
  bool want_quotient = false;
  long timeout_ms = 0;
  std::string session_path;
  double session_pseudocount = 1.0;
  SessionDurability durability;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--session" && i + 1 < argc) {
      session_path = argv[++i];
    } else if (flag == "--session-pseudocount" && i + 1 < argc) {
      session_pseudocount = std::strtod(argv[++i], nullptr);
      if (session_pseudocount <= 0.0) return usage();
    } else if (flag == "--journal" && i + 1 < argc) {
      durability.journal_path = argv[++i];
      if (durability.journal_path.empty()) return usage();
    } else if (flag == "--resume") {
      durability.resume = true;
    } else if (flag == "--checkpoint-every" && i + 1 < argc) {
      durability.checkpoint_every =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (flag == "--counterexample") {
      want_counterexample = true;
    } else if (flag == "--dot") {
      want_dot = true;
    } else if (flag == "--stats") {
      want_stats = true;
    } else if (flag == "--quotient") {
      want_quotient = true;
    } else if (flag == "--timeout-ms" && i + 1 < argc) {
      timeout_ms = std::strtol(argv[++i], nullptr, 10);
      if (timeout_ms <= 0) return usage();
    } else {
      return usage();
    }
  }
  if (want_stats) stats::set_enabled(true);
  if ((durability.resume || !durability.journal_path.empty()) &&
      session_path.empty()) {
    std::cerr << "tml_check: --journal/--resume need --session\n";
    return usage();
  }
  if (durability.resume && durability.journal_path.empty()) {
    std::cerr << "tml_check: --resume needs --journal\n";
    return usage();
  }

  // The default budget carries both the deadline and the SIGINT token, so
  // every engine entry point in the process observes them without any
  // plumbing through the checker's recursion.
  {
    Budget budget;
    if (timeout_ms > 0) budget.deadline_in_ms(timeout_ms);
    budget.cancel = g_interrupt;
    set_default_budget(budget);
  }
  const SigintGuard sigint_guard;

  try {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "tml_check: cannot open " << path << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const PrismModel model = parse_prism(buffer.str());
    const StateFormulaPtr formula = parse_pctl(formula_text);

    std::cout << "model:    " << path << " ("
              << (model.type == PrismModel::Type::kDtmc ? "dtmc" : "mdp")
              << ", " << model.mdp.num_states() << " states, "
              << model.mdp.num_choices() << " choices)\n";
    std::cout << "property: " << formula->to_string() << "\n";

    if (want_dot) {
      std::cout << to_dot(model.mdp) << "\n";
    }

    if (!session_path.empty()) {
      const int code = run_session(model, formula, session_path,
                                   session_pseudocount, durability);
      if (want_stats) {
        std::cout << "stats:\n" << stats_to_json() << "\n";
      }
      return code;
    }

    const auto emit_stats = [&] {
      if (!want_stats) return;
      corroborate(model);
      std::cout << "stats:\n" << stats_to_json() << "\n";
    };

    CheckResult result;
    try {
      // Default options read default_budget(), which already carries the
      // --timeout-ms deadline and the SIGINT token.
      CheckOptions options;
      options.quotient = want_quotient;
      // A dtmc file compiles as a DTMC, so its unbounded P/R operators take
      // the direct solve rather than the MDP engines.
      result = check(model.type == PrismModel::Type::kDtmc
                         ? compile(model.dtmc())
                         : compile(model.mdp),
                     *formula, options);
      if (result.quotient_states > 0) {
        std::cout << "quotient: " << model.mdp.num_states() << " states -> "
                  << result.quotient_states << " blocks\n";
      } else if (want_quotient) {
        std::cout << "quotient: refinement hit the budget; checked the "
                     "unquotiented model\n";
      }
    } catch (const BudgetExhausted& e) {
      std::cerr << "tml_check: " << e.what() << "\n";
      print_bracket(e.bracket(), e.stop());
      return 3;
    }
    if (formula->is_quantitative()) {
      std::cout << "value:    " << *result.value << "\n";
      print_bracket(result.bracket);
      emit_stats();
      return 0;
    }
    std::cout << "verdict:  "
              << (result.satisfied ? "SATISFIED" : "VIOLATED") << "\n";
    if (result.value) {
      std::cout << "measured: " << *result.value << "\n";
    }
    print_bracket(result.bracket);

    if (!result.satisfied && want_counterexample &&
        model.type == PrismModel::Type::kDtmc &&
        formula->kind() == StateFormula::Kind::kProb &&
        (formula->comparison() == Comparison::kLess ||
         formula->comparison() == Comparison::kLessEqual) &&
        formula->path().kind() == PathFormula::Kind::kEventually &&
        !formula->path().step_bound()) {
      const Dtmc chain = model.dtmc();
      const StateSet targets =
          satisfying_states(compile(chain), formula->path().right());
      const Counterexample ce =
          strongest_evidence(chain, targets, formula->bound());
      std::cout << ce.to_string(chain);
    }
    emit_stats();
    return result.satisfied ? 0 : 1;
  } catch (const BudgetExhausted& e) {
    std::cerr << "tml_check: " << e.what() << "\n";
    return 3;
  } catch (const Error& e) {
    std::cerr << "tml_check: " << e.what() << "\n";
    return 2;
  }
}
