#include "src/core/repair_session.hpp"

#include <memory>
#include <utility>

#include "src/checker/check.hpp"
#include "src/checker/reachability.hpp"
#include "src/common/stats.hpp"

namespace tml {

namespace {

// -- journal payload codecs --------------------------------------------------
//
// Every scalar goes through journal_io (little-endian fixed width, doubles
// as raw IEEE-754 bits), so encode/decode round trips are bitwise exact —
// the property that upgrades "resume replays the session" to "resume
// replays to the byte-identical report".

void put_outcome(std::string& out, const BatchOutcome& o) {
  journal_io::put_u64(out, o.index);
  journal_io::put_u64(out, o.trajectories);
  journal_io::put_u8(out, o.patched ? 1 : 0);
  journal_io::put_u64(out, o.dirty_states);
  journal_io::put_f64(out, o.max_abs_delta);
  journal_io::put_f64(out, o.lo);
  journal_io::put_f64(out, o.hi);
  journal_io::put_u8(out, o.violated ? 1 : 0);
  journal_io::put_u8(out, o.repaired ? 1 : 0);
  journal_io::put_u8(out, o.repair_feasible ? 1 : 0);
  journal_io::put_f64(out, o.repair_cost);
  journal_io::put_f64(out, o.epsilon_bisimilarity);
  journal_io::put_u64(out, o.sweeps);
  journal_io::put_u8(out, static_cast<std::uint8_t>(o.budget_status));
  journal_io::put_u8(out, static_cast<std::uint8_t>(o.budget_stop));
}

BatchOutcome read_outcome(journal_io::Reader& r) {
  BatchOutcome o;
  o.index = r.u64();
  o.trajectories = r.u64();
  o.patched = r.u8() != 0;
  o.dirty_states = r.u64();
  o.max_abs_delta = r.f64();
  o.lo = r.f64();
  o.hi = r.f64();
  o.violated = r.u8() != 0;
  o.repaired = r.u8() != 0;
  o.repair_feasible = r.u8() != 0;
  o.repair_cost = r.f64();
  o.epsilon_bisimilarity = r.f64();
  o.sweeps = r.u64();
  o.budget_status = static_cast<BudgetStatus>(r.u8());
  o.budget_stop = static_cast<BudgetStop>(r.u8());
  return o;
}

void put_f64_vector(std::string& out, const std::vector<double>& v) {
  journal_io::put_u64(out, v.size());
  for (double x : v) journal_io::put_f64(out, x);
}

std::vector<double> read_f64_vector(journal_io::Reader& r) {
  const std::uint64_t n = r.u64();
  std::vector<double> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.f64());
  return v;
}

}  // namespace

std::string encode_session_report(const SessionReport& report) {
  std::string out;
  journal_io::put_u64(out, report.batches.size());
  for (const BatchOutcome& o : report.batches) put_outcome(out, o);
  journal_io::put_u64(out, report.repairs);
  journal_io::put_u64(out, report.patch_hits);
  journal_io::put_u8(out, report.final_satisfied ? 1 : 0);
  return out;
}

SessionReport decode_session_report(const std::string& payload) {
  journal_io::Reader r(payload);
  SessionReport report;
  const std::uint64_t n = r.u64();
  report.batches.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) report.batches.push_back(read_outcome(r));
  report.repairs = r.u64();
  report.patch_hits = r.u64();
  report.final_satisfied = r.u8() != 0;
  r.expect_done("session report");
  return report;
}

std::string encode_batch(const TrajectoryDataset& batch) {
  std::string out;
  journal_io::put_u64(out, batch.trajectories.size());
  for (const Trajectory& t : batch.trajectories) {
    journal_io::put_u32(out, t.initial_state);
    journal_io::put_u64(out, t.steps.size());
    for (const Step& s : t.steps) {
      journal_io::put_u32(out, s.state);
      journal_io::put_u32(out, s.choice);
      journal_io::put_u32(out, s.action);
      journal_io::put_u32(out, s.next_state);
    }
  }
  put_f64_vector(out, batch.weights);
  return out;
}

TrajectoryDataset decode_batch(const std::string& payload) {
  journal_io::Reader r(payload);
  TrajectoryDataset batch;
  const std::uint64_t n = r.u64();
  batch.trajectories.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Trajectory t;
    t.initial_state = r.u32();
    const std::uint64_t steps = r.u64();
    t.steps.reserve(steps);
    for (std::uint64_t k = 0; k < steps; ++k) {
      Step s;
      s.state = r.u32();
      s.choice = r.u32();
      s.action = r.u32();
      s.next_state = r.u32();
      t.steps.push_back(s);
    }
    batch.trajectories.push_back(std::move(t));
  }
  batch.weights = read_f64_vector(r);
  r.expect_done("batch");
  return batch;
}

RepairSession::RepairSession(Dtmc structure, StateFormulaPtr property,
                             RepairSessionConfig config)
    : structure_(std::move(structure)),
      property_(std::move(property)),
      config_(std::move(config)),
      mle_(structure_),
      current_(structure_) {
  structure_.validate();
  TML_REQUIRE(property_ != nullptr, "RepairSession: property is null");
  TML_REQUIRE(config_.pseudocount > 0.0,
              "RepairSession: pseudocount must be positive — zero smoothing "
              "can estimate unobserved structural transitions to 0, which "
              "changes the support and breaks the streaming contract");
  TML_REQUIRE(property_->kind() == StateFormula::Kind::kProb,
              "RepairSession: property must be a bounded P operator, got "
                  << property_->to_string());
  const PathFormula& path = property_->path();
  TML_REQUIRE(path.kind() == PathFormula::Kind::kEventually ||
                  path.kind() == PathFormula::Kind::kUntil,
              "RepairSession: only F / U path formulas are supported, got "
                  << path.to_string());
  TML_REQUIRE(!path.step_bound(),
              "RepairSession: step-bounded properties are not supported — "
              "certification solves the unbounded P[U] directly");
  // Operand sets are fixed for the whole session: they are label-defined on
  // the structure, and neither learning nor repair touches labels.
  const CompiledModel compiled = compile(structure_);
  goal_ = satisfying_states(compiled, path.right());
  stay_ = path.kind() == PathFormula::Kind::kUntil
              ? satisfying_states(compiled, path.left())
              : StateSet(structure_.num_states(), true);
  if (!config_.journal_path.empty()) {
    journal_ = std::make_unique<SessionJournal>(
        config_.journal_path, /*truncate=*/true, config_.journal_fsync);
  }
}

RepairSession RepairSession::resume(Dtmc structure, StateFormulaPtr property,
                                    RepairSessionConfig config) {
  static stats::Counter& c_resumes = stats::counter("core.session.resumes");
  TML_REQUIRE(!config.journal_path.empty(),
              "RepairSession::resume: config.journal_path is empty");
  const std::string path = config.journal_path;
  const bool fsync = config.journal_fsync;

  // Scan BEFORE constructing: the fresh-session constructor would truncate
  // the journal we are about to replay. The session is built journal-less,
  // replayed, and only then reattached to the file in append mode.
  const JournalScan scan = scan_journal(path);
  config.journal_path.clear();
  RepairSession session(std::move(structure), std::move(property),
                        std::move(config));
  session.config_.journal_path = path;
  session.journal_tail_dropped_ = scan.tail_dropped;
  session.journal_warning_ = scan.warning;

  // Latest checkpoint wins; only the batch records journaled after it need
  // re-feeding (write-ahead order: a batch record precedes its processing,
  // so a crash mid-feed leaves the record and replay re-runs the batch).
  const std::string* checkpoint = nullptr;
  std::vector<const std::string*> pending;
  for (const JournalRecord& record : scan.records) {
    if (record.type == JournalRecordType::kCheckpoint) {
      checkpoint = &record.payload;
      pending.clear();
    } else {
      pending.push_back(&record.payload);
    }
  }
  if (checkpoint != nullptr) session.restore_checkpoint(*checkpoint);
  session.replaying_ = true;
  try {
    for (const std::string* payload : pending) {
      session.feed(decode_batch(*payload));
    }
  } catch (...) {
    session.replaying_ = false;
    throw;
  }
  session.replaying_ = false;
  session.resumed_batches_ = session.report_.batches.size();
  session.journal_ =
      std::make_unique<SessionJournal>(path, /*truncate=*/false, fsync);
  c_resumes.bump();
  return session;
}

Budget RepairSession::batch_budget() const {
  const std::size_t fed = report_.batches.size();
  const std::size_t remaining =
      config_.expected_batches > fed ? config_.expected_batches - fed : 1;
  return config_.budget.split(remaining);
}

Bracket RepairSession::certify(const Dtmc& chain, const Budget& budget,
                               BatchOutcome& outcome, bool record_patch) {
  PatchResult patch;
  if (compiled_.has_value()) patch = patch_probabilities(*compiled_, chain);
  // First batch, or a structural change (should not happen with positive
  // smoothing, but degrade gracefully): recompile.
  if (!patch.patched) compiled_ = compile(chain);
  if (record_patch) {
    outcome.patched = patch.patched;
    outcome.dirty_states =
        patch.patched ? patch.dirty_states : compiled_->num_states();
    outcome.max_abs_delta = patch.max_abs_delta;
  }

  SolverOptions options;
  options.budget = budget;
  try {
    const SolveResult result =
        dtmc_until_bracket(*compiled_, stay_, goal_, options);
    const StateId init = chain.initial_state();
    return Bracket{result.lo[init], result.hi[init], 0};
  } catch (const BudgetExhausted& e) {
    outcome.budget_status = BudgetStatus::kBudgetExhausted;
    if (outcome.budget_stop == BudgetStop::kNone) outcome.budget_stop = e.stop();
    return Bracket{};  // [0, 1]: sound, and straddles every bound
  }
}

const BatchOutcome& RepairSession::feed(const TrajectoryDataset& batch) {
  static stats::Counter& c_batches = stats::counter("core.session.batches");
  static stats::Counter& c_repairs = stats::counter("core.session.repairs");
  static stats::Timer& t_batch = stats::timer("core.session.batch.time");
  const stats::ScopedTimer span(t_batch);
  c_batches.bump();

  // Write-ahead: journal the batch (fsync'd) before touching any session
  // state, so a crash anywhere in this call replays the batch on resume.
  if (journal_ != nullptr && !replaying_) {
    journal_->append(JournalRecordType::kBatch, encode_batch(batch));
  }

  BatchOutcome outcome;
  outcome.index = report_.batches.size();
  outcome.trajectories = batch.size();

  const Budget share = batch_budget();

  // 1. Learn: fold the batch into the running counts, re-estimate.
  mle_.add(batch);
  const Dtmc learned = mle_.dtmc(config_.pseudocount);
  current_ = learned;

  // 2. Certify the learned chain.
  const Comparison cmp = property_->comparison();
  const double bound = property_->bound();
  const Bracket certified = certify(learned, share, outcome, true);
  outcome.lo = certified.lo;
  outcome.hi = certified.hi;
  // Certified satisfaction needs BOTH bracket ends on the right side of the
  // bound; a straddling bracket (or an exhausted budget's [0, 1])
  // conservatively counts as violated.
  bool satisfied =
      compare(certified.lo, cmp, bound) && compare(certified.hi, cmp, bound);
  outcome.violated = !satisfied;

  // 3. Repair only if the certified verdict failed.
  if (outcome.violated && config_.scheme_for) {
    c_repairs.bump();
    ++report_.repairs;
    outcome.repaired = true;

    const PerturbationScheme scheme = config_.scheme_for(learned);
    ModelRepairConfig repair_config = config_.repair;
    Budget repair_share = share;  // same absolute deadline as the certify
    repair_config.solver.budget = repair_share;
    repair_config.elimination.budget = &repair_share;
    // NLP warm start: the previous batch's repaired point. Probabilities
    // drift a little per batch, so the previous optimum is typically
    // near-feasible and converges in a handful of inner iterations.
    if (last_repair_point_.has_value() &&
        last_repair_point_->size() == scheme.num_variables()) {
      repair_config.solver.warm_starts.push_back(*last_repair_point_);
    }

    const ModelRepairResult repair =
        model_repair(scheme, *property_, repair_config);
    outcome.repair_feasible = repair.feasible();
    if (repair.feasible() && repair.repaired.has_value()) {
      outcome.repair_cost = repair.cost;
      outcome.epsilon_bisimilarity = repair.epsilon_bisimilarity;
      last_repair_point_ = repair.variable_values;
      current_ = *repair.repaired;
      const Bracket recheck =
          certify(current_, share, outcome, /*record_patch=*/false);
      outcome.lo = recheck.lo;
      outcome.hi = recheck.hi;
      satisfied =
          compare(recheck.lo, cmp, bound) && compare(recheck.hi, cmp, bound);
    }
  }

  if (outcome.patched) ++report_.patch_hits;
  report_.final_satisfied = satisfied;
  report_.batches.push_back(outcome);
  maybe_checkpoint();
  return report_.batches.back();
}

void RepairSession::maybe_checkpoint() {
  if (journal_ == nullptr || replaying_ || config_.checkpoint_every == 0) return;
  if (report_.batches.size() % config_.checkpoint_every != 0) return;
  static stats::Counter& c_checkpoints =
      stats::counter("core.session.checkpoints");
  journal_->append(JournalRecordType::kCheckpoint, encode_checkpoint());
  c_checkpoints.bump();
}

std::string RepairSession::encode_checkpoint() const {
  std::string out;
  // MLE accumulator: batch count, matched weight, count table.
  journal_io::put_u64(out, mle_.batches());
  journal_io::put_f64(out, mle_.total_weight());
  const CountTable& table = mle_.counts();
  journal_io::put_f64(out, table.unmatched);
  journal_io::put_u64(out, table.counts.size());
  for (const auto& state_counts : table.counts) {
    journal_io::put_u64(out, state_counts.size());
    for (const auto& choice_counts : state_counts) put_f64_vector(out, choice_counts);
  }
  // Current chain: transition rows only — states, labels, names and rewards
  // are fixed by the structure, which the resume caller re-supplies.
  journal_io::put_u64(out, current_.num_states());
  for (StateId s = 0; s < current_.num_states(); ++s) {
    const auto& row = current_.transitions(s);
    journal_io::put_u64(out, row.size());
    for (const Transition& t : row) {
      journal_io::put_u32(out, t.target);
      journal_io::put_f64(out, t.probability);
    }
  }
  // Report so far, an always-absent solver seed (the slot keeps the
  // layout of format version 1), last repair point.
  journal_io::put_bytes(out, encode_session_report(report_));
  journal_io::put_u8(out, 0);
  journal_io::put_u8(out, last_repair_point_.has_value() ? 1 : 0);
  if (last_repair_point_.has_value()) put_f64_vector(out, *last_repair_point_);
  return out;
}

void RepairSession::restore_checkpoint(const std::string& payload) {
  journal_io::Reader r(payload);
  const std::uint64_t batches = r.u64();
  const double total_weight = r.f64();
  CountTable table;
  table.unmatched = r.f64();
  const std::uint64_t num_states = r.u64();
  table.counts.resize(num_states);
  for (auto& state_counts : table.counts) {
    const std::uint64_t num_choices = r.u64();
    state_counts.resize(num_choices);
    for (auto& choice_counts : state_counts) choice_counts = read_f64_vector(r);
  }
  mle_.restore(std::move(table), batches, total_weight);

  const std::uint64_t chain_states = r.u64();
  if (chain_states != structure_.num_states()) {
    throw JournalError("journal: checkpoint chain has " +
                       std::to_string(chain_states) +
                       " states, session structure has " +
                       std::to_string(structure_.num_states()));
  }
  current_ = structure_;  // carries names, labels, rewards
  for (StateId s = 0; s < structure_.num_states(); ++s) {
    const std::uint64_t row_size = r.u64();
    std::vector<Transition> row;
    row.reserve(row_size);
    for (std::uint64_t k = 0; k < row_size; ++k) {
      Transition t;
      t.target = r.u32();
      t.probability = r.f64();
      row.push_back(t);
    }
    current_.set_transitions(s, std::move(row));
  }

  report_ = decode_session_report(r.bytes());
  // Rebuild the compiled cache from the restored chain: the delta patch is
  // bitwise identical to a fresh compile (the test_delta invariant), so
  // this reproduces the crashed process's patched-in-place cache exactly.
  compiled_ = compile(current_);
  // Journals written before certification moved onto the direct solve may
  // carry an interval-engine seed here: point values, lo, hi, then the
  // prob0 and prob1 sets (bit count + packed bits). Nothing reads it.
  if (r.u8() != 0) {
    for (int i = 0; i < 3; ++i) (void)read_f64_vector(r);
    for (int i = 0; i < 2; ++i) {
      (void)r.u64();
      (void)r.bytes();
    }
  }
  if (r.u8() != 0) {
    last_repair_point_ = read_f64_vector(r);
  } else {
    last_repair_point_.reset();
  }
  r.expect_done("checkpoint");
}

}  // namespace tml
