// Durable repair sessions: the write-ahead session journal, its binary
// codecs, and crash-replay determinism.
//
// The contract under test (src/core/session_journal.hpp): a RepairSession
// configured with a journal path can be killed at ANY point — including
// SIGKILL mid-batch and a crash that tears the final append — and a
// RepairSession::resume() against the same journal replays to a
// SessionReport whose encode_session_report() bytes are IDENTICAL to an
// uninterrupted run's. The kill-and-resume cases below take that literally:
// they fork, SIGKILL the child at a deterministic point, resume in the
// parent, and compare the encoded reports byte for byte.
//
// Torn tails are produced three ways — truncating the file mid-record,
// flipping a payload byte (checksum mismatch), and arming the
// `session.journal_write:short` fault site so append() itself "crashes"
// half-way — and must always be dropped with a warning, never misread.

#include "src/core/session_journal.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fault.hpp"
#include "src/core/model_repair.hpp"
#include "src/core/repair_session.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/model.hpp"
#include "src/mdp/trajectory.hpp"

namespace tml {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

// ---------------------------------------------------------------------------
// journal_io: the little-endian fixed-width codec under every payload.

TEST_F(JournalTest, IoCodecRoundTripsBitwise) {
  std::string out;
  journal_io::put_u8(out, 0xAB);
  journal_io::put_u32(out, 0xDEADBEEFu);
  journal_io::put_u64(out, 0x0123456789ABCDEFull);
  journal_io::put_f64(out, 0.30000000000000004);
  journal_io::put_f64(out, -0.0);
  journal_io::put_bytes(out, std::string("x\0y", 3));

  journal_io::Reader reader(out);
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.f64(), 0.30000000000000004);  // bitwise, not NEAR
  const double negzero = reader.f64();
  EXPECT_EQ(negzero, 0.0);
  EXPECT_TRUE(std::signbit(negzero));  // -0.0 survives the round trip
  EXPECT_EQ(reader.bytes(), std::string("x\0y", 3));
  EXPECT_TRUE(reader.done());
  EXPECT_NO_THROW(reader.expect_done("test"));
}

TEST_F(JournalTest, IoReaderIsBoundsChecked) {
  std::string out;
  journal_io::put_u32(out, 7);
  journal_io::Reader r1(out);
  (void)r1.u32();
  EXPECT_THROW(r1.u8(), JournalError);  // past the end

  journal_io::Reader r2(out);
  EXPECT_THROW(r2.u64(), JournalError);  // wider than what remains

  // A bytes length field that claims more than the payload holds.
  std::string lying;
  journal_io::put_u64(lying, 1000);
  journal_io::Reader r3(lying);
  EXPECT_THROW(r3.bytes(), JournalError);

  // Unconsumed trailing bytes are an error, not silently ignored.
  journal_io::Reader r4(out);
  EXPECT_THROW(r4.expect_done("test"), JournalError);
}

// ---------------------------------------------------------------------------
// SessionJournal append + scan_journal.

TEST_F(JournalTest, AppendScanRoundTrip) {
  const std::string path = temp_path("journal_roundtrip.tmlj");
  {
    SessionJournal journal(path, /*truncate=*/true, /*sync=*/false);
    journal.append(JournalRecordType::kBatch, "first");
    journal.append(JournalRecordType::kCheckpoint, std::string("\0\xFF", 2));
    journal.append(JournalRecordType::kBatch, "");  // empty payload is legal
    EXPECT_EQ(journal.records_written(), 3u);
  }
  const JournalScan scan = scan_journal(path);
  EXPECT_FALSE(scan.tail_dropped);
  EXPECT_TRUE(scan.warning.empty());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].type, JournalRecordType::kBatch);
  EXPECT_EQ(scan.records[0].payload, "first");
  EXPECT_EQ(scan.records[1].type, JournalRecordType::kCheckpoint);
  EXPECT_EQ(scan.records[1].payload, std::string("\0\xFF", 2));
  EXPECT_EQ(scan.records[2].payload, "");
}

TEST_F(JournalTest, ScanRejectsNonJournals) {
  EXPECT_THROW(scan_journal(temp_path("journal_missing.tmlj")), JournalError);

  const std::string garbage = temp_path("journal_garbage.tmlj");
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "definitely not a journal";
  }
  EXPECT_THROW(scan_journal(garbage), JournalError);

  // Appending (resume mode) to a non-journal must fail loudly too.
  EXPECT_THROW(SessionJournal(garbage, /*truncate=*/false), JournalError);

  // A wrong format version is an error, not a silent empty scan.
  const std::string versioned = temp_path("journal_version.tmlj");
  {
    std::ofstream out(versioned, std::ios::binary);
    out << "TMLJ";
    const std::uint32_t bad_version = 99;
    out.write(reinterpret_cast<const char*>(&bad_version),
              sizeof(bad_version));
  }
  EXPECT_THROW(scan_journal(versioned), JournalError);
}

void truncate_by(const std::string& path, std::size_t bytes) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  ASSERT_GT(data.size(), bytes);
  data.resize(data.size() - bytes);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

TEST_F(JournalTest, TornTailIsDroppedWithWarning) {
  const std::string path = temp_path("journal_torn.tmlj");
  {
    SessionJournal journal(path, /*truncate=*/true, /*sync=*/false);
    journal.append(JournalRecordType::kBatch, "intact");
    journal.append(JournalRecordType::kBatch, "will tear");
  }
  truncate_by(path, 4);  // chop into the second record's payload

  const JournalScan scan = scan_journal(path);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].payload, "intact");
  EXPECT_TRUE(scan.tail_dropped);
  EXPECT_GT(scan.dropped_bytes, 0u);
  EXPECT_NE(scan.warning.find("dropped"), std::string::npos) << scan.warning;
}

TEST_F(JournalTest, ChecksumMismatchDropsTheTailRecord) {
  const std::string path = temp_path("journal_flip.tmlj");
  {
    SessionJournal journal(path, /*truncate=*/true, /*sync=*/false);
    journal.append(JournalRecordType::kBatch, "intact");
    journal.append(JournalRecordType::kBatch, "corrupted");
  }
  // Flip the final payload byte: length still matches, checksum cannot.
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(-1, std::ios::end);
  char last = 0;
  file.get(last);
  file.seekp(-1, std::ios::end);
  file.put(static_cast<char>(last ^ 0x40));
  file.close();

  const JournalScan scan = scan_journal(path);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].payload, "intact");
  EXPECT_TRUE(scan.tail_dropped);
  EXPECT_NE(scan.warning.find("checksum"), std::string::npos) << scan.warning;
}

TEST_F(JournalTest, InjectedShortWriteTearsExactlyLikeACrash) {
  const std::string path = temp_path("journal_fault.tmlj");
  SessionJournal journal(path, /*truncate=*/true, /*sync=*/false);
  journal.append(JournalRecordType::kBatch, "survives");

  fault::arm("session.journal_write", "short");
  EXPECT_THROW(journal.append(JournalRecordType::kBatch, "torn by fault"),
               JournalError);
  fault::disarm_all();

  const JournalScan scan = scan_journal(path);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].payload, "survives");
  EXPECT_TRUE(scan.tail_dropped);

  // The journal recovers: the next append lands after the torn bytes are
  // dropped by the scanner... but scan-side only. Append-side, the handle
  // keeps writing after the tear (as a real crashed process never would),
  // so this case stops here: the torn file is what resume sees.
}

TEST_F(JournalTest, InjectedDropFailsTheAppendCleanly) {
  const std::string path = temp_path("journal_drop.tmlj");
  SessionJournal journal(path, /*truncate=*/true, /*sync=*/false);
  fault::arm("session.journal_write", "drop");
  EXPECT_THROW(journal.append(JournalRecordType::kBatch, "never lands"),
               JournalError);
  fault::disarm_all();
  // kDrop throws BEFORE writing: the file stays a clean, empty journal.
  const JournalScan scan = scan_journal(path);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.tail_dropped);
}

// ---------------------------------------------------------------------------
// Batch / report codecs: bitwise round trips.

Trajectory hop(StateId from, StateId to) {
  Trajectory t;
  t.initial_state = from;
  Step step;
  step.state = from;
  step.next_state = to;
  t.steps.push_back(step);
  return t;
}

TEST_F(JournalTest, BatchCodecRoundTripsExactly) {
  TrajectoryDataset batch;
  batch.add(hop(0, 1), 7.0);
  batch.add(hop(0, 2), 1e-3);
  Trajectory longer;
  longer.initial_state = 1;
  Step s1;
  s1.state = 1;
  s1.choice = 2;
  s1.action = 3;
  s1.next_state = 0;
  Step s2;
  s2.state = 0;
  s2.next_state = 2;
  longer.steps = {s1, s2};
  batch.add(longer, 0.30000000000000004);

  const TrajectoryDataset decoded = decode_batch(encode_batch(batch));
  ASSERT_EQ(decoded.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(decoded.weight(i), batch.weight(i));  // bitwise
    const Trajectory& a = batch.trajectories[i];
    const Trajectory& b = decoded.trajectories[i];
    EXPECT_EQ(b.initial_state, a.initial_state);
    ASSERT_EQ(b.steps.size(), a.steps.size());
    for (std::size_t k = 0; k < a.steps.size(); ++k) {
      EXPECT_EQ(b.steps[k].state, a.steps[k].state);
      EXPECT_EQ(b.steps[k].choice, a.steps[k].choice);
      EXPECT_EQ(b.steps[k].action, a.steps[k].action);
      EXPECT_EQ(b.steps[k].next_state, a.steps[k].next_state);
    }
  }
  // Deterministic encoding: same batch, same bytes.
  EXPECT_EQ(encode_batch(batch), encode_batch(decoded));
}

TEST_F(JournalTest, SessionReportCodecRoundTripsExactly) {
  SessionReport report;
  BatchOutcome first;
  first.index = 0;
  first.trajectories = 9;
  first.patched = false;
  first.lo = 0.7272727272727271;
  first.hi = 0.7272727272727275;
  BatchOutcome second;
  second.index = 1;
  second.trajectories = 14;
  second.patched = true;
  second.dirty_states = 1;
  second.max_abs_delta = 0.4136363636363637;
  second.violated = true;
  second.repaired = true;
  second.repair_feasible = true;
  second.repair_cost = 0.123456789012345;
  second.epsilon_bisimilarity = 0.25;
  second.sweeps = 17;
  second.budget_status = BudgetStatus::kBudgetExhausted;
  second.budget_stop = BudgetStop::kDeadline;
  report.batches = {first, second};
  report.repairs = 1;
  report.patch_hits = 1;
  report.final_satisfied = true;

  const std::string encoded = encode_session_report(report);
  const SessionReport decoded = decode_session_report(encoded);
  EXPECT_EQ(encode_session_report(decoded), encoded);  // bitwise fixed point
  ASSERT_EQ(decoded.batches.size(), 2u);
  EXPECT_EQ(decoded.batches[1].sweeps, 17u);
  EXPECT_EQ(decoded.batches[1].budget_stop, BudgetStop::kDeadline);
  EXPECT_EQ(decoded.batches[1].max_abs_delta, second.max_abs_delta);
  EXPECT_TRUE(decoded.final_satisfied);

  // A truncated encoding is a typed error, never a partial report.
  EXPECT_THROW(decode_session_report(encoded.substr(0, encoded.size() - 3)),
               JournalError);
}

// ---------------------------------------------------------------------------
// RepairSession durability: journaled == volatile, resume == uninterrupted.

Dtmc split_structure() {
  Dtmc structure(3);
  structure.set_transitions(0, {Transition{1, 0.5}, Transition{2, 0.5}});
  structure.set_transitions(1, {Transition{1, 1.0}});
  structure.set_transitions(2, {Transition{2, 1.0}});
  structure.add_label(1, "goal");
  structure.set_initial_state(0);
  return structure;
}

RepairSessionConfig session_config(std::size_t expected_batches) {
  RepairSessionConfig config;
  config.pseudocount = 1.0;
  config.scheme_for = [](const Dtmc& learned) {
    PerturbationScheme scheme(learned);
    const Var v = scheme.add_variable("v", 0.0, 0.5);
    scheme.attach_balanced(v, 0, /*raise=*/1, /*lower=*/2);
    return scheme;
  };
  config.expected_batches = expected_batches;
  config.journal_fsync = false;  // kill-resume determinism, not power loss
  return config;
}

/// Five batches exercising the whole loop: satisfied, violated + repaired,
/// then drifting estimates with weighted trajectories.
std::vector<TrajectoryDataset> session_batches() {
  std::vector<TrajectoryDataset> batches(5);
  batches[0].add(hop(0, 1), 7.0);
  batches[0].add(hop(0, 2), 2.0);
  batches[1].add(hop(0, 2), 14.0);  // drags P[F goal] below 0.6: repair
  batches[2].add(hop(0, 1), 5.0);
  batches[3].add(hop(0, 2), 3.0);
  batches[4].add(hop(0, 1), 2.5);
  batches[4].add(hop(0, 2), 0.5);
  return batches;
}

StateFormulaPtr session_property() { return parse_pctl("P>=0.6 [ F \"goal\" ]"); }

/// Reference run: no journal, all batches, encoded report.
std::string reference_report_bytes() {
  RepairSession session(split_structure(), session_property(),
                        session_config(5));
  for (const TrajectoryDataset& batch : session_batches()) {
    session.feed(batch);
  }
  return encode_session_report(session.report());
}

TEST_F(JournalTest, JournaledSessionMatchesVolatileByteForByte) {
  const std::string path = temp_path("session_vs_volatile.tmlj");
  RepairSessionConfig config = session_config(5);
  config.journal_path = path;
  config.checkpoint_every = 2;
  RepairSession session(split_structure(), session_property(),
                        std::move(config));
  for (const TrajectoryDataset& batch : session_batches()) {
    session.feed(batch);
  }
  EXPECT_EQ(encode_session_report(session.report()), reference_report_bytes());

  // The journal holds every batch plus the cadence checkpoints (after
  // batches 2 and 4), in write-ahead order.
  const JournalScan scan = scan_journal(path);
  EXPECT_FALSE(scan.tail_dropped);
  std::size_t batch_records = 0;
  std::size_t checkpoints = 0;
  for (const JournalRecord& record : scan.records) {
    if (record.type == JournalRecordType::kBatch) {
      ++batch_records;
    } else {
      ++checkpoints;
    }
  }
  EXPECT_EQ(batch_records, 5u);
  EXPECT_EQ(checkpoints, 2u);
}

TEST_F(JournalTest, ResumeReplaysToIdenticalReport) {
  const std::string path = temp_path("session_resume.tmlj");
  const std::vector<TrajectoryDataset> batches = session_batches();

  // First life: three batches (one past the first checkpoint), then the
  // process "dies" (the session is simply destroyed; the journal remains).
  {
    RepairSessionConfig config = session_config(5);
    config.journal_path = path;
    config.checkpoint_every = 2;
    RepairSession session(split_structure(), session_property(),
                          std::move(config));
    for (std::size_t i = 0; i < 3; ++i) session.feed(batches[i]);
  }

  // Second life: resume restores the checkpoint, replays batch 2, and the
  // stream continues where it left off.
  RepairSessionConfig config = session_config(5);
  config.journal_path = path;
  config.checkpoint_every = 2;
  RepairSession session = RepairSession::resume(
      split_structure(), session_property(), std::move(config));
  EXPECT_EQ(session.resumed_batches(), 3u);
  EXPECT_EQ(session.fed_batches(), 3u);
  EXPECT_FALSE(session.journal_tail_dropped());
  for (std::size_t i = session.fed_batches(); i < batches.size(); ++i) {
    session.feed(batches[i]);
  }
  EXPECT_EQ(encode_session_report(session.report()), reference_report_bytes());
}

TEST_F(JournalTest, ResumeSkipsTheSolverSeedOfAPreviousLayout) {
  // Checkpoints once carried the interval engine's warm seed after the
  // report: a flag, then point values, lo and hi (length-prefixed doubles)
  // and the prob0/prob1 sets (bit count + packed bits). The layout keeps
  // the flag; a resume must skip such a seed and still replay exactly.
  const std::string path = temp_path("session_seeded_checkpoint.tmlj");
  const std::vector<TrajectoryDataset> batches = session_batches();
  {
    RepairSessionConfig config = session_config(5);
    config.journal_path = path;
    config.checkpoint_every = 2;
    RepairSession session(split_structure(), session_property(),
                          std::move(config));
    for (std::size_t i = 0; i < 3; ++i) session.feed(batches[i]);
  }

  // The checkpoint follows batch 2; its length-prefixed report locates the
  // seed flag.
  std::string report;
  {
    RepairSession volatile_session(split_structure(), session_property(),
                                   session_config(5));
    volatile_session.feed(batches[0]);
    volatile_session.feed(batches[1]);
    journal_io::put_bytes(report,
                          encode_session_report(volatile_session.report()));
  }
  std::string seed;
  journal_io::put_u8(seed, 1);
  for (int v = 0; v < 3; ++v) {
    journal_io::put_u64(seed, 3);
    for (double x : {0.25, 1.0, 0.0}) journal_io::put_f64(seed, x);
  }
  for (int v = 0; v < 2; ++v) {
    journal_io::put_u64(seed, 3);
    journal_io::put_bytes(seed, std::string(1, '\x02'));
  }

  JournalScan scan = scan_journal(path);
  std::size_t seeded = 0;
  for (JournalRecord& record : scan.records) {
    if (record.type != JournalRecordType::kCheckpoint) continue;
    const std::size_t at = record.payload.find(report);
    ASSERT_NE(at, std::string::npos);
    const std::size_t flag = at + report.size();
    ASSERT_LT(flag, record.payload.size());
    ASSERT_EQ(record.payload[flag], '\0');  // this layout writes "no seed"
    record.payload.replace(flag, 1, seed);
    ++seeded;
  }
  ASSERT_EQ(seeded, 1u);
  {
    SessionJournal rewritten(path, /*truncate=*/true, /*sync=*/false);
    for (const JournalRecord& record : scan.records) {
      rewritten.append(record.type, record.payload);
    }
  }

  RepairSessionConfig config = session_config(5);
  config.journal_path = path;
  config.checkpoint_every = 2;
  RepairSession session = RepairSession::resume(
      split_structure(), session_property(), std::move(config));
  EXPECT_EQ(session.resumed_batches(), 3u);
  EXPECT_FALSE(session.journal_tail_dropped());
  for (std::size_t i = session.fed_batches(); i < batches.size(); ++i) {
    session.feed(batches[i]);
  }
  EXPECT_EQ(encode_session_report(session.report()), reference_report_bytes());
}

TEST_F(JournalTest, ResumeWithoutCheckpointsReplaysEverything) {
  const std::string path = temp_path("session_nockpt.tmlj");
  const std::vector<TrajectoryDataset> batches = session_batches();
  {
    RepairSessionConfig config = session_config(5);
    config.journal_path = path;
    config.checkpoint_every = 0;  // write-ahead log only
    RepairSession session(split_structure(), session_property(),
                          std::move(config));
    for (std::size_t i = 0; i < 4; ++i) session.feed(batches[i]);
  }
  RepairSessionConfig config = session_config(5);
  config.journal_path = path;
  config.checkpoint_every = 0;
  RepairSession session = RepairSession::resume(
      split_structure(), session_property(), std::move(config));
  EXPECT_EQ(session.resumed_batches(), 4u);
  session.feed(batches[4]);
  EXPECT_EQ(encode_session_report(session.report()), reference_report_bytes());
}

TEST_F(JournalTest, CorruptTailResumeDropsTornBatchAndRefeeds) {
  const std::string path = temp_path("session_corrupt.tmlj");
  const std::vector<TrajectoryDataset> batches = session_batches();
  {
    RepairSessionConfig config = session_config(5);
    config.journal_path = path;
    config.checkpoint_every = 0;
    RepairSession session(split_structure(), session_property(),
                          std::move(config));
    for (std::size_t i = 0; i < 3; ++i) session.feed(batches[i]);
  }
  // Tear the final append: batch 2's record loses its last bytes, exactly
  // as if the crash had landed mid-write.
  truncate_by(path, 5);

  RepairSessionConfig config = session_config(5);
  config.journal_path = path;
  config.checkpoint_every = 0;
  RepairSession session = RepairSession::resume(
      split_structure(), session_property(), std::move(config));
  EXPECT_TRUE(session.journal_tail_dropped());
  EXPECT_FALSE(session.journal_warning().empty());
  // The torn batch was never processed (write-ahead order), so resume
  // recovered two; the caller re-feeds from batch 2.
  EXPECT_EQ(session.fed_batches(), 2u);
  for (std::size_t i = session.fed_batches(); i < batches.size(); ++i) {
    session.feed(batches[i]);
  }
  EXPECT_EQ(encode_session_report(session.report()), reference_report_bytes());
}

TEST_F(JournalTest, SigkillMidSessionResumesToIdenticalReport) {
  const std::string path = temp_path("session_sigkill.tmlj");
  const std::vector<TrajectoryDataset> batches = session_batches();

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: feed three batches durably, then die the hard way — no
    // destructors, no flush beyond what append() already fsync'd.
    RepairSessionConfig config = session_config(5);
    config.journal_path = path;
    config.checkpoint_every = 2;
    config.journal_fsync = true;  // the real-crash discipline
    RepairSession session(split_structure(), session_property(),
                          std::move(config));
    for (std::size_t i = 0; i < 3; ++i) session.feed(batches[i]);
    ::kill(::getpid(), SIGKILL);
    _exit(99);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  RepairSessionConfig config = session_config(5);
  config.journal_path = path;
  config.checkpoint_every = 2;
  RepairSession session = RepairSession::resume(
      split_structure(), session_property(), std::move(config));
  EXPECT_EQ(session.resumed_batches(), 3u);
  EXPECT_FALSE(session.journal_tail_dropped());
  for (std::size_t i = session.fed_batches(); i < batches.size(); ++i) {
    session.feed(batches[i]);
  }
  EXPECT_EQ(encode_session_report(session.report()), reference_report_bytes());
}

TEST_F(JournalTest, FeedFaultTearsJournalAndResumeRecovers) {
  const std::string path = temp_path("session_feedfault.tmlj");
  const std::vector<TrajectoryDataset> batches = session_batches();
  {
    RepairSessionConfig config = session_config(5);
    config.journal_path = path;
    config.checkpoint_every = 0;
    RepairSession session(split_structure(), session_property(),
                          std::move(config));
    session.feed(batches[0]);
    session.feed(batches[1]);
    // The third append tears half-way (injected crash). Write-ahead order
    // means feed() throws BEFORE touching session state.
    fault::arm("session.journal_write", "short");
    EXPECT_THROW(session.feed(batches[2]), JournalError);
    fault::disarm_all();
    EXPECT_EQ(session.fed_batches(), 2u);
  }
  RepairSessionConfig config = session_config(5);
  config.journal_path = path;
  config.checkpoint_every = 0;
  RepairSession session = RepairSession::resume(
      split_structure(), session_property(), std::move(config));
  EXPECT_TRUE(session.journal_tail_dropped());
  EXPECT_EQ(session.fed_batches(), 2u);
  for (std::size_t i = session.fed_batches(); i < batches.size(); ++i) {
    session.feed(batches[i]);
  }
  EXPECT_EQ(encode_session_report(session.report()), reference_report_bytes());
}

TEST_F(JournalTest, ResumeDemandsAJournalPath) {
  RepairSessionConfig config = session_config(1);
  EXPECT_THROW(RepairSession::resume(split_structure(), session_property(),
                                     std::move(config)),
               Error);
}

}  // namespace
}  // namespace tml
