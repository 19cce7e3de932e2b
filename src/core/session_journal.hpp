// Durable write-ahead journal for streaming repair sessions.
//
// A RepairSession configured with a journal path appends one record per
// event to an append-only file, so that a killed process (daemon crash,
// SIGKILL mid-batch, power loss) can restart and *byte-deterministically*
// replay to the identical SessionReport:
//
//  * kBatch      — the trajectory batch about to be fed, written (and
//                  fsync'd) BEFORE any processing: a crash mid-feed replays
//                  the batch on resume;
//  * kCheckpoint — a periodic snapshot of the full session state (MLE
//                  counts, current chain, report so far, last repair
//                  point; a solver-seed slot that is written empty and
//                  skipped when an older journal filled it), so resume
//                  restores the latest checkpoint and re-feeds only the
//                  batches journaled after it.
//
// File format. A fixed header (magic "TMLJ", format version), then
// length-prefixed checksummed records:
//
//   [u8 type][u32 payload_len][u64 fnv1a64(payload)][payload bytes]
//
// Integers and doubles are little-endian fixed-width; doubles are the raw
// IEEE-754 bit pattern, so a round trip is bitwise exact — which is what
// makes "replay to the identical report" a byte-level statement rather
// than an epsilon one.
//
// Crash safety. Appends go through write(2) with EINTR/short-write loops
// and an fsync per record (configurable off for tests); a torn append —
// the record a crash interrupted — fails its length or checksum on the
// next scan and is DROPPED, with `JournalScan::tail_dropped` set and a
// typed warning describing what was discarded. A record that fails its
// checksum is never silently misread; everything before the first bad
// record is intact (fsync ordering), so the journal degrades by losing at
// most the final in-flight record. Reads distinguish "corrupt tail"
// (recoverable, warn + drop) from "not a journal at all" (JournalError).
//
// The wire-level fault site `session.journal_write` (src/common/fault.hpp)
// injects short writes / failures / delays into append(), making torn-tail
// recovery deterministically testable without SIGKILL timing races.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/error.hpp"

namespace tml {

/// Typed failure of the journal layer: unopenable file, bad magic/version,
/// an append that could not be completed. Corrupt *tail* records are NOT
/// errors — they surface as JournalScan::tail_dropped.
class JournalError : public Error {
 public:
  explicit JournalError(const std::string& what) : Error(what) {}
};

enum class JournalRecordType : std::uint8_t {
  kBatch = 1,
  kCheckpoint = 2,
};

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kBatch;
  std::string payload;
};

/// Result of scanning a journal file: every intact record in append order,
/// plus what (if anything) was dropped at the tail.
struct JournalScan {
  std::vector<JournalRecord> records;
  /// True when trailing bytes failed the length/checksum contract and were
  /// discarded (torn final append). Never set for an empty, clean file.
  bool tail_dropped = false;
  std::size_t dropped_bytes = 0;  ///< bytes discarded at the tail
  std::string warning;            ///< human-readable drop description
};

/// Append-side handle. Opens (creating or appending) on construction;
/// every append() is length-prefixed, checksummed and — when `sync` —
/// fsync'd before returning, so a record either survives whole or tears
/// visibly at the tail.
class SessionJournal {
 public:
  /// `truncate` starts a fresh journal (new session); false appends to an
  /// existing one (resume). Throws JournalError when the file cannot be
  /// opened, or — when appending — when the existing header is not a
  /// journal.
  SessionJournal(std::string path, bool truncate, bool sync = true);
  ~SessionJournal();
  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;

  /// Appends one record durably. Throws JournalError when the write fails
  /// (including an injected `session.journal_write` fault — in which case
  /// the record may be torn, exactly like a real crash mid-append).
  void append(JournalRecordType type, const std::string& payload);

  const std::string& path() const { return path_; }
  std::uint64_t records_written() const { return records_written_; }

 private:
  std::string path_;
  int fd_ = -1;
  bool sync_ = true;
  std::uint64_t records_written_ = 0;
};

/// Scans `path`, validating the header and every record checksum. Intact
/// records are returned in order; a torn/corrupt tail is dropped with a
/// warning (see JournalScan). Throws JournalError when the file cannot be
/// read or is not a journal (bad magic / unsupported version).
JournalScan scan_journal(const std::string& path);

/// FNV-1a 64-bit over a byte string — the journal's record checksum.
std::uint64_t journal_checksum(const std::string& payload);

// ---------------------------------------------------------------------------
// Little-endian binary encoding helpers shared by the journal payload
// codecs (repair_session.cpp). Doubles are raw IEEE-754 bit patterns:
// encode/decode round trips are bitwise exact.

namespace journal_io {

void put_u8(std::string& out, std::uint8_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_f64(std::string& out, double v);
void put_bytes(std::string& out, const std::string& bytes);

/// Bounds-checked readers over a payload; throw JournalError past the end
/// (a checksummed record can still be logically malformed across format
/// versions — never misread silently).
class Reader {
 public:
  explicit Reader(const std::string& payload) : data_(payload) {}
  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string bytes();
  bool done() const { return pos_ == data_.size(); }
  /// Throws JournalError unless every payload byte was consumed.
  void expect_done(const char* what) const;

 private:
  const std::string& data_;
  std::size_t pos_ = 0;
};

}  // namespace journal_io

}  // namespace tml
