// Content-hashed compiled-model cache for the serving layer.
//
// A checking service sees the same model text over and over — monitoring
// loops re-check a deployed controller, CI re-checks a fixture — and
// parse_prism + compile dominates a request once the check itself is warm.
// The cache keys compiled artifacts by CompiledModel::content_hash(), so a
// repeat request skips both stages entirely:
//
//   source text ──FNV──► source index ──content hash──► LRU of entries
//
// Lookup hashes the raw source bytes, finds the index entry, and verifies
// the stored source byte-exact (an FNV collision therefore costs one
// recompile, never a wrong model). The index maps to the *content* hash of
// the compiled artifact, which keys the LRU proper — two textually
// different sources that compile to the same artifact (whitespace, comment
// churn, reordered labels hashing equal) share one entry, each gaining its
// own fast-path index row after its first compile.
//
// Entries are handed out as shared_ptr<const CachedModel>: an entry evicted
// while a request still checks against it stays alive until that request
// drops it. The CompiledModel inside an entry has its lazy predecessor/SCC
// caches force-built before publication, so concurrent const use from many
// request threads never mutates shared state (the per-request
// make_absorbing copies rebuild their own caches locally).
//
// Capacity is a hard entry bound (LRU eviction, stats-instrumented as
// serve.cache.*); capacity 0 disables retention but still returns usable
// one-shot entries.

#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/mdp/compiled.hpp"
#include "src/mdp/prism_parser.hpp"

namespace tml {

/// One cached compiled artifact. Immutable after publication.
struct CachedModel {
  CompiledModel model;
  std::uint64_t content_hash = 0;
  /// True when the source declared `dtmc` (CompiledModel::deterministic()
  /// agrees, but the parser-level type also rejects MDP-only requests).
  bool deterministic = false;
  std::size_t num_states = 0;
  std::size_t num_choices = 0;
};

class ModelCache {
 public:
  explicit ModelCache(std::size_t capacity);

  struct Result {
    std::shared_ptr<const CachedModel> entry;
    /// True when the source-index fast path supplied the entry — no parse,
    /// no compile ran for this request.
    bool hit = false;
  };

  /// Returns the compiled artifact for `source`, compiling on miss. Throws
  /// ParseError / ModelError for malformed sources (nothing is cached for
  /// a throwing source). Thread-safe and single-flight: concurrent misses
  /// on one source wait for a single compile and share its entry — or its
  /// error — so misses() counts compiles. A request that waited on another
  /// request's compile ran none of its own and counts as a hit.
  Result get(const std::string& source);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;

 private:
  struct Entry {
    std::shared_ptr<const CachedModel> model;
    std::list<std::uint64_t>::iterator lru_pos;  // into lru_, front = hottest
  };
  struct SourceKey {
    std::string source;          // exact bytes, for collision verification
    std::uint64_t content_hash;  // key into entries_
  };

  void touch(Entry& entry);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<std::uint64_t> lru_;  // content hashes, most recent first
  std::unordered_map<std::uint64_t, Entry> entries_;       // by content hash
  std::unordered_map<std::uint64_t, SourceKey> sources_;   // by source FNV
  // Compiles in progress, by exact source text; racing misses wait here.
  std::unordered_map<std::string,
                     std::shared_future<std::shared_ptr<const CachedModel>>>
      in_flight_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace tml
