// Deterministic parallel execution layer.
//
// Every hot engine in the library (SMC sampling, the multi-start NLP
// driver, value-iteration sweeps, the IRL forward/backward passes) fans
// work out through the primitives in this header. The design contract is
// that **results never depend on the thread count**:
//
//  * work is decomposed into fixed grain-sized chunks — the decomposition
//    is a function of the range and the grain only, never of how many
//    threads execute it;
//  * chunk results are combined by an *ordered reduction*: partial results
//    land in a chunk-indexed array and are folded serially in chunk order,
//    so floating-point association is identical for 1 and for N threads;
//  * randomized engines derive one independent RNG stream per chunk with
//    `Rng::split` (SplitMix64 seed derivation), so the sample stream of a
//    chunk is self-contained.
//
// `threads = 1` executes the chunks inline on the calling thread in index
// order — the reference path with zero pool involvement. So does a
// per-state sweep of fewer than `kMinParallelChunks` chunks, whatever its
// thread count. `threads = 0` resolves to the `TML_THREADS` environment
// variable, falling back to `std::thread::hardware_concurrency()`.
//
// The pool is a fixed set of workers created on first use; each
// `ThreadPool::run` caps how many of them participate, and tasks are
// claimed from a shared counter (no per-task queues). Re-entrant use from
// inside a task degrades to inline execution, which keeps nested
// `parallel_for` calls deadlock-free and — because the chunk decomposition
// is schedule-independent — bit-identical.

#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace tml {

/// Hardware thread count (always >= 1).
std::size_t hardware_thread_count();

/// Default parallelism used when a call site passes `threads = 0`:
/// the `TML_THREADS` environment variable if set to a positive integer,
/// otherwise `hardware_thread_count()`.
std::size_t default_thread_count();

/// Process-wide override of `default_thread_count()` (0 restores the
/// env-var/hardware resolution). Used by benches and tests; per-call
/// `threads` options take precedence.
void set_default_thread_count(std::size_t threads);

/// `requested == 0` → `default_thread_count()`, else `requested`.
std::size_t resolve_thread_count(std::size_t requested);

/// Fixed-size worker pool. One process-wide instance (`global()`) backs the
/// free functions below; standalone instances are used by the tests.
class ThreadPool {
 public:
  /// Spawns `workers` background threads (0 is valid: every `run` then
  /// executes inline on the caller).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const;

  /// Runs `fn(i)` for every i in [0, num_tasks), using the calling thread
  /// plus at most `parallelism - 1` pool workers, and blocks until all
  /// tasks finished. Task exceptions are captured and the one with the
  /// smallest task index is rethrown (matching what serial in-order
  /// execution would surface first). Re-entrant calls from inside a task
  /// run inline.
  void run(std::size_t num_tasks, std::size_t parallelism,
           const std::function<void(std::size_t)>& fn);

  /// Enqueues a detached task and returns immediately; some worker executes
  /// it as soon as it is free (batch `run` jobs take priority over the
  /// submit queue). The serving layer multiplexes requests through this.
  ///
  /// Contract: the task owns its error handling — an exception escaping it
  /// is swallowed, not rethrown (there is no caller left to unwind into);
  /// signal completion/results through state the task captures (e.g. a
  /// promise). Tasks run under the pool's re-entrancy guard, so a
  /// parallel_for inside a submitted task degrades to inline execution
  /// rather than deadlocking. With zero workers the task runs inline in
  /// submit() itself. Tasks still queued when the pool is destroyed are
  /// dropped (a captured promise then surfaces broken_promise to waiters).
  void submit(std::function<void()> task);

  /// Submitted tasks enqueued but not yet started.
  std::size_t pending() const;

  /// Process-wide pool backing parallel_for / parallel_transform_reduce.
  static ThreadPool& global();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Default chunk size for per-state sweeps. Chosen so that grid models of a
/// few thousand states split into enough chunks to keep 8 workers busy
/// while tiny case-study models (tens of states) stay single-chunk.
inline constexpr std::size_t kDefaultGrain = 64;

/// Fewest chunks a per-state sweep (a job of kDefaultGrain-sized chunks)
/// hands to the pool; a smaller sweep runs inline. Waking the pool costs
/// about 5–15 µs per job, more than a few chunks of Bellman backups: on a
/// 4-vCPU VM, discounted value iteration on grid MDPs took 3.4 vs 8.0
/// µs/sweep (threads 1 vs 2) at 3 chunks, 5.3 vs 11.6 at 4, 17.4 vs 27.3
/// at 13, 24.2 vs 31.0 at 16 and 48.0 vs 46.2 at 36. The robust interval
/// engine, on a gambler's-ruin walk with this floor lowered to 2, took 13.5
/// vs 23.9 µs/sweep at 4 chunks, 47.7 vs 57.9 at 16, 64.4 vs 68.9 at 21 and
/// 97.0 vs 104.6 at 36: it does not break even below 36 chunks either, so
/// 16 stays the one floor.
/// Jobs of other grains (SMC shards, NLP starts, IRL time slices) carry
/// far more work per chunk and use the pool from two chunks on.
inline constexpr std::size_t kMinParallelChunks = 16;

/// Number of grain-sized chunks covering [begin, end).
inline std::size_t chunk_count(std::size_t begin, std::size_t end,
                               std::size_t grain) {
  if (end <= begin) return 0;
  const std::size_t g = std::max<std::size_t>(1, grain);
  return (end - begin + g - 1) / g;
}

namespace detail {
/// Runs chunk_fn(chunk_index) for every chunk on up to `threads` threads
/// (0 = default). A resolved count of 1, or a per-state sweep (`grain` ==
/// kDefaultGrain) of fewer than kMinParallelChunks chunks, executes inline
/// in index order.
void run_chunks(std::size_t num_chunks, std::size_t grain, std::size_t threads,
                const std::function<void(std::size_t)>& chunk_fn);
}  // namespace detail

/// Parallel loop over [begin, end): `body(chunk_begin, chunk_end)` for each
/// fixed grain-sized chunk. The chunk decomposition depends only on the
/// range and grain, so per-chunk state (RNG streams, partial buffers) is
/// identical for every thread count.
inline void parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t threads = 0) {
  const std::size_t g = std::max<std::size_t>(1, grain);
  detail::run_chunks(chunk_count(begin, end, g), g, threads,
                     [&](std::size_t c) {
                       const std::size_t cb = begin + c * g;
                       body(cb, std::min(end, cb + g));
                     });
}

/// Deterministic ordered reduction: `map(chunk_begin, chunk_end)` produces
/// one partial result per chunk (computed in parallel), then the partials
/// are folded serially in chunk order with `combine`. For associative but
/// not floating-point-commutative combines this yields the same bits for
/// every thread count.
template <typename T, typename Map, typename Combine>
T parallel_transform_reduce(std::size_t begin, std::size_t end,
                            std::size_t grain, T init, Map&& map,
                            Combine&& combine, std::size_t threads = 0) {
  const std::size_t g = std::max<std::size_t>(1, grain);
  const std::size_t chunks = chunk_count(begin, end, g);
  if (chunks == 0) return init;
  std::vector<T> partial(chunks);
  detail::run_chunks(chunks, g, threads, [&](std::size_t c) {
    const std::size_t cb = begin + c * g;
    partial[c] = map(cb, std::min(end, cb + g));
  });
  T acc = std::move(init);
  for (std::size_t c = 0; c < chunks; ++c) {
    acc = combine(std::move(acc), std::move(partial[c]));
  }
  return acc;
}

}  // namespace tml
