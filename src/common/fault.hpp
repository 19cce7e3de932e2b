// Deterministic fault injection for robustness tests.
//
// Engines expose named *fault sites* at the places a numeric failure could
// plausibly originate — solver update sweeps, NLP evaluations, elimination
// pivots, SMC sampling, the budget clock — through three hooks:
//
//  * `poison(site, v)` — returns `v`, or NaN/Inf when the site is armed;
//  * `fire(site)`      — true when an armed site should force its failure
//                        branch (singular pivot, non-convergence, …);
//  * `clock_skew_ns()` — nanoseconds to add to the budget clock (site
//                        `budget.clock`), driving deadline paths without
//                        real waiting.
//
// Disabled cost. Every hook starts with the inlined relaxed load of one
// global flag (`any_armed()`, same pattern as stats::enabled()); with no
// fault armed each site is a load + predictable branch, and the slow paths
// are never entered. Production binaries pay nothing else.
//
// Wire-level sites. The serving and journaling layers expose I/O fault
// sites through a fourth hook, `wire(site)`, which returns the armed
// *wire action* for this call:
//
//  * `short`      — the caller must truncate the transfer (read/write at
//                   most one byte this call), exercising reassembly and
//                   short-write loops;
//  * `drop`       — the caller must simulate a peer disconnect (EOF on
//                   read, EPIPE on write, closed socket on accept);
//  * `delay=<ns>` — the caller sleeps that long before the operation,
//                   driving slow-loris and I/O-deadline paths without a
//                   slow network.
//
// Arming. Either programmatically (tests: `fault::arm("opt.eval", "nan")`,
// `fault::disarm_all()`), or via the TML_FAULT environment variable parsed
// before main runs:
//
//   TML_FAULT=checker.sweep:nan            poison with NaN on every call
//   TML_FAULT=opt.eval:inf@8               first 8 calls clean, then Inf
//   TML_FAULT=parametric.pivot:on          force the failure branch
//   TML_FAULT=solver.pivot:on              fail the DTMC solve's pivot
//   TML_FAULT=budget.clock:skew=86400e9    skew the budget clock (ns)
//   TML_FAULT=serve.write:short            every send truncates to 1 byte
//   TML_FAULT=serve.read:drop@4            4 clean reads, then disconnect
//   TML_FAULT=serve.parse:delay=5e6        5 ms stall before each parse
//   TML_FAULT=smc.sample:on,irl.gradient:nan     comma-separated list
//
// Determinism: sites count their calls with an atomic counter, so an
// `@after` trigger fires at the same call index on every run of a
// single-threaded loop; hit counts are queryable via `hits(site)`.
//
// Known sites (grep for the string literals): checker.sweep,
// checker.converge, solver.sweep, solver.pivot, opt.eval, parametric.pivot,
// smc.sample, irl.gradient, budget.clock; wire-level: serve.accept,
// serve.read, serve.write, serve.parse, session.journal_write.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace tml {
namespace fault {

/// Wire action an I/O fault site demands for the current call (see the
/// header comment). `kNone` when the site is disarmed or not yet due.
struct WireAction {
  enum class Kind : std::uint8_t { kNone = 0, kShort, kDrop, kDelay };
  Kind kind = Kind::kNone;
  std::int64_t delay_ns = 0;  ///< kDelay payload
};

namespace detail {
extern std::atomic<bool> g_any_armed;
double poison_slow(const char* site, double v);
bool fire_slow(const char* site);
std::int64_t clock_skew_slow();
WireAction wire_slow(const char* site);
}  // namespace detail

/// True when at least one fault site is armed. Inline relaxed load — the
/// whole cost of every hook in a clean process.
inline bool any_armed() {
  return detail::g_any_armed.load(std::memory_order_relaxed);
}

/// Returns `v` unchanged, or a poisoned NaN/Inf when `site` is armed and
/// due. Use at value-update checkpoints: `delta = fault::poison("checker.sweep", delta)`.
inline double poison(const char* site, double v) {
  return any_armed() ? detail::poison_slow(site, v) : v;
}

/// True when `site` is armed (mode `on`) and due — the caller takes its
/// forced-failure branch.
inline bool fire(const char* site) {
  return any_armed() && detail::fire_slow(site);
}

/// Skew (ns) to add to the budget clock; 0 unless `budget.clock` is armed.
inline std::int64_t clock_skew_ns() {
  return any_armed() ? detail::clock_skew_slow() : 0;
}

/// Wire action for an I/O site (`serve.read`, `serve.write`, `serve.accept`,
/// `serve.parse`, `session.journal_write`): short transfer, simulated
/// disconnect, or an injected delay. kNone when disarmed.
inline WireAction wire(const char* site) {
  return any_armed() ? detail::wire_slow(site) : WireAction{};
}

/// Arms `site` with `spec` (same grammar as TML_FAULT's right-hand side:
/// `nan`, `inf`, `on`, `skew=<ns>`, `short`, `drop`, `delay=<ns>`, each
/// optionally `@<after>`). Throws tml::Error on a malformed spec.
void arm(const std::string& site, const std::string& spec);

/// Disarms one site / all sites (tests call disarm_all() in SetUp so an
/// env-armed battery run does not leak into targeted cases).
void disarm(const std::string& site);
void disarm_all();

/// How many times `site` actually injected (post-`@after` activations).
std::uint64_t hits(const std::string& site);

/// Parses a full TML_FAULT-style spec list ("a:nan,b:on@3"). Called at
/// static init with the environment value; exposed for tests.
void arm_from_spec(const std::string& spec_list);

}  // namespace fault
}  // namespace tml
