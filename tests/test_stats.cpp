// Tests for the engine statistics registry: enable gating, metric
// semantics, JSON export schema, and the checker/compile instrumentation
// actually counting work.

#include "src/common/stats.hpp"

#include <thread>

#include <gtest/gtest.h>

#include "src/checker/check.hpp"
#include "src/checker/interval.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/model.hpp"

namespace tml {
namespace {

/// Restores the enable flag on scope exit so tests don't leak state into
/// one another (the process may start enabled via TML_STATS).
class EnabledGuard {
 public:
  explicit EnabledGuard(bool on) : previous_(stats::enabled()) {
    stats::set_enabled(on);
  }
  ~EnabledGuard() { stats::set_enabled(previous_); }

 private:
  bool previous_;
};

TEST(Stats, DisabledSitesRecordNothing) {
  const EnabledGuard guard(false);
  stats::Counter& c = stats::counter("test.disabled.counter");
  stats::Gauge& g = stats::gauge("test.disabled.gauge");
  stats::Timer& t = stats::timer("test.disabled.timer");
  c.clear();
  g.clear();
  t.clear();
  c.add(7);
  g.set(3.5);
  g.set_max(9.0);
  { const stats::ScopedTimer span(t); }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(t.total_nanos(), 0u);
}

TEST(Stats, EnabledSitesRecord) {
  const EnabledGuard guard(true);
  stats::Counter& c = stats::counter("test.enabled.counter");
  c.clear();
  c.add(7);
  c.bump();
  EXPECT_EQ(c.value(), 8u);

  stats::Gauge& g = stats::gauge("test.enabled.gauge");
  g.clear();
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.set_max(2.0);  // lower: no change
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.set_max(9.0);  // higher: raised
  EXPECT_DOUBLE_EQ(g.value(), 9.0);

  stats::Timer& t = stats::timer("test.enabled.timer");
  t.clear();
  { const stats::ScopedTimer span(t); }
  EXPECT_EQ(t.count(), 1u);
}

TEST(Stats, SameNameReturnsSameInstance) {
  EXPECT_EQ(&stats::counter("test.same"), &stats::counter("test.same"));
  EXPECT_EQ(&stats::gauge("test.same"), &stats::gauge("test.same"));
  EXPECT_EQ(&stats::timer("test.same"), &stats::timer("test.same"));
}

TEST(Stats, CounterIsThreadSafe) {
  const EnabledGuard guard(true);
  stats::Counter& c = stats::counter("test.threads.counter");
  c.clear();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 10000;
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < kThreads; ++i) {
    workers.emplace_back([&c] {
      for (std::size_t k = 0; k < kPerThread; ++k) c.bump();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Stats, ResetZeroesEverything) {
  const EnabledGuard guard(true);
  stats::counter("test.reset.counter").add(5);
  stats::gauge("test.reset.gauge").set(5.0);
  stats::reset();
  EXPECT_EQ(stats::counter("test.reset.counter").value(), 0u);
  EXPECT_DOUBLE_EQ(stats::gauge("test.reset.gauge").value(), 0.0);
}

TEST(Stats, JsonContainsCanonicalEngineSchema) {
  // The canonical schema is pre-declared, so every engine prefix appears in
  // the export even in a process where that engine never ran.
  const std::string json = stats_to_json();
  for (const std::string name :
       {"compile.calls", "checker.vi.iterations", "parametric.eliminations",
        "opt.objective_evals", "smc.samples", "irl.backward_passes",
        "core.trusted_learn.runs", "compile.time", "checker.check.time",
        "smc.check.time"}) {
    EXPECT_NE(json.find("\"" + name + "\""), std::string::npos) << name;
  }
  EXPECT_NE(json.find("\"enabled\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
  // Structurally a single object.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Stats, SummaryListsOnlyNonZeroMetrics) {
  const EnabledGuard guard(true);
  stats::reset();
  stats::counter("test.summary.hot").add(3);
  const std::string text = stats::summary();
  EXPECT_NE(text.find("test.summary.hot = 3"), std::string::npos);
  EXPECT_EQ(text.find("test.summary.cold"), std::string::npos);
}

TEST(Stats, CheckerAndCompileInstrumentationCountWork) {
  const EnabledGuard guard(true);
  stats::reset();
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 0.4}, Transition{2, 0.6}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  chain.add_label(1, "goal");
  const CheckResult result = check(chain, "P>=0.3 [ F \"goal\" ]");
  EXPECT_TRUE(result.satisfied);
  EXPECT_GE(stats::counter("checker.checks").value(), 1u);
  EXPECT_GE(stats::counter("compile.calls").value(), 1u);
  EXPECT_GE(stats::counter("compile.rows").value(), 3u);
  EXPECT_GE(stats::timer("checker.check.time").count(), 1u);
}

TEST(Stats, SweepEnginesReportTheStatesTheySkip) {
  // s0 gambles for s1 (which reaches goal s2 almost surely) against the
  // trap s3.
  Mdp mdp(4);
  mdp.add_choice(0, "go", {Transition{1, 0.5}, Transition{3, 0.5}});
  mdp.add_choice(1, "try", {Transition{2, 0.5}, Transition{1, 0.5}});
  mdp.add_choice(2, "loop", {Transition{2, 1.0}});
  mdp.add_choice(3, "loop", {Transition{3, 1.0}});
  mdp.add_label(2, "goal");
  const StateSet goal = mdp.states_with_label("goal");
  const IntervalMdp widened = IntervalMdp::widen(mdp, 0.01);
  const auto run = [&] {
    (void)check(mdp, "Pmax=? [ F<=2 \"goal\" ]");
    (void)interval_reachability(widened, goal, Objective::kMaximize,
                                Nature::kAdversarial);
  };
  stats::Counter& updates = stats::counter("checker.bounded.state_updates");
  stats::Gauge& unknown = stats::gauge("checker.robust.unknown_states");
  {
    const EnabledGuard guard(false);
    stats::reset();
    run();
    EXPECT_EQ(updates.value(), 0u);
    EXPECT_DOUBLE_EQ(unknown.value(), 0.0);
  }
  const EnabledGuard guard(true);
  stats::reset();
  run();
  // Goal distances are s2: 0, s1: 1, s0: 2 (s3 never reaches goal), so the
  // two sweeps update 2 and then 3 states instead of 4 and 4.
  EXPECT_EQ(stats::counter("checker.bounded.sweeps").value(), 2u);
  EXPECT_EQ(updates.value(), 5u);
  // The graph pass pins s1 and s2 to 1 and s3 to 0; only s0 is swept.
  EXPECT_DOUBLE_EQ(unknown.value(), 1.0);
  const std::string json = stats_to_json();
  EXPECT_NE(json.find("\"checker.bounded.state_updates\""), std::string::npos);
  EXPECT_NE(json.find("\"checker.robust.unknown_states\""), std::string::npos);
}

TEST(Stats, InstrumentationDoesNotPerturbResults) {
  // Same query with collection on and off: identical value.
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 0.4}, Transition{2, 0.6}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  chain.add_label(1, "goal");
  double with_stats = 0.0;
  double without_stats = 0.0;
  {
    const EnabledGuard guard(true);
    with_stats = *check(chain, "P=? [ F \"goal\" ]").value;
  }
  {
    const EnabledGuard guard(false);
    without_stats = *check(chain, "P=? [ F \"goal\" ]").value;
  }
  EXPECT_DOUBLE_EQ(with_stats, without_stats);
}

}  // namespace
}  // namespace tml
