#include "src/common/stats.hpp"

#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

namespace tml {
namespace stats {

namespace {

bool env_enables_stats() {
  const char* raw = std::getenv("TML_STATS");
  if (raw == nullptr) return false;
  const std::string value(raw);
  return !(value.empty() || value == "0" || value == "false" ||
           value == "off");
}

}  // namespace

namespace detail {
// Dynamic-initialized from the environment, so the flag is correct before
// any instrumentation site runs (sites only execute after main starts).
std::atomic<bool> g_enabled{env_enables_stats()};
}  // namespace detail

namespace {

/// The canonical metric schema, declared up front so exporters always see
/// one entry per engine even when that engine did not run in this process.
struct SchemaEntry {
  const char* name;
  enum { kCounter, kGauge, kTimer } kind;
};

constexpr SchemaEntry kSchema[] = {
    {"compile.calls", SchemaEntry::kCounter},
    {"compile.rows", SchemaEntry::kCounter},
    {"compile.nnz", SchemaEntry::kCounter},
    {"compile.pred_builds", SchemaEntry::kCounter},
    {"compile.pred_dedup_hits", SchemaEntry::kCounter},
    {"compile.time", SchemaEntry::kTimer},
    {"compile.patch_calls", SchemaEntry::kCounter},
    {"compile.patch_hits", SchemaEntry::kCounter},
    {"compile.patch_fallbacks", SchemaEntry::kCounter},
    {"compile.patch_dirty_states", SchemaEntry::kCounter},
    {"compile.quotient_runs", SchemaEntry::kCounter},
    {"compile.quotient_refinements", SchemaEntry::kCounter},
    {"compile.quotient_fallbacks", SchemaEntry::kCounter},
    {"compile.quotient_blocks", SchemaEntry::kGauge},
    {"compile.quotient_time", SchemaEntry::kTimer},
    {"checker.checks", SchemaEntry::kCounter},
    {"checker.vi.iterations", SchemaEntry::kCounter},
    {"checker.pi.iterations", SchemaEntry::kCounter},
    {"checker.bounded.sweeps", SchemaEntry::kCounter},
    {"checker.bounded.state_updates", SchemaEntry::kCounter},
    {"checker.robust.unknown_states", SchemaEntry::kGauge},
    {"checker.prob0.states", SchemaEntry::kGauge},
    {"checker.prob1.states", SchemaEntry::kGauge},
    {"checker.vi.last_delta", SchemaEntry::kGauge},
    {"checker.scc_count", SchemaEntry::kGauge},
    {"checker.interval_sweeps", SchemaEntry::kCounter},
    {"checker.final_gap", SchemaEntry::kGauge},
    {"checker.check.time", SchemaEntry::kTimer},
    {"parametric.eliminations", SchemaEntry::kCounter},
    {"parametric.states_eliminated", SchemaEntry::kCounter},
    {"parametric.peak_degree", SchemaEntry::kGauge},
    {"parametric.peak_terms", SchemaEntry::kGauge},
    {"parametric.fill_in_edges", SchemaEntry::kCounter},
    {"parametric.pool_hits", SchemaEntry::kCounter},
    {"parametric.pool_misses", SchemaEntry::kCounter},
    {"parametric.scc_blocks", SchemaEntry::kGauge},
    {"parametric.elimination.time", SchemaEntry::kTimer},
    {"parametric.bounded.runs", SchemaEntry::kCounter},
    {"parametric.bounded.steps", SchemaEntry::kCounter},
    {"parametric.bounded.time", SchemaEntry::kTimer},
    {"opt.solves", SchemaEntry::kCounter},
    {"opt.starts", SchemaEntry::kCounter},
    {"opt.objective_evals", SchemaEntry::kCounter},
    {"opt.gradient_evals", SchemaEntry::kCounter},
    {"opt.constraint_evals", SchemaEntry::kCounter},
    {"opt.multistart.winner", SchemaEntry::kGauge},
    {"opt.solve.time", SchemaEntry::kTimer},
    {"opt.kkt.solves", SchemaEntry::kCounter},
    {"opt.kkt.iterations", SchemaEntry::kCounter},
    {"opt.kkt.fallbacks", SchemaEntry::kCounter},
    {"smc.runs", SchemaEntry::kCounter},
    {"smc.samples", SchemaEntry::kCounter},
    {"smc.truncated_paths", SchemaEntry::kCounter},
    {"smc.decided_after", SchemaEntry::kGauge},
    {"smc.check.time", SchemaEntry::kTimer},
    {"irl.fits", SchemaEntry::kCounter},
    {"irl.backward_passes", SchemaEntry::kCounter},
    {"irl.forward_passes", SchemaEntry::kCounter},
    {"irl.gradient_iterations", SchemaEntry::kCounter},
    {"irl.gradient_norm", SchemaEntry::kGauge},
    {"irl.fit.time", SchemaEntry::kTimer},
    {"core.trusted_learn.runs", SchemaEntry::kCounter},
    {"core.trusted_learn.time", SchemaEntry::kTimer},
    {"opt.nan_starts", SchemaEntry::kCounter},
    {"budget.checkpoints", SchemaEntry::kCounter},
    {"budget.clock_reads", SchemaEntry::kCounter},
    {"budget.exhausted", SchemaEntry::kCounter},
    {"fault.injections", SchemaEntry::kCounter},
    {"core.session.batches", SchemaEntry::kCounter},
    {"core.session.repairs", SchemaEntry::kCounter},
    {"core.session.batch.time", SchemaEntry::kTimer},
    // Serving layer (src/serve). Requests/errors/rejections count protocol
    // outcomes; the cache triple tracks the compiled-model LRU; queue depth
    // is sampled at admission (peak is monotone); the latency quantiles are
    // refreshed by the server from its sliding window after each request.
    {"serve.requests", SchemaEntry::kCounter},
    {"serve.errors", SchemaEntry::kCounter},
    {"serve.rejected", SchemaEntry::kCounter},
    {"serve.deadline_exhausted", SchemaEntry::kCounter},
    {"serve.connections", SchemaEntry::kCounter},
    {"serve.cache.hits", SchemaEntry::kCounter},
    {"serve.cache.misses", SchemaEntry::kCounter},
    {"serve.cache.evictions", SchemaEntry::kCounter},
    {"serve.queue_depth", SchemaEntry::kGauge},
    {"serve.queue_peak", SchemaEntry::kGauge},
    {"serve.latency_p50_ms", SchemaEntry::kGauge},
    {"serve.latency_p99_ms", SchemaEntry::kGauge},
    {"serve.request.time", SchemaEntry::kTimer},
    // Connection hardening (PR 10): per-connection I/O deadline trips,
    // connection-cap rejections, oversized request lines.
    {"serve.io_timeouts", SchemaEntry::kCounter},
    {"serve.conn_rejected", SchemaEntry::kCounter},
    {"serve.oversized", SchemaEntry::kCounter},
    // Durable repair sessions: write-ahead journal records appended,
    // checkpoints taken, sessions resumed from a journal.
    {"core.session.journal_records", SchemaEntry::kCounter},
    {"core.session.checkpoints", SchemaEntry::kCounter},
    {"core.session.resumes", SchemaEntry::kCounter},
};

class Registry {
 public:
  Registry() {
    for (const SchemaEntry& entry : kSchema) {
      switch (entry.kind) {
        case SchemaEntry::kCounter: (void)counter(entry.name); break;
        case SchemaEntry::kGauge: (void)gauge(entry.name); break;
        case SchemaEntry::kTimer: (void)timer(entry.name); break;
      }
    }
  }

  Counter& counter(std::string_view name) {
    const std::scoped_lock lock(mutex_);
    auto& slot = counters_[std::string(name)];
    if (slot == nullptr) slot = std::make_unique<Counter>();
    return *slot;
  }

  Gauge& gauge(std::string_view name) {
    const std::scoped_lock lock(mutex_);
    auto& slot = gauges_[std::string(name)];
    if (slot == nullptr) slot = std::make_unique<Gauge>();
    return *slot;
  }

  Timer& timer(std::string_view name) {
    const std::scoped_lock lock(mutex_);
    auto& slot = timers_[std::string(name)];
    if (slot == nullptr) slot = std::make_unique<Timer>();
    return *slot;
  }

  void reset() {
    const std::scoped_lock lock(mutex_);
    for (auto& [name, c] : counters_) c->clear();
    for (auto& [name, g] : gauges_) g->clear();
    for (auto& [name, t] : timers_) t->clear();
  }

  Snapshot snapshot() const {
    const std::scoped_lock lock(mutex_);
    Snapshot snap;
    for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
    for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
    for (const auto& [name, t] : timers_) {
      snap.timers[name] = Snapshot::TimerValue{t->count(), t->total_nanos()};
    }
    return snap;
  }

  std::string to_json() const {
    const std::scoped_lock lock(mutex_);
    std::ostringstream out;
    out << "{\n  \"enabled\": "
        << (stats::enabled() ? "true" : "false") << ",\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : counters_) {
      out << (first ? "\n" : ",\n") << "    \"" << name
          << "\": " << c->value();
      first = false;
    }
    out << "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : gauges_) {
      out << (first ? "\n" : ",\n") << "    \"" << name
          << "\": " << format_double(g->value());
      first = false;
    }
    out << "\n  },\n  \"timers\": {";
    first = true;
    for (const auto& [name, t] : timers_) {
      out << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"count\": "
          << t->count() << ", \"total_ms\": "
          << format_double(static_cast<double>(t->total_nanos()) / 1e6)
          << "}";
      first = false;
    }
    out << "\n  }\n}";
    return out.str();
  }

  std::string summary() const {
    const std::scoped_lock lock(mutex_);
    std::ostringstream out;
    for (const auto& [name, c] : counters_) {
      if (c->value() != 0) out << name << " = " << c->value() << "\n";
    }
    for (const auto& [name, g] : gauges_) {
      if (g->value() != 0.0) {
        out << name << " = " << format_double(g->value()) << "\n";
      }
    }
    for (const auto& [name, t] : timers_) {
      if (t->count() != 0) {
        out << name << " = "
            << format_double(static_cast<double>(t->total_nanos()) / 1e6)
            << " ms over " << t->count() << " spans\n";
      }
    }
    return out.str();
  }

 private:
  /// JSON-safe double: finite values via ostream (max precision is not
  /// needed for observability output), non-finite mapped to null.
  static std::string format_double(double v) {
    if (v != v) return "null";
    if (v == std::numeric_limits<double>::infinity()) return "1e308";
    if (v == -std::numeric_limits<double>::infinity()) return "-1e308";
    std::ostringstream out;
    out << v;
    return out.str();
  }

  mutable std::mutex mutex_;
  // Metric names are code-controlled dotted identifiers (no characters that
  // need JSON escaping); std::map keeps the export sorted.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
};

Registry& registry() {
  static Registry* instance = new Registry();  // never destroyed: metric
  return *instance;  // references must outlive static-destruction order
}

}  // namespace

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

Counter& counter(std::string_view name) { return registry().counter(name); }
Gauge& gauge(std::string_view name) { return registry().gauge(name); }
Timer& timer(std::string_view name) { return registry().timer(name); }

void reset() { registry().reset(); }

std::string summary() { return registry().summary(); }

std::uint64_t Snapshot::counter(std::string_view name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double Snapshot::gauge(std::string_view name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

Snapshot::TimerValue Snapshot::timer(std::string_view name) const {
  const auto it = timers.find(name);
  return it == timers.end() ? TimerValue{} : it->second;
}

Snapshot snapshot() { return registry().snapshot(); }

Snapshot delta(const Snapshot& earlier, const Snapshot& later) {
  Snapshot out;
  for (const auto& [name, value] : later.counters) {
    const std::uint64_t before = earlier.counter(name);
    out.counters[name] = value >= before ? value - before : 0;
  }
  out.gauges = later.gauges;  // last-value semantics: the delta IS the later
  for (const auto& [name, value] : later.timers) {
    const Snapshot::TimerValue before = earlier.timer(name);
    out.timers[name] = Snapshot::TimerValue{
        value.count >= before.count ? value.count - before.count : 0,
        value.total_nanos >= before.total_nanos
            ? value.total_nanos - before.total_nanos
            : 0};
  }
  return out;
}

}  // namespace stats

std::string stats_to_json() { return stats::registry().to_json(); }

}  // namespace tml
