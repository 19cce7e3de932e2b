// Shared plumbing of the tml end-to-end benchmark: clocks, digests,
// percentile rules, the per-layer span accumulator and the result record.
// Each workload (check_large.cpp, serve_mixed.cpp, repair_stream.cpp)
// builds its seeded op list in set-up, runs it through the user path with
// nothing extra timed, replays it under the benchmark's own per-layer
// spans when tracing, checks every answer, and fills a WorkloadResult.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// FNV-1a 64 over bytes, chainable: digest of a whole op list is the fold
/// of every op's descriptor and input bytes.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t v);

/// Nearest-rank percentile q in (0,1) of `samples`, or nullopt when fewer
/// than `min_beyond` samples lie strictly above its rank — a tail number
/// resting on a handful of samples is not reported.
std::optional<double> percentile(std::vector<double> samples, double q,
                                 std::size_t min_beyond = 10);

double median(std::vector<double> values);

/// Busy time per layer metric, accumulated by the traced run. Spans are
/// the benchmark's own timers around calls into a layer's public
/// functions; each workload keeps the counts it takes from those calls'
/// return values itself.
class Layers {
 public:
  void add_ms(const std::string& name, double ms) { ms_[name] += ms; }
  double ms(const std::string& name) const;

 private:
  std::map<std::string, double> ms_;
};

/// Times one call into a layer: `Span s(layers, "compiled.compile_ms");`.
class Span {
 public:
  Span(Layers& layers, std::string name)
      : layers_(layers), name_(std::move(name)), start_(Clock::now()) {}
  ~Span() { layers_.add_ms(name_, ms_since(start_)); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layers& layers_;
  std::string name_;
  Clock::time_point start_;
};

/// One named metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Answer-checking verdict of the run as a whole: every op either matched
  /// its reference or was counted in `failed`, and the workload's own
  /// invariants (op count, cache hit pattern, ...) held.
  bool correct = true;
  std::vector<double> setup_s;   ///< one entry per repeated set-up
  std::vector<double> op_ms;     ///< per-op latency, in op-list order
  double timed_s = 0.0;          ///< wall time of the timed op loop
  std::uint64_t digest = 0;      ///< op-list digest (inputs, in order)
  std::map<std::string, Metric> layer_metrics;  ///< traced run only
  /// Free-form facts printed on the context line (sizes, thread counts,
  /// failures seen).
  std::map<std::string, std::string> context;
  std::vector<std::string> failures;  ///< first few failure messages
  void fail(const std::string& message);
};

/// Peak resident set of this process, MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Host-speed probe: a fixed integer/floating kernel independent of the
/// library, returning its wall time in ms. Recorded at the start and end
/// of every run as context (it is not a metric).
double host_probe_ms();

/// Streaming copy bandwidth (GB/s, best of a few passes) over two arrays
/// whose combined size is at least 4x the last-level cache; fills the
/// sizes used.
double host_stream_gbps(std::size_t& llc_bytes, std::size_t& array_bytes);

/// Workload entry points.
WorkloadResult run_check_large(const Args& args);
WorkloadResult run_serve_mixed(const Args& args);
WorkloadResult run_repair_stream(const Args& args);

/// Op-list digests without running anything (self-test support).
std::uint64_t check_large_digest(std::uint64_t seed, double seconds);
std::uint64_t serve_mixed_digest(std::uint64_t seed, double seconds);
std::uint64_t repair_stream_digest(std::uint64_t seed, double seconds);

/// Sets per-layer metric `name` (unit from the one table of per-layer
/// metrics; throws on a name missing from it).
void put_layer(std::map<std::string, Metric>& metrics, const std::string& name,
               double value);

/// Adds every per-layer metric that the workload did not measure with
/// value 0, so the traced result line always carries the full set.
void complete_layer_metrics(std::map<std::string, Metric>& metrics);

/// Regenerates perfbench/reference.tsv; nonzero when an independent engine
/// disagrees with the timed op's answer.
int write_check_large_references();

}  // namespace perfbench
