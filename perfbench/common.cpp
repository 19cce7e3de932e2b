#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>

namespace perfbench {

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::optional<double> percentile(std::vector<double> samples, double q,
                                 std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it. Samples beyond = those ranked strictly after it.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Layers::ms(const std::string& name) const {
  const auto it = ms_.find(name);
  return it == ms_.end() ? 0.0 : it->second;
}

void WorkloadResult::fail(const std::string& message) {
  ++failed;
  if (failures.size() < 8) failures.push_back(message);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double host_probe_ms() {
  // Dependent integer and floating-point chains over a 64 KiB table: ALU-
  // and L1-bound, so it tracks the core's speed, not the library's.
  std::vector<std::uint32_t> table(16384);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (auto& t : table) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    t = static_cast<std::uint32_t>(x >> 33);
  }
  const Clock::time_point start = Clock::now();
  std::uint32_t acc = 1;
  double f = 1.0;
  for (int round = 0; round < 400; ++round) {
    for (std::uint32_t t : table) {
      acc = acc * 2654435761u + (t ^ (acc >> 7));
      f = f * 0.999999 + static_cast<double>(acc & 0xff) * 1e-9;
    }
  }
  const double elapsed = ms_since(start);
  if (acc == 42 && f < 0) std::puts("");  // keep the loop observable
  return elapsed;
}

namespace {

std::size_t llc_size_bytes() {
  for (int index = 4; index >= 2; --index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    std::size_t value = std::strtoull(text.c_str(), nullptr, 10);
    const char suffix = text.back();
    if (suffix == 'K') value <<= 10;
    if (suffix == 'M') value <<= 20;
    if (value > 0) return value;
  }
  return std::size_t{32} << 20;
}

}  // namespace

double host_stream_gbps(std::size_t& llc_bytes, std::size_t& array_bytes) {
  llc_bytes = llc_size_bytes();
  // Two arrays, each 2x the LLC: 4x the LLC in flight per copy pass.
  array_bytes = 2 * llc_bytes;
  const std::size_t n = array_bytes / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<double>(i & 1023);
    b[i] = 0.0;
  }
  double best = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    const Clock::time_point start = Clock::now();
    std::memcpy(pass % 2 == 0 ? b.get() : a.get(),
                pass % 2 == 0 ? a.get() : b.get(), n * sizeof(double));
    const double s = ms_since(start) / 1000.0;
    // Bytes moved: one read and one write of the array.
    best = std::max(best, 2.0 * static_cast<double>(array_bytes) / s / 1e9);
  }
  if (a[n / 2] < 0 || b[n / 3] < 0) std::puts("");
  return best;
}

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric of BENCHMARK.json, in one place.
constexpr LayerSpec kLayerMetrics[] = {
    {"prism_parser.ms", "ms"},
    {"prism_parser.mb_per_s", "MB/s"},
    {"compiled.compile_ms", "ms"},
    {"quotient.ms", "ms"},
    {"quotient.blocks", "count"},
    {"graph.prob01_ms", "ms"},
    {"graph.scc_ms", "ms"},
    {"reachability.interval_ms", "ms"},
    {"reachability.sweeps", "count"},
    {"interval.robust_ms", "ms"},
    {"reachability.bounded_ms", "ms"},
    {"solver.reward_ms", "ms"},
    {"solver.reward_iterations", "count"},
    {"solver.dense_dtmc_ms", "ms"},
    {"solver.dense_mb", "MB"},
    {"sweep.bytes", "bytes"},
    {"sweep.gbps", "GB/s"},
    {"host.stream_gbps", "GB/s"},
    {"sweep.roofline_share", "share"},
    {"job.grid-pmax.ms", "ms"},
    {"job.grid-rmin.ms", "ms"},
    {"job.grid-bounded.ms", "ms"},
    {"job.queue-reward.ms", "ms"},
    {"job.wsn-quotient.ms", "ms"},
    {"job.wsn-jitter.ms", "ms"},
    {"job.grid-robust.ms", "ms"},
    {"json.parse_ms", "ms"},
    {"json.dump_ms", "ms"},
    {"cache.hit_ms", "ms"},
    {"cache.miss_ms", "ms"},
    {"cache.hit_share", "share"},
    {"server.check_ms", "ms"},
    {"server.handle_line_ms", "ms"},
    {"server.other_ms", "ms"},
    {"client.round_trip_ms", "ms"},
    {"client.transport_ms", "ms"},
    {"client.attempts_per_op", "count"},
    {"mle.ms", "ms"},
    {"compiled.patch_ms", "ms"},
    {"compiled.patch_share", "share"},
    {"compiled.dirty_states", "count"},
    {"certify.warm_ms", "ms"},
    {"certify.sweeps", "count"},
    {"state_elimination.ms", "ms"},
    {"model_repair.nlp_ms", "ms"},
    {"model_repair.recheck_ms", "ms"},
    {"model_repair.feasible_share", "share"},
    {"trace.overhead_share", "share"},
};

}  // namespace

void put_layer(std::map<std::string, Metric>& metrics, const std::string& name,
               double value) {
  for (const LayerSpec& spec : kLayerMetrics) {
    if (name == spec.name) {
      metrics[name] = Metric{value, spec.unit};
      return;
    }
  }
  throw std::logic_error("perfbench: unknown per-layer metric " + name);
}

void complete_layer_metrics(std::map<std::string, Metric>& metrics) {
  for (const LayerSpec& spec : kLayerMetrics) {
    if (metrics.count(spec.name) == 0) {
      metrics[spec.name] = Metric{0.0, spec.unit};
    }
  }
}

}  // namespace perfbench
