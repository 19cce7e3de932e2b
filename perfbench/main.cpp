// tml_perfbench — end-to-end and per-layer benchmark of the tml library.
//
//   tml_perfbench --workload <check-large|serve-mixed|repair-stream>
//                 --seed N --seconds S --trace <0|1>
//   tml_perfbench --self-test
//   tml_perfbench --write-reference
//
// Run from the repository root (perfbench/run.py builds and invokes it).
// Prints one "# context {...}" line and, last, the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same op
// list a second time under the benchmark's per-layer spans and prints the
// per-layer metrics instead.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "common.hpp"

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::cerr << "usage: tml_perfbench --workload <check-large|serve-mixed|"
               "repair-stream> --seed N --seconds S --trace <0|1>\n"
               "       tml_perfbench --self-test | --write-reference\n";
  return 2;
}

std::uint64_t digest_of(const std::string& workload, std::uint64_t seed,
                        double seconds) {
  if (workload == "check-large") return check_large_digest(seed, seconds);
  if (workload == "serve-mixed") return serve_mixed_digest(seed, seconds);
  return repair_stream_digest(seed, seconds);
}

int self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };
  for (const char* workload : {"check-large", "serve-mixed", "repair-stream"}) {
    const std::uint64_t a = digest_of(workload, 7, 2.0);
    const std::uint64_t b = digest_of(workload, 7, 2.0);
    const std::uint64_t c = digest_of(workload, 8, 2.0);
    expect(a == b, std::string(workload) + ": same seed, same op-list digest " +
                       hex64(a));
    expect(a != c, std::string(workload) + ": another seed, another digest");
  }
  std::vector<double> samples;
  for (int i = 1; i <= 99; ++i) samples.push_back(i);
  expect(!percentile(samples, 0.90).has_value(),
         "p90 of 99 samples (9 beyond) is omitted");
  samples.push_back(100);
  const auto p90 = percentile(samples, 0.90);
  expect(p90.has_value() && *p90 == 90.0,
         "p90 of 100 samples (10 beyond) is the 90th");
  samples.clear();
  for (int i = 1; i <= 999; ++i) samples.push_back(i);
  expect(!percentile(samples, 0.99).has_value(),
         "p99 of 999 samples (9 beyond) is omitted");
  samples.push_back(1000);
  const auto p99 = percentile(samples, 0.99);
  expect(p99.has_value() && *p99 == 990.0,
         "p99 of 1000 samples (10 beyond) is the 990th");
  expect(percentile({5.0}, 0.5, 0).value_or(0) == 5.0,
         "p50 of one sample with no tail requirement");
  return failures == 0 ? 0 : 1;
}

int run(const Args& args) {
  const double probe_start = host_probe_ms();
  WorkloadResult r;
  if (args.workload == "check-large") {
    r = run_check_large(args);
  } else if (args.workload == "serve-mixed") {
    r = run_serve_mixed(args);
  } else if (args.workload == "repair-stream") {
    r = run_repair_stream(args);
  } else {
    return usage();
  }

  std::map<std::string, Metric> metrics;
  std::ostringstream extra;
  if (!args.trace) {
    metrics["setup_s"] = Metric{median(r.setup_s), "s"};
    metrics["ops_per_s"] =
        Metric{static_cast<double>(r.attempted) / r.timed_s, "1/s"};
    const auto p50 = percentile(r.op_ms, 0.50);
    const auto p90 = percentile(r.op_ms, 0.90);
    if (p50) metrics["op_p50_ms"] = Metric{*p50, "ms"};
    if (p90) metrics["op_p90_ms"] = Metric{*p90, "ms"};
    metrics["peak_rss_mb"] = Metric{peak_rss_mb(), "MB"};
    // Not an end-to-end metric (check-large has too few ops for it), but
    // recorded wherever 10 samples lie beyond it.
    if (const auto p99 = percentile(r.op_ms, 0.99)) {
      r.context["op_p99_ms"] = json_number(*p99);
    }
    metrics["ok_share"] =
        Metric{static_cast<double>(r.attempted - r.failed) /
                   static_cast<double>(std::max<std::size_t>(1, r.attempted)),
               "share"};
  } else {
    metrics = r.layer_metrics;
    complete_layer_metrics(metrics);
    std::size_t llc = 0, array = 0;
    const double stream = host_stream_gbps(llc, array);
    metrics["host.stream_gbps"] = Metric{stream, "GB/s"};
    const double sweep = metrics["sweep.gbps"].value;
    metrics["sweep.roofline_share"] =
        Metric{stream > 0 ? sweep / stream : 0.0, "share"};
    extra << ", \"stream_llc_bytes\": " << llc
          << ", \"stream_array_bytes\": " << array
          << ", \"stream_arrays\": 2";
  }
  const double probe_end = host_probe_ms();

  const char* commit = std::getenv("TML_PERFBENCH_COMMIT");
  const char* threads = std::getenv("TML_THREADS");
  std::ostringstream ctx;
  ctx << "{\"workload\": " << json_string(args.workload)
      << ", \"seed\": " << args.seed << ", \"seconds\": "
      << json_number(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"commit\": " << json_string(commit ? commit : "unknown")
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << json_string(TML_PERFBENCH_COMPILER)
      << ", \"build_type\": " << json_string(TML_PERFBENCH_BUILD_TYPE)
      << ", \"tml_threads\": " << json_string(threads ? threads : "unset")
      << ", \"op_list_digest\": " << json_string(hex64(r.digest))
      << ", \"host_probe_ms\": [" << json_number(probe_start) << ", "
      << json_number(probe_end) << "]"
      << ", \"timed_s\": " << json_number(r.timed_s) << ", \"op_max_ms\": "
      << json_number(r.op_ms.empty()
                         ? 0.0
                         : *std::max_element(r.op_ms.begin(), r.op_ms.end()))
      << ", \"setup_s\": [";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
    ctx << (i ? ", " : "") << json_number(r.setup_s[i]);
  }
  ctx << "]";
  for (const auto& [key, value] : r.context) {
    ctx << ", " << json_string(key) << ": " << json_string(value);
  }
  ctx << ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    ctx << (i ? ", " : "") << json_string(r.failures[i]);
  }
  ctx << "]" << extra.str() << "}";
  std::cout << "# context " << ctx.str() << "\n";

  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::cout << (first ? "" : ", ") << json_string(name)
              << ": {\"value\": " << json_number(metric.value)
              << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return self_test();
    if (flag == "--write-reference") return write_check_large_references();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
      if (!(args.seconds > 0)) return usage();
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "tml_perfbench: " << e.what() << "\n";
    return 1;
  }
}
