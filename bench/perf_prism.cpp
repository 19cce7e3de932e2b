// PRISM front-end throughput: `parse_prism` on generated model text.
//
// Measures the parser alone (the text is generated once, outside the timed
// loop) and reports bytes/s through SetBytesProcessed, so parser MB/s can be
// re-measured without the end-to-end harness:
//
//   ./bench/perf_prism --benchmark_filter=BM_ParsePrism

#include <benchmark/benchmark.h>

#include <string>

#include "src/casestudies/generator.hpp"
#include "src/mdp/prism_parser.hpp"

namespace tml {
namespace {

/// Arg 0: `wsn 1111` (replicated WSN field, ~1.4 MB); arg 1: `grid 50`
/// (grid robot, ~0.9 MB).
const std::string& prism_text(int which) {
  static const std::string wsn = [] {
    GeneratorSpec spec;
    spec.family = GeneratorFamily::kWsnField;
    spec.size = 1111;
    return generate_prism(spec);
  }();
  static const std::string grid = [] {
    GeneratorSpec spec;
    spec.family = GeneratorFamily::kGridRobot;
    spec.size = 50;
    return generate_prism(spec);
  }();
  return which == 0 ? wsn : grid;
}

void BM_ParsePrism(benchmark::State& state) {
  const std::string& text = prism_text(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    PrismModel model = parse_prism(text);
    benchmark::DoNotOptimize(model);
  }
  state.SetLabel(state.range(0) == 0 ? "wsn 1111" : "grid 50");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParsePrism)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tml

// main() lives in perf_main.cpp (BENCHMARK_MAIN() + stats JSON block).
