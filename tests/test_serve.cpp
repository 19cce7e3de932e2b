// Serving layer: wire JSON, content-hashed compiled-model cache, request
// handling (socket-free through Server::handle_line and over real loopback
// sockets), admission control, and the graceful-degradation contract on
// the wire — a deadline-bounded request answers with a flagged certified
// [lo, hi] bracket, never a hard error.
//
// The daemon binary itself is smoke-tested end to end (fork/exec
// TML_SERVE_BIN, speak the protocol over TCP, SIGTERM shutdown), and the
// hardened tml_check SIGINT/deadline path is pinned by running
// TML_CHECK_BIN under an injected clock skew and asserting exit code 3
// plus the printed partial bracket.

#include "src/serve/server.hpp"

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/casestudies/generator.hpp"
#include "src/checker/check.hpp"
#include "src/checker/reachability.hpp"
#include "src/common/budget.hpp"
#include "src/common/fault.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/export.hpp"
#include "src/mdp/model.hpp"
#include "src/mdp/prism_parser.hpp"
#include "src/mdp/solver.hpp"
#include "src/serve/cache.hpp"
#include "src/serve/json.hpp"
#include "src/serve/protocol.hpp"

namespace tml {
namespace {

// ---------------------------------------------------------------------------
// Fixtures.

const char kDtmcSource[] = R"(dtmc
module m
  s : [0..2] init 0;
  [] s=0 -> 0.5:(s'=1) + 0.5:(s'=2);
  [] s=1 -> 1:(s'=1);
  [] s=2 -> 1:(s'=2);
endmodule
label "goal" = (s=1);
)";

const char kMdpSource[] = R"(mdp
module m
  s : [0..2] init 0;
  [go] s=0 -> 1:(s'=1);
  [risk] s=0 -> 0.5:(s'=1) + 0.5:(s'=2);
  [stay1] s=1 -> 1:(s'=1);
  [stay2] s=2 -> 1:(s'=2);
endmodule
label "goal" = (s=1);
)";

// Graph analysis and closed-form single-state SCC solves cannot resolve
// this one: states 0 and 1 form a genuine two-state SCC whose values (1/3
// and 2/3) are strictly between 0 and 1, so the checker must run numeric
// sweeps — and hit budget checkpoints.
const char kHardMdpSource[] = R"(mdp
module m
  s : [0..3] init 0;
  [a] s=0 -> 0.5:(s'=1) + 0.5:(s'=2);
  [b] s=1 -> 0.5:(s'=0) + 0.5:(s'=3);
  [stay2] s=2 -> 1:(s'=2);
  [stay3] s=3 -> 1:(s'=3);
endmodule
label "goal" = (s=3);
)";

// Pmin and Pmax of F "goal" differ at s0: Pmax = 1 (action a, pinned by
// graph analysis), Pmin = 1/3 (action b, through the s0/s1 SCC, which needs
// numeric sweeps). A budget-stopped P>=b check must report a bracket around
// Pmin, the quantity it compares.
const char kSplitMdpSource[] = R"(mdp
module m
  s : [0..3] init 0;
  [a] s=0 -> 1:(s'=2);
  [b] s=0 -> 0.5:(s'=1) + 0.25:(s'=2) + 0.25:(s'=3);
  [c] s=1 -> 0.5:(s'=0) + 0.5:(s'=3);
  [g] s=2 -> 1:(s'=2);
  [f] s=3 -> 1:(s'=3);
endmodule
label "goal" = (s=2);
)";

std::string escape_for_json(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string check_request(const std::string& model, const std::string& formula,
                          int id, std::int64_t timeout_ms = 0) {
  std::string line = "{\"op\":\"check\",\"id\":" + std::to_string(id) +
                     ",\"model\":\"" + escape_for_json(model) +
                     "\",\"formula\":\"" + escape_for_json(formula) + "\"";
  if (timeout_ms > 0) {
    line += ",\"timeout_ms\":" + std::to_string(timeout_ms);
  }
  return line + "}";
}

Dtmc two_path_chain() {
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 0.5}, Transition{2, 0.5}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  chain.add_label(1, "goal");
  chain.set_initial_state(0);
  chain.validate();
  return chain;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// ---------------------------------------------------------------------------
// Json: parse / dump.

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-0.5e2").as_number(), -50.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
  EXPECT_TRUE(Json::parse("  [1, 2]  ").is_array());
}

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,null],"b":{"nested":true},"s":"x"})";
  const Json value = Json::parse(text);
  EXPECT_EQ(value.dump(), text);
  EXPECT_EQ(Json::parse(value.dump()), value);
}

TEST(Json, DumpSortsObjectKeys) {
  Json::Object object;
  object["zeta"] = 1;
  object["alpha"] = 2;
  EXPECT_EQ(Json(object).dump(), R"({"alpha":2,"zeta":1})");
}

TEST(Json, StringEscapes) {
  const Json value = Json::parse(R"("a\"b\\c\ndA")");
  EXPECT_EQ(value.as_string(), "a\"b\\c\nd" "A");
  // Control characters dump escaped; the dump never contains a newline.
  const std::string dumped = Json(std::string("x\ny\x01")).dump();
  EXPECT_EQ(dumped.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(dumped).as_string(), "x\ny\x01");
}

TEST(Json, SurrogatePairDecodesToUtf8) {
  // U+1F600, as a 😀 surrogate pair, is 4 UTF-8 bytes.
  const Json value = Json::parse(R"("😀")");
  EXPECT_EQ(value.as_string(), "\xF0\x9F\x98\x80");
  EXPECT_EQ(Json::parse(value.dump()).as_string(), value.as_string());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), ParseError);
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,]"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\":}"), ParseError);
  EXPECT_THROW(Json::parse("nul"), ParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Json::parse("01"), ParseError);
  EXPECT_THROW(Json::parse("1."), ParseError);
  EXPECT_THROW(Json::parse("+1"), ParseError);
  // Exactly one value per line: trailing garbage is an error, not ignored.
  EXPECT_THROW(Json::parse("1 2"), ParseError);
  EXPECT_THROW(Json::parse("{} x"), ParseError);
}

TEST(Json, DepthLimitBoundsNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_THROW(Json::parse(deep), ParseError);  // default max_depth = 64
  EXPECT_NO_THROW(Json::parse(deep, 128));
}

TEST(Json, NonFiniteNumbersDumpAsNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  // ...and have no JSON spelling on the way in either.
  EXPECT_THROW(Json::parse("nan"), ParseError);
  EXPECT_THROW(Json::parse("inf"), ParseError);
}

TEST(Json, NumbersRoundTripShortest) {
  EXPECT_EQ(Json(0.1).dump(), "0.1");
  EXPECT_EQ(Json(3.0).dump(), "3");
  const double v = 0.30000000000000004;
  EXPECT_DOUBLE_EQ(Json::parse(Json(v).dump()).as_number(), v);
}

TEST(Json, FindNavigatesObjects) {
  const Json value = Json::parse(R"({"a":{"b":7}})");
  ASSERT_NE(value.find("a"), nullptr);
  ASSERT_NE(value.find("a")->find("b"), nullptr);
  EXPECT_DOUBLE_EQ(value.find("a")->find("b")->as_number(), 7.0);
  EXPECT_EQ(value.find("missing"), nullptr);
  EXPECT_EQ(Json(1).find("a"), nullptr);
}

// ---------------------------------------------------------------------------
// Byte-level fuzzing of the strict JSON codec and the request framer: any
// byte string either parses or throws the typed errors — never a crash, a
// hang, or an untyped escape. Seed-rotated in CI via TML_FUZZ_SEED.

std::uint64_t fuzz_seed() {
  if (const char* env = std::getenv("TML_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260808ull;
}

/// A pool of well-formed wire lines the mutators start from.
std::vector<std::string> fuzz_corpus() {
  return {
      R"({"op":"ping","id":7})",
      R"({"op":"metrics"})",
      check_request(kDtmcSource, "P=? [ F \"goal\" ]", 1),
      check_request(kMdpSource, "Pmax=? [ F \"goal\" ]", 2, 50),
      R"({"a":[1,2.5,null,{"b":true}],"s":"é😀"})",
      R"([[[[[[[["deep"]]]]]]]])",
      R"({"op":"check","model":"","formula":"","id":null})",
  };
}

TEST_F(ServeTest, FuzzJsonParserNeverEscapesUntyped) {
  Rng rng(fuzz_seed());
  const std::vector<std::string> corpus = fuzz_corpus();
  int parsed = 0;
  int rejected = 0;
  for (int round = 0; round < 600; ++round) {
    std::string line = corpus[static_cast<std::size_t>(
        rng.uniform(0.0, 1.0) * corpus.size()) % corpus.size()];
    const int mutations = 1 + static_cast<int>(rng.uniform(0.0, 4.0));
    for (int m = 0; m < mutations; ++m) {
      if (line.empty()) break;
      const std::size_t at = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(line.size())));
      const double dice = rng.uniform(0.0, 1.0);
      if (dice < 0.4) {
        // Random byte flip — including into NUL and high bytes.
        line[std::min(at, line.size() - 1)] =
            static_cast<char>(static_cast<unsigned char>(rng.uniform(0.0, 256.0)));
      } else if (dice < 0.7) {
        line = line.substr(0, at);  // truncation
      } else if (dice < 0.85) {
        line.insert(std::min(at, line.size()), 1, '\0');  // embedded NUL
      } else {
        line += line.substr(0, at);  // duplication / trailing garbage
      }
    }
    try {
      (void)Json::parse(line);
      ++parsed;
    } catch (const ParseError&) {
      ++rejected;  // the ONLY acceptable failure mode
    }
  }
  // The battery must exercise both outcomes, or the mutator is broken.
  EXPECT_GT(parsed + rejected, 0);
  EXPECT_GT(rejected, 0);
}

TEST_F(ServeTest, FuzzHandleLineAlwaysAnswersTyped) {
  serve::Server server(serve::ServeOptions{});
  Rng rng(fuzz_seed() ^ 0x5DEECE66Dull);
  const std::vector<std::string> corpus = fuzz_corpus();
  for (int round = 0; round < 200; ++round) {
    std::string line = corpus[static_cast<std::size_t>(
        rng.uniform(0.0, 1.0) * corpus.size()) % corpus.size()];
    const std::size_t at = static_cast<std::size_t>(
        rng.uniform(0.0, static_cast<double>(line.size() + 1)));
    const double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.5) {
      line = line.substr(0, at);
    } else if (!line.empty()) {
      line[std::min(at, line.size() - 1)] =
          static_cast<char>(static_cast<unsigned char>(rng.uniform(0.0, 256.0)));
    }
    // Whatever went in, one well-formed typed response line comes out.
    const Json response = Json::parse(server.handle_line(line));
    const Json* status = response.find("status");
    ASSERT_NE(status, nullptr) << line;
    const std::string s = status->as_string();
    EXPECT_TRUE(s == "ok" || s == "partial" || s == "error") << line;
    if (s == "error") {
      ASSERT_NE(response.find("kind"), nullptr) << line;
      EXPECT_FALSE(response.find("kind")->as_string().empty()) << line;
    }
  }
}

// ---------------------------------------------------------------------------
// CompiledModel::content_hash.

TEST(ContentHash, EqualModelsHashEqual) {
  const CompiledModel a = compile(two_path_chain());
  const CompiledModel b = compile(two_path_chain());
  EXPECT_EQ(a.content_hash(), b.content_hash());
}

TEST(ContentHash, SensitiveToProbabilitiesRewardsAndLabels) {
  const std::uint64_t base = compile(two_path_chain()).content_hash();

  Dtmc prob = two_path_chain();
  prob.set_transitions(0, {Transition{1, 0.25}, Transition{2, 0.75}});
  EXPECT_NE(compile(prob).content_hash(), base);

  Dtmc reward = two_path_chain();
  reward.set_state_reward(1, 3.0);
  EXPECT_NE(compile(reward).content_hash(), base);

  Dtmc label = two_path_chain();
  label.add_label(2, "trap");
  EXPECT_NE(compile(label).content_hash(), base);

  Dtmc init = two_path_chain();
  init.set_initial_state(1);
  EXPECT_NE(compile(init).content_hash(), base);
}

TEST(ContentHash, IndependentOfLazyCaches) {
  CompiledModel model = compile(two_path_chain());
  const std::uint64_t before = model.content_hash();
  model.scc();              // force-build the lazy caches
  model.predecessors(0);
  EXPECT_EQ(model.content_hash(), before);
}

// ---------------------------------------------------------------------------
// ModelCache.

TEST(ModelCache, MissThenHitReturnsSameEntry) {
  ModelCache cache(4);
  const ModelCache::Result first = cache.get(kDtmcSource);
  EXPECT_FALSE(first.hit);
  ASSERT_NE(first.entry, nullptr);
  EXPECT_EQ(first.entry->num_states, 3u);
  EXPECT_TRUE(first.entry->deterministic);

  const ModelCache::Result second = cache.get(kDtmcSource);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.entry.get(), first.entry.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ModelCache, TextuallyDifferentSourcesShareContentEntry) {
  ModelCache cache(4);
  const ModelCache::Result original = cache.get(kDtmcSource);
  // Comment churn: different bytes, identical compiled artifact. The second
  // request recompiles (its source index row is new) but converges on the
  // same cached entry.
  const ModelCache::Result commented =
      cache.get(std::string("// comment\n") + kDtmcSource);
  EXPECT_FALSE(commented.hit);
  EXPECT_EQ(commented.entry.get(), original.entry.get());
  EXPECT_EQ(cache.size(), 1u);
  // Both spellings now take the fast path.
  EXPECT_TRUE(cache.get(kDtmcSource).hit);
  EXPECT_TRUE(cache.get(std::string("// comment\n") + kDtmcSource).hit);
}

std::string chain_source(double p) {
  Dtmc chain = two_path_chain();
  chain.set_transitions(0, {Transition{1, p}, Transition{2, 1.0 - p}});
  return to_prism(chain);
}

TEST(ModelCache, LruEvictsColdestEntry) {
  ModelCache cache(2);
  cache.get(chain_source(0.1));
  cache.get(chain_source(0.2));
  cache.get(chain_source(0.1));  // touch: 0.2 is now coldest
  cache.get(chain_source(0.3));  // evicts 0.2
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.get(chain_source(0.1)).hit);
  EXPECT_FALSE(cache.get(chain_source(0.2)).hit);  // recompiles
}

TEST(ModelCache, EvictedEntryStaysAliveForHolders) {
  ModelCache cache(1);
  const std::shared_ptr<const CachedModel> held =
      cache.get(chain_source(0.1)).entry;
  cache.get(chain_source(0.2));  // evicts 0.1's entry from the cache
  EXPECT_EQ(cache.size(), 1u);
  // The in-flight holder still has a fully usable compiled model.
  EXPECT_EQ(held->model.num_states(), 3u);
  EXPECT_EQ(held->model.num_choices(), 3u);
  EXPECT_NE(held->content_hash, 0u);
}

TEST(ModelCache, CapacityZeroServesUncached) {
  ModelCache cache(0);
  EXPECT_FALSE(cache.get(kDtmcSource).hit);
  EXPECT_FALSE(cache.get(kDtmcSource).hit);
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_NE(cache.get(kDtmcSource).entry, nullptr);
}

TEST(ModelCache, MalformedSourceThrowsAndCachesNothing) {
  ModelCache cache(4);
  EXPECT_THROW(cache.get("dtmc\nmodule m\n  oops\n"), ParseError);
  EXPECT_EQ(cache.size(), 0u);
}

/// Runs `get(source)` on `threads` threads released together, so every
/// call arrives while the first compile of a large source is still running.
/// Returns how many calls threw ParseError; `entries` gets the rest.
int racing_gets(ModelCache& cache, const std::string& source, int threads,
                std::vector<std::shared_ptr<const CachedModel>>* entries) {
  std::atomic<int> ready{0};
  std::atomic<int> parse_errors{0};
  entries->assign(threads, nullptr);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      try {
        (*entries)[t] = cache.get(source).entry;
      } catch (const ParseError&) {
        parse_errors.fetch_add(1);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return parse_errors.load();
}

std::string large_grid_source() {
  GeneratorSpec spec;
  spec.family = GeneratorFamily::kGridRobot;
  spec.size = 40;
  return generate_prism(spec);
}

TEST(ModelCache, ConcurrentMissesCompileOnce) {
  ModelCache cache(4);
  constexpr int kThreads = 6;
  std::vector<std::shared_ptr<const CachedModel>> entries;
  EXPECT_EQ(racing_gets(cache, large_grid_source(), kThreads, &entries), 0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), kThreads - 1u);
  EXPECT_EQ(cache.size(), 1u);
  for (const auto& entry : entries) {
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry.get(), entries.front().get());
  }
}

TEST(ModelCache, ConcurrentMissesShareACompileError) {
  // Valid up to a trailing line the parser rejects only after the grid.
  ModelCache cache(4);
  constexpr int kThreads = 6;
  std::vector<std::shared_ptr<const CachedModel>> entries;
  EXPECT_EQ(racing_gets(cache, large_grid_source() + "\n@@@\n", kThreads,
                        &entries),
            kThreads);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.size(), 0u);
  // Nothing of the failed flight lingers: the next request compiles anew.
  EXPECT_FALSE(cache.get(kDtmcSource).hit);
}

// ---------------------------------------------------------------------------
// Request handling, socket-free via Server::handle_line.

TEST_F(ServeTest, PingEchoesIdAndTimes) {
  serve::Server server(serve::ServeOptions{});
  const Json response = Json::parse(server.handle_line(R"({"op":"ping","id":7})"));
  EXPECT_EQ(response.find("status")->as_string(), "ok");
  EXPECT_DOUBLE_EQ(response.find("id")->as_number(), 7.0);
  EXPECT_GE(response.find("time_ms")->as_number(), 0.0);
}

TEST_F(ServeTest, MalformedRequestsGetTypedErrors) {
  serve::Server server(serve::ServeOptions{});
  const auto kind_of = [&](const std::string& line) {
    const Json response = Json::parse(server.handle_line(line));
    EXPECT_EQ(response.find("status")->as_string(), "error");
    return response.find("kind")->as_string();
  };
  EXPECT_EQ(kind_of("not json at all"), "bad_request");
  EXPECT_EQ(kind_of(R"({"no_op":1})"), "bad_request");
  EXPECT_EQ(kind_of(R"({"op":"frobnicate"})"), "bad_request");
  EXPECT_EQ(kind_of(R"({"op":"check"})"), "bad_request");  // missing model
  EXPECT_EQ(kind_of(R"({"op":"check","model":"dtmc"})"), "bad_request");
  EXPECT_EQ(kind_of(R"({"op":"check","model":"x","formula":"y",)"
                    R"("timeout_ms":-5})"),
            "bad_request");
  // Parse failures in the payload are distinguished from frame errors.
  EXPECT_EQ(kind_of(check_request("dtmc\nmodule", "P=? [ F \"goal\" ]", 1)),
            "parse");
  EXPECT_EQ(kind_of(check_request(kDtmcSource, "P=? [ Q ]", 2)), "parse");
  // A state range the text cannot fill is a parse error, not an attempt
  // to allocate it (a saturated literal used to escape as length_error).
  for (const char* range : {"99999999999999999999", "999999999"}) {
    const std::string source = std::string("dtmc\nmodule m\n  s : [0..") +
                               range +
                               "] init 0;\n  [] s=0 -> 1 : (s'=0);\n"
                               "endmodule\nlabel \"goal\" = (s=0);\n";
    EXPECT_EQ(kind_of(check_request(source, "P=? [ F \"goal\" ]", 3)),
              "parse")
        << range;
  }
}

TEST_F(ServeTest, ChecksDtmcAndMdpWithCacheReuse) {
  serve::Server server(serve::ServeOptions{});

  const Json first =
      Json::parse(server.handle_line(check_request(kDtmcSource,
                                                   "P=? [ F \"goal\" ]", 1)));
  EXPECT_EQ(first.find("status")->as_string(), "ok");
  EXPECT_EQ(first.find("cache")->as_string(), "miss");
  EXPECT_DOUBLE_EQ(first.find("states")->as_number(), 3.0);
  EXPECT_NEAR(first.find("value")->as_number(), 0.5, 1e-9);

  // Same model, different formula: the compiled artifact is reused.
  const Json second =
      Json::parse(server.handle_line(check_request(kDtmcSource,
                                                   "P>=0.4 [ F \"goal\" ]",
                                                   2)));
  EXPECT_EQ(second.find("cache")->as_string(), "hit");
  EXPECT_EQ(second.find("verdict")->as_bool(), true);
  EXPECT_EQ(server.cache().hits(), 1u);

  const Json pmax =
      Json::parse(server.handle_line(check_request(kMdpSource,
                                                   "Pmax=? [ F \"goal\" ]",
                                                   3)));
  EXPECT_EQ(pmax.find("status")->as_string(), "ok");
  EXPECT_NEAR(pmax.find("value")->as_number(), 1.0, 1e-9);
  const Json pmin =
      Json::parse(server.handle_line(check_request(kMdpSource,
                                                   "Pmin=? [ F \"goal\" ]",
                                                   4)));
  EXPECT_NEAR(pmin.find("value")->as_number(), 0.5, 1e-9);
}

TEST_F(ServeTest, MetricsReportsServeSchema) {
  stats::set_enabled(true);
  serve::Server server(serve::ServeOptions{});
  server.handle_line(R"({"op":"ping"})");
  const Json response = Json::parse(server.handle_line(R"({"op":"metrics"})"));
  EXPECT_EQ(response.find("status")->as_string(), "ok");
  const Json* metrics = response.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const Json* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* key : {"serve.requests", "serve.errors", "serve.rejected",
                          "serve.deadline_exhausted", "serve.connections",
                          "serve.cache.hits", "serve.cache.misses",
                          "serve.cache.evictions"}) {
    EXPECT_NE(counters->find(key), nullptr) << key;
  }
  const Json* gauges = metrics->find("gauges");
  ASSERT_NE(gauges, nullptr);
  for (const char* key : {"serve.queue_depth", "serve.queue_peak",
                          "serve.latency_p50_ms", "serve.latency_p99_ms"}) {
    EXPECT_NE(gauges->find(key), nullptr) << key;
  }
  EXPECT_GE(counters->find("serve.requests")->as_number(), 1.0);
}

TEST_F(ServeTest, AdmissionControlRejectsWhenQueueFull) {
  serve::ServeOptions options;
  options.max_queue = 0;  // every check is one-past-full: deterministic
  serve::Server server(std::move(options));
  const Json response =
      Json::parse(server.handle_line(check_request(kDtmcSource,
                                                   "P=? [ F \"goal\" ]", 1)));
  EXPECT_EQ(response.find("status")->as_string(), "error");
  EXPECT_EQ(response.find("kind")->as_string(), "overloaded");
  // Pings are not admission-controlled.
  EXPECT_EQ(Json::parse(server.handle_line(R"({"op":"ping"})"))
                .find("status")
                ->as_string(),
            "ok");
}

TEST_F(ServeTest, DeadlineExhaustionReturnsCertifiedPartialBracket) {
  // Skew the budget clock one day forward: any request deadline appears
  // already passed at the first checkpoint, deterministically.
  fault::arm("budget.clock", "skew=86400000000000");
  serve::Server server(serve::ServeOptions{});
  const Json response = Json::parse(server.handle_line(
      check_request(kHardMdpSource, "Pmax=? [ F \"goal\" ]", 9, 1000)));
  fault::disarm_all();

  EXPECT_EQ(response.find("status")->as_string(), "partial");
  EXPECT_EQ(response.find("budget_status")->as_string(), "exhausted");
  ASSERT_NE(response.find("budget_stop"), nullptr);
  // The graceful-degradation payload: a certified bracket from the interval
  // engine's graph-analysis floor, sound even with zero sweeps.
  ASSERT_TRUE(response.find("lo")->is_number());
  ASSERT_TRUE(response.find("hi")->is_number());
  const double lo = response.find("lo")->as_number();
  const double hi = response.find("hi")->as_number();
  EXPECT_LE(0.0, lo);
  EXPECT_LE(lo, hi);
  EXPECT_LE(hi, 1.0);
  // Pmax truly is 1/3; the certified bracket must contain it.
  EXPECT_LE(lo, 1.0 / 3.0);
  EXPECT_GE(hi, 1.0 / 3.0);

  // An unlimited request on the same server still answers exactly.
  const Json exact = Json::parse(server.handle_line(
      check_request(kHardMdpSource, "Pmax=? [ F \"goal\" ]", 10)));
  EXPECT_EQ(exact.find("status")->as_string(), "ok");
  EXPECT_NEAR(exact.find("value")->as_number(), 1.0 / 3.0, 1e-6);
}

TEST_F(ServeTest, DeadlinePartialBracketsTheCheckedQuantity) {
  fault::arm("budget.clock", "skew=86400000000000");
  serve::Server server(serve::ServeOptions{});
  const Json bounded = Json::parse(server.handle_line(
      check_request(kSplitMdpSource, "P>=0.6 [ F \"goal\" ]", 12, 1000)));
  const Json globally = Json::parse(server.handle_line(
      check_request(kSplitMdpSource, "P=? [ G !\"goal\" ]", 13, 1000)));
  fault::disarm_all();

  // P>=b compares Pmin = 1/3, so the partial must bracket 1/3 — not the
  // graph-pinned Pmax = 1.
  EXPECT_EQ(bounded.find("status")->as_string(), "partial");
  ASSERT_TRUE(bounded.find("lo")->is_number());
  ASSERT_TRUE(bounded.find("hi")->is_number());
  EXPECT_LE(bounded.find("lo")->as_number(), 1.0 / 3.0);
  EXPECT_GE(bounded.find("hi")->as_number(), 1.0 / 3.0);

  // P=? [G ψ] on an MDP is the mirrored reachability 1 − Pmin(F ¬ψ) = 2/3,
  // and its partial carries that bracket too.
  EXPECT_EQ(globally.find("status")->as_string(), "partial");
  ASSERT_TRUE(globally.find("lo")->is_number());
  ASSERT_TRUE(globally.find("hi")->is_number());
  EXPECT_LE(globally.find("lo")->as_number(), 2.0 / 3.0);
  EXPECT_GE(globally.find("hi")->as_number(), 2.0 / 3.0);
}

TEST_F(ServeTest, ProgrammaticCancelDegradesToCertifiedPartialBracket) {
  // tml_check's cancel → partial-bracket → exit-3 contract, with the token
  // armed programmatically: the same relaxed store through
  // CancelToken::raw_flag() its SIGINT handler performs. The thin check()
  // entry point must throw BudgetExhausted(kCancelled) — tml_check maps any
  // BudgetExhausted to exit 3 — carrying the bracket its solve reached, and
  // the bracket entry point itself must degrade to a flagged certified
  // partial instead of throwing.
  const PrismModel parsed = parse_prism(kHardMdpSource);
  const CompiledModel model = compile(parsed.mdp);
  const StateFormulaPtr formula = parse_pctl("Pmax=? [ F \"goal\" ]");

  Budget cancelled;
  cancelled.cancel.raw_flag()->store(true, std::memory_order_relaxed);

  CheckOptions options;
  options.budget = cancelled;
  try {
    check(model, *formula, options);
    FAIL() << "a cancelled check() must throw BudgetExhausted";
  } catch (const BudgetExhausted& e) {
    EXPECT_EQ(e.stop(), BudgetStop::kCancelled);
    // The exception carries the bracket the check's own solve reached.
    ASSERT_TRUE(e.bracket().has_value());
    EXPECT_LE(e.bracket()->lo, 1.0 / 3.0);
    EXPECT_GE(e.bracket()->hi, 1.0 / 3.0);
  }

  StateSet stay(model.num_states(), true);
  const StateSet goal = satisfying_states(model, formula->path().right());
  SolverOptions solver;
  solver.budget = cancelled;
  const SolveResult partial =
      mdp_until_bracket(model, stay, goal, Objective::kMaximize, solver);
  EXPECT_EQ(partial.budget_status, BudgetStatus::kBudgetExhausted);
  EXPECT_EQ(partial.budget_stop, BudgetStop::kCancelled);
  const StateId init = model.initial_state();
  EXPECT_LE(partial.lo[init], 1.0 / 3.0);
  EXPECT_GE(partial.hi[init], 1.0 / 3.0);
}

TEST_F(ServeTest, DeadlineExhaustionOnDtmcCarriesNullBounds) {
  // The DTMC direct solve polls the budget from its first factorization
  // column, so an already-passed deadline stops it; its partial has no
  // bracket yet and carries explicit null bounds rather than an error.
  fault::arm("budget.clock", "skew=86400000000000");
  serve::Server server(serve::ServeOptions{});
  const Json response = Json::parse(server.handle_line(
      check_request(kDtmcSource, "P=? [ F \"goal\" ]", 11, 1000)));
  fault::disarm_all();
  EXPECT_EQ(response.find("status")->as_string(), "partial");
  EXPECT_EQ(response.find("budget_stop")->as_string(), "deadline");
  EXPECT_TRUE(response.find("lo")->is_null());
  EXPECT_TRUE(response.find("hi")->is_null());
}

TEST_F(ServeTest, DeadlineStopsAnUnboundedDtmcRewardSolve) {
  // `tml_gen queue 150`: a 22801-state mesh whose R=? [ F "full" ] is one
  // sparse direct solve. A real 5 ms deadline must stop its factorization
  // well before the solve would finish.
  GeneratorSpec spec;
  spec.family = GeneratorFamily::kQueueMesh;
  spec.size = 150;
  const std::string model = generate_prism(spec);
  serve::Server server(serve::ServeOptions{});
  using Clock = std::chrono::steady_clock;
  const auto timed = [&](const char* formula, int id,
                         std::int64_t timeout_ms) {
    const Clock::time_point start = Clock::now();
    Json response = Json::parse(
        server.handle_line(check_request(model, formula, id, timeout_ms)));
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    return std::pair<Json, double>(std::move(response), ms);
  };
  // A one-step query fills the cache; then the same R request is timed in
  // full and under the deadline, both on cache hits.
  const Json warm = timed("P=? [ X \"full\" ]", 1, 0).first;
  ASSERT_EQ(warm.find("status")->as_string(), "ok");
  const char* reward = "R=? [ F \"full\" ]";
  const auto [full, full_ms] = timed(reward, 2, 0);
  ASSERT_EQ(full.find("status")->as_string(), "ok");
  EXPECT_GT(full.find("value")->as_number(), 0.0);
  constexpr std::int64_t kDeadlineMs = 5;
  const auto [stopped, stopped_ms] = timed(reward, 3, kDeadlineMs);
  EXPECT_EQ(stopped.find("status")->as_string(), "partial");
  EXPECT_EQ(stopped.find("budget_stop")->as_string(), "deadline");
  EXPECT_TRUE(stopped.find("lo")->is_null());
  EXPECT_LT(stopped_ms, full_ms / 2)
      << "deadline " << kDeadlineMs << " ms; full solve " << full_ms << " ms";
}

TEST_F(ServeTest, ConcurrentRequestsMultiplexOntoThePool) {
  serve::Server server(serve::ServeOptions{});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string line = t % 2 == 0
            ? check_request(kDtmcSource, "P=? [ F \"goal\" ]", t * 100 + i)
            : check_request(kMdpSource, "Pmax=? [ F \"goal\" ]", t * 100 + i);
        const Json response = Json::parse(server.handle_line(line));
        if (response.find("status")->as_string() == "ok") {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  EXPECT_EQ(server.in_flight(), 0u);
  // Two distinct models, many requests: the cache held exactly two entries.
  EXPECT_EQ(server.cache().size(), 2u);
  EXPECT_EQ(server.cache().misses(), 2u);
}

// ---------------------------------------------------------------------------
// Real sockets.

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << strerror(errno);
  return fd;
}

void send_line(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  ASSERT_EQ(::send(fd, framed.data(), framed.size(), 0),
            static_cast<ssize_t>(framed.size()));
}

std::string recv_line(int fd) {
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return line;
    line += c;
  }
  ADD_FAILURE() << "connection closed before a full line arrived";
  return line;
}

TEST_F(ServeTest, TcpLoopbackRoundTrip) {
  serve::Server server(serve::ServeOptions{});  // port 0: ephemeral
  server.start();
  ASSERT_NE(server.port(), 0);

  const int fd = connect_loopback(server.port());
  send_line(fd, R"({"op":"ping","id":1})");
  EXPECT_EQ(Json::parse(recv_line(fd)).find("status")->as_string(), "ok");

  send_line(fd, check_request(kDtmcSource, "P=? [ F \"goal\" ]", 2));
  const Json check = Json::parse(recv_line(fd));
  EXPECT_EQ(check.find("status")->as_string(), "ok");
  EXPECT_NEAR(check.find("value")->as_number(), 0.5, 1e-9);

  // Malformed input answers on the same connection instead of dropping it.
  send_line(fd, "garbage");
  EXPECT_EQ(Json::parse(recv_line(fd)).find("kind")->as_string(),
            "bad_request");
  send_line(fd, R"({"op":"ping","id":3})");
  EXPECT_DOUBLE_EQ(Json::parse(recv_line(fd)).find("id")->as_number(), 3.0);

  ::close(fd);
  server.stop();
}

TEST_F(ServeTest, TcpSecondConnectionAndStopUnblocksClients) {
  serve::Server server(serve::ServeOptions{});
  server.start();
  const int a = connect_loopback(server.port());
  const int b = connect_loopback(server.port());
  send_line(a, R"({"op":"ping","id":"a"})");
  send_line(b, R"({"op":"ping","id":"b"})");
  EXPECT_EQ(Json::parse(recv_line(a)).find("id")->as_string(), "a");
  EXPECT_EQ(Json::parse(recv_line(b)).find("id")->as_string(), "b");
  server.stop();  // must shut both connections down and join cleanly
  char c;
  EXPECT_LE(::recv(a, &c, 1, 0), 0);  // EOF after stop
  ::close(a);
  ::close(b);
}

TEST_F(ServeTest, UnixSocketRoundTrip) {
  serve::ServeOptions options;
  options.unix_path = testing::TempDir() + "tml_serve_test.sock";
  serve::Server server(std::move(options));
  server.start();

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = testing::TempDir() + "tml_serve_test.sock";
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << strerror(errno);

  send_line(fd, check_request(kDtmcSource, "P=? [ F \"goal\" ]", 1));
  EXPECT_NEAR(Json::parse(recv_line(fd)).find("value")->as_number(), 0.5,
              1e-9);
  ::close(fd);
  server.stop();
  // The socket file is removed on shutdown.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

// ---------------------------------------------------------------------------
// The daemon binary, end to end.

#ifdef TML_SERVE_BIN
TEST_F(ServeTest, DaemonBinaryServesAndShutsDownGracefully) {
  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execl(TML_SERVE_BIN, "tml_serve", "--port", "0", "--cache", "8",
            static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(out_pipe[1]);

  // First stdout line announces the bound address.
  std::string banner;
  char c = 0;
  while (::read(out_pipe[0], &c, 1) == 1 && c != '\n') banner += c;
  ASSERT_NE(banner.find("listening on 127.0.0.1:"), std::string::npos)
      << banner;
  const std::uint16_t port = static_cast<std::uint16_t>(
      std::stoi(banner.substr(banner.rfind(':') + 1)));
  ASSERT_NE(port, 0);

  const int fd = connect_loopback(port);
  send_line(fd, R"({"op":"ping","id":1})");
  EXPECT_EQ(Json::parse(recv_line(fd)).find("status")->as_string(), "ok");
  send_line(fd, check_request(kDtmcSource, "P=? [ F \"goal\" ]", 2));
  const Json cold = Json::parse(recv_line(fd));
  EXPECT_EQ(cold.find("cache")->as_string(), "miss");
  send_line(fd, check_request(kDtmcSource, "P=? [ F \"goal\" ]", 3));
  const Json warm = Json::parse(recv_line(fd));
  EXPECT_EQ(warm.find("cache")->as_string(), "hit");
  EXPECT_NEAR(warm.find("value")->as_number(), 0.5, 1e-9);
  ::close(fd);

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::close(out_pipe[0]);
}
#endif  // TML_SERVE_BIN

// ---------------------------------------------------------------------------
// tml_check's hardened deadline/SIGINT path: an exhausted budget exits 3
// and prints the certified partial bracket first.

#ifdef TML_CHECK_BIN
TEST_F(ServeTest, TmlCheckDeadlineExitsThreeWithPartialBracket) {
  // TML_FAULT is parsed at the child's static init, so the skewed clock is
  // live before main installs the budget: the deadline fires at the first
  // checkpoint, deterministically, with no sleeping in the test.
  const std::string model_path = testing::TempDir() + "tml_serve_hard.prism";
  {
    FILE* f = std::fopen(model_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(kHardMdpSource, f);
    std::fclose(f);
  }
  const std::string command =
      std::string("TML_FAULT=budget.clock:skew=86400e9 ") + TML_CHECK_BIN +
      " " + model_path + " 'Pmax=? [ F \"goal\" ]' --timeout-ms 1000 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char chunk[256];
  while (std::fgets(chunk, sizeof(chunk), pipe) != nullptr) output += chunk;
  const int status = ::pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status)) << output;
  EXPECT_EQ(WEXITSTATUS(status), 3) << output;
  EXPECT_NE(output.find("partial:"), std::string::npos) << output;
}
#endif  // TML_CHECK_BIN

}  // namespace
}  // namespace tml
