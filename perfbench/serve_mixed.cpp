// serve-mixed: the checking service under a closed loop of two clients.
//
// An in-process serve::Server listens on a Unix socket; two threads, each
// with its own serve::Client, take the next request from one shared op
// list and wait for its reply before sending the next. Requests check
// small grid models (W=12, hazard 0.05): three of every four go to a hot
// working set of 8 models x 3 formulas that stays in the server's model
// cache, and every fourth names a fresh model, never sent before — a cache
// miss that pays parse + compile. Models are fixed (hot: grid seeds 1-8;
// fresh: the following seeds, in order), so every run sends the same
// multiset of requests and meets the same failures; the workload seed
// sets the request order.
//
// Traced, a fresh server replays the same op list; after each round trip
// the client thread replays the server's stages on a shadow pipeline of
// its own (JSON parse and dump, a ModelCache of the same capacity fed the
// same sequence, check()) under the benchmark's spans. The server's own
// "time_ms" reply field is its handle time, which splits the round trip
// into server and transport.

#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <unordered_set>

#include "common.hpp"
#include "src/casestudies/generator.hpp"
#include "src/checker/check.hpp"
#include "src/common/rng.hpp"
#include "src/logic/parser.hpp"
#include "src/serve/cache.hpp"
#include "src/serve/client.hpp"
#include "src/serve/server.hpp"

namespace perfbench {

namespace {

using namespace tml;

constexpr std::size_t kClients = 2;
constexpr std::size_t kHotModels = 8;
constexpr std::size_t kCacheCapacity = 32;
constexpr std::size_t kGridSide = 12;
constexpr double kHazard = 0.05;
const char* const kFormulas[] = {
    "Pmax=? [ F \"goal\" ]",
    "Pmin=? [ F \"hazard\" ]",
    "Pmax=? [ F<=40 \"goal\" ]",
};
constexpr std::size_t kNumFormulas = 3;

struct Op {
  bool fresh;
  std::size_t model;    // index into hot or fresh
  std::size_t formula;  // index into kFormulas
};

struct Inputs {
  std::vector<std::string> hot;
  std::vector<std::string> fresh;
  std::vector<std::uint64_t> hot_seeds, fresh_seeds;
  std::vector<Op> ops;
  std::uint64_t digest = 0;

  const std::string& model(const Op& op) const {
    return op.fresh ? fresh[op.model] : hot[op.model];
  }
};

std::size_t ops_for(double seconds) {
  // Multiple of 4 so the 3:1 hot/fresh pattern closes.
  const double n = std::max(1.0, std::round(seconds * 250.0)) * 4.0;
  return static_cast<std::size_t>(n);
}

/// Runs body(i) for i in [0, n) on kClients threads (set-up and answer
/// checking only; never inside the timed region).
template <typename Body>
void parallel(std::size_t n, const Body& body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) body(i);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

std::string grid_text(std::uint64_t model_seed) {
  GeneratorSpec spec;
  spec.family = GeneratorFamily::kGridRobot;
  spec.size = kGridSide;
  spec.seed = model_seed;
  spec.hazard_density = kHazard;
  return generate_prism(spec);
}

Inputs make_inputs(std::uint64_t seed, double seconds) {
  Inputs in;
  const std::size_t n = ops_for(seconds);
  for (std::uint64_t s = 1; s <= kHotModels; ++s) {
    in.hot_seeds.push_back(s);
    in.hot.push_back(grid_text(s));
  }
  // Fresh models take the next grid seeds in order. Two seeds can place
  // the hazards identically; a fresh model must never have been sent
  // before, so a repeated text is replaced by the next unused seed.
  in.fresh_seeds.resize(n / 4);
  in.fresh.resize(n / 4);
  std::uint64_t next_seed = kHotModels + 1;
  for (std::uint64_t& s : in.fresh_seeds) s = next_seed++;
  parallel(in.fresh.size(), [&](std::size_t i) {
    in.fresh[i] = grid_text(in.fresh_seeds[i]);
  });
  std::unordered_set<std::uint64_t> texts;
  for (const std::string& text : in.hot) texts.insert(fnv1a(text));
  for (std::size_t i = 0; i < in.fresh.size(); ++i) {
    while (!texts.insert(fnv1a(in.fresh[i])).second) {
      in.fresh_seeds[i] = next_seed++;
      in.fresh[i] = grid_text(in.fresh_seeds[i]);
    }
  }

  // The workload seed orders the hot (model, formula) pairs and the fresh
  // models; fresh model j is always asked formula j mod 3, so every seed
  // checks the same multiset of requests.
  Rng rng(seed);
  auto shuffle = [&rng](std::vector<std::size_t>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.index(i)]);
    }
  };
  std::vector<std::size_t> pairs(kHotModels * kNumFormulas);
  std::vector<std::size_t> fresh_order(in.fresh.size());
  shuffle(pairs);
  shuffle(fresh_order);
  std::size_t hot_next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 4 == 3) {
      const std::size_t f = fresh_order[i / 4];
      in.ops.push_back(Op{true, f, f % kNumFormulas});
    } else {
      const std::size_t p = pairs[hot_next++ % pairs.size()];
      in.ops.push_back(Op{false, p / kNumFormulas, p % kNumFormulas});
    }
  }
  // Each model text is hashed once; the op list folds in those hashes.
  std::vector<std::string> hot_hash, fresh_hash;
  for (const std::string& text : in.hot) hot_hash.push_back(hex64(fnv1a(text)));
  for (const std::string& text : in.fresh) {
    fresh_hash.push_back(hex64(fnv1a(text)));
  }
  std::uint64_t h = fnv1a("serve-mixed");
  for (const Op& op : in.ops) {
    h = fnv1a(op.fresh ? fresh_hash[op.model] : hot_hash[op.model], h);
    h = fnv1a(kFormulas[op.formula], h);
  }
  in.digest = h;
  return in;
}

std::string socket_path() {
  return ".perfbench-" + std::to_string(::getpid()) + ".sock";
}

/// A started server with the hot set already cached.
std::unique_ptr<serve::Server> start_server(const Inputs& in) {
  serve::ServeOptions options;
  options.unix_path = socket_path();
  options.cache_capacity = kCacheCapacity;
  auto server = std::make_unique<serve::Server>(options);
  server->start();
  serve::ClientOptions client_options;
  client_options.unix_path = options.unix_path;
  serve::Client client(client_options);
  for (const std::string& model : in.hot) client.check(model, kFormulas[0]);
  return server;
}

void stop_server(std::unique_ptr<serve::Server>& server) {
  if (server) server->stop();
  server.reset();
  ::unlink(socket_path().c_str());
}

struct Reply {
  bool ok = false;
  double value = std::nan("");
  std::string cache;
  double handle_ms = 0.0;
  std::string error;
};

Reply read_reply(const Json& response) {
  Reply reply;
  const Json* status = response.find("status");
  if (status == nullptr || !status->is_string() ||
      status->as_string() != "ok") {
    reply.error = "status " + (status ? status->dump() : std::string("?"));
    return reply;
  }
  const Json* value = response.find("value");
  const Json* cache = response.find("cache");
  const Json* time = response.find("time_ms");
  if (value == nullptr || !value->is_number()) {
    reply.error = "no value";
    return reply;
  }
  reply.ok = true;
  reply.value = value->as_number();
  if (cache != nullptr && cache->is_string()) reply.cache = cache->as_string();
  if (time != nullptr && time->is_number()) reply.handle_ms = time->as_number();
  return reply;
}

/// Per-client accumulators of the traced pass.
struct TraceAcc {
  Layers layers;
  std::size_t ops = 0, hits = 0, misses = 0, served_hits = 0;
  double other_ms = 0.0, transport_ms = 0.0;
  std::uint64_t attempts = 0;
};

/// The server's stages replayed on the client thread, under spans (for
/// "ok" replies only, so the shadow check() always succeeds).
void shadow_stages(const std::string& model, const char* formula,
                   const Json& response, ModelCache& cache,
                   TraceAcc& acc, double handle_ms) {
  Layers& layers = acc.layers;
  Json::Object request;
  request["op"] = "check";
  request["model"] = model;
  request["formula"] = formula;
  request["id"] = "0000000000000000";
  std::string line;
  {
    Span span(layers, "json.dump_ms");
    line = Json(std::move(request)).dump();
  }
  const Clock::time_point t1 = Clock::now();
  {
    Span span(layers, "json.parse_ms");
    (void)Json::parse(line);
  }
  const double request_parse_ms = ms_since(t1);
  const Clock::time_point t2 = Clock::now();
  const ModelCache::Result cached = cache.get(model);
  const double cache_ms = ms_since(t2);
  layers.add_ms(cached.hit ? "cache.hit_ms" : "cache.miss_ms", cache_ms);
  ++(cached.hit ? acc.hits : acc.misses);
  const Clock::time_point t3 = Clock::now();
  {
    CheckOptions options;
    options.threads = 1;
    const StateFormulaPtr f = parse_pctl(formula);
    (void)check(cached.entry->model, *f, options);
  }
  const double check_ms = ms_since(t3);
  layers.add_ms("server.check_ms", check_ms);
  std::string reply_line;
  {
    Span span(layers, "json.dump_ms");
    reply_line = response.dump();
  }
  {
    Span span(layers, "json.parse_ms");
    (void)Json::parse(reply_line);
  }
  acc.other_ms += handle_ms - request_parse_ms - cache_ms - check_ms;
}

/// Runs the op list through `kClients` closed-loop clients. Fills
/// replies[i] and op_ms[i] for every op i.
double run_clients(const Inputs& in, std::vector<Reply>& replies,
                   std::vector<double>& op_ms,
                   std::vector<TraceAcc>* traced) {
  replies.assign(in.ops.size(), Reply{});
  op_ms.assign(in.ops.size(), 0.0);
  std::atomic<std::size_t> next{0};
  ModelCache shadow(kCacheCapacity);
  if (traced != nullptr) {
    traced->assign(kClients, TraceAcc{});
    for (const std::string& model : in.hot) shadow.get(model);
  }
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      serve::ClientOptions options;
      options.unix_path = socket_path();
      serve::Client client(options);
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= in.ops.size()) break;
        const Op& op = in.ops[i];
        const std::string& model = in.model(op);
        const std::uint64_t attempts_before = client.attempts_made();
        const Clock::time_point op_start = Clock::now();
        Json response;
        std::string error;
        try {
          response = client.check(model, kFormulas[op.formula]);
        } catch (const std::exception& e) {
          error = e.what();
        }
        op_ms[i] = ms_since(op_start);
        if (error.empty()) {
          replies[i] = read_reply(response);
        } else {
          replies[i].error = error;
        }
        if (traced == nullptr) continue;
        TraceAcc& acc = (*traced)[t];
        ++acc.ops;
        acc.attempts += client.attempts_made() - attempts_before;
        acc.layers.add_ms("client.round_trip_ms", op_ms[i]);
        if (!replies[i].ok) continue;
        acc.served_hits += replies[i].cache == "hit" ? 1 : 0;
        acc.layers.add_ms("server.handle_line_ms", replies[i].handle_ms);
        acc.transport_ms += op_ms[i] - replies[i].handle_ms;
        shadow_stages(model, kFormulas[op.formula], response, shadow, acc,
                      replies[i].handle_ms);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return ms_since(start) / 1000.0;
}

/// The answer check of every reply: a reply that is not "ok" is a failed
/// op; an "ok" value must equal an in-process check() of the same model and
/// formula, computed once per distinct pair.
void check_replies(const Inputs& in, const std::vector<Reply>& replies,
                   WorkloadResult& r) {
  using Key = std::pair<const std::string*, std::size_t>;
  std::map<Key, std::size_t> slot;
  std::vector<Key> keys;
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const Key key{&in.model(in.ops[i]), in.ops[i].formula};
    if (replies[i].ok && slot.emplace(key, keys.size()).second) {
      keys.push_back(key);
    }
  }
  std::vector<std::optional<double>> refs(keys.size());
  std::vector<std::string> ref_errors(keys.size());
  parallel(keys.size(), [&](std::size_t k) {
    try {
      CheckOptions options;
      options.threads = 1;
      const CompiledModel model = compile(parse_prism(*keys[k].first).mdp);
      refs[k] = check(model, *parse_pctl(kFormulas[keys[k].second]), options)
                    .value;
    } catch (const std::exception& e) {
      ref_errors[k] = e.what();
    }
  });
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    const std::uint64_t model_seed =
        op.fresh ? in.fresh_seeds[op.model] : in.hot_seeds[op.model];
    const std::string what = std::string(op.fresh ? "fresh" : "hot") +
                             " grid seed " + std::to_string(model_seed) +
                             " " + kFormulas[op.formula];
    const Reply& reply = replies[i];
    if (!reply.ok) {
      r.fail(what + ": " + reply.error);
      continue;
    }
    const std::size_t k = slot.at(Key{&in.model(op), op.formula});
    if (!refs[k]) {
      r.fail(what + ": served a value where check() failed: " +
             ref_errors[k]);
      continue;
    }
    const double ref = *refs[k];
    if (!(std::abs(reply.value - ref) <= 1e-9 * std::max(1.0, std::abs(ref)))) {
      r.fail(what + ": served " + std::to_string(reply.value) +
             ", check() " + std::to_string(ref));
      continue;
    }
    const char* expected = op.fresh ? "miss" : "hit";
    if (reply.cache != expected) {
      // The workload's own design broke (a hot model evicted), not the
      // program.
      r.correct = false;
      if (mismatches++ == 0) {
        r.context["cache_mismatch"] = what + " (op " + std::to_string(i) +
                                      "): cache " + reply.cache +
                                      ", expected " + expected;
      }
    }
  }
  if (mismatches > 0) {
    r.context["cache_mismatches"] = std::to_string(mismatches);
  }
}

}  // namespace

std::uint64_t serve_mixed_digest(std::uint64_t seed, double seconds) {
  return make_inputs(seed, seconds).digest;
}

WorkloadResult run_serve_mixed(const Args& args) {
  WorkloadResult r;
  Inputs inputs;
  std::unique_ptr<serve::Server> server;
  for (int rep = 0; rep < 3; ++rep) {
    stop_server(server);
    const std::uint64_t previous = inputs.digest;
    inputs = Inputs{};
    // Hand the previous set-up's freed text back to the OS, so the peak
    // resident set reflects one set-up's inputs, not how the allocator's
    // per-thread arenas happened to reuse the last one's.
    malloc_trim(0);
    const Clock::time_point start = Clock::now();
    inputs = make_inputs(args.seed, args.seconds);
    server = start_server(inputs);
    r.setup_s.push_back(ms_since(start) / 1000.0);
    if (rep > 0 && inputs.digest != previous) {
      r.correct = false;
      r.failures.push_back("set-up is not deterministic");
    }
  }
  r.digest = inputs.digest;

  std::vector<Reply> replies;
  r.timed_s = run_clients(inputs, replies, r.op_ms, nullptr);
  const std::uint64_t misses = server->cache().misses();
  stop_server(server);
  r.attempted = inputs.ops.size();
  check_replies(inputs, replies, r);
  const std::size_t fresh = inputs.ops.size() / 4;
  r.context["ops"] = std::to_string(inputs.ops.size());
  r.context["clients"] = std::to_string(kClients);
  r.context["cache_capacity"] = std::to_string(kCacheCapacity);
  r.context["fresh_ops"] = std::to_string(fresh);
  r.context["server_cache_misses"] = std::to_string(misses);

  if (!args.trace) return r;

  server = start_server(inputs);
  std::vector<Reply> traced_replies;
  std::vector<double> traced_ms;
  std::vector<TraceAcc> accs;
  const double traced_s = run_clients(inputs, traced_replies, traced_ms, &accs);
  stop_server(server);
  WorkloadResult traced_checks;
  check_replies(inputs, traced_replies, traced_checks);
  if (traced_checks.failed != r.failed || !traced_checks.correct) {
    r.correct = false;
    r.failures.push_back("traced pass failed " +
                         std::to_string(traced_checks.failed) + " ops");
  }

  Layers total;
  TraceAcc sum;
  for (const TraceAcc& acc : accs) {
    for (const char* name :
         {"json.parse_ms", "json.dump_ms", "cache.hit_ms", "cache.miss_ms",
          "server.check_ms", "server.handle_line_ms",
          "client.round_trip_ms"}) {
      total.add_ms(name, acc.layers.ms(name));
    }
    sum.ops += acc.ops;
    sum.hits += acc.hits;
    sum.misses += acc.misses;
    sum.served_hits += acc.served_hits;
    sum.other_ms += acc.other_ms;
    sum.transport_ms += acc.transport_ms;
    sum.attempts += acc.attempts;
  }
  const double ops = static_cast<double>(sum.ops);
  auto& m = r.layer_metrics;
  put_layer(m, "json.parse_ms", total.ms("json.parse_ms") / ops);
  put_layer(m, "json.dump_ms", total.ms("json.dump_ms") / ops);
  put_layer(m, "cache.hit_ms",
            total.ms("cache.hit_ms") / std::max<double>(1.0, sum.hits));
  put_layer(m, "cache.miss_ms",
            total.ms("cache.miss_ms") / std::max<double>(1.0, sum.misses));
  put_layer(m, "cache.hit_share", static_cast<double>(sum.served_hits) / ops);
  put_layer(m, "server.check_ms", total.ms("server.check_ms") / ops);
  put_layer(m, "server.handle_line_ms",
            total.ms("server.handle_line_ms") / ops);
  put_layer(m, "server.other_ms", sum.other_ms / ops);
  put_layer(m, "client.round_trip_ms", total.ms("client.round_trip_ms") / ops);
  put_layer(m, "client.transport_ms", sum.transport_ms / ops);
  put_layer(m, "client.attempts_per_op",
            static_cast<double>(sum.attempts) / ops);
  put_layer(m, "trace.overhead_share", traced_s / r.timed_s - 1.0);
  return r;
}

}  // namespace perfbench
