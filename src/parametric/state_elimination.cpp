#include "src/parametric/state_elimination.hpp"

#include <algorithm>
#include <deque>
#include <queue>
#include <utility>

#include "src/common/fault.hpp"
#include "src/common/stats.hpp"
#include "src/mdp/compiled.hpp"
#include "src/rational/subterm_pool.hpp"

namespace tml {

namespace {

/// Folds a run's local EliminationStats into the caller-provided struct (if
/// any) and into the global registry. The local struct is always populated so
/// the registry metrics don't depend on whether the caller asked for stats.
void record_elimination(const EliminationStats& local, EliminationStats* out) {
  if (out != nullptr) {
    out->states_eliminated += local.states_eliminated;
    out->max_degree_seen =
        std::max(out->max_degree_seen, local.max_degree_seen);
    out->max_terms_seen = std::max(out->max_terms_seen, local.max_terms_seen);
    out->fill_in_edges += local.fill_in_edges;
    out->scc_blocks += local.scc_blocks;
    out->pool_hits += local.pool_hits;
    out->pool_misses += local.pool_misses;
  }
  static stats::Counter& c_runs = stats::counter("parametric.eliminations");
  static stats::Counter& c_states =
      stats::counter("parametric.states_eliminated");
  static stats::Counter& c_fill = stats::counter("parametric.fill_in_edges");
  static stats::Counter& c_hits = stats::counter("parametric.pool_hits");
  static stats::Counter& c_misses = stats::counter("parametric.pool_misses");
  static stats::Gauge& g_degree = stats::gauge("parametric.peak_degree");
  static stats::Gauge& g_terms = stats::gauge("parametric.peak_terms");
  static stats::Gauge& g_blocks = stats::gauge("parametric.scc_blocks");
  c_runs.bump();
  c_states.add(local.states_eliminated);
  c_fill.add(local.fill_in_edges);
  c_hits.add(local.pool_hits);
  c_misses.add(local.pool_misses);
  g_degree.set_max(static_cast<double>(local.max_degree_seen));
  g_terms.set_max(static_cast<double>(local.max_terms_seen));
  g_blocks.set_max(static_cast<double>(local.scc_blocks));
}

/// Working form of the chain during elimination: per-state sorted edge rows
/// of rational functions plus the per-state accumulated value term r(s).
/// Rows are parallel sorted vectors (binary-searched), not std::map — the
/// access pattern is scan-heavy with rare point inserts, and the vectors
/// keep the functions contiguous.
struct Workspace {
  struct Row {
    std::vector<StateId> tgt;          // sorted ascending
    std::vector<RationalFunction> fn;  // parallel to tgt
  };

  std::vector<Row> rows;
  std::vector<RationalFunction> value;  // r(s)
  std::vector<char> alive;
  std::vector<std::vector<StateId>> preds;  // sorted, deduplicated
  std::size_t fill_in = 0;  // new (u, t) pairs created by folding

  explicit Workspace(std::size_t n)
      : rows(n), value(n), alive(n, 0), preds(n) {}

  static std::size_t lower_index(const std::vector<StateId>& v, StateId t) {
    return static_cast<std::size_t>(
        std::lower_bound(v.begin(), v.end(), t) - v.begin());
  }

  RationalFunction* find(StateId u, StateId t) {
    Row& row = rows[u];
    const std::size_t i = lower_index(row.tgt, t);
    if (i < row.tgt.size() && row.tgt[i] == t) return &row.fn[i];
    return nullptr;
  }

  void add_edge(StateId u, StateId t, RationalFunction p) {
    Row& row = rows[u];
    const std::size_t i = lower_index(row.tgt, t);
    if (i < row.tgt.size() && row.tgt[i] == t) {
      row.fn[i] += p;
      return;
    }
    row.tgt.insert(row.tgt.begin() + static_cast<std::ptrdiff_t>(i), t);
    row.fn.insert(row.fn.begin() + static_cast<std::ptrdiff_t>(i),
                  std::move(p));
    std::vector<StateId>& ps = preds[t];
    const std::size_t j = lower_index(ps, u);
    if (j == ps.size() || ps[j] != u) {
      ps.insert(ps.begin() + static_cast<std::ptrdiff_t>(j), u);
    }
    ++fill_in;
  }

  void remove_edge(StateId u, StateId t) {
    Row& row = rows[u];
    const std::size_t i = lower_index(row.tgt, t);
    if (i < row.tgt.size() && row.tgt[i] == t) {
      row.tgt.erase(row.tgt.begin() + static_cast<std::ptrdiff_t>(i));
      row.fn.erase(row.fn.begin() + static_cast<std::ptrdiff_t>(i));
    }
    std::vector<StateId>& ps = preds[t];
    const std::size_t j = lower_index(ps, u);
    if (j < ps.size() && ps[j] == u) {
      ps.erase(ps.begin() + static_cast<std::ptrdiff_t>(j));
    }
  }

  bool has_edge(StateId u, StateId t) const {
    const Row& row = rows[u];
    return std::binary_search(row.tgt.begin(), row.tgt.end(), t);
  }

  std::size_t out_degree(StateId s) const {
    return rows[s].tgt.size() - (has_edge(s, s) ? 1 : 0);
  }

  std::size_t in_degree(StateId s) const {
    return preds[s].size() -
           (std::binary_search(preds[s].begin(), preds[s].end(), s) ? 1 : 0);
  }
};

/// Support-graph forward reachability from `from` over the parametric rows.
StateSet support_forward_reachable(const ParametricDtmc& chain, StateId from) {
  StateSet reached(chain.num_states(), false);
  std::deque<StateId> queue{from};
  reached[from] = true;
  while (!queue.empty()) {
    const StateId s = queue.front();
    queue.pop_front();
    for (const auto& [t, p] : chain.row(s)) {
      if (!reached[t]) {
        reached[t] = true;
        queue.push_back(t);
      }
    }
  }
  return reached;
}

/// Support-graph backward closure of `seeds`.
StateSet support_backward_reachable(const ParametricDtmc& chain,
                                    const StateSet& seeds) {
  std::vector<std::vector<StateId>> preds(chain.num_states());
  for (StateId s = 0; s < chain.num_states(); ++s) {
    for (const auto& [t, p] : chain.row(s)) preds[t].push_back(s);
  }
  StateSet reached = seeds;
  std::deque<StateId> queue;
  for (StateId s = 0; s < seeds.size(); ++s) {
    if (seeds[s]) queue.push_back(s);
  }
  while (!queue.empty()) {
    const StateId s = queue.front();
    queue.pop_front();
    for (StateId p : preds[s]) {
      if (!reached[p]) {
        reached[p] = true;
        queue.push_back(p);
      }
    }
  }
  return reached;
}

/// Complexity is tracked on the factored representation — degree and factor
/// term mass are both O(#factors); touching numerator()/denominator() here
/// would force facade expansion in the hot loop.
void track_complexity(EliminationStats* stats, const RationalFunction& f) {
  if (stats == nullptr) return;
  stats->max_degree_seen = std::max(stats->max_degree_seen, f.degree());
  stats->max_terms_seen = std::max(stats->max_terms_seen, f.factored_terms());
}

/// Total factor count over a state's row functions and value — the symbolic
/// weight term of the elimination penalty.
std::uint64_t symbolic_mass(const Workspace& ws, StateId s) {
  std::uint64_t mass = ws.value[s].num_factors();
  for (const RationalFunction& fn : ws.rows[s].fn) mass += fn.num_factors();
  return mass;
}

/// Priority of eliminating `s` next (lower is better): the potential new
/// edges |preds|·|succs| (self-loops excluded) weighted by the symbolic row
/// mass, so structurally cheap pivots with huge functions are deferred, with
/// the mass alone as a tie-break among zero-fill states.
std::uint64_t penalty_of(const Workspace& ws, StateId s) {
  const std::uint64_t fill = static_cast<std::uint64_t>(ws.in_degree(s)) *
                             static_cast<std::uint64_t>(ws.out_degree(s));
  const std::uint64_t mass = symbolic_mass(ws, s);
  return fill * (1 + mass) + mass;
}

/// Eliminates one alive state: detaches the self-loop, rescales the row by
/// 1 / (1 − loop), folds the state into every predecessor and retires it.
void eliminate_state(Workspace& ws, StateId s, EliminationStats* stats) {
  Workspace::Row& row = ws.rows[s];

  RationalFunction loop;
  if (RationalFunction* self = ws.find(s, s)) {
    loop = *self;
    ws.remove_edge(s, s);
  }
  const RationalFunction denom = one_minus(loop);
  TML_REQUIRE(!denom.is_zero() && !fault::fire("parametric.pivot"),
              "state elimination: state " << s
                  << " is absorbing (1 - selfloop == 0); preprocessing "
                     "should have removed it");
  const RationalFunction inv = denom.inverse();
  for (RationalFunction& p : row.fn) {
    p *= inv;
    track_complexity(stats, p);
  }
  ws.value[s] *= inv;
  track_complexity(stats, ws.value[s]);

  // Fold s into each predecessor.
  const std::vector<StateId> preds = ws.preds[s];
  for (StateId u : preds) {
    if (u == s || !ws.alive[u]) continue;
    RationalFunction* weight = ws.find(u, s);
    if (weight == nullptr) continue;
    const RationalFunction w = *weight;
    ws.remove_edge(u, s);
    ws.value[u] += w * ws.value[s];
    track_complexity(stats, ws.value[u]);
    for (std::size_t i = 0; i < row.tgt.size(); ++i) {
      ws.add_edge(u, row.tgt[i], w * row.fn[i]);
    }
  }

  // Retire s.
  for (StateId t : row.tgt) {
    std::vector<StateId>& ps = ws.preds[t];
    const std::size_t j = Workspace::lower_index(ps, s);
    if (j < ps.size() && ps[j] == s) {
      ps.erase(ps.begin() + static_cast<std::ptrdiff_t>(j));
    }
  }
  row.tgt.clear();
  row.fn.clear();
  ws.preds[s].clear();
  ws.alive[s] = 0;
  if (stats != nullptr) ++stats->states_eliminated;
}

/// Eliminates every alive state in `candidates`, lowest penalty first, over
/// a lazily revalidated min-priority queue: entries are (penalty, state)
/// pairs; a popped entry whose stored penalty no longer matches the current
/// one is re-pushed with the fresh penalty instead of being acted on, and
/// after each elimination the states whose rows changed are re-pushed
/// eagerly so the queue head stays accurate.
void eliminate_candidates(Workspace& ws, const std::vector<StateId>& candidates,
                          EliminationStats* stats, BudgetTracker& tracker) {
  using Entry = std::pair<std::uint64_t, StateId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  std::vector<char> in_set(ws.rows.size(), 0);
  for (StateId s : candidates) {
    if (!ws.alive[s]) continue;
    in_set[s] = 1;
    queue.emplace(penalty_of(ws, s), s);
  }

  std::vector<StateId> affected;
  while (!queue.empty()) {
    const auto [pen, s] = queue.top();
    queue.pop();
    if (!ws.alive[s]) continue;
    const std::uint64_t current = penalty_of(ws, s);
    if (current != pen) {
      queue.emplace(current, s);  // stale entry; revalidate lazily
      continue;
    }
    if (!tracker.tick()) tracker.require_ok("state elimination");

    affected.clear();
    for (StateId u : ws.preds[s]) {
      if (u != s && ws.alive[u] && in_set[u]) affected.push_back(u);
    }
    for (StateId t : ws.rows[s].tgt) {
      if (t != s && ws.alive[t] && in_set[t]) affected.push_back(t);
    }

    eliminate_state(ws, s, stats);

    for (StateId u : affected) {
      if (ws.alive[u]) queue.emplace(penalty_of(ws, u), u);
    }
  }
}

/// Condenses the elimination support graph into SCC blocks in dependency
/// order and returns, per block, the alive non-initial states it contains
/// (empty blocks dropped). Reuses CompiledModel::scc() by lowering the
/// workspace support into a uniform-probability DTMC: the SCC structure
/// only depends on the edge support, so any positive weights do.
std::vector<std::vector<StateId>> scc_candidate_blocks(const Workspace& ws,
                                                       StateId init) {
  const std::size_t n = ws.rows.size();
  Dtmc support(n);
  for (StateId s = 0; s < n; ++s) {
    const std::vector<StateId>& tgt = ws.rows[s].tgt;
    if (!ws.alive[s] || tgt.empty()) {
      support.set_transitions(s, {{s, 1.0}});
      continue;
    }
    const bool has_self = ws.has_edge(s, s);
    const std::size_t m = tgt.size() + (has_self ? 0 : 1);
    const double p = 1.0 / static_cast<double>(m);
    std::vector<Transition> out;
    out.reserve(m);
    for (StateId t : tgt) out.push_back({t, p});
    // Dead targets never occur (workspace construction drops them), so this
    // row is a genuine distribution over alive states up to rounding.
    if (!has_self) {
      out.push_back({s, 1.0 - p * static_cast<double>(tgt.size())});
    }
    support.set_transitions(s, std::move(out));
  }
  const CompiledModel compiled = compile(support);
  const SccDecomposition& scc = compiled.scc();

  std::vector<std::vector<StateId>> blocks;
  for (std::uint32_t b = 0; b < scc.num_blocks(); ++b) {
    std::vector<StateId> candidates;
    for (StateId s : scc.block(b)) {
      if (ws.alive[s] && s != init) candidates.push_back(s);
    }
    if (!candidates.empty()) blocks.push_back(std::move(candidates));
  }
  return blocks;
}

/// Eliminates every alive state except `init` block by block, then closes
/// the initial state's own loop: x_init = r'(init) / (1 − P'(init, init)).
RationalFunction eliminate_all(Workspace& ws, StateId init,
                               EliminationStats* stats,
                               BudgetTracker& tracker) {
  // Blocks come in dependency order (block 0 most downstream), so by the
  // time a block runs every state it can reach outside the block — except
  // the never-eliminated init — is already gone, and all fill-in stays
  // block-local.
  const std::vector<std::vector<StateId>> blocks =
      scc_candidate_blocks(ws, init);
  if (stats != nullptr) stats->scc_blocks = blocks.size();
  for (const std::vector<StateId>& block : blocks) {
    eliminate_candidates(ws, block, stats, tracker);
  }
  if (stats != nullptr) stats->fill_in_edges = ws.fill_in;

  // Close the initial state's own loop.
  RationalFunction loop;
  if (RationalFunction* self = ws.find(init, init)) loop = *self;
  const RationalFunction denom = one_minus(loop);
  TML_REQUIRE(!denom.is_zero(),
              "state elimination: initial state is absorbing with no value");
  return ws.value[init] * denom.inverse();
}

/// Shared tail of both entry points: stats bookkeeping (subterm-pool
/// hit/miss deltas), budget tracking, elimination, registry.
RationalFunction run_elimination(Workspace& ws, StateId init,
                                 const EliminationOptions& options,
                                 EliminationStats* stats) {
  EliminationStats local;
  EliminationStats* track =
      (stats != nullptr || stats::enabled()) ? &local : nullptr;
  SubtermPool& pool = SubtermPool::instance();
  const std::uint64_t hits_before = pool.hits();
  const std::uint64_t misses_before = pool.misses();
  BudgetTracker tracker(options.budget != nullptr ? *options.budget
                                                  : default_budget());
  RationalFunction result = eliminate_all(ws, init, track, tracker);
  if (track != nullptr) {
    local.pool_hits = pool.hits() - hits_before;
    local.pool_misses = pool.misses() - misses_before;
    record_elimination(local, stats);
  }
  return result;
}

}  // namespace

RationalFunction reachability_probability(const ParametricDtmc& chain,
                                          const StateSet& targets,
                                          const EliminationOptions& options,
                                          EliminationStats* stats) {
  static stats::Timer& t_elim = stats::timer("parametric.elimination.time");
  const stats::ScopedTimer span(t_elim);
  TML_REQUIRE(targets.size() == chain.num_states(),
              "reachability_probability: target set size mismatch");
  const StateId init = chain.initial_state();
  if (targets[init]) return RationalFunction(1.0);

  const StateSet forward = support_forward_reachable(chain, init);
  const StateSet can_reach = support_backward_reachable(chain, targets);
  if (!can_reach[init]) return RationalFunction();  // probability 0

  // Relevant interior states: reachable from init, can reach targets, and
  // are not targets themselves. Transitions into targets become value mass;
  // transitions into irrelevant states (prob-0 sinks) are dropped.
  Workspace ws(chain.num_states());
  for (StateId s = 0; s < chain.num_states(); ++s) {
    if (!forward[s] || !can_reach[s] || targets[s]) continue;
    ws.alive[s] = 1;
  }
  for (StateId s = 0; s < chain.num_states(); ++s) {
    if (!ws.alive[s]) continue;
    for (const auto& [t, p] : chain.row(s)) {
      if (targets[t]) {
        ws.value[s] += *p;
      } else if (ws.alive[t]) {
        ws.add_edge(s, t, *p);
      }
      // else: transition into a prob-0 region; contributes nothing.
    }
  }
  ws.fill_in = 0;  // construction edges are not fill-in
  return run_elimination(ws, init, options, stats);
}

RationalFunction expected_total_reward(const ParametricDtmc& chain,
                                       const StateSet& targets,
                                       const EliminationOptions& options,
                                       EliminationStats* stats) {
  static stats::Timer& t_elim = stats::timer("parametric.elimination.time");
  const stats::ScopedTimer span(t_elim);
  TML_REQUIRE(targets.size() == chain.num_states(),
              "expected_total_reward: target set size mismatch");
  const StateId init = chain.initial_state();
  if (targets[init]) return RationalFunction();

  const StateSet forward = support_forward_reachable(chain, init);
  const StateSet can_reach = support_backward_reachable(chain, targets);
  for (StateId s = 0; s < chain.num_states(); ++s) {
    if (forward[s] && !can_reach[s]) {
      throw ModelError(
          "expected_total_reward: state " + std::to_string(s) +
          " is reachable from the initial state but cannot reach the target; "
          "the expected reward is infinite");
    }
  }

  Workspace ws(chain.num_states());
  for (StateId s = 0; s < chain.num_states(); ++s) {
    if (!forward[s] || targets[s]) continue;
    ws.alive[s] = 1;
    ws.value[s] = chain.state_reward(s);
  }
  for (StateId s = 0; s < chain.num_states(); ++s) {
    if (!ws.alive[s]) continue;
    for (const auto& [t, p] : chain.row(s)) {
      if (targets[t]) continue;  // x(target) = 0
      TML_ASSERT(ws.alive[t],
                 "expected_total_reward: edge into unprocessed state");
      ws.add_edge(s, t, *p);
    }
  }
  ws.fill_in = 0;  // construction edges are not fill-in
  return run_elimination(ws, init, options, stats);
}

}  // namespace tml
