#include "src/mdp/graph.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <vector>

#include "src/common/stats.hpp"

namespace tml {

namespace {

constexpr std::uint32_t kNoComponent = std::numeric_limits<std::uint32_t>::max();

/// Tarjan SCC pass shared by scc_decomposition and the MEC fixpoint.
/// `allowed == nullptr` decomposes the whole model over every
/// positive-probability edge. Otherwise only states in *allowed take part,
/// and only edges of choices whose full support lies inside *allowed count
/// (a choice that can leave the candidate set is unusable for staying in an
/// end component). `same_component`, when given, tightens the filter
/// further: a choice is usable only if its whole support shares the
/// source's component id from the PREVIOUS fixpoint round — without this, a
/// choice leaking into a different component still contributes its internal
/// edges and can glue together a set that no policy can actually keep
/// closed. States outside get component == kNoComponent and appear in no
/// block.
///
/// Iterative (explicit DFS frames) so million-state chains cannot overflow
/// the call stack. Blocks are emitted in Tarjan order: an SCC is emitted
/// only after every SCC reachable from it, so block ids are a reverse
/// topological order of the condensation — "dependency order" for the
/// topological solvers.
SccDecomposition tarjan_scc(const CompiledModel& model, const StateSet* allowed,
                            const std::vector<std::uint32_t>* same_component =
                                nullptr) {
  const std::size_t n = model.num_states();
  const auto& row_start = model.row_start();
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();

  // Per-transition usability, resolved once up front.
  std::vector<char> edge_ok(model.num_transitions(), 0);
  for (StateId s = 0; s < n; ++s) {
    if (allowed != nullptr && !(*allowed)[s]) continue;
    for (std::uint32_t c = row_start[s]; c < row_start[s + 1]; ++c) {
      bool choice_inside = true;
      if (allowed != nullptr) {
        for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
          if (prob[k] <= 0.0) continue;
          if (!(*allowed)[target[k]] ||
              (same_component != nullptr &&
               (*same_component)[target[k]] != (*same_component)[s])) {
            choice_inside = false;
            break;
          }
        }
      }
      if (!choice_inside) continue;
      for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
        if (prob[k] > 0.0) edge_ok[k] = 1;
      }
    }
  }

  SccDecomposition out;
  out.component.assign(n, kNoComponent);
  out.block_start.push_back(0);

  std::vector<std::uint32_t> index(n, kNoComponent);
  std::vector<std::uint32_t> lowlink(n, 0);
  Bitset on_stack(n, false);
  std::vector<StateId> stack;
  struct Frame {
    StateId state;
    std::uint32_t edge;  // next transition index to examine
  };
  std::vector<Frame> frames;
  std::uint32_t counter = 0;

  const auto first_edge = [&](StateId s) { return choice_start[row_start[s]]; };
  const auto last_edge = [&](StateId s) {
    return choice_start[row_start[s + 1]];
  };

  for (StateId root = 0; root < n; ++root) {
    if (index[root] != kNoComponent) continue;
    if (allowed != nullptr && !(*allowed)[root]) continue;
    index[root] = lowlink[root] = counter++;
    stack.push_back(root);
    on_stack[root] = true;
    frames.push_back(Frame{root, first_edge(root)});
    while (!frames.empty()) {
      Frame& f = frames.back();
      const StateId s = f.state;
      std::uint32_t k = f.edge;
      const std::uint32_t end = last_edge(s);
      while (k < end && !edge_ok[k]) ++k;
      if (k < end) {
        f.edge = k + 1;
        const StateId t = target[k];
        if (index[t] == kNoComponent) {
          index[t] = lowlink[t] = counter++;
          stack.push_back(t);
          on_stack[t] = true;
          frames.push_back(Frame{t, first_edge(t)});
        } else if (on_stack[t]) {
          lowlink[s] = std::min(lowlink[s], index[t]);
        }
        continue;
      }
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().state] =
            std::min(lowlink[frames.back().state], lowlink[s]);
      }
      if (lowlink[s] != index[s]) continue;
      // s is the root of a finished SCC: pop the block.
      const std::uint32_t block_id =
          static_cast<std::uint32_t>(out.block_start.size() - 1);
      const std::size_t begin = out.block_states.size();
      for (;;) {
        const StateId v = stack.back();
        stack.pop_back();
        on_stack[v] = false;
        out.component[v] = block_id;
        out.block_states.push_back(v);
        if (v == s) break;
      }
      std::sort(out.block_states.begin() + static_cast<std::ptrdiff_t>(begin),
                out.block_states.end());
      out.block_start.push_back(
          static_cast<std::uint32_t>(out.block_states.size()));
    }
  }

  // Nontrivial blocks: more than one state, or a usable self-loop edge.
  out.nontrivial = Bitset(out.num_blocks(), false);
  for (std::uint32_t b = 0; b < out.num_blocks(); ++b) {
    const auto block = out.block(b);
    if (block.size() > 1) {
      out.nontrivial[b] = true;
      continue;
    }
    const StateId s = block.front();
    for (std::uint32_t k = first_edge(s); k < last_edge(s); ++k) {
      if (edge_ok[k] && target[k] == s) {
        out.nontrivial[b] = true;
        break;
      }
    }
  }
  return out;
}

/// The graph layer's one fixpoint: the least superset of `set` closed under
/// `joins(p, set)`, which must be monotone in `set`. A state outside the set
/// is tested only when one of its successors has joined (through the cached
/// predecessor lists, which hold positive-probability edges only), and joins
/// at most once. Monotonicity makes the result independent of the test
/// order, so it equals any index-order rescan of the same rule.
template <typename Joins>
StateSet backward_fixpoint(const CompiledModel& model, StateSet set,
                           const Joins& joins) {
  std::vector<StateId> work;
  for (StateId s = 0; s < set.size(); ++s) {
    if (set[s]) work.push_back(s);
  }
  while (!work.empty()) {
    const StateId s = work.back();
    work.pop_back();
    for (StateId p : model.predecessors(s)) {
      if (!set[p] && joins(p, set)) {
        set[p] = true;
        work.push_back(p);
      }
    }
  }
  return set;
}

/// Backward closure of `seeds` that never enters `blocked` (when given):
/// a path that must pass through a blocked state does not count.
StateSet backward_closure(const CompiledModel& model, const StateSet& seeds,
                          const StateSet* blocked = nullptr) {
  return backward_fixpoint(model, seeds, [&](StateId p, const StateSet&) {
    return blocked == nullptr || !(*blocked)[p];
  });
}

/// Does some positive edge of choice c land in `set`?
bool choice_hits(const CompiledModel& model, std::uint32_t c,
                 const StateSet& set) {
  const auto& choice_start = model.choice_start();
  for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
    if (model.prob()[k] > 0.0 && set[model.target()[k]]) return true;
  }
  return false;
}

/// Does every positive edge of choice c land in `set`?
bool choice_inside(const CompiledModel& model, std::uint32_t c,
                   const StateSet& set) {
  const auto& choice_start = model.choice_start();
  for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
    if (model.prob()[k] > 0.0 && !set[model.target()[k]]) return false;
  }
  return true;
}

void require_size(const CompiledModel& model, const StateSet& targets,
                  const char* where) {
  TML_REQUIRE(targets.size() == model.num_states(),
              where << ": target set size mismatch");
}

/// States from which some scheduler stays out of T forever = { s :
/// Pmin(F T)(s) = 0 }. Computed as the complement of its dual, the least
/// set ⊇ T in which a state joins once every choice has a positive edge
/// into the set (every compiled state has at least one choice).
StateSet avoid_certain(const CompiledModel& model, const StateSet& targets) {
  return complement(
      backward_fixpoint(model, targets, [&](StateId p, const StateSet& set) {
        for (std::uint32_t c = model.first_choice(p); c < model.last_choice(p);
             ++c) {
          if (!choice_hits(model, c, set)) return false;
        }
        return true;
      }));
}

}  // namespace

Prob01 reach_prob01(const CompiledModel& model, const StateSet& targets,
                    Objective objective) {
  require_size(model, targets, "reach_prob01");
  Prob01 sets;
  if (objective == Objective::kMaximize && !model.deterministic()) {
    sets.zero = complement(backward_closure(model, targets));
    sets.one = prob1_existential(model, targets);
  } else {
    // Pmin(F T)(s) < 1 iff some scheduler reaches, with positive
    // probability and WITHOUT passing through T, the region where T can be
    // avoided forever. Target states themselves always count as
    // probability 1.
    sets.zero = avoid_certain(model, targets);
    sets.one = complement(backward_closure(model, sets.zero, &targets));
  }
  if (stats::enabled()) {  // skip the popcounts entirely when disabled
    static stats::Gauge& g_zero = stats::gauge("checker.prob0.states");
    static stats::Gauge& g_one = stats::gauge("checker.prob1.states");
    g_zero.set(static_cast<double>(count(sets.zero)));
    g_one.set(static_cast<double>(count(sets.one)));
  }
  return sets;
}

StateSet reachable_existential(const CompiledModel& model,
                               const StateSet& targets) {
  require_size(model, targets, "reachable_existential");
  return backward_closure(model, targets);
}

StateSet prob1_existential(const CompiledModel& model,
                           const StateSet& targets) {
  require_size(model, targets, "prob1_existential");
  // de Alfaro's nested fixpoint. Outer: over-approximation u of Prob1E.
  // Inner: states of u that can reach T via a choice whose support stays
  // in u and hits the inner set.
  StateSet u(model.num_states(), true);
  while (true) {
    StateSet v =
        backward_fixpoint(model, targets, [&](StateId p, const StateSet& in) {
          if (!u[p]) return false;
          for (std::uint32_t c = model.first_choice(p);
               c < model.last_choice(p); ++c) {
            if (choice_inside(model, c, u) && choice_hits(model, c, in)) {
              return true;
            }
          }
          return false;
        });
    if (v == u) return u;
    u = std::move(v);
  }
}

StateSet forward_reachable(const CompiledModel& model, StateId from) {
  TML_REQUIRE(from < model.num_states(),
              "forward_reachable: state out of range");
  const auto& row_start = model.row_start();
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();
  StateSet reached(model.num_states(), false);
  std::deque<StateId> queue{from};
  reached[from] = true;
  while (!queue.empty()) {
    const StateId s = queue.front();
    queue.pop_front();
    for (std::uint32_t k = choice_start[row_start[s]];
         k < choice_start[row_start[s + 1]]; ++k) {
      if (prob[k] > 0.0 && !reached[target[k]]) {
        reached[target[k]] = true;
        queue.push_back(target[k]);
      }
    }
  }
  return reached;
}

SccDecomposition scc_decomposition(const CompiledModel& model) {
  return tarjan_scc(model, nullptr);
}

std::vector<std::vector<StateId>> maximal_end_components(
    const CompiledModel& model, const StateSet& within) {
  require_size(model, within, "maximal_end_components");
  const std::size_t n = model.num_states();
  const auto& row_start = model.row_start();
  const auto& choice_start = model.choice_start();
  const auto& target = model.target();
  const auto& prob = model.prob();

  // Standard fixpoint: decompose the candidate set into SCCs over choices
  // whose support stays inside the source's own component, keep only states
  // with such an internal choice, repeat until both the candidate set and
  // the partition are stable. Filtering against the component — not just
  // the candidate union — is essential: a choice leaking into a DIFFERENT
  // component still contributes its internal edges under the union filter
  // and can hold together a "strongly connected" set that no policy can
  // keep closed (the glue edges belong to choices that may leave it).
  // Candidates shrink and partitions only refine, so the loop terminates.
  StateSet candidate = within;
  SccDecomposition d = tarjan_scc(model, &candidate);
  std::vector<std::uint32_t> comp;
  for (;;) {
    StateSet keep(n, false);
    bool changed = false;
    for (StateId s = 0; s < n; ++s) {
      if (!candidate[s]) continue;
      bool has_internal_choice = false;
      for (std::uint32_t c = row_start[s];
           c < row_start[s + 1] && !has_internal_choice; ++c) {
        bool inside = true;
        for (std::uint32_t k = choice_start[c]; k < choice_start[c + 1]; ++k) {
          if (prob[k] <= 0.0) continue;
          const StateId t = target[k];
          if (!candidate[t] || d.component[t] != d.component[s]) {
            inside = false;
            break;
          }
        }
        has_internal_choice = inside;
      }
      if (has_internal_choice) {
        keep[s] = true;
      } else {
        changed = true;
      }
    }
    candidate = std::move(keep);
    if (!changed && comp == d.component) break;
    comp = d.component;
    d = tarjan_scc(model, &candidate, &comp);
  }

  std::vector<std::vector<StateId>> mecs;
  for (std::uint32_t b = 0; b < d.num_blocks(); ++b) {
    const auto block = d.block(b);
    mecs.emplace_back(block.begin(), block.end());  // already sorted
  }
  std::sort(mecs.begin(), mecs.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return mecs;
}

}  // namespace tml
