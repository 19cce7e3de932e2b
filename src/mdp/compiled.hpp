// Compiled sparse model core.
//
// Every numeric algorithm in the library — PCTL checking, Prob0/Prob1 graph
// precomputation, value/policy iteration, steady-state analysis, statistical
// model checking, max-entropy IRL — iterates the transition structure of an
// MDP/DTMC. The builder types in model.hpp store that structure as nested
// `std::vector<Choice>` → `std::vector<Transition>` rows: convenient to
// construct and mutate (repair code perturbs individual rows), but each hot
// loop chases two levels of heap pointers per state and rebuilds predecessor
// lists per call.
//
// `CompiledModel` lowers a validated `Mdp` or `Dtmc` into a flat CSR layout:
//
//     row_start[s]     .. row_start[s+1]      choices of state s
//     choice_start[c]  .. choice_start[c+1]   transitions of choice c
//     target[k], prob[k]                      contiguous columns
//
// plus a CSC-style predecessor structure (built lazily on first use, with
// duplicate (pred, succ) pairs removed, and reused by every backward
// closure), per-state and per-choice reward arrays, and per-label state
// bitsets. Laziness keeps compile() cheap for the engines that never walk
// backwards (bounded operators, simulation, SMC, IRL).
//
// `compile()` is the single boundary between the builder world and the
// numeric kernels: construction, export and repair keep mutating `Mdp` /
// `Dtmc`, and every solver/checker entry point lowers once and then runs on
// the flat arrays. A `Dtmc` compiles to the one-choice-per-state special
// case with `deterministic() == true`.
//
// Delta compile. Streaming pipelines (src/core/repair_session) re-estimate
// transition probabilities every data batch but almost never change the
// *support*. `patch_probabilities()` rewrites the probability/reward
// columns of an existing CompiledModel in place when the new model has the
// exact same CSR structure and positive-probability support, returning the
// set of dirty states (rows whose numbers actually moved) and the largest
// per-entry perturbation; on any structural mismatch it leaves the model
// untouched and tells the caller to fall back to a full compile(). Because
// support is verified unchanged, every graph-derived cache (predecessors,
// SCC condensation) and every graph analysis a caller may have stashed
// (prob0/prob1 sets, end components) remains exactly valid.
//
// Cache staleness guard. The predecessor and SCC caches are built lazily
// from the probability columns; any in-place mutation outside
// patch_probabilities() (via mutable_prob()) would leave them silently
// describing the *old* graph. Mutations therefore bump a mutation epoch,
// and the cache accessors throw ModelError when their cache predates the
// epoch — misuse fails loudly instead of returning wrong graphs. Callers
// that know what they changed either go through patch_probabilities()
// (which re-blesses the caches after verifying the support) or call
// invalidate_graph_caches() to drop them for rebuild.

#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/mdp/model.hpp"

namespace tml {

class CompiledModel;
struct PatchResult;
struct QuotientResult;
struct QuotientOptions;

/// Strongly-connected-component condensation of a compiled model, with the
/// blocks stored in *dependency order*: every positive-probability edge
/// s → t crossing blocks satisfies component[t] < component[s]. Iterating
/// blocks 0, 1, …, num_blocks()-1 therefore visits each block only after
/// every block it can reach — exactly the order in which the topological
/// solvers (src/checker/reachability.cpp) want to converge them, since each
/// block then iterates against already-final downstream values.
///
/// Produced by scc_decomposition() (iterative Tarjan, src/mdp/graph.cpp)
/// and cached on the CompiledModel like the predecessor structure.
struct SccDecomposition {
  std::vector<std::uint32_t> component;    ///< state → block id
  std::vector<std::uint32_t> block_start;  ///< CSR offsets, num_blocks()+1
  std::vector<StateId> block_states;       ///< states grouped by block
  /// Per-block bit: the block has more than one state or a self-loop edge,
  /// i.e. its states genuinely depend on each other and need iteration.
  /// Trivial blocks are solvable with a single closed-form update.
  Bitset nontrivial;

  std::size_t num_blocks() const { return block_start.size() - 1; }
  std::span<const StateId> block(std::uint32_t b) const {
    return {block_states.data() + block_start[b],
            block_start[b + 1] - block_start[b]};
  }
};

class CompiledModel {
 public:
  // -- structure -----------------------------------------------------------

  std::size_t num_states() const { return num_states_; }
  std::size_t num_choices() const { return choice_start_.size() - 1; }
  std::size_t num_transitions() const { return target_.size(); }
  StateId initial_state() const { return initial_state_; }

  /// True when the source model was a DTMC (exactly one choice per state,
  /// and choice index c == state id s).
  bool deterministic() const { return deterministic_; }

  /// Global choice-index range [first_choice(s), last_choice(s)) of state s.
  std::uint32_t first_choice(StateId s) const { return row_start_[s]; }
  std::uint32_t last_choice(StateId s) const { return row_start_[s + 1]; }
  std::uint32_t num_choices_of(StateId s) const {
    return row_start_[s + 1] - row_start_[s];
  }

  /// Transition columns of global choice c.
  std::span<const StateId> targets(std::uint32_t c) const {
    return {target_.data() + choice_start_[c],
            choice_start_[c + 1] - choice_start_[c]};
  }
  std::span<const double> probabilities(std::uint32_t c) const {
    return {prob_.data() + choice_start_[c],
            choice_start_[c + 1] - choice_start_[c]};
  }

  /// Transition row of a DTMC state (requires deterministic()).
  std::span<const StateId> row_targets(StateId s) const { return targets(s); }
  std::span<const double> row_probabilities(StateId s) const {
    return probabilities(s);
  }

  /// Raw offset/column arrays for kernels that index directly.
  const std::vector<std::uint32_t>& row_start() const { return row_start_; }
  const std::vector<std::uint32_t>& choice_start() const {
    return choice_start_;
  }
  const std::vector<StateId>& target() const { return target_; }
  const std::vector<double>& prob() const { return prob_; }

  // -- predecessors (cached CSC-style structure) ---------------------------

  /// Distinct predecessor states of s over all positive-probability edges.
  /// Built on first call and cached (not thread-safe, like the rest of the
  /// library). Throws ModelError if the cache is stale (see the staleness
  /// guard in the file comment).
  std::span<const StateId> predecessors(StateId s) const {
    if (!preds_built_) build_predecessors();
    require_fresh(pred_epoch_, "predecessors");
    return {pred_.data() + pred_start_[s], pred_start_[s + 1] - pred_start_[s]};
  }

  // -- condensation (cached SCC structure) ---------------------------------

  /// SCC condensation in dependency order (see SccDecomposition). Built on
  /// first call by the iterative Tarjan pass in src/mdp/graph.cpp and
  /// cached (not thread-safe, like the predecessor cache).
  const SccDecomposition& scc() const;

  // -- rewards -------------------------------------------------------------

  double state_reward(StateId s) const { return state_reward_[s]; }
  double choice_reward(std::uint32_t c) const { return choice_reward_[c]; }
  const std::vector<double>& state_rewards() const { return state_reward_; }
  const std::vector<double>& choice_rewards() const { return choice_reward_; }

  ActionId choice_action(std::uint32_t c) const { return choice_action_[c]; }

  // -- labels --------------------------------------------------------------

  /// Bitset of states carrying `label` (all-false if never used).
  StateSet states_with_label(const std::string& label) const;
  const std::vector<std::string>& label_names() const { return label_names_; }

  // -- derived models ------------------------------------------------------

  /// Copy with every state in `absorb` replaced by a single zero-reward
  /// self-loop choice. This is how until operators restrict to P[F goal]:
  /// states outside stay ∪ goal can never contribute and are made absorbing.
  CompiledModel make_absorbing(const StateSet& absorb) const;

  // -- in-place mutation (see the staleness guard in the file comment) -----

  /// Raw mutable access to one probability entry. Bumps the mutation epoch:
  /// the lazily built predecessor/SCC caches become stale and their
  /// accessors THROW until the caches are invalidated (or re-blessed by
  /// patch_probabilities, whose support check proves them still valid).
  void set_prob(std::size_t k, double p) {
    prob_[k] = p;
    ++mutation_epoch_;
  }
  void set_choice_reward(std::uint32_t c, double r) { choice_reward_[c] = r; }
  void set_state_reward(StateId s, double r) { state_reward_[s] = r; }

  /// Drops the graph-derived caches so the next accessor call rebuilds them
  /// from the current probability columns (the sanctioned recovery after
  /// raw set_prob mutations).
  void invalidate_graph_caches() const;

  /// Current mutation epoch (bumped by every set_prob); exposed so external
  /// caches keyed on this model can implement the same staleness check.
  std::uint64_t mutation_epoch() const { return mutation_epoch_; }

  // -- fingerprint ---------------------------------------------------------

  /// 64-bit FNV-1a content fingerprint over everything checking semantics
  /// depend on: the CSR structure, transition probabilities (bitwise, so
  /// 0.1+0.2 and 0.3 hash differently — the fingerprint identifies the
  /// compiled artifact, not a numeric equivalence class), rewards, action
  /// ids, and labels. Two models with equal hashes check identically for
  /// every formula; the serve-layer model cache keys on this. O(model);
  /// does not touch or build the lazy graph caches.
  std::uint64_t content_hash() const;

  friend CompiledModel compile(const Mdp& mdp);
  friend CompiledModel compile(const Dtmc& chain);
  friend PatchResult patch_probabilities(CompiledModel& model, const Mdp& mdp);
  friend PatchResult patch_probabilities(CompiledModel& model,
                                         const Dtmc& chain);
  // Bisimulation minimization (src/mdp/quotient.cpp) assembles the quotient
  // CSR directly — rebuilding through the Mdp builder would cost a second
  // copy of the model on the no-collapse path.
  friend QuotientResult bisimulation_quotient(const CompiledModel& model,
                                              const QuotientOptions& options);

 private:
  void build_predecessors() const;
  void require_fresh(std::uint64_t built_epoch, const char* what) const;

  std::size_t num_states_ = 0;
  StateId initial_state_ = 0;
  bool deterministic_ = false;

  std::vector<std::uint32_t> row_start_;     // size num_states + 1
  std::vector<std::uint32_t> choice_start_;  // size num_choices + 1
  std::vector<StateId> target_;              // size num_transitions
  std::vector<double> prob_;                 // size num_transitions

  std::vector<double> state_reward_;      // size num_states
  std::vector<double> choice_reward_;     // size num_choices
  std::vector<ActionId> choice_action_;   // size num_choices

  mutable bool preds_built_ = false;
  mutable std::vector<std::uint32_t> pred_start_;  // size num_states + 1
  mutable std::vector<StateId> pred_;  // deduplicated predecessor lists

  mutable bool scc_built_ = false;
  mutable SccDecomposition scc_;  // lazy Tarjan condensation

  // Staleness guard: epoch at which each lazy cache was built, against the
  // running mutation epoch bumped by set_prob (see file comment).
  std::uint64_t mutation_epoch_ = 0;
  mutable std::uint64_t pred_epoch_ = 0;
  mutable std::uint64_t scc_epoch_ = 0;

  std::vector<std::string> label_names_;
  std::vector<StateSet> label_sets_;  // per label, bitset over states
};

/// Lowers a validated model into the flat form. Throws ModelError on
/// structurally invalid input (delegates to model.validate()).
CompiledModel compile(const Mdp& mdp);
CompiledModel compile(const Dtmc& chain);

/// Outcome of a delta compile (patch_probabilities).
struct PatchResult {
  /// True when the new model had the identical CSR structure and support
  /// and the columns were rewritten in place. False means the model was
  /// left untouched and the caller must fall back to a full compile().
  bool patched = false;
  /// States whose outgoing probabilities or rewards changed (empty bitset
  /// of num_states when patched is false).
  StateSet dirty;
  std::size_t dirty_states = 0;
  /// max |p_new - p_old| over all transition entries — the per-entry
  /// probability perturbation bound (the ε of the paper's Prop. 1 view of
  /// the patch as a perturbation matrix Z); RepairSession reports it per
  /// batch.
  double max_abs_delta = 0.0;
};

/// Delta compile: rewrites probabilities and rewards of `model` in place
/// from `mdp` when the structure (states, choices, transition targets in
/// order) and the positive-probability support both match; otherwise
/// returns {patched = false} and leaves `model` untouched. On success the
/// graph caches are re-blessed (support unchanged ⇒ predecessors and SCC
/// condensation are still exact) and the returned dirty set / perturbation
/// bound describe the delta. Records compile.patch_* stats.
PatchResult patch_probabilities(CompiledModel& model, const Mdp& mdp);
PatchResult patch_probabilities(CompiledModel& model, const Dtmc& chain);

}  // namespace tml
