// TC — the online tree caching algorithm of Bienkowski et al. (SPAA 2017),
// with the efficient data structures of Section 6.
//
// The algorithm follows a rent-or-buy scheme organized in phases:
//  * every node carries a counter, zero at phase start, incremented whenever
//    the algorithm pays 1 for a request at the node, and reset whenever the
//    node is fetched or evicted;
//  * after each round TC looks for a valid changeset X that is *saturated*
//    (cnt(X) >= |X|·α) and *maximal* (no valid strict superset is saturated)
//    and applies it;
//  * if the selected fetch would exceed the capacity k_ONL, TC evicts the
//    whole cache and starts a new phase.
//
// Efficiency (Theorem 6.1): a round costs O(h(T) + max{h(T), deg(T)}·|X_t|)
// operations with O(|T|) extra memory, where X_t is the applied changeset.
//  * Positive side (§6.1): because the cache is descendant-closed, the only
//    fetch candidates after a positive request at v are P_t(u) — the
//    non-cached part of T(u) — for ancestors u of v. We maintain
//    cnt(P_t(u)) and |P_t(u)| for every non-cached u and scan the root→v
//    path for the first saturated candidate (which is then also maximal).
//  * Negative side (§6.2): eviction candidates are tree caps rooted at the
//    root u of the maximal cached tree containing v. TC maintains
//    H_t(u) = argmax val_t over tree caps rooted at u, where
//    val_t(A) = cnt_t(A) − |A|·α + |A|/(|T|+1). We store val in exact
//    integer form (I, S) = (cnt(H)−|H|·α, |H|); val(H(u)) > 0 ⇔ I(u) ≥ 0.
//
// Memory layout: all per-node state lives in a preorder-indexed NodeState
// SoA block (core/node_state.hpp). Requests are translated NodeId → rank
// once on entry, the whole round runs in rank coordinates (ancestor walks
// via Tree::preorder_parent, subtree collections as contiguous slice scans
// with subtree-skip jumps, child enumeration as first-child r+1 / next-
// sibling c+size(c)), and changesets are translated back rank → NodeId once
// on exit. A NodeId-keyed Subforest mirror is kept in step for the public
// cache() view; it is written only on changesets, never read on the hot
// path. The slice scans are the core/kernels.hpp primitives.
#pragma once

#include <cstdint>
#include <vector>

#include "core/node_state.hpp"
#include "core/online_algorithm.hpp"
#include "tree/tree.hpp"

namespace treecache {

struct TreeCacheConfig {
  /// Cost α ≥ 1 of fetching or evicting one node. (The paper assumes α even
  /// for analysis constants only; the algorithm accepts any α ≥ 1.)
  std::uint64_t alpha = 2;
  /// Cache capacity k_ONL ≥ 1.
  std::size_t capacity = 16;
};

/// Statistics of one phase, for the analysis-accounting experiments.
struct PhaseStats {
  std::uint64_t first_round = 1;  // first round of the phase
  std::uint64_t last_round = 0;   // 0 while the phase is open
  bool finished = false;          // ended with a capacity-triggered restart
  /// k_P: cache size at phase end. For a finished phase this includes the
  /// abandoned ("artificial") fetch, hence k_P >= k_ONL + 1 (Section 5).
  std::uint32_t k_end = 0;
  std::uint64_t fetches = 0;    // nodes fetched in the phase
  std::uint64_t evictions = 0;  // nodes evicted by negative changesets
};

class TreeCache final : public OnlineAlgorithm {
 public:
  TreeCache(const Tree& tree, TreeCacheConfig config);

  [[nodiscard]] std::string_view name() const override { return "TC"; }
  StepOutcome step(Request request) override;
  void step_batch(std::span<const Request> requests,
                  OutcomeSink& sink) override;
  void reset() override;
  [[nodiscard]] const Subforest& cache() const override { return cache_; }
  [[nodiscard]] const Cost& cost() const override { return cost_; }

  [[nodiscard]] const Tree& tree() const { return *tree_; }
  [[nodiscard]] const TreeCacheConfig& config() const { return config_; }

  /// Current round number (number of step() calls since reset).
  [[nodiscard]] std::uint64_t round() const { return round_; }

  /// Per-node counter value (for tests and instrumentation).
  [[nodiscard]] std::uint64_t counter(NodeId v) const {
    return state_.counter(tree_->preorder_index(v));
  }

  /// Completed and current phases, in order. The last entry is the open
  /// (possibly unfinished) phase.
  [[nodiscard]] const std::vector<PhaseStats>& phases() const {
    return phases_;
  }

  /// Cumulative count of elementary operations (path steps, aggregate
  /// updates, changeset-node visits); the empirical counterpart of
  /// Theorem 6.1's bound.
  [[nodiscard]] std::uint64_t work() const { return work_; }

  // --- white-box accessors used by the test suite ---------------------
  // Keyed by NodeId for the tests' convenience; they translate to rank.
  /// cnt_t(P_t(u)); meaningful only for non-cached u.
  [[nodiscard]] std::int64_t debug_pcnt(NodeId u) const {
    return state_.pcnt(tree_->preorder_index(u));
  }
  /// |P_t(u)|; meaningful only for non-cached u.
  [[nodiscard]] std::uint32_t debug_psize(NodeId u) const {
    return tree_->subtree_size(u) -
           state_.cached_below(tree_->preorder_index(u));
  }
  /// I(u) = cnt(H(u)) − |H(u)|·α; meaningful only for cached u.
  [[nodiscard]] std::int64_t debug_hI(NodeId u) const {
    return state_.neg(tree_->preorder_index(u)).value;
  }
  /// S(u) = |H(u)|; meaningful only for cached u.
  [[nodiscard]] std::uint64_t debug_hS(NodeId u) const {
    return state_.neg(tree_->preorder_index(u)).size;
  }

 private:
  StepOutcome handle_positive(std::uint32_t rv);
  StepOutcome handle_negative(std::uint32_t rv);

  /// Fetches X = P_t(u) (already collected in rank_changeset_, ascending
  /// rank = preorder); cnt_x is the counter mass X carried before the
  /// resets. `ru` is the rank of u.
  void apply_fetch(std::uint32_t ru, std::uint64_t cnt_x);
  /// Evicts H(u) (already collected in rank_changeset_, ascending rank).
  void apply_evict(std::uint32_t ru);
  /// Evicts the whole cache and starts a new phase. `aborted_fetch_size` is
  /// the size of the fetch that did not fit (counted into k_P).
  void phase_restart(std::uint32_t aborted_fetch_size);

  /// Collects P_t(u) into rank_changeset_ (ascending rank) and returns
  /// cnt(P_t(u)). A slice scan over [ru, ru + |T(u)|) that jumps over
  /// cached subtrees.
  std::uint64_t collect_missing(std::uint32_t ru);
  /// Collects H(u) into rank_changeset_ (ascending rank) and returns
  /// cnt(H(u)). A slice scan that jumps over subtrees with I < 0.
  std::uint64_t collect_h_set(std::uint32_t ru);

  /// Propagates a +1 counter increment at cached rank rv through the (I, S)
  /// aggregates and returns the rank of v's maximal cached tree root.
  std::uint32_t propagate_negative_increment(std::uint32_t rv);

  /// Translates rank_changeset_ back to NodeIds in `out` and returns it.
  std::span<const NodeId> translate_changeset(std::vector<NodeId>& out) const;

  const Tree* tree_;
  TreeCacheConfig config_;
  /// Raw subtree-size stripe (tree_->preorder_sizes().data()), captured
  /// once so the scan loops index it directly instead of bouncing through
  /// an accessor call per rank.
  const std::uint32_t* sizes_;

  /// NodeId-keyed mirror of the cached set, maintained for the public
  /// cache() view (AccountingSink reads its size every round); the hot path
  /// reads only state_.cached.
  Subforest cache_;
  /// All per-node hot state, preorder-indexed.
  NodeState state_;

  /// Lazily maintained superset of the maximal cached roots (ranks), used
  /// to empty the cache in O(|cache|) at a phase restart.
  std::vector<std::uint32_t> root_hints_;

  Cost cost_;
  std::uint64_t round_ = 0;
  std::uint64_t work_ = 0;
  std::vector<PhaseStats> phases_;

  // Scratch buffers (reused across rounds). rank_changeset_ holds the
  // round's changeset in rank space; changeset_/aborted_buf_ hold the
  // NodeId translations exposed via StepOutcome.
  std::vector<std::uint32_t> path_;
  std::vector<std::uint32_t> rank_changeset_;
  std::vector<NodeId> changeset_;
  std::vector<NodeId> aborted_buf_;
};

}  // namespace treecache
