// Cache state: a descendant-closed subset of a Tree.
//
// The paper requires the cache to be a subforest of T: if v is cached, all of
// T(v) is cached. Equivalently the cached set is a union of complete
// subtrees, the non-cached set is ancestor-closed, and every maximal cached
// tree is T(r) for its root r. Subforest maintains the membership flags plus
// the size, and offers the validity predicates used by the algorithms, the
// specification checker and the tests.
#pragma once

#include <span>
#include <vector>

#include "tree/tree.hpp"

namespace treecache {

class Subforest {
 public:
  /// Empty cache over `tree`. The tree must outlive the subforest.
  explicit Subforest(const Tree& tree)
      : tree_(&tree),
        cached_(tree.size(), 0),
        rank_bits_((tree.size() + 63) / 64, 0) {}

  [[nodiscard]] const Tree& tree() const { return *tree_; }

  [[nodiscard]] bool contains(NodeId v) const {
    TC_DCHECK(v < cached_.size(), "node out of range");
    return cached_[v] != 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    std::fill(cached_.begin(), cached_.end(), std::uint8_t{0});
    std::fill(rank_bits_.begin(), rank_bits_.end(), std::uint64_t{0});
    size_ = 0;
  }

  /// Caches v. To preserve descendant-closure incrementally, all children of
  /// v must already be cached (apply fetch changesets bottom-up).
  void insert(NodeId v);

  /// Evicts v. The parent of v must not be cached (apply eviction changesets
  /// top-down).
  void erase(NodeId v);

  /// O(n) full validation of descendant-closure.
  [[nodiscard]] bool is_valid() const;

  /// True iff X is a valid positive changeset for this cache: X non-empty,
  /// disjoint from the cache, no duplicates, and cache ∪ X descendant-closed.
  [[nodiscard]] bool is_valid_positive_changeset(
      std::span<const NodeId> changeset) const;

  /// True iff X is a valid negative changeset: X non-empty, X ⊆ cache, no
  /// duplicates, and cache \ X descendant-closed.
  [[nodiscard]] bool is_valid_negative_changeset(
      std::span<const NodeId> changeset) const;

  /// Cached nodes whose parent is not cached — the roots of the maximal
  /// cached trees.
  [[nodiscard]] std::vector<NodeId> maximal_roots() const;

  // Output-buffer forms of the collection queries, for hot-path callers
  // that would otherwise allocate a fresh vector every round: `out` is
  // cleared and refilled, so a reused buffer amortizes to zero allocations.
  // The convenience forms above delegate to these.

  /// maximal_roots() into `out`.
  void maximal_roots(std::vector<NodeId>& out) const;
  /// missing_subtree(u) into `out` (preorder, parents first).
  void missing_subtree(NodeId u, std::vector<NodeId>& out) const;
  /// as_vector() into `out` (increasing id order).
  void as_vector(std::vector<NodeId>& out) const;

  /// Root of the maximal cached tree containing v (requires contains(v)).
  /// O(depth) by walking up while the parent is cached.
  [[nodiscard]] NodeId cached_tree_root(NodeId v) const;

  /// All non-cached nodes of T(u), i.e. the paper's P_t(u). Requires
  /// !contains(u). The result is returned in preorder (parents first).
  [[nodiscard]] std::vector<NodeId> missing_subtree(NodeId u) const;

  /// Cached nodes in increasing id order.
  [[nodiscard]] std::vector<NodeId> as_vector() const;

  friend bool operator==(const Subforest& a, const Subforest& b) {
    return a.tree_ == b.tree_ && a.cached_ == b.cached_;
  }

 private:
  const Tree* tree_;
  std::vector<std::uint8_t> cached_;
  /// Preorder-rank-indexed mirror of the membership flags as a word-packed
  /// bitmap, so missing_subtree runs on the same scan_missing as
  /// TreeCache (core/kernels.hpp).
  std::vector<std::uint64_t> rank_bits_;
  std::size_t size_ = 0;
};

}  // namespace treecache
