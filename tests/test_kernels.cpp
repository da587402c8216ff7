// The slice-scan primitives (core/kernels.hpp) against independent
// oracles: the stripe clear behind NodeState's epoch wrap and full reset,
// the wrap branch itself, and Subforest::missing_subtree (scan_missing
// over a rank bitmap) against a per-node walk off the contains() flags.
// scan_missing and scan_h_candidates inside TreeCache are covered end to
// end by the naive-TC differentials (test_tc_equivalence.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/kernels.hpp"
#include "core/node_state.hpp"
#include "tree/subforest.hpp"
#include "tree/tree.hpp"
#include "tree/tree_builder.hpp"
#include "util/rng.hpp"

namespace treecache {
namespace {

Tree make_tree(std::size_t which, Rng& rng) {
  switch (which % 5) {
    case 0:
      return trees::random_recursive(2 + rng.below(300), rng);
    case 1:
      return trees::random_bounded_degree(2 + rng.below(200), 3, rng);
    case 2:
      return trees::path(1 + rng.below(150));
    case 3:
      return trees::star(1 + rng.below(150));
    default:
      return trees::complete_kary(4, 3);
  }
}

/// A random descendant-closed cached set over the rank space, as the
/// word-packed bitmap scan_missing reads: the union of random subtree
/// slices (each slice [r, r + size(r)) is a whole subtree, and unions of
/// subtrees are descendant-closed).
std::vector<std::uint64_t> random_cached_bits(const Tree& tree, Rng& rng) {
  const auto sizes = tree.preorder_sizes();
  const std::uint32_t n = tree.size();
  std::vector<std::uint64_t> bits((n + 63) / 64, 0);
  const std::size_t subtrees = rng.below(8);
  for (std::size_t i = 0; i < subtrees; ++i) {
    const auto r = static_cast<std::uint32_t>(rng.below(n));
    for (std::uint32_t x = r; x < r + sizes[r]; ++x) {
      bits[x >> 6] |= std::uint64_t{1} << (x & 63);
    }
  }
  return bits;
}

TEST(Kernels, RangeEpochResetZeroesEverySlot) {
  Rng rng(2026'08'08);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 63u, 64u, 65u, 127u, 128u}) {
    std::vector<NodeState::Counter> cnt(n);
    std::vector<NodeState::PosEntry> pos(n);
    for (std::size_t i = 0; i < n; ++i) {
      cnt[i] = {.value = rng.below(1000), .stamp = 7};
      pos[i] = {.pcnt = rng.uniform_int(-9, 9),
                .cached_below = static_cast<std::uint32_t>(rng.below(9)),
                .stamp = 7};
    }
    kernels::range_epoch_reset(cnt.data(), pos.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(cnt[i].value, 0u);
      EXPECT_EQ(cnt[i].stamp, 0u);
      EXPECT_EQ(pos[i].pcnt, 0);
      EXPECT_EQ(pos[i].cached_below, 0u);
      EXPECT_EQ(pos[i].stamp, 0u);
    }
  }
}

TEST(Kernels, NodeStateEpochWrapClearsThroughEachKind) {
  NodeState state(130);  // spans several 64-rank words + a ragged tail
  for (std::uint32_t r = 0; r < 130; ++r) {
    state.bump_counter(r);
    state.pos(r).pcnt = 3;
  }
  state.debug_set_epoch(std::numeric_limits<std::uint32_t>::max());
  state.new_phase();  // wraps: stamps ambiguous → hard clear
  EXPECT_EQ(state.debug_epoch(), 1u);
  for (std::uint32_t r = 0; r < 130; ++r) {
    EXPECT_EQ(state.counter(r), 0u);
    EXPECT_EQ(state.pcnt(r), 0);
    EXPECT_EQ(state.cached_below(r), 0u);
  }
}

/// Naive reference for Subforest::missing_subtree: per-node walk with
/// explicit subtree skips, straight off the contains() byte flags.
std::vector<NodeId> naive_missing(const Subforest& sub, NodeId u) {
  const Tree& tree = sub.tree();
  std::vector<NodeId> out;
  const auto from = tree.from_preorder();
  const std::uint32_t ru = tree.preorder_index(u);
  const std::uint32_t end = ru + tree.subtree_size(u);
  for (std::uint32_t r = ru; r < end;) {
    const NodeId v = from[r];
    if (sub.contains(v)) {
      r += tree.preorder_subtree_size(r);
      continue;
    }
    out.push_back(v);
    ++r;
  }
  return out;
}

TEST(Kernels, SubforestMissingSubtreeMatchesNaiveUnderEveryKind) {
  Rng rng(413);
  for (std::size_t round = 0; round < 25; ++round) {
    const Tree tree = make_tree(round, rng);
    const std::uint32_t n = tree.size();
    Subforest sub(tree);
    // Insert the random descendant-closed set children-first (descending
    // rank), as fetch changesets do.
    const auto bits = random_cached_bits(tree, rng);
    const auto from = tree.from_preorder();
    for (std::uint32_t r = n; r-- > 0;) {
      if (((bits[r >> 6] >> (r & 63)) & 1) != 0 &&
          !sub.contains(from[r])) {
        sub.insert(from[r]);
      }
    }
    for (std::size_t probe = 0; probe < 4; ++probe) {
      const auto u = static_cast<NodeId>(rng.below(n));
      if (sub.contains(u)) continue;  // P_t(u) needs non-cached u
      std::vector<NodeId> got;
      sub.missing_subtree(u, got);
      EXPECT_EQ(got, naive_missing(sub, u));
    }
  }
}

}  // namespace
}  // namespace treecache
