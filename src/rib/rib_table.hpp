// Radix-trie RIB: the full routing table the control plane maintains,
// from which the FIB (rule tree) is rebuilt. Modeled on classic
// rib_route_add / rib_route_delete / rebuild_fib_from_rib designs: a
// binary radix trie keyed by the prefix bits, one optional route per
// node. Generic over the key width — RibTable (IPv4) and RibTable6
// (IPv6) are the two instantiations.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fib/ipv6.hpp"
#include "fib/rule_tree.hpp"

namespace treecache::rib {

/// Abstract next-hop identifier carried by a route. A deployed RIB stores
/// a peer address plus path attributes; the cache model only needs route
/// identity, so a small integer stands in.
using NextHop = std::uint32_t;

template <typename PrefixT>
class BasicRibTable {
 public:
  using Bits = typename PrefixT::Bits;

  BasicRibTable() { nodes_.push_back(Node{}); }

  /// Inserts or replaces the route for `prefix`. Returns true when the
  /// route is new, false when an existing route was replaced.
  bool route_add(const PrefixT& prefix, NextHop next_hop);

  /// Removes the route stored at exactly `prefix`. Returns false when no
  /// such route exists. Trie nodes are not reclaimed (tombstone-style,
  /// like production radix RIBs); rebuild_fib_from_rib compacts.
  bool route_delete(const PrefixT& prefix);

  /// Longest-prefix match over live routes.
  [[nodiscard]] std::optional<NextHop> lookup(const Bits& addr) const;

  /// The route stored at exactly `prefix`, if any.
  [[nodiscard]] std::optional<NextHop> exact(const PrefixT& prefix) const;

  /// Number of live routes.
  [[nodiscard]] std::size_t size() const { return routes_; }

  /// Trie nodes allocated, root and tombstones included — the
  /// denominator of the memory audit.
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Heap bytes held by the trie (capacity, not just size — what the
  /// process actually pays). Reported by the 1M-route stress rows.
  [[nodiscard]] std::size_t memory_bytes() const {
    return nodes_.capacity() * sizeof(Node);
  }

  /// All live routes in trie node-index order (insertion history decides
  /// it, so it is deterministic for a given feed but not sorted).
  /// fib::build_rule_tree sorts, so FIB rebuilds do not depend on it.
  [[nodiscard]] std::vector<PrefixT> prefixes() const;

 private:
  struct Node {
    std::uint32_t child[2] = {0, 0};  // 0 = absent (node 0 is the root)
    NextHop next_hop = 0;
    bool occupied = false;
  };

  /// Index of the node for `prefix`, or 0 with found=false when the path
  /// does not exist. (Root IS index 0; `found` disambiguates.)
  [[nodiscard]] std::pair<std::uint32_t, bool> find(
      const PrefixT& prefix) const;

  std::vector<Node> nodes_;
  std::size_t routes_ = 0;
};

using RibTable = BasicRibTable<fib::Prefix>;
using RibTable6 = BasicRibTable<fib::Prefix6>;

/// FIB rebuild: materializes the RIB's live routes into the rule
/// dependency tree the cache runs on (fib::build_rule_tree over
/// prefixes(), artificial default rule at node 0) — the same shape
/// rule_tree_from_params produces for synthetic tables.
template <typename PrefixT>
[[nodiscard]] fib::BasicRuleTree<PrefixT> rebuild_fib_from_rib(
    const BasicRibTable<PrefixT>& table);

}  // namespace treecache::rib
