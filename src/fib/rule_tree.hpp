// Rule dependency tree extraction (§2 of the paper).
//
// The forwarding rules of a FIB form an implicit tree under prefix
// inclusion: the parent of a rule is its longest proper ancestor prefix.
// An artificial default rule /0 (node 0) roots the tree; it forwards
// unmatched packets to the controller (Figure 1). Tree caching runs on
// exactly this tree: caching a rule requires caching all of its
// more-specific descendants, which is what makes LPM over the cached
// subset return correct egress ports. Generic over the key width:
// RuleTree is the IPv4 instantiation, RuleTree6 the IPv6 one.
//
// The tree is its own LPM index. The rules containing an address form
// one chain of the inclusion tree: the ancestors-or-self of its longest
// match. `sorted` lists every rule in Prefix's (bits, length) order,
// which is preorder of that tree. The address's predecessor there (the
// last rule whose bits do not exceed it) sorts at or after the match,
// whose bits do not exceed it either, and its bits lie between the
// match's and the address, inside the match's range: so it is the match
// or a descendant. The match is then the predecessor's deepest
// ancestor-or-self that contains the address, since no rule containing
// the address is deeper than the match.
#pragma once

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "fib/ipv6.hpp"
#include "tree/tree.hpp"

namespace treecache::fib {

template <typename PrefixT>
struct BasicRuleTree {
  using Bits = typename PrefixT::Bits;

  Tree tree;                    // node 0 = artificial default rule
  std::vector<PrefixT> prefix;  // per tree node
  /// Every rule, the default rule /0 first, as (prefix, node) in
  /// (bits, length) order: preorder of the inclusion tree.
  std::vector<std::pair<PrefixT, NodeId>> sorted;

  /// Full-table longest-prefix match; node 0 (default rule) if nothing
  /// more specific matches.
  [[nodiscard]] NodeId lpm(const Bits& addr) const {
    // The /0 entry sorts first and contains every address, so the
    // predecessor exists and the walk ends at the root at the latest.
    const auto after = std::upper_bound(
        sorted.begin(), sorted.end(), addr,
        [](const Bits& a, const auto& entry) { return a < entry.first.bits; });
    NodeId node = std::prev(after)->second;
    while (!prefix[node].contains(addr)) node = tree.parent(node);
    return node;
  }

  /// Node stored at exactly this prefix (the /0 is node 0), if any.
  [[nodiscard]] std::optional<NodeId> exact(const PrefixT& p) const {
    const auto it = std::lower_bound(
        sorted.begin(), sorted.end(), p,
        [](const auto& entry, const PrefixT& q) { return entry.first < q; });
    if (it == sorted.end() || it->first != p) return std::nullopt;
    return it->second;
  }

  /// The deepest of `node`, parent(node), ..., root that `accept` takes,
  /// or nullopt. From an address's full-table match this is the LPM over
  /// the accepted rules alone, because that chain is exactly the rules
  /// containing the address.
  template <typename Pred>
  [[nodiscard]] std::optional<NodeId> deepest_accepted(NodeId node,
                                                       Pred&& accept) const {
    for (; node != kNoNode; node = tree.parent(node)) {
      if (accept(node)) return node;
    }
    return std::nullopt;
  }
};

using RuleTree = BasicRuleTree<Prefix>;
using RuleTree6 = BasicRuleTree<Prefix6>;

/// Builds the rule tree from a set of prefixes. Duplicates are dropped; a
/// /0 entry, if present, merges into the artificial root. Node ids are
/// assigned so that parents precede children (sorted by prefix length).
template <typename PrefixT>
[[nodiscard]] BasicRuleTree<PrefixT> build_rule_tree(
    std::vector<PrefixT> prefixes);

}  // namespace treecache::fib
