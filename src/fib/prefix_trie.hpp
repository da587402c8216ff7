// Binary trie over width-parameterized prefixes with longest-matching-
// prefix lookup. BasicPrefixTrie<Prefix> (IPv4) and BasicPrefixTrie<Prefix6>
// (IPv6) are the two instantiations (explicit, in prefix_trie.cpp).
//
// The trie is the router's lookup structure: lookup(addr) returns the
// longest inserted prefix containing addr. lookup_if additionally restricts
// matches to a caller predicate — the router simulation uses it with
// "is this rule cached?" to model lookups over the switch's partial FIB.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fib/ipv4.hpp"

namespace treecache::fib {

/// Value attached to an inserted prefix (the rule id / tree node id).
using RuleId = std::uint32_t;

template <typename PrefixT>
class BasicPrefixTrie {
 public:
  using Bits = typename PrefixT::Bits;
  static constexpr unsigned kWidth = PrefixT::kWidth;

  BasicPrefixTrie() { nodes_.push_back(Node{}); }

  /// Inserts a prefix; returns false if the exact prefix already exists.
  bool insert(const PrefixT& prefix, RuleId rule);

  [[nodiscard]] std::size_t size() const { return rules_; }

  /// Longest matching prefix over all rules, or nullopt if none matches.
  [[nodiscard]] std::optional<RuleId> lookup(const Bits& addr) const {
    return lookup_if(addr, [](RuleId) { return true; });
  }

  /// Longest matching prefix among rules accepted by `pred`.
  template <typename Pred>
  [[nodiscard]] std::optional<RuleId> lookup_if(const Bits& addr,
                                                Pred&& pred) const {
    std::optional<RuleId> best;
    std::uint32_t node = 0;
    for (unsigned depth = 0;; ++depth) {
      if (nodes_[node].rule != kNoRule && pred(nodes_[node].rule)) {
        best = nodes_[node].rule;
      }
      if (depth == kWidth) break;
      const std::uint32_t child =
          nodes_[node].child[key_bit(addr, depth) ? 1 : 0];
      if (child == 0) break;
      node = child;
    }
    return best;
  }

  /// Rule stored at exactly this prefix, if any.
  [[nodiscard]] std::optional<RuleId> exact(const PrefixT& prefix) const;

 private:
  static constexpr RuleId kNoRule = ~RuleId{0};
  struct Node {
    std::uint32_t child[2] = {0, 0};  // 0 = absent (node 0 is the root)
    RuleId rule = kNoRule;
  };
  std::vector<Node> nodes_;
  std::size_t rules_ = 0;
};

using PrefixTrie = BasicPrefixTrie<Prefix>;

}  // namespace treecache::fib
