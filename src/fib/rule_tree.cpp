#include "fib/rule_tree.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace treecache::fib {

template <typename PrefixT>
BasicRuleTree<PrefixT> build_rule_tree(std::vector<PrefixT> prefixes) {
  // Prefix's own (bits, length) order is preorder of the inclusion tree:
  // an ancestor sorts before its descendants, and each subtree is one
  // contiguous run. Drop duplicates and any explicit default route (it
  // is the artificial root).
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                 prefixes.end());
  std::erase_if(prefixes, [](const PrefixT& p) { return p.length == 0; });
  TC_CHECK(prefixes.size() + 1 < kNoNode, "tree too large for NodeId");

  // Ids go shortest first, then numeric (parents precede children). A
  // counting pass by length gives each length its first id; preorder
  // meets the prefixes of one length in numeric order.
  std::array<NodeId, PrefixT::kWidth + 1> next_id{};
  for (const PrefixT& p : prefixes) ++next_id[p.length];
  NodeId first = 1;
  for (NodeId& id : next_id) first += std::exchange(id, first);

  std::vector<PrefixT> node_prefix(prefixes.size() + 1);  // node 0: /0
  std::vector<NodeId> parent(prefixes.size() + 1, kNoNode);
  std::vector<std::pair<PrefixT, NodeId>> sorted;
  sorted.reserve(prefixes.size() + 1);
  sorted.emplace_back(PrefixT{}, 0);
  // Positions in `sorted` of the rules that contain the current one,
  // outermost (the /0) first: in preorder its parent is the innermost of
  // them still open.
  std::vector<std::size_t> open{0};
  for (const PrefixT& p : prefixes) {
    const NodeId node = next_id[p.length]++;
    while (!sorted[open.back()].first.contains(p)) open.pop_back();
    parent[node] = sorted[open.back()].second;
    open.push_back(sorted.size());
    sorted.emplace_back(p, node);
    node_prefix[node] = p;
  }
  return BasicRuleTree<PrefixT>{Tree(std::move(parent)),
                                std::move(node_prefix), std::move(sorted)};
}

template RuleTree build_rule_tree<Prefix>(std::vector<Prefix>);
template RuleTree6 build_rule_tree<Prefix6>(std::vector<Prefix6>);

}  // namespace treecache::fib
