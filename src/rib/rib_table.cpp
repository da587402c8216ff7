#include "rib/rib_table.hpp"

#include <algorithm>

namespace treecache::rib {

template <typename PrefixT>
bool BasicRibTable<PrefixT>::route_add(const PrefixT& prefix,
                                       NextHop next_hop) {
  std::uint32_t node = 0;
  for (unsigned i = 0; i < prefix.length; ++i) {
    const std::uint32_t branch = fib::key_bit(prefix.bits, i) ? 1 : 0;
    if (nodes_[node].child[branch] == 0) {
      // Child links are 32-bit; internet-scale tables stay far under
      // this, but a hostile feed must fail loudly, not wrap.
      TC_CHECK(nodes_.size() <= 0xFFFFFFFFull,
               "RIB trie exceeds 2^32 nodes");
      nodes_[node].child[branch] = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{});
    }
    node = nodes_[node].child[branch];
  }
  const bool fresh = !nodes_[node].occupied;
  nodes_[node].occupied = true;
  nodes_[node].next_hop = next_hop;
  if (fresh) ++routes_;
  return fresh;
}

template <typename PrefixT>
bool BasicRibTable<PrefixT>::route_delete(const PrefixT& prefix) {
  const auto [node, found] = find(prefix);
  if (!found || !nodes_[node].occupied) return false;
  nodes_[node].occupied = false;
  nodes_[node].next_hop = 0;
  --routes_;
  return true;
}

template <typename PrefixT>
std::optional<NextHop> BasicRibTable<PrefixT>::lookup(const Bits& addr) const {
  std::optional<NextHop> best;
  std::uint32_t node = 0;
  for (unsigned depth = 0;; ++depth) {
    if (nodes_[node].occupied) best = nodes_[node].next_hop;
    if (depth == PrefixT::kWidth) break;
    const std::uint32_t child =
        nodes_[node].child[fib::key_bit(addr, depth) ? 1 : 0];
    if (child == 0) break;
    node = child;
  }
  return best;
}

template <typename PrefixT>
std::optional<NextHop> BasicRibTable<PrefixT>::exact(
    const PrefixT& prefix) const {
  const auto [node, found] = find(prefix);
  if (!found || !nodes_[node].occupied) return std::nullopt;
  return nodes_[node].next_hop;
}

template <typename PrefixT>
std::pair<std::uint32_t, bool> BasicRibTable<PrefixT>::find(
    const PrefixT& prefix) const {
  std::uint32_t node = 0;
  for (unsigned i = 0; i < prefix.length; ++i) {
    const std::uint32_t child =
        nodes_[node].child[fib::key_bit(prefix.bits, i) ? 1 : 0];
    if (child == 0) return {0, false};
    node = child;
  }
  return {node, true};
}

template <typename PrefixT>
std::vector<PrefixT> BasicRibTable<PrefixT>::prefixes() const {
  // Nodes are only ever appended, each after its parent, so one pass in
  // index order meets every node after its prefix is known: a sequential
  // sweep where a walk down the child links would miss the cache at every
  // step. The final sort pins the rebuild input order regardless of
  // insertion history.
  std::vector<PrefixT> path(nodes_.size());  // path[i]: node i's prefix
  std::vector<PrefixT> out;
  out.reserve(routes_);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    const PrefixT prefix = path[i];
    if (node.occupied) out.push_back(prefix);
    for (int branch = 0; branch < 2; ++branch) {
      const std::uint32_t child = node.child[branch];
      if (child == 0) continue;
      PrefixT next = prefix;
      if (branch == 1) {
        next.bits = next.bits | (typename PrefixT::Bits{1}
                                 << (PrefixT::kWidth - 1 - next.length));
      }
      next.length = static_cast<std::uint8_t>(next.length + 1);
      path[child] = next;
    }
  }
  std::sort(out.begin(), out.end(), [](const PrefixT& a, const PrefixT& b) {
    return a.length != b.length ? a.length < b.length : a.bits < b.bits;
  });
  return out;
}

template <typename PrefixT>
fib::BasicRuleTree<PrefixT> rebuild_fib_from_rib(
    const BasicRibTable<PrefixT>& table) {
  return fib::build_rule_tree(table.prefixes());
}

template class BasicRibTable<fib::Prefix>;
template class BasicRibTable<fib::Prefix6>;
template fib::RuleTree rebuild_fib_from_rib<fib::Prefix>(const RibTable&);
template fib::RuleTree6 rebuild_fib_from_rib<fib::Prefix6>(const RibTable6&);

}  // namespace treecache::rib
