#include "fib/prefix_trie.hpp"

#include "fib/ipv6.hpp"

namespace treecache::fib {

template <typename PrefixT>
bool BasicPrefixTrie<PrefixT>::insert(const PrefixT& prefix, RuleId rule) {
  TC_CHECK(rule != kNoRule, "rule id reserved");
  std::uint32_t node = 0;
  for (unsigned i = 0; i < prefix.length; ++i) {
    const std::uint32_t branch = key_bit(prefix.bits, i) ? 1 : 0;
    if (nodes_[node].child[branch] == 0) {
      nodes_[node].child[branch] = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{});
    }
    node = nodes_[node].child[branch];
  }
  if (nodes_[node].rule != kNoRule) return false;
  nodes_[node].rule = rule;
  ++rules_;
  return true;
}

template <typename PrefixT>
std::optional<RuleId> BasicPrefixTrie<PrefixT>::exact(
    const PrefixT& prefix) const {
  std::uint32_t node = 0;
  for (unsigned i = 0; i < prefix.length; ++i) {
    const std::uint32_t child =
        nodes_[node].child[key_bit(prefix.bits, i) ? 1 : 0];
    if (child == 0) return std::nullopt;
    node = child;
  }
  if (nodes_[node].rule == kNoRule) return std::nullopt;
  return nodes_[node].rule;
}

template class BasicPrefixTrie<Prefix>;
template class BasicPrefixTrie<Prefix6>;

}  // namespace treecache::fib
