#include "rib/rib_table.hpp"

namespace treecache::rib {

namespace {

/// The splitmix64 finalizer: a bijection on 64 bits in which every input
/// bit flips each output bit with probability about ½.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Both hashes mix every key bit. IPv4 packs bits and length into one
// word, so distinct prefixes never share a hash.
std::uint64_t slot_hash(const fib::Prefix& p) {
  return mix64((std::uint64_t{p.bits} << 8) | p.length);
}

std::uint64_t slot_hash(const fib::Prefix6& p) {
  return mix64(mix64(mix64(p.length) ^ p.bits.lo) ^ p.bits.hi);
}

}  // namespace

template <typename PrefixT>
std::size_t BasicRibTable<PrefixT>::find(const PrefixT& prefix) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slot_hash(prefix) & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.state == State::kEmpty || slot.prefix == prefix) return i;
  }
}

template <typename PrefixT>
void BasicRibTable<PrefixT>::grow() {
  // Fail loudly before the doubled capacity (and so any slot index) can
  // overflow; no real table comes near this.
  TC_CHECK(slots_.size() <= slots_.max_size() / 2,
           "RIB table capacity overflow");
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  for (const Slot& slot : old) {
    if (slot.state != State::kEmpty) slots_[find(slot.prefix)] = slot;
  }
}

template <typename PrefixT>
bool BasicRibTable<PrefixT>::route_add(const PrefixT& prefix,
                                       NextHop next_hop) {
  std::size_t i = find(prefix);
  if (slots_[i].state == State::kEmpty) {
    if (2 * (entries_ + 1) > slots_.size()) {
      grow();
      i = find(prefix);
    }
    slots_[i].prefix = prefix;
    ++entries_;
  }
  Slot& slot = slots_[i];
  const bool fresh = slot.state != State::kLive;
  slot.state = State::kLive;
  slot.next_hop = next_hop;
  if (fresh) ++routes_;
  return fresh;
}

template <typename PrefixT>
bool BasicRibTable<PrefixT>::route_delete(const PrefixT& prefix) {
  Slot& slot = slots_[find(prefix)];
  if (slot.state != State::kLive) return false;
  slot.state = State::kWithdrawn;
  slot.next_hop = 0;
  --routes_;
  return true;
}

template <typename PrefixT>
std::optional<NextHop> BasicRibTable<PrefixT>::lookup(const Bits& addr) const {
  for (int length = PrefixT::kWidth; length >= 0; --length) {
    const PrefixT prefix =
        PrefixT::make(addr, static_cast<std::uint8_t>(length));
    if (const auto hop = exact(prefix)) return hop;
  }
  return std::nullopt;
}

template <typename PrefixT>
std::optional<NextHop> BasicRibTable<PrefixT>::exact(
    const PrefixT& prefix) const {
  const Slot& slot = slots_[find(prefix)];
  if (slot.state != State::kLive) return std::nullopt;
  return slot.next_hop;
}

template <typename PrefixT>
std::vector<PrefixT> BasicRibTable<PrefixT>::prefixes() const {
  std::vector<PrefixT> out;
  out.reserve(routes_);
  for (const Slot& slot : slots_) {
    if (slot.state == State::kLive) out.push_back(slot.prefix);
  }
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
