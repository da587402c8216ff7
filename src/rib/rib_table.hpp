// Exact-match RIB: the full routing table the control plane maintains,
// from which the FIB (rule tree) is rebuilt. Modeled on classic
// rib_route_add / rib_route_delete / rebuild_fib_from_rib designs, but
// the RIB itself never answers a longest-prefix match on the ingest
// path: it only adds, deletes and lists routes. So it is one flat
// open-addressing table keyed by the whole prefix (bits and length),
// with linear probing, and the LPM index lives in the rebuilt rule
// tree. Generic over the key width — RibTable (IPv4) and RibTable6
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

  /// Inserts or replaces the route for `prefix`. Returns true when the
  /// route is new, false when an existing route was replaced.
  bool route_add(const PrefixT& prefix, NextHop next_hop);

  /// Removes the route stored at exactly `prefix`. Returns false when no
  /// such route exists. The entry stays as a withdrawn tombstone (a
  /// re-announce reuses it); rebuild_fib_from_rib compacts.
  bool route_delete(const PrefixT& prefix);

  /// Longest-prefix match over live routes: one exact probe per length,
  /// longest first. For tests and tools; the ingest path never calls it.
  [[nodiscard]] std::optional<NextHop> lookup(const Bits& addr) const;

  /// The route stored at exactly `prefix`, if any.
  [[nodiscard]] std::optional<NextHop> exact(const PrefixT& prefix) const;

  /// Number of live routes.
  [[nodiscard]] std::size_t size() const { return routes_; }

  /// Entries held, withdrawn tombstones included: the number of distinct
  /// prefixes ever added. The denominator of the memory audit.
  [[nodiscard]] std::size_t node_count() const { return entries_; }

  /// Heap bytes held by the table (slot capacity × slot size — what the
  /// process actually pays). Reported by the 1M-route stress rows.
  [[nodiscard]] std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

  /// All live routes in slot order (the hash and the insertion history
  /// decide it, so it is deterministic for a given feed but not sorted).
  /// fib::build_rule_tree sorts, so FIB rebuilds do not depend on it.
  [[nodiscard]] std::vector<PrefixT> prefixes() const;

 private:
  enum class State : std::uint8_t { kEmpty, kWithdrawn, kLive };
  struct Slot {
    PrefixT prefix;
    NextHop next_hop = 0;
    State state = State::kEmpty;
  };
  static constexpr std::size_t kInitialSlots = 16;  // a power of two

  /// The slot holding `prefix`, or the empty slot that ends its probe
  /// run. The load stays at most ½, so an empty slot always exists.
  [[nodiscard]] std::size_t find(const PrefixT& prefix) const;

  /// Doubles the capacity and re-inserts every entry.
  void grow();

  std::vector<Slot> slots_ = std::vector<Slot>(kInitialSlots);
  std::size_t entries_ = 0;
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
