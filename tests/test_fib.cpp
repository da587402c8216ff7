// FIB substrate: IPv4 parsing, rule-tree structure (the build and its
// LPM, exact and cached-subset lookups against a brute-force oracle over
// both key widths), synthetic RIB properties, router simulation
// correctness, and the Appendix B canonicalization bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "baselines/lru_closure.hpp"
#include "core/tree_cache.hpp"
#include "fib/canonicalizer.hpp"
#include "fib/rib_gen.hpp"
#include "fib/router_sim.hpp"
#include "fib/rule_tree.hpp"
#include "fib/traffic.hpp"
#include "util/rng.hpp"

namespace treecache::fib {
namespace {

TEST(Ipv4, AddressRoundTrip) {
  EXPECT_EQ(address_to_string(0xC0A80101), "192.168.1.1");
  EXPECT_EQ(parse_address("192.168.1.1"), 0xC0A80101u);
  EXPECT_EQ(parse_address("0.0.0.0"), 0u);
  EXPECT_EQ(parse_address("255.255.255.255"), 0xFFFFFFFFu);
}

TEST(Ipv4, PrefixParseAndNormalize) {
  // parse is strict (a feed line with host bits set is a data error, not
  // something to silently round); make() is the normalizing constructor.
  const Prefix p = Prefix::make(parse_address("10.1.2.3"), 8);
  EXPECT_EQ(p.to_string(), "10.0.0.0/8");  // low bits dropped
  EXPECT_EQ(p.length, 8);
  EXPECT_TRUE(p.contains(parse_address("10.255.0.1")));
  EXPECT_FALSE(p.contains(parse_address("11.0.0.1")));
  EXPECT_EQ(Prefix::parse("10.0.0.0/8"), p);
  EXPECT_EQ(Prefix::parse("0.0.0.0/0"), Prefix{});
}

TEST(Ipv4, PrefixContainsPrefix) {
  const Prefix wide = Prefix::parse("10.0.0.0/8");
  const Prefix narrow = Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(wide.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide));
  EXPECT_TRUE(wide.contains(wide));
  EXPECT_TRUE(Prefix{}.contains(narrow));  // default route covers all
}

TEST(Ipv4, RejectsMalformedInput) {
  EXPECT_THROW(Prefix::parse("10.0.0.0"), CheckFailure);
  EXPECT_THROW(Prefix::parse("10.0.0.0/33"), CheckFailure);
  EXPECT_THROW((void)parse_address("300.0.0.1"), CheckFailure);
  EXPECT_THROW((void)parse_address("10.0.0"), CheckFailure);
}

/// What a parse error says matters as much as that it throws: feed files
/// are hand-edited and machine-generated, and the message must point at
/// the offending byte. These are regression tests for the strict scanner.
TEST(Ipv4, ParseErrorsNameTheProblemAndPosition) {
  const auto message_of = [](auto&& parse) -> std::string {
    try {
      (void)parse();
    } catch (const CheckFailure& e) {
      return e.what();
    }
    return {};
  };

  // Out-of-range octet, with its 1-based column.
  const std::string range =
      message_of([] { return parse_address("10.256.0.1"); });
  EXPECT_NE(range.find("octet out of range"), std::string::npos) << range;
  EXPECT_NE(range.find("column 4"), std::string::npos) << range;
  // Too many digits is distinct from out of range ("0000" is not 0..255).
  EXPECT_NE(message_of([] { return parse_address("1.2.3.0000"); })
                .find("more than three digits"),
            std::string::npos);
  // Trailing garbage after a well-formed address / prefix.
  EXPECT_THROW((void)parse_address("10.0.0.1x"), CheckFailure);
  EXPECT_THROW((void)parse_address("10.0.0.1 "), CheckFailure);
  EXPECT_THROW(Prefix::parse("10.0.0.0/8x"), CheckFailure);
  EXPECT_THROW(Prefix::parse("10.0.0.0/+8"), CheckFailure);
  EXPECT_THROW(Prefix::parse("10.0.0.0/"), CheckFailure);
  // Empty octets and missing dots.
  EXPECT_THROW((void)parse_address("10..0.1"), CheckFailure);
  EXPECT_THROW((void)parse_address(""), CheckFailure);
  // Host bits set beyond the mask: rejected, and the message names the
  // prefix, the length, and where the address starts.
  const std::string host =
      message_of([] { return Prefix::parse("10.1.2.3/8"); });
  EXPECT_NE(host.find("host bits set beyond /8"), std::string::npos) << host;
  EXPECT_NE(host.find("10.1.2.3/8"), std::string::npos) << host;
}

TEST(RuleTree, ParentIsLongestProperAncestor) {
  Rng rng(7);
  const auto rib = generate_rib({.rules = 300, .deaggregation = 0.6}, rng);
  const RuleTree rt = build_rule_tree(rib);
  ASSERT_EQ(rt.tree.size(), rt.prefix.size());
  for (NodeId v = 1; v < rt.tree.size(); ++v) {
    const NodeId p = rt.tree.parent(v);
    EXPECT_TRUE(rt.prefix[p].contains(rt.prefix[v]));
    EXPECT_LT(rt.prefix[p].length, rt.prefix[v].length);
    // No other rule sits strictly between v and its parent.
    for (NodeId u = 1; u < rt.tree.size(); ++u) {
      if (u == v || u == p) continue;
      const bool between = rt.prefix[u].contains(rt.prefix[v]) &&
                           rt.prefix[p].contains(rt.prefix[u]) &&
                           rt.prefix[u].length > rt.prefix[p].length &&
                           rt.prefix[u].length < rt.prefix[v].length;
      EXPECT_FALSE(between) << "rule " << u << " between " << v
                            << " and its parent";
    }
  }
}

TEST(RuleTree, DropsDuplicatesAndDefaultRoute) {
  std::vector<Prefix> prefixes{
      Prefix::parse("10.0.0.0/8"), Prefix::parse("10.0.0.0/8"),
      Prefix::make(0, 0),  // explicit default route merges into the root
      Prefix::parse("10.1.0.0/16")};
  const RuleTree rt = build_rule_tree(prefixes);
  EXPECT_EQ(rt.tree.size(), 3u);  // root + two rules
  EXPECT_EQ(rt.lpm(parse_address("10.1.9.9")),
            2u);  // the /16, inserted after the /8
  EXPECT_EQ(rt.lpm(parse_address("77.1.9.9")), 0u);  // default rule
}

// --- Rule-tree build vs a brute-force oracle, both widths ----------------

/// A random prefix multiset with duplicates, explicit /0 entries,
/// deaggregated nesting (a prefix carved out of an earlier one, a few
/// bits longer) and full-width host routes.
template <typename PrefixT>
std::vector<PrefixT> nested_multiset(Rng& rng, std::size_t count) {
  using Family = AddressFamily<typename PrefixT::Bits>;
  constexpr unsigned kWidth = PrefixT::kWidth;
  std::vector<PrefixT> out;
  while (out.size() < count) {
    const double roll = rng.uniform01();
    if (!out.empty() && roll < 0.1) {
      out.push_back(rng.pick(out));
    } else if (roll < 0.13) {
      out.push_back(PrefixT{});
    } else if (!out.empty() && roll < 0.6) {
      const PrefixT outer = rng.pick(out);
      if (outer.length == kWidth) continue;
      const auto length = static_cast<std::uint8_t>(
          outer.length + 1 + rng.below(std::min(8u, kWidth - outer.length)));
      const auto span = ~prefix_mask<typename PrefixT::Bits>(outer.length);
      out.push_back(
          PrefixT::make(outer.bits | (Family::random(rng) & span), length));
    } else if (roll < 0.7) {
      out.push_back(PrefixT::make(Family::random(rng), kWidth));
    } else {
      const auto length = static_cast<std::uint8_t>(rng.below(kWidth + 1));
      out.push_back(PrefixT::make(Family::random(rng), length));
    }
  }
  return out;
}

template <typename PrefixT>
bool by_length_then_bits(const PrefixT& a, const PrefixT& b) {
  return std::pair(a.length, a.bits) < std::pair(b.length, b.bits);
}

template <typename PrefixT>
void rule_tree_matches_brute_force(std::uint64_t seed) {
  using Bits = typename PrefixT::Bits;
  using Family = AddressFamily<Bits>;
  Rng rng(seed);
  const std::vector<PrefixT> input = nested_multiset<PrefixT>(rng, 700);
  const BasicRuleTree<PrefixT> rt = build_rule_tree(input);

  // Nodes 1.. are the distinct non-/0 inputs in (length, bits) order.
  std::vector<PrefixT> distinct;
  for (const PrefixT& p : input) {
    if (p.length > 0) distinct.push_back(p);
  }
  std::ranges::sort(distinct, by_length_then_bits<PrefixT>);
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  ASSERT_LT(distinct.size(), input.size());  // duplicates and /0 were there
  ASSERT_EQ(rt.tree.size(), distinct.size() + 1);
  ASSERT_EQ(rt.prefix.size(), rt.tree.size());
  EXPECT_EQ(rt.prefix[0], PrefixT{});
  EXPECT_EQ(std::vector<PrefixT>(rt.prefix.begin() + 1, rt.prefix.end()),
            distinct);

  // Brute force: the longest stored prefix that properly contains `p`,
  // or the root.
  const auto longest_containing = [&](const auto& covers) {
    NodeId best = 0;
    for (NodeId u = 1; u < rt.tree.size(); ++u) {
      if (covers(rt.prefix[u]) &&
          rt.prefix[u].length > rt.prefix[best].length) {
        best = u;
      }
    }
    return best;
  };
  std::size_t nested = 0;
  for (NodeId v = 1; v < rt.tree.size(); ++v) {
    const PrefixT& p = rt.prefix[v];
    const NodeId parent = longest_containing([&](const PrefixT& q) {
      return q.length < p.length && q.contains(p);
    });
    ASSERT_EQ(rt.tree.parent(v), parent) << p.to_string();
    nested += parent != 0;
    EXPECT_EQ(rt.exact(p), std::optional<NodeId>(v));
  }
  EXPECT_GT(nested, distinct.size() / 4);
  EXPECT_EQ(rt.exact(PrefixT{}), std::optional<NodeId>(0));

  // Probes aimed inside a stored prefix, and random ones.
  const auto draw_probe = [&](int probe) {
    const PrefixT& target = rng.pick(distinct);
    const Bits span = ~prefix_mask<Bits>(target.length);
    return probe % 4 == 0 ? Family::random(rng)
                          : target.bits | (Family::random(rng) & span);
  };
  for (int probe = 0; probe < 1000; ++probe) {
    const Bits addr = draw_probe(probe);
    const NodeId want = longest_containing(
        [&](const PrefixT& q) { return q.contains(addr); });
    ASSERT_EQ(rt.lpm(addr), want) << "probe " << probe;
  }
  // The predicate walk from the full-table match is the LPM over the
  // accepted rules alone (the /0 among them), down to accepting nothing.
  for (const double density : {0.0, 0.05, 0.3, 0.7, 1.0}) {
    std::vector<char> accepted(rt.tree.size());
    for (char& a : accepted) a = rng.chance(density) ? 1 : 0;
    const auto accept = [&](NodeId u) { return accepted[u] != 0; };
    for (int probe = 0; probe < 300; ++probe) {
      const Bits addr = draw_probe(probe);
      std::optional<NodeId> want;
      for (NodeId u = 0; u < rt.tree.size(); ++u) {
        if (accept(u) && rt.prefix[u].contains(addr) &&
            (!want || rt.prefix[u].length > rt.prefix[*want].length)) {
          want = u;
        }
      }
      ASSERT_EQ(rt.deepest_accepted(rt.lpm(addr), accept), want)
          << "density " << density << " probe " << probe;
    }
  }
  // A prefix the input never named has no exact match.
  for (int probe = 0; probe < 200; ++probe) {
    const auto length =
        static_cast<std::uint8_t>(1 + rng.below(PrefixT::kWidth));
    const PrefixT p = PrefixT::make(Family::random(rng), length);
    if (!std::ranges::binary_search(distinct, p,
                                    by_length_then_bits<PrefixT>)) {
      EXPECT_EQ(rt.exact(p), std::nullopt) << p.to_string();
    }
  }
}

TEST(RuleTree, MatchesBruteForceIpv4) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    rule_tree_matches_brute_force<Prefix>(seed);
  }
}

TEST(RuleTree, MatchesBruteForceIpv6) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    rule_tree_matches_brute_force<Prefix6>(seed);
  }
}

TEST(RibGen, ProducesRequestedDistinctRules) {
  Rng rng(11);
  const auto rib = generate_rib({.rules = 1000}, rng);
  EXPECT_EQ(rib.size(), 1000u);
  auto sorted = rib;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (const Prefix& p : rib) {
    EXPECT_GE(p.length, 8);
    EXPECT_LE(p.length, 24);
    EXPECT_EQ(p.bits, Prefix::make(p.bits, p.length).bits);  // normalized
  }
}

TEST(RibGen, DeaggregationCreatesDepth) {
  Rng rng(13);
  const auto flat_rib = generate_rib({.rules = 800, .deaggregation = 0.0}, rng);
  const auto deep_rib = generate_rib({.rules = 800, .deaggregation = 0.8}, rng);
  const RuleTree flat = build_rule_tree(flat_rib);
  const RuleTree deep = build_rule_tree(deep_rib);
  EXPECT_GT(deep.tree.height(), flat.tree.height());
}

TEST(PacketSampler, MatchIsTheFullTableLpm) {
  // The sampler hands back each draw's match instead of leaving callers to
  // rerun the LPM: it must be exactly the rule tree's LPM, on leaf and inner
  // rules alike.
  Rng rng(19);
  const auto rib = generate_rib({.rules = 600, .deaggregation = 0.6}, rng);
  const RuleTree rt = build_rule_tree(rib);
  const PacketSampler sampler(rt, 1.0, rng);
  std::size_t inner = 0;
  for (int i = 0; i < 20000; ++i) {
    const PacketSampler::Packet packet = sampler.sample_address(rng);
    ASSERT_EQ(packet.match, rt.lpm(packet.addr)) << "draw " << i;
    inner += rt.tree.is_leaf(packet.match) ? 0 : 1;
  }
  EXPECT_GT(inner, 0u) << "no draw exercised the rejection loop";
}

TEST(RouterSim, NoForwardingErrorsAndConsistentCounts) {
  Rng rng(17);
  const auto rib = generate_rib({.rules = 500, .deaggregation = 0.5}, rng);
  const RuleTree rt = build_rule_tree(rib);
  TreeCache tc(rt.tree, {.alpha = 8, .capacity = 64});
  const auto result = run_router_sim(
      rt, tc,
      {.packets = 20000, .zipf_skew = 1.1, .update_probability = 0.02,
       .alpha = 8, .seed = 5});
  EXPECT_EQ(result.forwarding_errors, 0u);
  EXPECT_EQ(result.hits + result.misses, result.packets);
  EXPECT_GT(result.hits, 0u) << "cache never got hot";
  EXPECT_GT(result.misses, 0u);
  EXPECT_EQ(result.algorithm_cost.total(), tc.cost().total());
}

TEST(RouterSim, LruClosureIsAlsoForwardingCorrect) {
  Rng rng(19);
  const auto rib = generate_rib({.rules = 300}, rng);
  const RuleTree rt = build_rule_tree(rib);
  LruClosure lru(rt.tree, {.alpha = 4, .capacity = 48});
  const auto result = run_router_sim(
      rt, lru,
      {.packets = 8000, .zipf_skew = 1.0, .update_probability = 0.01,
       .alpha = 4, .seed = 23});
  EXPECT_EQ(result.forwarding_errors, 0u);
  EXPECT_GT(result.hits, 0u);
}

// A stub that pins a fixed subforest (legal on the tree it is built over)
// and records every request it is stepped with, so the test can observe
// what the router reports to the online algorithm.
class PinnedCache final : public OnlineAlgorithm {
 public:
  PinnedCache(const Tree& tree, const std::vector<NodeId>& pins)
      : cache_(tree) {
    for (const NodeId v : pins) cache_.insert(v);
    TC_CHECK(cache_.is_valid(), "pins must form a subforest");
  }

  [[nodiscard]] std::string_view name() const override { return "Pinned"; }
  StepOutcome step(Request request) override {
    seen.push_back(request);
    StepOutcome out;
    out.paid = (request.sign == Sign::kPositive) !=
               cache_.contains(request.node);
    if (out.paid) ++cost_.service;
    return out;
  }
  void reset() override { seen.clear(); }
  [[nodiscard]] const Subforest& cache() const override { return cache_; }
  [[nodiscard]] const Cost& cost() const override { return cost_; }

  std::vector<Request> seen;

 private:
  Subforest cache_;
  Cost cost_;
};

// Regression: a mis-forwarded packet (cached LPM disagrees with the full
// table) must be detoured via the controller — counted in
// forwarding_errors AND reported to the algorithm as a positive request
// for the full-table match, not silently dropped from the instance.
//
// Subforest-invariant algorithms can never mis-forward, so the test
// fabricates a cache that breaks the invariant on the real rule tree: it
// holds the /8 without its child /16. A Subforest refuses such an insert,
// so the pins go in while the tree slot holds a star with the same node
// ids and preorder, and the real nested tree is moved back afterwards.
TEST(RouterSim, ForwardingErrorsDetourViaController) {
  RuleTree rt = build_rule_tree(std::vector<Prefix>{
      Prefix::parse("10.0.0.0/8"), Prefix::parse("10.0.0.0/16")});
  ASSERT_EQ(rt.tree.parent(2), 1u);  // the /16 nests under the /8
  Tree nested = std::exchange(rt.tree, Tree({kNoNode, 0, 0}));
  PinnedCache pinned(rt.tree, {1});  // the /8 is cached, the /16 is not
  rt.tree = std::move(nested);
  const auto result = run_router_sim(
      rt, pinned, {.packets = 2000, .zipf_skew = 1.0, .alpha = 4, .seed = 9});

  // Packets inside 10.0.0.0/16 match the cached /8 but the full table
  // picks the /16: mis-forwarded, detected, detoured.
  EXPECT_GT(result.forwarding_errors, 0u);
  EXPECT_GT(result.hits, 0u);  // packets on the /8 outside the /16 still hit
  EXPECT_EQ(result.hits + result.misses + result.forwarding_errors,
            result.packets);
  // The algorithm saw exactly one positive request per detoured packet
  // (misses are zero here: every sampled address matches the cached /8).
  EXPECT_EQ(result.misses, 0u);
  ASSERT_EQ(pinned.seen.size(), result.forwarding_errors);
  for (const Request& r : pinned.seen) {
    EXPECT_EQ(r, positive(2));
  }
}

TEST(RouterSim, ZeroCapacityEquivalentMissesEverything) {
  Rng rng(29);
  const auto rib = generate_rib({.rules = 100}, rng);
  const RuleTree rt = build_rule_tree(rib);
  // Capacity 1 with a huge alpha: nothing ever gets cached in time.
  TreeCache tc(rt.tree, {.alpha = 1000000, .capacity = 1});
  const auto result = run_router_sim(
      rt, tc, {.packets = 2000, .zipf_skew = 1.0, .alpha = 4, .seed = 3});
  EXPECT_EQ(result.hits, 0u);
  EXPECT_EQ(result.misses, result.packets);
}

TEST(Canonicalizer, FactorTwoBoundOnUpdateHeavyWorkloads) {
  Rng rng(31);
  const auto rib = generate_rib({.rules = 200, .deaggregation = 0.5}, rng);
  const RuleTree rt = build_rule_tree(rib);
  for (const double update_prob : {0.05, 0.2, 0.5}) {
    Rng wl(rng());
    const auto workload = make_fib_workload(
        rt,
        {.events = 20000, .zipf_skew = 1.0,
         .update_probability = update_prob, .alpha = 8},
        wl);
    TreeCache tc(rt.tree, {.alpha = 8, .capacity = 32});
    const auto report = run_canonicalized(rt.tree, workload, tc);
    EXPECT_EQ(report.raw_cost.total(), tc.cost().total());
    EXPECT_LE(report.canonical_cost.total(), 2 * report.raw_cost.total())
        << "update_prob " << update_prob;
    EXPECT_LE(report.dirty_chunks, report.chunks);
  }
}

TEST(Canonicalizer, CleanRunsCostTheSame) {
  // Without any chunks, canonical and raw costs agree exactly.
  Rng rng(37);
  const auto rib = generate_rib({.rules = 150}, rng);
  const RuleTree rt = build_rule_tree(rib);
  const auto workload = make_fib_workload(
      rt, {.events = 5000, .zipf_skew = 1.0, .update_probability = 0.0,
           .alpha = 4},
      rng);
  EXPECT_TRUE(workload.chunks.empty());
  TreeCache tc(rt.tree, {.alpha = 4, .capacity = 24});
  const auto report = run_canonicalized(rt.tree, workload, tc);
  EXPECT_EQ(report.canonical_cost.total(), report.raw_cost.total());
}

}  // namespace
}  // namespace treecache::fib
