// The RIB subsystem, unit-level: U128 arithmetic, IPv6 parsing and RFC
// 5952 formatting, feed-line grammar (round trips and line-numbered
// errors), the radix RibTable against a naive sorted-vector LPM
// reference over both key widths, FIB rebuild invariants, and the
// synthetic feed generator's self-consistency.
#include "rib/rib_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fib/ipv6.hpp"
#include "rib/feed.hpp"
#include "rib/ingest.hpp"
#include "util/rng.hpp"

namespace treecache::rib {
namespace {

using fib::Address;
using fib::Address6;
using fib::Prefix;
using fib::Prefix6;
using fib::U128;

// --- U128 ----------------------------------------------------------------

TEST(U128Arithmetic, ShiftsAcrossTheWordBoundary) {
  const U128 one{1};
  EXPECT_EQ(one << 0, one);
  EXPECT_EQ(one << 1, U128(0, 2));
  EXPECT_EQ(one << 63, U128(0, std::uint64_t{1} << 63));
  EXPECT_EQ(one << 64, U128(1, 0));
  EXPECT_EQ(one << 65, U128(2, 0));
  EXPECT_EQ(one << 127, U128(std::uint64_t{1} << 63, 0));

  const U128 top(std::uint64_t{1} << 63, 0);
  EXPECT_EQ(top >> 0, top);
  EXPECT_EQ(top >> 63, U128(1, 0));
  EXPECT_EQ(top >> 64, U128(0, std::uint64_t{1} << 63));
  EXPECT_EQ(top >> 127, one);

  // ~0 shifted left by the prefix length is exactly prefix_mask.
  EXPECT_EQ(fib::prefix_mask<Address6>(0), U128{});
  EXPECT_EQ(fib::prefix_mask<Address6>(64), U128(~std::uint64_t{0}, 0));
  EXPECT_EQ(fib::prefix_mask<Address6>(128),
            U128(~std::uint64_t{0}, ~std::uint64_t{0}));
  EXPECT_EQ(fib::prefix_mask<Address6>(1), U128(std::uint64_t{1} << 63, 0));
}

TEST(U128Arithmetic, OrdersNumerically) {
  // The defaulted comparison must order (hi, lo) lexicographically, which
  // is numeric order for a big-endian pair.
  EXPECT_LT(U128(0, ~std::uint64_t{0}), U128(1, 0));
  EXPECT_LT(U128(3, 7), U128(3, 8));
  EXPECT_EQ(U128{5}, U128(0, 5));
  // Single-argument construction is numeric, not aggregate (hi stays 0).
  EXPECT_EQ(U128{1} << 64, U128(1, 0));
}

TEST(U128Arithmetic, BitwiseOperators) {
  const U128 a(0xF0F0, 0x1234);
  const U128 b(0x0FF0, 0xFF00);
  EXPECT_EQ(a & b, U128(0x00F0, 0x1200));
  EXPECT_EQ(a | b, U128(0xFFF0, 0xFF34));
  EXPECT_EQ(a ^ b, U128(0xFF00, 0xED34));
  EXPECT_EQ(~U128{}, U128(~std::uint64_t{0}, ~std::uint64_t{0}));
}

// --- IPv6 ----------------------------------------------------------------

TEST(Ipv6, AddressRoundTrip) {
  // RFC 5952 canonical form: longest zero run (>= 2 groups) compressed,
  // leftmost on ties, lowercase hex, no leading zeros.
  for (const std::string text :
       {"::", "::1", "1::", "2001:db8::8a2e:370:7334", "fe80::1",
        "1:0:2::3:0:4", "1:2:3:4:5:6:7:8", "a::b:0:0:c"}) {
    SCOPED_TRACE(text);
    EXPECT_EQ(fib::address6_to_string(fib::parse_address6(text)), text);
  }
  // Non-canonical spellings parse to the same address.
  EXPECT_EQ(fib::parse_address6("0:0:0:0:0:0:0:0"), Address6{});
  EXPECT_EQ(fib::parse_address6("2001:0db8:0000:0000:0000:0000:0000:0001"),
            fib::parse_address6("2001:db8::1"));
  // The leftmost of two equal-length zero runs is compressed.
  EXPECT_EQ(fib::address6_to_string(fib::parse_address6("1:0:0:2:3:0:0:4")),
            "1::2:3:0:0:4");
  // A single zero group is not compressed.
  EXPECT_EQ(fib::address6_to_string(fib::parse_address6("1:2:3:0:5:6:7:8")),
            "1:2:3:0:5:6:7:8");
}

TEST(Ipv6, RejectsMalformedInput) {
  for (const std::string text :
       {"", ":", ":::", "1:2:3:4:5:6:7", "1:2:3:4:5:6:7:8:9", "12345::",
        "g::", "1:2:3:4:5:6:7:8::", "::1::2", "1:", ":1:2:3:4:5:6:7",
        "1:2:3:4:5:6:7:8 "}) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)fib::parse_address6(text), CheckFailure);
  }
  EXPECT_THROW(Prefix6::parse("2001:db8::/129"), CheckFailure);
  EXPECT_THROW(Prefix6::parse("2001:db8::"), CheckFailure);  // no length
  // Host bits beyond the mask are a data error, exactly as for IPv4.
  EXPECT_THROW(Prefix6::parse("2001:db8::1/32"), CheckFailure);
}

TEST(Ipv6, PrefixContainment) {
  const Prefix6 wide = Prefix6::parse("2001:db8::/32");
  const Prefix6 narrow = Prefix6::parse("2001:db8:a000::/36");
  EXPECT_TRUE(wide.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide));
  EXPECT_TRUE(wide.contains(fib::parse_address6("2001:db8::42")));
  EXPECT_FALSE(wide.contains(fib::parse_address6("2001:db9::42")));
  EXPECT_TRUE(Prefix6{}.contains(narrow));  // default route covers all
  // A /128 contains exactly itself.
  const Prefix6 host = Prefix6::parse("::1/128");
  EXPECT_TRUE(host.contains(fib::parse_address6("::1")));
  EXPECT_FALSE(host.contains(fib::parse_address6("::2")));
}

// --- Feed grammar --------------------------------------------------------

TEST(FeedGrammar, RecordsRoundTrip) {
  const std::vector<std::string> lines{
      "TABLE_DUMP|10.0.0.0/8|42",
      "TABLE_DUMP|2001:db8::/32|7",
      "1704067200|announce|192.168.0.0/16|9",
      "1704067201|announce|2001:db8:a000::/36|11",
      "1704067202|withdraw|10.0.0.0/8",
      "1704067203|withdraw|2001:db8::/32",
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    SCOPED_TRACE(lines[i]);
    const FeedRecord record = parse_feed_line(lines[i], i + 1);
    EXPECT_EQ(format_feed_record(record), lines[i]);
    // format emits the grammar parse accepts: a second round trip is
    // the identity on the record itself.
    EXPECT_EQ(parse_feed_line(format_feed_record(record), 1), record);
  }
}

TEST(FeedGrammar, ErrorsCarryLineNumbers) {
  const auto message_of = [](const std::string& line) -> std::string {
    try {
      (void)parse_feed_line(line, 17);
    } catch (const CheckFailure& e) {
      return e.what();
    }
    return {};
  };
  for (const std::string line :
       {"TABLE_DUMP|10.0.0.0/8",            // missing next hop
        "TABLE_DUMP|10.0.0.0/8|42|extra",   // trailing field
        "TABLE_DUMP|10.256.0.0/8|42",       // bad prefix
        "TABLE_DUMP|10.0.0.0/8|x",          // bad next hop
        "1704067200|announce|10.0.0.0/8",   // missing next hop
        "1704067200|withdraw|10.0.0.0/8|4", // trailing field
        "xyz|announce|10.0.0.0/8|4",        // bad timestamp
        "1704067200|reroute|10.0.0.0/8|4",  // unknown op
        "TABLE_DUMP"}) {
    SCOPED_TRACE(line);
    const std::string message = message_of(line);
    EXPECT_NE(message.find("feed line 17"), std::string::npos) << message;
  }
}

TEST(FeedReader, StreamsFilesSkipsCommentsNamesErrors) {
  const std::string good = "/tmp/treecache_test_feed_good.txt";
  const std::string bad = "/tmp/treecache_test_feed_bad.txt";
  {
    std::ofstream out(good);
    out << "# comment\n"
        << "\n"
        << "TABLE_DUMP|10.0.0.0/8|1\n"
        << "  \t\n"
        << "1|announce|10.1.0.0/16|2\r\n";  // CRLF tolerated
  }
  {
    std::ofstream out(bad);
    out << "TABLE_DUMP|10.0.0.0/8|1\n"
        << "# fine so far\n"
        << "1|bogus-op|10.0.0.0/8|1\n";
  }

  FeedReader reader({good, bad});
  EXPECT_EQ(reader.next()->op, FeedOp::kDump);
  EXPECT_EQ(reader.next()->op, FeedOp::kAnnounce);
  // The bad file's first record is fine; the second throws with the FILE
  // and its own (physical) line number.
  EXPECT_EQ(reader.next()->op, FeedOp::kDump);
  try {
    (void)reader.next();
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(bad), std::string::npos) << message;
    EXPECT_NE(message.find("feed line 3"), std::string::npos) << message;
  }
  EXPECT_THROW(FeedReader({"/nonexistent/feed.txt"}).next(), CheckFailure);
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

TEST(FeedReader, HardenedAgainstBomCrlfAndTruncatedFinalLine) {
  // A feed exported from tooling on another OS: UTF-8 BOM, CRLF line
  // endings, and a final line with no trailing newline. All of it parses.
  const std::string path = "/tmp/treecache_test_feed_hardened.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "\xEF\xBB\xBF"
        << "TABLE_DUMP|10.0.0.0/8|1\r\n"
        << "1|announce|10.1.0.0/16|2\r\n"
        << "2|withdraw|10.0.0.0/8";  // no trailing newline
  }
  FeedReader reader({path});
  EXPECT_EQ(reader.next()->op, FeedOp::kDump);
  EXPECT_EQ(reader.next()->op, FeedOp::kAnnounce);
  const auto last = reader.next();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->op, FeedOp::kWithdraw);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.records(), 3u);
  EXPECT_EQ(reader.bytes(), std::filesystem::file_size(path));
  std::remove(path.c_str());
}

TEST(FeedReader, BomDoesNotHideTheErrorPosition) {
  // The BOM is stripped BEFORE parsing, so a malformed first line still
  // reports line 1 — not a mystery "bad prefix" from three stray bytes.
  const std::string path = "/tmp/treecache_test_feed_bom_bad.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "\xEF\xBB\xBF"
        << "TABLE_DUMP|not-a-prefix|1\n";
  }
  FeedReader reader({path});
  try {
    (void)reader.next();
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("feed line 1"), std::string::npos) << message;
  }
  std::remove(path.c_str());
}

TEST(FeedGrammar, NextHopWiderThan32BitsIsRejected) {
  // NextHop is u32; a 64-bit value silently truncating would alias two
  // distinct routes. Both dump and announce paths must reject it.
  for (const std::string line : {"TABLE_DUMP|10.0.0.0/8|4294967296",
                                 "1|announce|10.0.0.0/8|99999999999"}) {
    SCOPED_TRACE(line);
    try {
      (void)parse_feed_line(line, 3);
      FAIL() << "expected CheckFailure";
    } catch (const CheckFailure& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("exceeds 32 bits"), std::string::npos) << message;
      EXPECT_NE(message.find("feed line 3"), std::string::npos) << message;
    }
  }
  // The full u32 range itself stays usable.
  EXPECT_EQ(parse_feed_line("TABLE_DUMP|10.0.0.0/8|4294967295", 1).next_hop,
            0xFFFFFFFFu);
}

// --- RibTable vs a naive reference, both widths --------------------------

/// The obviously-correct RIB: a map from prefix to next hop, LPM by
/// scanning every entry for the longest containing prefix.
template <typename PrefixT>
class NaiveRib {
 public:
  bool route_add(const PrefixT& prefix, NextHop next_hop) {
    return routes_.insert_or_assign(prefix, next_hop).second;
  }
  bool route_delete(const PrefixT& prefix) {
    return routes_.erase(prefix) > 0;
  }
  [[nodiscard]] std::optional<NextHop> lookup(
      const typename PrefixT::Bits& addr) const {
    std::optional<NextHop> best;
    int best_length = -1;
    for (const auto& [prefix, next_hop] : routes_) {
      if (prefix.contains(addr) && int{prefix.length} > best_length) {
        best = next_hop;
        best_length = prefix.length;
      }
    }
    return best;
  }
  [[nodiscard]] std::size_t size() const { return routes_.size(); }

 private:
  std::map<PrefixT, NextHop> routes_;
};

template <typename PrefixT>
void rib_matches_naive_reference(std::uint64_t seed) {
  using Bits = typename PrefixT::Bits;
  using Family = fib::AddressFamily<Bits>;
  Rng rng(seed);

  BasicRibTable<PrefixT> rib;
  NaiveRib<PrefixT> naive;
  std::vector<PrefixT> live;

  EXPECT_EQ(rib.lookup(Family::random(rng)), std::nullopt);

  for (int round = 0; round < 2000; ++round) {
    const bool remove = !live.empty() && rng.chance(0.3);
    if (remove) {
      const std::size_t i = rng.below(live.size());
      const PrefixT victim = live[i];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      EXPECT_EQ(rib.route_delete(victim), naive.route_delete(victim));
      // Deleting again misses in both.
      EXPECT_EQ(rib.route_delete(victim), naive.route_delete(victim));
    } else {
      const auto length =
          static_cast<std::uint8_t>(rng.below(Family::kWidth + 1));
      const PrefixT prefix = PrefixT::make(Family::random(rng), length);
      const NextHop next_hop = static_cast<NextHop>(1 + rng.below(1000));
      const bool was_new = naive.route_add(prefix, next_hop);
      EXPECT_EQ(rib.route_add(prefix, next_hop), was_new);
      if (was_new) live.push_back(prefix);
      EXPECT_EQ(rib.exact(prefix), std::optional<NextHop>(next_hop));
    }
    EXPECT_EQ(rib.size(), naive.size());

    // A fully random probe plus one aimed at a live prefix (random probes
    // alone rarely hit long prefixes on wide keys).
    const Bits random_addr = Family::random(rng);
    ASSERT_EQ(rib.lookup(random_addr), naive.lookup(random_addr))
        << "round " << round;
    if (!live.empty()) {
      const PrefixT& target = live[rng.below(live.size())];
      const Bits span = ~fib::prefix_mask<Bits>(target.length);
      const Bits aimed = target.bits | (Family::random(rng) & span);
      ASSERT_EQ(rib.lookup(aimed), naive.lookup(aimed)) << "round " << round;
    }
  }
}

TEST(RibTable, MatchesNaiveReferenceIpv4) {
  rib_matches_naive_reference<Prefix>(101);
}

TEST(RibTable, MatchesNaiveReferenceIpv6) {
  rib_matches_naive_reference<Prefix6>(202);
}

TEST(RibTable, PrefixesAreComplete) {
  Rng rng(7);
  RibTable rib;
  std::vector<Prefix> expected;
  for (int i = 0; i < 300; ++i) {
    const auto length = static_cast<std::uint8_t>(1 + rng.below(24));
    const Prefix p = Prefix::make(fib::AddressFamily<Address>::random(rng),
                                  length);
    if (rib.route_add(p, 1)) expected.push_back(p);
  }
  // Shadow a few with deletes; prefixes() must drop exactly those.
  for (int i = 0; i < 50 && !expected.empty(); ++i) {
    const std::size_t victim = rng.below(expected.size());
    ASSERT_TRUE(rib.route_delete(expected[victim]));
    expected.erase(expected.begin() +
                   static_cast<std::ptrdiff_t>(victim));
  }
  // prefixes() is in node-index order: compare as sorted multisets.
  const auto by_length_then_bits = [](const Prefix& a, const Prefix& b) {
    return std::pair(a.length, a.bits) < std::pair(b.length, b.bits);
  };
  std::vector<Prefix> got = rib.prefixes();
  std::ranges::sort(got, by_length_then_bits);
  std::ranges::sort(expected, by_length_then_bits);
  EXPECT_EQ(got, expected);
}

// --- FIB rebuild ---------------------------------------------------------

template <typename PrefixT>
void rebuild_agrees_with_rib(std::uint64_t seed, std::size_t routes) {
  using Bits = typename PrefixT::Bits;
  using Family = fib::AddressFamily<Bits>;
  Rng rng(seed);

  BasicRibTable<PrefixT> rib;
  for (std::size_t i = 0; i < routes; ++i) {
    const auto length = static_cast<std::uint8_t>(1 + rng.below(48) %
                                                          Family::kWidth);
    rib.route_add(PrefixT::make(Family::random(rng), length),
                  static_cast<NextHop>(1 + i));
  }
  const fib::BasicRuleTree<PrefixT> fib_tree = rebuild_fib_from_rib(rib);

  // Node 0 is the artificial default rule; every node's parent prefix
  // contains it (the rule dependency order).
  ASSERT_GE(fib_tree.tree.size(), 1u);
  EXPECT_EQ(fib_tree.prefix[0], PrefixT{});
  for (NodeId v = 1; v < fib_tree.tree.size(); ++v) {
    const PrefixT& parent = fib_tree.prefix[fib_tree.tree.parent(v)];
    EXPECT_TRUE(parent.contains(fib_tree.prefix[v])) << "node " << v;
    EXPECT_GT(fib_tree.prefix[v].length, parent.length) << "node " << v;
  }

  // LPM agreement: the FIB's match is a node whose prefix is exactly the
  // RIB's longest live match (both aimed and random probes).
  const std::vector<PrefixT> live = rib.prefixes();
  for (int probe = 0; probe < 500; ++probe) {
    const PrefixT& target = live[rng.below(live.size())];
    const Bits span = ~fib::prefix_mask<Bits>(target.length);
    const Bits addr = target.bits | (Family::random(rng) & span);
    const NodeId node = fib_tree.lpm(addr);
    const auto rib_match = rib.lookup(addr);
    ASSERT_TRUE(rib_match.has_value());
    EXPECT_EQ(rib.exact(fib_tree.prefix[node]), rib_match);
  }
  for (int probe = 0; probe < 500; ++probe) {
    const Bits addr = Family::random(rng);
    const NodeId node = fib_tree.lpm(addr);
    if (rib.lookup(addr).has_value()) {
      EXPECT_EQ(rib.exact(fib_tree.prefix[node]), rib.lookup(addr));
    } else {
      EXPECT_EQ(node, 0u);  // falls through to the default rule
    }
  }
}

TEST(RebuildFib, AgreesWithRibLookupIpv4) {
  rebuild_agrees_with_rib<Prefix>(11, 400);
}

TEST(RebuildFib, AgreesWithRibLookupIpv6) {
  rebuild_agrees_with_rib<Prefix6>(13, 400);
}

TEST(RebuildFib, EmptyTableIsJustTheDefaultRule) {
  const RibTable rib;
  const fib::RuleTree fib_tree = rebuild_fib_from_rib(rib);
  EXPECT_EQ(fib_tree.tree.size(), 1u);
  EXPECT_EQ(fib_tree.lpm(0x01020304u), 0u);
}

// --- Synthetic feeds and ingest ------------------------------------------

TEST(GenerateFeed, DumpFirstTimestampedUpdatesApplyCleanly) {
  for (const int family : {4, 6, 46}) {
    SCOPED_TRACE("family " + std::to_string(family));
    Rng rng(91);
    const SyntheticFeedConfig config{
        .routes = 120, .updates = 60, .family = family};
    const std::vector<FeedRecord> records = generate_feed(config, rng);

    const std::size_t families = family == 46 ? 2u : 1u;
    ASSERT_EQ(records.size(), config.routes * families + config.updates);
    std::uint64_t last_timestamp = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const FeedRecord& record = records[i];
      if (i < config.routes * families) {
        EXPECT_EQ(record.op, FeedOp::kDump);
      } else {
        EXPECT_NE(record.op, FeedOp::kDump);
        EXPECT_GE(record.timestamp, config.base_timestamp);
        EXPECT_GE(record.timestamp, last_timestamp);
        last_timestamp = record.timestamp;
      }
      if (family != 46) {
        EXPECT_EQ(record.v6, family == 6);
      }
    }

    // The generator only withdraws live routes and only dumps distinct
    // prefixes, so ingest sees no noise.
    IngestResult ingest;
    for (const FeedRecord& record : records) ingest.apply(record);
    EXPECT_EQ(ingest.records, records.size());
    EXPECT_EQ(ingest.v4.stats.withdraw_misses, 0u);
    EXPECT_EQ(ingest.v6.stats.withdraw_misses, 0u);
    EXPECT_EQ(ingest.v4.empty(), family == 6);
    EXPECT_EQ(ingest.v6.empty(), family == 4);
    if (family != 6) {
      EXPECT_EQ(ingest.v4.stats.dump_routes, config.routes);
      EXPECT_EQ(ingest.v4.rib.size(), config.routes +
                                          ingest.v4.stats.announces -
                                          ingest.v4.stats.replaced_routes -
                                          ingest.v4.stats.withdraws);
    }
  }
}

TEST(DepthHistogram, CountsNodesPerDepth) {
  // A path of 4 nodes: one node at each depth.
  Rng rng(3);
  RibTable rib;
  rib.route_add(Prefix::parse("128.0.0.0/1"), 1);
  rib.route_add(Prefix::parse("192.0.0.0/2"), 2);
  rib.route_add(Prefix::parse("224.0.0.0/3"), 3);
  const fib::RuleTree fib_tree = rebuild_fib_from_rib(rib);
  EXPECT_EQ(depth_histogram(fib_tree.tree),
            (std::vector<std::uint64_t>{1, 1, 1, 1}));

  // Sibling rules: root plus two depth-1 nodes.
  RibTable flat;
  flat.route_add(Prefix::parse("10.0.0.0/8"), 1);
  flat.route_add(Prefix::parse("11.0.0.0/8"), 2);
  EXPECT_EQ(depth_histogram(rebuild_fib_from_rib(flat).tree),
            (std::vector<std::uint64_t>{1, 2}));
}

}  // namespace
}  // namespace treecache::rib
