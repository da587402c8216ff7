// Binary MRT (RFC 6396) codec, unit-level: encode/decode round trips
// for both families, equivalence with the text-format ingest path,
// fuzz-style truncation over every byte prefix (parse cleanly or error
// with an offset), hostile-input rejection, FeedReader format sniffing
// and byte accounting, counter ground truth at scale, and tail-follow
// over growing text and MRT feeds.
#include "rib/mrt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rib/churn_source.hpp"
#include "rib/feed.hpp"
#include "rib/ingest.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace treecache::rib {
namespace {

std::vector<FeedRecord> sample_feed(int family, std::size_t routes = 24,
                                    std::size_t updates = 16,
                                    std::uint64_t seed = 7) {
  SyntheticFeedConfig config;
  config.routes = routes;
  config.updates = updates;
  config.family = family;
  Rng rng(seed);
  return generate_feed(config, rng);
}

void write_file(const std::string& path, const void* data, std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  ASSERT_TRUE(out.good()) << path;
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  write_file(path, bytes.data(), bytes.size());
}

void append_file(const std::string& path, const void* data, std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  ASSERT_TRUE(out.good()) << path;
}

std::string feed_text(const std::vector<FeedRecord>& records) {
  std::string text;
  for (const FeedRecord& record : records) {
    text += format_feed_record(record) + "\n";
  }
  return text;
}

IngestResult ingest_records(const std::vector<FeedRecord>& records) {
  IngestResult out;
  for (const FeedRecord& record : records) out.apply(record);
  return out;
}

/// A RIB's live routes in a canonical order: prefixes() reports them in
/// node-index order, which depends on insertion history.
template <typename PrefixT>
std::vector<PrefixT> sorted_routes(const BasicRibTable<PrefixT>& rib) {
  std::vector<PrefixT> routes = rib.prefixes();
  std::ranges::sort(routes, [](const PrefixT& a, const PrefixT& b) {
    return std::pair(a.length, a.bits) < std::pair(b.length, b.bits);
  });
  return routes;
}

/// Structural equality of two ingests (stats, live routes, churn, and
/// the replay FIB built from them) — the "same RIB either way" oracle for
/// format equivalence.
void expect_same_ingest(const IngestResult& a, const IngestResult& b) {
  EXPECT_EQ(a.records, b.records);
  const auto same_family = [](const auto& fa, const auto& fb) {
    EXPECT_EQ(fa.stats.dump_routes, fb.stats.dump_routes);
    EXPECT_EQ(fa.stats.announces, fb.stats.announces);
    EXPECT_EQ(fa.stats.withdraws, fb.stats.withdraws);
    EXPECT_EQ(fa.stats.withdraw_misses, fb.stats.withdraw_misses);
    EXPECT_EQ(fa.stats.replaced_routes, fb.stats.replaced_routes);
    EXPECT_EQ(sorted_routes(fa.rib), sorted_routes(fb.rib));
    EXPECT_EQ(fa.churn, fb.churn);
    const auto ra = make_churn_replay(fa);
    const auto rb = make_churn_replay(fb);
    EXPECT_EQ(ra.fib.tree.parent_array(), rb.fib.tree.parent_array());
    EXPECT_EQ(ra.fib.prefix, rb.fib.prefix);
    EXPECT_EQ(ra.churn_nodes, rb.churn_nodes);
  };
  same_family(a.v4, b.v4);
  same_family(a.v6, b.v6);
}

// Big-endian byte builders for handcrafted (hostile) records.
void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}
std::vector<std::uint8_t> mrt_record(std::uint16_t type, std::uint16_t subtype,
                                     const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> out;
  put_u32(out, 0);  // timestamp
  put_u16(out, type);
  put_u16(out, subtype);
  put_u32(out, static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

// --- Round trips ---------------------------------------------------------

TEST(MrtCodec, RoundTripsEveryFamily) {
  for (const int family : {4, 6, 46}) {
    SCOPED_TRACE(family);
    const std::vector<FeedRecord> records = sample_feed(family);
    const std::vector<std::uint8_t> bytes = encode_mrt_feed(records);
    const std::vector<FeedRecord> decoded = decode_mrt(bytes);
    EXPECT_EQ(decoded, records);
  }
}

TEST(MrtCodec, MatchesTextPathThroughIngest) {
  const std::string text_path = "/tmp/treecache_test_mrt_eq.feed";
  const std::string mrt_path = "/tmp/treecache_test_mrt_eq.mrt";
  const std::vector<FeedRecord> records = sample_feed(46, 32, 24);
  const std::string text = feed_text(records);
  write_file(text_path, text.data(), text.size());
  write_bytes(mrt_path, encode_mrt_feed(records));

  const IngestResult from_text = ingest_feed({text_path});
  const IngestResult from_mrt = ingest_feed({mrt_path});
  expect_same_ingest(from_text, from_mrt);
  expect_same_ingest(from_text, ingest_records(records));
  std::remove(text_path.c_str());
  std::remove(mrt_path.c_str());
}

// --- Truncation fuzz -----------------------------------------------------

TEST(MrtCodec, EveryTruncationParsesOrNamesAnOffset) {
  const std::vector<FeedRecord> records = sample_feed(46, 6, 8);
  const std::vector<std::uint8_t> bytes = encode_mrt_feed(records);
  const std::vector<FeedRecord> full = decode_mrt(bytes);
  ASSERT_EQ(full, records);

  std::size_t clean = 0;
  std::size_t truncated = 0;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    try {
      const auto partial =
          decode_mrt(std::span(bytes.data(), cut));
      EXPECT_LE(partial.size(), full.size()) << "cut " << cut;
      ++clean;
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
          << "cut " << cut << ": " << e.what();
      ++truncated;
    }
  }
  // Record boundaries parse cleanly, everything else reports truncation.
  EXPECT_GT(clean, 0u);
  EXPECT_GT(truncated, 0u);
}

// --- Hostile input -------------------------------------------------------

TEST(MrtCodec, RejectsUnknownRecordTypeWithOffset) {
  const auto bytes = mrt_record(99, 0, {});
  try {
    (void)decode_mrt(bytes);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported MRT record type"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(MrtCodec, RejectsHostileRecordLength) {
  std::vector<std::uint8_t> header;
  put_u32(header, 0);
  put_u16(header, kMrtTypeTableDumpV2);
  put_u16(header, kMrtRibIpv4Unicast);
  put_u32(header, 0x7FFFFFFF);  // 2 GB body: rejected before buffering
  EXPECT_THROW((void)decode_mrt(header), CheckFailure);
}

TEST(MrtCodec, RejectsPrefixWiderThanTheFamily) {
  std::vector<std::uint8_t> body;
  put_u32(body, 0);    // sequence
  put_u8(body, 33);    // /33 in IPv4
  put_u32(body, 0);    // "prefix bytes" (5 would be needed)
  put_u8(body, 0);
  put_u16(body, 0);    // no entries
  const auto bytes = mrt_record(kMrtTypeTableDumpV2, kMrtRibIpv4Unicast, body);
  try {
    (void)decode_mrt(bytes);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the address width"),
              std::string::npos)
        << e.what();
  }
}

TEST(MrtCodec, RejectsAttributeOverrun) {
  std::vector<std::uint8_t> body;
  put_u32(body, 0);     // sequence
  put_u8(body, 8);      // /8
  put_u8(body, 10);     // prefix byte
  put_u16(body, 1);     // one entry
  put_u16(body, 0);     // peer index
  put_u32(body, 0);     // originated
  put_u16(body, 200);   // attribute length far past the record end
  const auto bytes = mrt_record(kMrtTypeTableDumpV2, kMrtRibIpv4Unicast, body);
  try {
    (void)decode_mrt(bytes);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("overruns the record"),
              std::string::npos)
        << e.what();
  }
}

TEST(MrtCodec, RejectsTrailingBytesInsideARecord) {
  std::vector<std::uint8_t> body;
  put_u32(body, 0);   // sequence
  put_u8(body, 8);    // /8
  put_u8(body, 10);
  put_u16(body, 0);   // no entries
  put_u8(body, 0);    // stray trailing byte
  const auto bytes = mrt_record(kMrtTypeTableDumpV2, kMrtRibIpv4Unicast, body);
  try {
    (void)decode_mrt(bytes);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("trailing bytes"),
              std::string::npos)
        << e.what();
  }
}

TEST(MrtCodec, RejectsBadBgpMarker) {
  FeedRecord announce;
  announce.op = FeedOp::kAnnounce;
  announce.timestamp = 100;
  announce.prefix4 = fib::Prefix::parse("10.0.0.0/8");
  announce.next_hop = 7;
  std::vector<std::uint8_t> bytes = encode_mrt_feed({announce});
  // BGP4MP_MESSAGE_AS4 body: AS(4)+AS(4)+ifindex(2)+AFI(2)+2*IP(4) = 20
  // bytes, so the marker starts at header(12)+20.
  bytes.at(12 + 20) = 0x00;
  try {
    (void)decode_mrt(bytes);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("marker"), std::string::npos)
        << e.what();
  }
}

TEST(MrtCodec, SkipsUnknownSubtypesAndLegacyTableDump) {
  // An ADDPATH RIB subtype and a legacy TABLE_DUMP record are skipped
  // (length-validated), then the valid records decode as usual.
  std::vector<std::uint8_t> bytes =
      mrt_record(kMrtTypeTableDumpV2, 8, {1, 2, 3, 4, 5});
  const auto legacy = mrt_record(kMrtTypeTableDump, 1, {9, 9, 9});
  bytes.insert(bytes.end(), legacy.begin(), legacy.end());
  const std::vector<FeedRecord> records = sample_feed(4, 4, 2);
  const auto valid = encode_mrt_feed(records);
  bytes.insert(bytes.end(), valid.begin(), valid.end());
  EXPECT_EQ(decode_mrt(bytes), records);
}

TEST(MrtCodec, StateChangeAndNonUpdateMessagesYieldNoRecords) {
  // BGP4MP STATE_CHANGE (subtype 0) and a KEEPALIVE message both parse
  // to zero feed records.
  const auto state_change = mrt_record(kMrtTypeBgp4mp, 0, {0, 1, 0, 2});
  EXPECT_TRUE(decode_mrt(state_change).empty());

  std::vector<std::uint8_t> body;
  put_u32(body, 0);  // peer AS
  put_u32(body, 0);  // local AS
  put_u16(body, 0);  // ifindex
  put_u16(body, 1);  // AFI IPv4
  put_u32(body, 0);  // peer IP
  put_u32(body, 0);  // local IP
  for (int i = 0; i < 16; ++i) put_u8(body, 0xFF);
  put_u16(body, 19);  // bare header
  put_u8(body, 4);    // KEEPALIVE
  const auto keepalive =
      mrt_record(kMrtTypeBgp4mp, kMrtBgp4mpMessageAs4, body);
  EXPECT_TRUE(decode_mrt(keepalive).empty());
}

// --- FeedReader integration ----------------------------------------------

TEST(FeedReaderMrt, SniffsFormatPerFileAndCountsBytes) {
  const std::string text_path = "/tmp/treecache_test_sniff.feed";
  const std::string mrt_path = "/tmp/treecache_test_sniff.mrt";
  const std::vector<FeedRecord> dump = sample_feed(4, 8, 0);
  const std::vector<FeedRecord> updates = sample_feed(4, 4, 6, 11);
  const std::string text = feed_text(dump);
  write_file(text_path, text.data(), text.size());
  write_bytes(mrt_path, encode_mrt_feed(updates));

  FeedReader reader({text_path, mrt_path});
  std::vector<FeedRecord> seen;
  while (const auto record = reader.next()) seen.push_back(*record);
  std::vector<FeedRecord> expected = dump;
  expected.insert(expected.end(), updates.begin(), updates.end());
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(reader.records(), expected.size());
  EXPECT_EQ(reader.bytes(), std::filesystem::file_size(text_path) +
                                std::filesystem::file_size(mrt_path));
  std::remove(text_path.c_str());
  std::remove(mrt_path.c_str());
}

TEST(FeedReaderMrt, TruncatedFileNamesTheOffset) {
  const std::string path = "/tmp/treecache_test_mrt_trunc.mrt";
  const std::vector<std::uint8_t> bytes = encode_mrt_feed(sample_feed(4, 4, 2));
  write_file(path, bytes.data(), bytes.size() - 3);

  FeedReader reader({path});
  try {
    while (reader.next()) {
    }
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("truncated MRT record at offset"), std::string::npos)
        << what;
  }
  std::remove(path.c_str());
}

TEST(MrtCodec, CountersMatchGroundTruthAtScale) {
  // Past-16-bit scale: exact counter equality against the generator's
  // ground truth, plus byte accounting against the file size.
  const std::string path = "/tmp/treecache_test_mrt_scale.mrt";
  SyntheticFeedConfig config;
  config.routes = 70000;
  config.updates = 9000;
  config.family = 4;
  Rng rng(23);
  const std::vector<FeedRecord> records = generate_feed(config, rng);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    MrtWriter writer(out);
    for (const FeedRecord& record : records) writer.write(record);
    ASSERT_TRUE(out.good());
  }
  const IngestResult result = ingest_feed({path});
  EXPECT_EQ(result.records, std::uint64_t{70000 + 9000});
  EXPECT_EQ(result.v4.stats.dump_routes, 70000u);
  EXPECT_EQ(result.v4.stats.updates(), 9000u);
  EXPECT_EQ(result.bytes, std::filesystem::file_size(path));
  EXPECT_EQ(result.v4.rib.size(),
            result.v4.stats.dump_routes + result.v4.stats.announces -
                result.v4.stats.replaced_routes - result.v4.stats.withdraws);
  // The memory audit accessors cover the allocation, not just the count.
  EXPECT_GE(result.v4.rib.memory_bytes(),
            result.v4.rib.node_count() * sizeof(std::uint32_t));
  std::remove(path.c_str());
}

TEST(MrtWriterChecks, TimestampMustFitTheHeader) {
  FeedRecord record;
  record.op = FeedOp::kAnnounce;
  record.timestamp = 0x1'0000'0000ull;  // 2106 and beyond
  record.prefix4 = fib::Prefix::parse("10.0.0.0/8");
  std::ostringstream out;
  MrtWriter writer(out);
  EXPECT_THROW(writer.write(record), CheckFailure);
}

// --- Tail-follow ---------------------------------------------------------

TEST(FeedFollow, TailsAGrowingTextFeed) {
  const std::string path = "/tmp/treecache_test_follow.feed";
  const std::string head = "TABLE_DUMP|10.0.0.0/8|1\n1704067200|announce|10.1";
  write_file(path, head.data(), head.size());  // second line cut mid-prefix

  FeedReader reader({path});
  reader.follow({.poll = std::chrono::milliseconds(2),
                 .idle = std::chrono::milliseconds(2000)});
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->op, FeedOp::kDump);

  // Complete the partial line (and add one more record) while the
  // reader is blocked polling for growth.
  std::thread writer([&path] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const std::string tail = ".0.0/16|2\n1704067201|withdraw|10.0.0.0/8\n";
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(tail.data(), static_cast<std::streamsize>(tail.size()));
  });
  const auto second = reader.next();
  writer.join();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->op, FeedOp::kAnnounce);
  EXPECT_EQ(second->prefix4, fib::Prefix::parse("10.1.0.0/16"));
  const auto third = reader.next();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->op, FeedOp::kWithdraw);

  // Writer idle: the follower gives up after the idle deadline.
  reader.follow({.poll = std::chrono::milliseconds(2),
                 .idle = std::chrono::milliseconds(20)});
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.records(), 3u);
  EXPECT_EQ(reader.bytes(), std::filesystem::file_size(path));
  std::remove(path.c_str());
}

TEST(FeedFollow, TailsAGrowingMrtFeed) {
  const std::string path = "/tmp/treecache_test_follow.mrt";
  const std::vector<FeedRecord> records = sample_feed(4, 2, 2);
  ASSERT_EQ(records.size(), 4u);
  const std::vector<std::uint8_t> all = encode_mrt_feed(records);
  // Streaming encodes are byte-prefixes of each other, so the size of
  // the first-record encode is a record boundary inside `all`.
  const std::size_t boundary =
      encode_mrt_feed({records[0]}).size();
  write_file(path, all.data(), boundary + 5);  // second record cut short

  FeedReader reader({path});
  reader.follow({.poll = std::chrono::milliseconds(2),
                 .idle = std::chrono::milliseconds(2000)});
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, records[0]);

  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    append_file(path, all.data() + boundary + 5, all.size() - boundary - 5);
  });
  for (std::size_t i = 1; i < records.size(); ++i) {
    const auto record = reader.next();
    ASSERT_TRUE(record.has_value()) << i;
    EXPECT_EQ(*record, records[i]) << i;
  }
  writer.join();
  reader.follow({.poll = std::chrono::milliseconds(2),
                 .idle = std::chrono::milliseconds(20)});
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.bytes(), std::filesystem::file_size(path));
  std::remove(path.c_str());
}

TEST(FeedFollow, IdleExpiryWithPartialMrtRecordThrows) {
  // A writer that dies mid-record is a truncation, not a clean end.
  const std::string path = "/tmp/treecache_test_follow_trunc.mrt";
  const std::vector<std::uint8_t> bytes = encode_mrt_feed(sample_feed(4, 3, 0));
  write_file(path, bytes.data(), bytes.size() - 2);

  FeedReader reader({path});
  reader.follow({.poll = std::chrono::milliseconds(2),
                 .idle = std::chrono::milliseconds(20)});
  try {
    while (reader.next()) {
    }
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("truncated MRT record"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(FeedFollow, IngestFeedFollowOverloadDrainsThenStops) {
  const std::string path = "/tmp/treecache_test_follow_ingest.feed";
  const std::vector<FeedRecord> records = sample_feed(4, 6, 4);
  const std::string text = feed_text(records);
  write_file(path, text.data(), text.size());

  const IngestResult result =
      ingest_feed({path}, FollowOptions{.poll = std::chrono::milliseconds(2),
                                        .idle = std::chrono::milliseconds(20)});
  expect_same_ingest(result, ingest_records(records));
  EXPECT_EQ(result.bytes, std::filesystem::file_size(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace treecache::rib
