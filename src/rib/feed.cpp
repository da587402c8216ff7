#include "rib/feed.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <filesystem>
#include <system_error>
#include <thread>

#include "fib/rib_gen.hpp"
#include "rib/mrt.hpp"

namespace treecache::rib {

namespace {

/// A fresh more-specific prefix: extends a random live prefix by 1..8
/// bits (falling back to a random max-length prefix when nothing
/// extensible comes up).
template <typename PrefixT>
PrefixT extend(const std::vector<PrefixT>& live, std::uint8_t max_length,
               Rng& rng) {
  using Bits = typename PrefixT::Bits;
  using Family = fib::AddressFamily<Bits>;
  if (!live.empty()) {
    for (int tries = 0; tries < 16; ++tries) {
      const PrefixT base = live[rng.below(live.size())];
      const auto extra = static_cast<std::uint8_t>(1 + rng.below(8));
      const std::uint8_t length = std::min<std::uint8_t>(
          max_length, static_cast<std::uint8_t>(base.length + extra));
      if (length <= base.length) continue;
      const Bits span = fib::prefix_mask<Bits>(length) &
                        ~fib::prefix_mask<Bits>(base.length);
      return PrefixT::make(base.bits | (Family::random(rng) & span), length);
    }
  }
  return PrefixT::make(Family::random(rng), max_length);
}

[[noreturn]] void fail_line(std::size_t line_number, const std::string& what,
                            const std::string& line) {
  throw CheckFailure("feed line " + std::to_string(line_number) + ": " + what +
                     " (got \"" + line + "\")");
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t bar = line.find('|', start);
    if (bar == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, bar - start));
    start = bar + 1;
  }
}

std::uint64_t parse_decimal(const std::string& field, const char* what,
                            std::size_t line_number, const std::string& line) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc{} || end != field.data() + field.size() ||
      field.empty()) {
    fail_line(line_number, std::string("malformed ") + what, line);
  }
  return value;
}

/// Next hops are 32-bit; a wider decimal is a malformed feed, not a
/// silent truncation.
NextHop parse_next_hop(const std::string& field, std::size_t line_number,
                       const std::string& line) {
  const std::uint64_t value =
      parse_decimal(field, "next-hop id", line_number, line);
  if (value > 0xFFFFFFFFull) {
    fail_line(line_number, "next-hop id " + field + " exceeds 32 bits", line);
  }
  return static_cast<NextHop>(value);
}

/// Parses the prefix field, auto-detecting the family, into `record`.
void parse_prefix_field(const std::string& field, FeedRecord& record,
                        std::size_t line_number, const std::string& line) {
  try {
    if (field.find(':') != std::string::npos) {
      record.v6 = true;
      record.prefix6 = fib::Prefix6::parse(field);
    } else {
      record.v6 = false;
      record.prefix4 = fib::Prefix::parse(field);
    }
  } catch (const CheckFailure& e) {
    fail_line(line_number, e.what(), line);
  }
}

}  // namespace

FeedRecord parse_feed_line(const std::string& line, std::size_t line_number) {
  const std::vector<std::string> fields = split_fields(line);
  FeedRecord record;
  if (fields[0] == "TABLE_DUMP") {
    if (fields.size() != 3) {
      fail_line(line_number, "TABLE_DUMP takes exactly 2 fields", line);
    }
    record.op = FeedOp::kDump;
    parse_prefix_field(fields[1], record, line_number, line);
    record.next_hop = parse_next_hop(fields[2], line_number, line);
    return record;
  }
  if (fields.size() < 2) {
    fail_line(line_number, "expected TABLE_DUMP or a timestamped update",
              line);
  }
  record.timestamp = parse_decimal(fields[0], "timestamp", line_number, line);
  if (fields[1] == "announce") {
    if (fields.size() != 4) {
      fail_line(line_number, "announce takes exactly 3 fields", line);
    }
    record.op = FeedOp::kAnnounce;
    parse_prefix_field(fields[2], record, line_number, line);
    record.next_hop = parse_next_hop(fields[3], line_number, line);
    return record;
  }
  if (fields[1] == "withdraw") {
    if (fields.size() != 3) {
      fail_line(line_number, "withdraw takes exactly 2 fields", line);
    }
    record.op = FeedOp::kWithdraw;
    parse_prefix_field(fields[2], record, line_number, line);
    return record;
  }
  fail_line(line_number, "unknown update op \"" + fields[1] + "\"", line);
}

std::string format_feed_record(const FeedRecord& record) {
  const std::string prefix =
      record.v6 ? record.prefix6.to_string() : record.prefix4.to_string();
  switch (record.op) {
    case FeedOp::kDump:
      return "TABLE_DUMP|" + prefix + "|" + std::to_string(record.next_hop);
    case FeedOp::kAnnounce:
      return std::to_string(record.timestamp) + "|announce|" + prefix + "|" +
             std::to_string(record.next_hop);
    case FeedOp::kWithdraw:
      return std::to_string(record.timestamp) + "|withdraw|" + prefix;
  }
  // A throw, not TC_CHECK(false, ...): unoptimized builds cannot see that
  // the macro's branch always throws and warn about a missing return.
  throw CheckFailure("format_feed_record: unknown feed op");
}

FeedReader::FeedReader(std::vector<std::string> paths)
    : paths_(std::move(paths)) {
  TC_CHECK(!paths_.empty(), "FeedReader needs at least one path");
}

FeedReader::~FeedReader() = default;

bool FeedReader::open_next_file() {
  while (file_ < paths_.size()) {
    in_.close();
    in_.clear();
    in_.open(paths_[file_], std::ios::binary);
    TC_CHECK(in_.is_open(), "cannot open feed file " + paths_[file_]);
    in_open_ = true;
    line_number_ = 0;
    carry_.clear();
    file_bytes_seen_ = 0;
    last_growth_ = std::chrono::steady_clock::now();
    ++file_;
    detect_format();
    return true;
  }
  in_open_ = false;
  return false;
}

void FeedReader::detect_format() {
  std::array<char, kMrtHeaderBytes> head{};
  in_.read(head.data(), static_cast<std::streamsize>(head.size()));
  const auto got = static_cast<std::size_t>(in_.gcount());
  in_.clear();
  in_.seekg(0);
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(head.data()), got);
  format_ = looks_like_mrt(bytes) ? Format::kMrt : Format::kText;
  mrt_ = format_ == Format::kMrt ? std::make_unique<MrtDecoder>() : nullptr;
}

bool FeedReader::following_here() const {
  return follow_.has_value() && !follow_done_ && file_ == paths_.size();
}

bool FeedReader::wait_for_growth() {
  const auto idle = follow_->idle;
  while (true) {
    if (idle.count() > 0 &&
        std::chrono::steady_clock::now() - last_growth_ >= idle) {
      follow_done_ = true;
      return false;
    }
    std::this_thread::sleep_for(follow_->poll);
    std::error_code ec;
    const std::uintmax_t size =
        std::filesystem::file_size(paths_[file_ - 1], ec);
    if (!ec && size > file_bytes_seen_) return true;
  }
}

void FeedReader::note_progress(std::uint64_t n) {
  if (n == 0) return;
  bytes_ += n;
  file_bytes_seen_ += n;
  last_growth_ = std::chrono::steady_clock::now();
}

std::optional<FeedRecord> FeedReader::next() {
  while (true) {
    if (!in_open_ && !open_next_file()) return std::nullopt;
    std::optional<FeedRecord> record =
        format_ == Format::kMrt ? next_mrt() : next_text();
    if (record.has_value()) {
      ++records_;
      return record;
    }
    // Current file exhausted; next_* already handled follow waiting and
    // truncation, so just advance.
  }
}

std::optional<FeedRecord> FeedReader::next_text() {
  while (true) {
    std::string line;
    if (!std::getline(in_, line)) {
      // No characters at all: clean end of this file (or of the growth
      // the follower was waiting on).
      if (following_here() && wait_for_growth()) {
        in_.clear();
        continue;
      }
      if (carry_.empty()) {
        in_open_ = false;
        return std::nullopt;
      }
      // The writer stopped mid-line; parse the stash as the final line.
      line = std::move(carry_);
      carry_.clear();
    } else {
      note_progress(line.size() + (in_.eof() ? 0 : 1));
      if (!carry_.empty()) {
        line.insert(0, carry_);
        carry_.clear();
      }
      if (in_.eof() && following_here()) {
        // Partial tail line (no newline yet): stash it and wait for the
        // rest; parse it as-is once the writer goes idle.
        carry_ = std::move(line);
        if (wait_for_growth()) {
          in_.clear();
          continue;
        }
        line = std::move(carry_);
        carry_.clear();
      }
      // Not following: a truncated final line still parses below.
    }
    ++line_number_;
    if (line_number_ == 1 && line.size() >= 3 &&
        line.compare(0, 3, "\xEF\xBB\xBF") == 0) {
      line.erase(0, 3);  // UTF-8 BOM
    }
    // Tolerate CRLF feeds.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::size_t first = 0;
    while (first < line.size() &&
           (line[first] == ' ' || line[first] == '\t')) {
      ++first;
    }
    if (first == line.size() || line[first] == '#') continue;
    try {
      return parse_feed_line(line, line_number_);
    } catch (const CheckFailure& e) {
      throw CheckFailure(paths_[file_ - 1] + ": " + e.what());
    }
  }
}

std::optional<FeedRecord> FeedReader::next_mrt() {
  while (true) {
    const std::uint64_t before = mrt_->bytes_seen();
    std::optional<FeedRecord> record;
    try {
      record = mrt_->next(in_);
    } catch (const CheckFailure& e) {
      note_progress(mrt_->bytes_seen() - before);
      throw CheckFailure(paths_[file_ - 1] + ": " + e.what());
    }
    note_progress(mrt_->bytes_seen() - before);
    if (record.has_value()) return record;
    if (following_here() && wait_for_growth()) {
      in_.clear();
      continue;
    }
    if (mrt_->mid_record()) {
      throw CheckFailure(paths_[file_ - 1] +
                         ": truncated MRT record at offset " +
                         std::to_string(mrt_->record_offset()));
    }
    in_open_ = false;
    return std::nullopt;
  }
}

std::vector<FeedRecord> generate_feed(const SyntheticFeedConfig& config,
                                      Rng& rng) {
  TC_CHECK(config.family == 4 || config.family == 6 || config.family == 46,
           "family must be 4, 6, or 46");
  std::vector<FeedRecord> out;

  // Live tables per family, for update targeting. Parallel next-hop
  // bookkeeping keeps re-announces honest (a fresh hop every time).
  std::vector<fib::Prefix> live4;
  std::vector<fib::Prefix6> live6;
  const auto next_hop = [&rng] {
    return static_cast<NextHop>(1 + rng.below(65535));
  };

  fib::RibConfig rib_config;
  rib_config.rules = config.routes;
  rib_config.deaggregation = config.deaggregation;
  if (config.family != 6) {
    rib_config.max_length = config.max_length4;
    live4 = fib::generate_rib(rib_config, rng);
    for (const fib::Prefix& p : live4) {
      out.push_back(FeedRecord{
          .op = FeedOp::kDump, .v6 = false, .prefix4 = p,
          .next_hop = next_hop()});
    }
  }
  if (config.family != 4) {
    rib_config.max_length = config.max_length6;
    live6 = fib::generate_rib6(rib_config, rng);
    for (const fib::Prefix6& p : live6) {
      out.push_back(FeedRecord{
          .op = FeedOp::kDump, .v6 = true, .prefix6 = p,
          .next_hop = next_hop()});
    }
  }

  // Update stream: each event picks a family (when both are present),
  // then withdraws a live route or announces (re-route or a fresh
  // more-specific extension of a live route, 1..8 extra bits).
  for (std::size_t i = 0; i < config.updates; ++i) {
    const std::uint64_t timestamp = config.base_timestamp + i;
    const bool use6 =
        config.family == 6 || (config.family == 46 && rng.chance(0.5));
    FeedRecord record;
    record.timestamp = timestamp;
    record.v6 = use6;
    const std::size_t live_count = use6 ? live6.size() : live4.size();
    if (live_count > 1 && rng.chance(config.withdraw_probability)) {
      record.op = FeedOp::kWithdraw;
      const std::size_t victim = rng.below(live_count);
      if (use6) {
        record.prefix6 = live6[victim];
        live6.erase(live6.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        record.prefix4 = live4[victim];
        live4.erase(live4.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    } else {
      record.op = FeedOp::kAnnounce;
      record.next_hop = next_hop();
      const bool fresh =
          live_count == 0 || rng.chance(config.fresh_announce_probability);
      if (use6) {
        record.prefix6 = fresh ? extend(live6, config.max_length6, rng)
                               : live6[rng.below(live6.size())];
        if (fresh) live6.push_back(record.prefix6);
      } else {
        record.prefix4 = fresh ? extend(live4, config.max_length4, rng)
                               : live4[rng.below(live4.size())];
        if (fresh) live4.push_back(record.prefix4);
      }
    }
    out.push_back(record);
  }
  return out;
}

}  // namespace treecache::rib
