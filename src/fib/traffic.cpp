#include "fib/traffic.hpp"

#include <numeric>

namespace treecache::fib {

PacketSampler::PacketSampler(const RuleTree& rules, double zipf_skew,
                             Rng& rng)
    : rules_(&rules),
      ranking_([&] {
        TC_CHECK(rules.tree.size() >= 2,
                 "rule tree has only the default rule");
        // Rank the non-root rules in random order.
        std::vector<NodeId> ids(rules.tree.size() - 1);
        std::iota(ids.begin(), ids.end(), NodeId{1});
        return ZipfRanking::shuffled(std::move(ids), zipf_skew, rng);
      }()) {}

PacketSampler::Packet PacketSampler::sample_address(Rng& rng) const {
  const NodeId rule = sample_rule(rng);
  const Prefix p = rules_->prefix[rule];
  const Address span_mask =
      p.length == 32 ? 0 : ((Address{1} << (32 - p.length)) - 1);
  Address addr = p.bits | (static_cast<Address>(rng()) & span_mask);
  // No rule is more specific than a leaf inside its prefix: the first
  // draw matches it, no LPM needed.
  if (rules_->tree.is_leaf(rule)) return {addr, rule};
  // A handful of rejection rounds keeps most packets on the sampled rule;
  // residual hits land on a more specific child, which is fine. Every try
  // computes its draw's match, so only a draw that exhausts the tries
  // needs one more LPM.
  for (int tries = 0; tries < 8; ++tries) {
    const NodeId match = rules_->lpm(addr);
    if (match == rule) return {addr, match};
    addr = p.bits | (static_cast<Address>(rng()) & span_mask);
  }
  return {addr, rules_->lpm(addr)};
}

FibTraceSource::FibTraceSource(const RuleTree& rules,
                               const FibWorkloadConfig& config, Rng rng)
    : rules_(&rules),
      config_(config),
      sampler_(rules, config.zipf_skew, rng),
      start_rng_(rng),
      rng_(rng) {
  TC_CHECK(config_.alpha >= 1, "alpha must be positive");
}

std::size_t FibTraceSource::fill(std::span<Request> buffer) {
  std::size_t n = 0;
  while (n < buffer.size()) {
    if (pending_ > 0) {
      --pending_;
      buffer[n++] = negative(pending_node_);
      continue;
    }
    if (events_done_ == config_.events) break;
    ++events_done_;
    if (rng_.chance(config_.update_probability)) {
      pending_node_ = sampler_.sample_rule(rng_);
      pending_ = config_.alpha;
    } else {
      buffer[n++] = positive(sampler_.sample_address(rng_).match);
    }
  }
  return n;
}

std::unique_ptr<RequestSource> FibTraceSource::fork() const {
  // Copy (the sampler's ranking is shared), then rewind to the captured
  // post-setup RNG state: the fork replays the identical stream.
  auto copy = std::make_unique<FibTraceSource>(*this);
  copy->reset();
  return copy;
}

void FibTraceSource::reset() {
  rng_ = start_rng_;
  events_done_ = 0;
  pending_ = 0;
}

ChunkedTrace make_fib_workload(const RuleTree& rules,
                               const FibWorkloadConfig& config, Rng& rng) {
  TC_CHECK(config.alpha >= 1, "alpha must be positive");
  const PacketSampler packets(rules, config.zipf_skew, rng);
  ChunkedTrace out;
  out.trace.reserve(config.events);
  for (std::size_t event = 0; event < config.events; ++event) {
    if (rng.chance(config.update_probability)) {
      const NodeId rule = packets.sample_rule(rng);
      const std::size_t begin = out.trace.size();
      append_repeated(out.trace, negative(rule), config.alpha);
      out.chunks.emplace_back(begin, out.trace.size());
    } else {
      out.trace.push_back(positive(packets.sample_address(rng).match));
    }
  }
  return out;
}

}  // namespace treecache::fib
