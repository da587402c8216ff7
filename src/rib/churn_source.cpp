#include "rib/churn_source.hpp"

#include <numeric>

#include "fib/rule_tree.hpp"

namespace treecache::rib {

template <typename PrefixT>
BasicChurnReplay<PrefixT> make_churn_replay(
    const BasicIngest<PrefixT>& ingest) {
  // Live routes plus every churned prefix is every prefix the feed named;
  // build_rule_tree sorts, dedupes and drops /0.
  std::vector<PrefixT> named = ingest.rib.prefixes();
  named.insert(named.end(), ingest.churn.begin(), ingest.churn.end());
  fib::BasicRuleTree<PrefixT> fib_tree = fib::build_rule_tree(std::move(named));
  std::vector<NodeId> churn_nodes;
  churn_nodes.reserve(ingest.churn.size());
  for (const PrefixT& p : ingest.churn) {
    const auto node = fib_tree.exact(p);
    TC_CHECK(node.has_value(), "churned prefix missing from the replay tree");
    churn_nodes.push_back(*node);
  }
  return BasicChurnReplay<PrefixT>{std::move(fib_tree),
                                   std::move(churn_nodes)};
}

template ChurnReplay make_churn_replay<fib::Prefix>(
    const BasicIngest<fib::Prefix>&);
template ChurnReplay6 make_churn_replay<fib::Prefix6>(
    const BasicIngest<fib::Prefix6>&);

template <typename PrefixT>
BasicRibChurnSource<PrefixT>::BasicRibChurnSource(
    std::shared_ptr<const BasicChurnReplay<PrefixT>> replay,
    const ChurnReplayConfig& config, Rng rng)
    : replay_(std::move(replay)),
      config_(config),
      ranking_([&] {
        TC_CHECK(replay_ != nullptr, "replay must not be null");
        TC_CHECK(replay_->fib.tree.size() >= 2,
                 "feed produced a table with no routes");
        std::vector<NodeId> ids(replay_->fib.tree.size() - 1);
        std::iota(ids.begin(), ids.end(), NodeId{1});
        return ZipfRanking::shuffled(std::move(ids), config.zipf_skew, rng);
      }()),
      start_rng_(rng),
      rng_(rng) {
  TC_CHECK(config_.alpha >= 1, "alpha must be positive");
  const auto events = static_cast<std::uint64_t>(replay_->churn_nodes.size());
  total_ = events * (config_.lookups_per_event + config_.alpha) +
           config_.tail_lookups;
  reset();
}

template <typename PrefixT>
NodeId BasicRibChurnSource<PrefixT>::sample_lookup() {
  using Bits = typename PrefixT::Bits;
  using Family = fib::AddressFamily<Bits>;
  const NodeId rule = ranking_->sample(rng_);
  const PrefixT& p = replay_->fib.prefix[rule];
  const Bits span_mask = ~fib::prefix_mask<Bits>(p.length);
  // A handful of rejection rounds keeps most packets on the sampled rule;
  // residual hits land on a more specific child, which is fine.
  // Each try keeps its draw's match, so the accepted draw needs no second
  // LPM.
  NodeId match = replay_->fib.lpm(p.bits | (Family::random(rng_) & span_mask));
  for (int tries = 0; tries < 8 && match != rule; ++tries) {
    match = replay_->fib.lpm(p.bits | (Family::random(rng_) & span_mask));
  }
  return match;
}

template <typename PrefixT>
std::size_t BasicRibChurnSource<PrefixT>::fill(std::span<Request> buffer) {
  std::size_t n = 0;
  while (n < buffer.size()) {
    if (lookups_pending_ > 0) {
      --lookups_pending_;
      buffer[n++] = positive(sample_lookup());
      continue;
    }
    if (negatives_pending_ > 0) {
      --negatives_pending_;
      buffer[n++] = negative(chunk_node_);
      continue;
    }
    if (event_ < replay_->churn_nodes.size()) {
      chunk_node_ = replay_->churn_nodes[event_++];
      lookups_pending_ = config_.lookups_per_event;
      negatives_pending_ = config_.alpha;
      continue;
    }
    if (tail_pending_ > 0) {
      --tail_pending_;
      buffer[n++] = positive(sample_lookup());
      continue;
    }
    break;
  }
  emitted_ += n;
  return n;
}

template <typename PrefixT>
void BasicRibChurnSource<PrefixT>::reset() {
  rng_ = start_rng_;
  emitted_ = 0;
  event_ = 0;
  lookups_pending_ = 0;
  negatives_pending_ = 0;
  tail_pending_ = config_.tail_lookups;
  chunk_node_ = 0;
}

template <typename PrefixT>
std::optional<std::uint64_t> BasicRibChurnSource<PrefixT>::size_hint() const {
  return total_ - emitted_;
}

template <typename PrefixT>
std::unique_ptr<RequestSource> BasicRibChurnSource<PrefixT>::fork() const {
  // Copy (sharing the replay and the Zipf ranking), then rewind to the
  // captured post-setup RNG state: the fork replays the identical stream.
  auto copy = std::make_unique<BasicRibChurnSource<PrefixT>>(*this);
  copy->reset();
  return copy;
}

template class BasicRibChurnSource<fib::Prefix>;
template class BasicRibChurnSource<fib::Prefix6>;

}  // namespace treecache::rib
