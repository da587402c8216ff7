// Packet and rule-update stream generation for the FIB experiments.
//
// Traffic is Zipf-distributed over rules (Sarrar et al., cited in §2);
// updates follow the Appendix-B model: one BGP update to a rule becomes a
// chunk of α negative requests to its tree node.
#pragma once

#include <cstdint>
#include <memory>

#include "core/request_source.hpp"
#include "core/trace.hpp"
#include "fib/rule_tree.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace treecache::fib {

/// Zipf popularity over rules, with addresses drawn inside the chosen
/// rule's prefix.
class PacketSampler {
 public:
  /// Popularity ranks are a random permutation of the non-root rules.
  /// Copies share the ranking.
  PacketSampler(const RuleTree& rules, double zipf_skew, Rng& rng);

  /// Draws the tree node a packet's full-table LPM resolves to.
  [[nodiscard]] NodeId sample_rule(Rng& rng) const {
    return ranking_->sample(rng);
  }

  /// A drawn packet: its address and the address's full-table LPM match.
  struct Packet {
    Address addr = 0;
    NodeId match = 0;
  };

  /// Draws an address whose LPM is (usually) the sampled rule; if the
  /// rule's children cover the sampled address, the packet simply belongs
  /// to the more specific rule — realistic either way. The match comes
  /// with the draw, so callers never rerun the full-table LPM.
  [[nodiscard]] Packet sample_address(Rng& rng) const;

 private:
  const RuleTree* rules_;
  std::shared_ptr<const ZipfRanking> ranking_;  // shared by copies
};

struct FibWorkloadConfig {
  std::size_t events = 100000;        // packets + update chunks
  double zipf_skew = 1.0;
  double update_probability = 0.01;   // chance an event is a rule update
  std::uint64_t alpha = 16;           // chunk length per update
};

/// Packets become positive requests to their full-table LPM node; updates
/// become α-chunks of negative requests to a Zipf-popular rule. Chunk
/// boundaries are recorded for the Appendix-B canonicalization experiment.
/// (Eager variant of FibTraceSource; kept for chunk-aware consumers —
/// both draw the identical stream from the same RNG state, enforced by
/// tests/test_request_source.cpp.)
[[nodiscard]] ChunkedTrace make_fib_workload(const RuleTree& rules,
                                             const FibWorkloadConfig& config,
                                             Rng& rng);

/// Streaming FIB workload: the open-loop packet/update stream of
/// make_fib_workload as a pull-based source, emitting `config.events`
/// events lazily (one positive request per packet, an α-chunk of negative
/// requests per update). `rules` must outlive the source.
class FibTraceSource final : public RequestSource {
 public:
  FibTraceSource(const RuleTree& rules, const FibWorkloadConfig& config,
                 Rng rng);

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override;
  void reset() override;
  [[nodiscard]] std::unique_ptr<RequestSource> fork() const override;
  // size_hint stays nullopt: events expand to 1 or alpha requests, so the
  // exact request count is unknown until the stream ends.

 private:
  const RuleTree* rules_;
  FibWorkloadConfig config_;
  PacketSampler sampler_;
  Rng start_rng_;  // state AFTER the sampler's permutation draw
  Rng rng_;
  std::size_t events_done_ = 0;
  NodeId pending_node_ = 0;
  std::uint64_t pending_ = 0;  // negatives left in the current chunk
};

}  // namespace treecache::fib
