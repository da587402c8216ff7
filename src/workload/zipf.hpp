// Zipf(s) sampling over ranks 0..n-1 (rank 0 most popular).
//
// The FIB application leans on the empirical observation (Sarrar et al.,
// cited in §2 of the paper) that per-rule traffic is Zipf-distributed; the
// sampler below backs all skewed workload generators.
//
// Draws are exact inversions of the CDF in O(1) expected time via a guide
// table (the cutpoint method of Chen & Asau): with K = bit_ceil(n) buckets,
// guide[j] is the first rank whose CDF reaches j/K, so the rank of any
// u ∈ [j/K, (j+1)/K) lies in [guide[j], guide[j+1]] and a binary search of
// that short range returns exactly what a full-range search would. K is a
// power of two, so u·K and j/K are exact in floating point.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "tree/tree.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace treecache {

class ZipfSampler {
 public:
  /// P(rank = r) ∝ 1 / (r+1)^skew. skew = 0 is uniform.
  ZipfSampler(std::size_t n, double skew);

  /// Draws a rank in [0, n).
  [[nodiscard]] std::size_t sample(Rng& rng) const {
    return sample_at(rng.uniform01());
  }

  /// The rank whose CDF interval contains u ∈ [0, 1): rank r covers
  /// (cdf(r-1), cdf(r)], except rank 0 which also covers 0. Exposed so
  /// tests can probe draws landing exactly on a CDF step.
  [[nodiscard]] std::size_t sample_at(double u) const {
    TC_CHECK(u >= 0.0 && u < 1.0, "u must lie in [0, 1)");
    const auto j = static_cast<std::size_t>(u * buckets_);
    const double* const cdf = cdf_.data();
    const double* const it =
        std::lower_bound(cdf + guide_[j], cdf + guide_[j + 1], u);
    return static_cast<std::size_t>(it - cdf);
  }

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

  /// The inclusive CDF: entry r is P(rank ≤ r); the last entry is 1.0.
  [[nodiscard]] std::span<const double> cdf() const { return cdf_; }

  /// Probability mass of a rank.
  [[nodiscard]] double pmf(std::size_t rank) const;

 private:
  std::vector<double> cdf_;  // inclusive cumulative probabilities
  // guide_[j] = lower_bound(cdf_, j / K) for j = 0..K, K = buckets_.
  std::vector<std::uint32_t> guide_;
  double buckets_ = 1.0;
};

/// A fixed Zipf popularity ranking: rank r is `ids[r]`. Immutable once
/// built, so a source and all its forks share one through
/// shared_ptr<const ZipfRanking> instead of copying the tables.
struct ZipfRanking {
  ZipfRanking(std::vector<NodeId> ranked_ids, double skew)
      : ids(std::move(ranked_ids)), sampler(ids.size(), skew) {}

  /// Ranks `ids` in an order shuffled by `rng`.
  [[nodiscard]] static std::shared_ptr<const ZipfRanking> shuffled(
      std::vector<NodeId> ids, double skew, Rng& rng) {
    rng.shuffle(ids);
    return std::make_shared<const ZipfRanking>(std::move(ids), skew);
  }

  [[nodiscard]] NodeId sample(Rng& rng) const {
    return ids[sampler.sample(rng)];
  }

  std::vector<NodeId> ids;
  ZipfSampler sampler;
};

/// Unnormalized Zipf weights 1/(r+1)^skew for ranks 0..n-1.
[[nodiscard]] std::vector<double> zipf_weights(std::size_t n, double skew);

}  // namespace treecache
