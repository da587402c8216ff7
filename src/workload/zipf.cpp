#include "workload/zipf.hpp"

#include <bit>
#include <cmath>
#include <limits>

namespace treecache {

std::vector<double> zipf_weights(std::size_t n, double skew) {
  TC_CHECK(n >= 1, "need at least one rank");
  TC_CHECK(skew >= 0.0, "negative skew not supported");
  std::vector<double> weights(n);
  for (std::size_t r = 0; r < n; ++r) {
    weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), skew);
  }
  return weights;
}

ZipfSampler::ZipfSampler(std::size_t n, double skew) {
  TC_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
           "too many ranks for the guide table");
  const auto weights = zipf_weights(n, skew);
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += weights[r];
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against rounding

  // One merge pass over the bucket edges j/K and the CDF. Every edge is
  // ≤ 1.0 = cdf_.back(), so the scan never runs off the end.
  const std::size_t k = std::bit_ceil(n);
  buckets_ = static_cast<double>(k);
  guide_.resize(k + 1);
  std::size_t r = 0;
  for (std::size_t j = 0; j <= k; ++j) {
    const double edge = static_cast<double>(j) / buckets_;
    while (cdf_[r] < edge) ++r;
    guide_[j] = static_cast<std::uint32_t>(r);
  }
}

double ZipfSampler::pmf(std::size_t rank) const {
  TC_CHECK(rank < cdf_.size(), "rank out of range");
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

}  // namespace treecache
