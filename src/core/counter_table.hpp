// Epoch-stamped per-node value arrays.
//
// TC resets *all* counters when a new phase starts. A phase restart already
// pays Θ(|cache|) for the eviction, but the tree may be much larger than the
// cache, so an O(|T|) memset per restart would break the Theorem 6.1 bound.
// EpochArray gives O(1) bulk reset: each slot carries the epoch it was last
// written in, and reads from older epochs observe the default value.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace treecache {

template <typename T>
class EpochArray {
 public:
  explicit EpochArray(std::size_t n, T default_value = T{})
      : value_(n, default_value),
        stamp_(n, 0),
        default_(default_value) {}

  [[nodiscard]] std::size_t size() const { return value_.size(); }

  [[nodiscard]] T get(std::size_t i) const {
    TC_DCHECK(i < value_.size(), "index out of range");
    return stamp_[i] == epoch_ ? value_[i] : default_;
  }

  void set(std::size_t i, T v) {
    TC_DCHECK(i < value_.size(), "index out of range");
    value_[i] = v;
    stamp_[i] = epoch_;
  }

  /// get(i) + delta, stored back; returns the new value.
  T add(std::size_t i, T delta) {
    const T next = static_cast<T>(get(i) + delta);
    set(i, next);
    return next;
  }

  /// O(1) reset of every slot to the default value.
  void reset_all() {
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: stamps are ambiguous, really clear
      std::fill(stamp_.begin(), stamp_.end(), std::uint32_t{0});
      std::fill(value_.begin(), value_.end(), default_);
      epoch_ = 1;
    }
  }

  /// Test seam: forces the epoch counter so the clear-on-wrap branch of
  /// reset_all() is reachable without 2^32 calls.
  void debug_set_epoch(std::uint32_t epoch) { epoch_ = epoch; }
  [[nodiscard]] std::uint32_t debug_epoch() const { return epoch_; }

 private:
  std::vector<T> value_;
  std::vector<std::uint32_t> stamp_;
  T default_;
  std::uint32_t epoch_ = 1;
};

}  // namespace treecache
