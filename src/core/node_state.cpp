#include "core/node_state.hpp"

#include <algorithm>

#include "core/kernels.hpp"

namespace treecache {

NodeState::NodeState(std::size_t n)
    : cached_((n + 63) / 64, 0), cnt_(n), pos_(n), neg_(n) {}

void NodeState::clear_cached_range(std::uint32_t begin, std::uint32_t end) {
  TC_DCHECK(begin <= end && end <= size(), "rank range out of range");
  if (begin >= end) return;
  const std::uint32_t first = begin >> 6;
  const std::uint32_t last = (end - 1) >> 6;  // inclusive word index
  const std::uint64_t head = ~std::uint64_t{0} << (begin & 63);
  const std::uint64_t tail = ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
  if (first == last) {
    cached_[first] &= ~(head & tail);
    return;
  }
  cached_[first] &= ~head;
  std::fill(cached_.begin() + first + 1, cached_.begin() + last, 0);
  cached_[last] &= ~tail;
}

void NodeState::new_phase() {
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: stamps are ambiguous, really clear
    kernels::range_epoch_reset(cnt_.data(), pos_.data(), cnt_.size());
    epoch_ = 1;
  }
}

void NodeState::reset() {
  std::fill(cached_.begin(), cached_.end(), std::uint64_t{0});
  kernels::range_epoch_reset(cnt_.data(), pos_.data(), cnt_.size());
  std::fill(neg_.begin(), neg_.end(), NegEntry{});
  epoch_ = 1;
}

}  // namespace treecache
