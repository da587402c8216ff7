#include "core/kernels.hpp"

#include <algorithm>

namespace treecache::kernels {
namespace {

[[nodiscard]] inline bool bit_set(const std::uint64_t* bits, std::uint32_t r) {
  return ((bits[r >> 6] >> (r & 63)) & 1) != 0;
}

}  // namespace

// One visit per push or subtree-skip jump; counters are masked by the
// epoch stamp.

ScanResult scan_missing(const MissingScan& s, std::uint32_t ru,
                        std::uint32_t end, RankVec& out) {
  ScanResult res;
  for (std::uint32_t r = ru; r < end;) {
    ++res.visits;
    if (bit_set(s.cached_bits, r)) {
      r += s.sizes[r];
      continue;
    }
    out.push_back(r);
    if (s.cnt != nullptr && s.cnt[r].stamp == s.epoch) {
      res.total += s.cnt[r].value;
    }
    ++r;
  }
  return res;
}

ScanResult scan_h_candidates(const HScan& s, std::uint32_t ru,
                             std::uint32_t end, RankVec& out) {
  ScanResult res;
  for (std::uint32_t r = ru; r < end;) {
    ++res.visits;
    if (r != ru && s.neg[r].value < 0) {
      r += s.sizes[r];
      continue;
    }
    out.push_back(r);
    if (s.cnt[r].stamp == s.epoch) res.total += s.cnt[r].value;
    ++r;
  }
  return res;
}

void range_epoch_reset(NodeState::Counter* cnt, NodeState::PosEntry* pos,
                       std::size_t n) {
  std::fill(cnt, cnt + n, NodeState::Counter{});
  std::fill(pos, pos + n, NodeState::PosEntry{});
}

void emit_iota(RankVec& out, std::uint32_t begin, std::uint32_t end) {
  for (std::uint32_t r = begin; r < end; ++r) out.push_back(r);
}

const Implementation& active() {
  static constexpr Implementation kScalar{.name = "scalar"};
  return kScalar;
}

}  // namespace treecache::kernels
