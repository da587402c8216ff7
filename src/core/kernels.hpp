// The slice-scan primitives over the NodeState stripes.
//
// In the preorder layout every TC subtree operation is a contiguous
// rank-slice scan; these four plain functions are those scans, shared by
// TreeCache, NodeState and Subforest::missing_subtree. Each collection
// scan reports its visit count — one per push or subtree-skip jump — which
// TreeCache adds to work(), the empirical Theorem 6.1 work unit.
//
//  * scan_missing  — collect the uncached ranks of a rank slice honoring
//    descendant-closure skips (a cached node's whole subtree is skipped as
//    one jump), summing the epoch-valid counter mass of what it collects.
//  * scan_h_candidates — collect H(u): the slice scan over the NegEntry
//    stripe that skips subtrees with I < 0, with the same counter sum.
//  * range_epoch_reset — the O(n) stripe clear behind NodeState's
//    clear-on-wrap branch and full reset.
//  * emit_iota     — append [begin, end) as consecutive ranks (the phase
//    restart collects whole cached subtrees this way).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/node_state.hpp"

namespace treecache::kernels {

/// Result of a collection scan: the epoch-valid counter mass of the
/// collected ranks plus the number of loop visits (pushes + subtree-skip
/// jumps).
struct ScanResult {
  std::uint64_t total = 0;
  std::uint64_t visits = 0;
};

/// Stripe view of a missing-scan (collect_missing / missing_subtree):
/// rank-indexed word-packed cached bitmap, subtree-size stripe, and an
/// optional epoch-stamped counter stripe (null skips the counter sum).
struct MissingScan {
  const std::uint64_t* cached_bits = nullptr;
  const std::uint32_t* sizes = nullptr;
  const NodeState::Counter* cnt = nullptr;
  std::uint32_t epoch = 0;
};

/// Stripe view of an H-set scan (collect_h_set): NegEntry stripe holding
/// the packed (I, S) aggregates, subtree sizes, and the counter stripe.
struct HScan {
  const NodeState::NegEntry* neg = nullptr;
  const std::uint32_t* sizes = nullptr;
  const NodeState::Counter* cnt = nullptr;
  std::uint32_t epoch = 0;
};

/// Collected ranks land in a plain vector (appended, ascending).
using RankVec = std::vector<std::uint32_t>;

/// Appends the uncached ranks of [ru, end) to `out` (ascending), jumping
/// over cached subtrees (r += sizes[r]); returns their epoch-valid counter
/// mass and the visit count.
ScanResult scan_missing(const MissingScan& s, std::uint32_t ru,
                        std::uint32_t end, RankVec& out);

/// Appends H(u) over [ru, end) to `out` (ascending): ru always, below it
/// every rank whose NegEntry value is >= 0, skipping I < 0 subtrees as one
/// jump; returns counter mass + visits.
ScanResult scan_h_candidates(const HScan& s, std::uint32_t ru,
                             std::uint32_t end, RankVec& out);

/// Hard-clears `n` Counter and PosEntry slots to the all-zero state (the
/// epoch-wrap fallback and full reset).
void range_epoch_reset(NodeState::Counter* cnt, NodeState::PosEntry* pos,
                       std::size_t n);

/// Appends begin, begin+1, ..., end-1 to `out`.
void emit_iota(RankVec& out, std::uint32_t begin, std::uint32_t end);

/// Names the scan implementation; there is one, so `active().name` always
/// reads "scalar". It exists only because perfbench/main.cpp prints it in
/// its provenance block, and perfbench/ changes only together with
/// BENCHMARK.json; the next benchmark change deletes it with SplitKind.
struct Implementation {
  std::string_view name;
};
[[nodiscard]] const Implementation& active();

}  // namespace treecache::kernels
