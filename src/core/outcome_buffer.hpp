// Flattened StepOutcome batches — outcomes that outlive their step.
//
// A StepOutcome's spans point into the algorithm's scratch buffers and die
// at the next step. Holding outcomes past it (to deliver a whole chunk as
// one observe_batch, or to hand them to another thread) therefore needs a
// copy — but one heap-allocated copy per outcome (three vectors each) is
// exactly the per-outcome tax the batched observe_batch API exists to
// kill. An OutcomeBuffer instead appends every
// outcome into two flat arrays — fixed-size headers plus one shared NodeId
// arena — so a whole chunk of outcomes costs at most two amortized
// allocations, and a drained buffer is recycled wholesale via O(1) swap().
//
// views() materializes std::span views over the flat storage so consumers
// keep the plain `std::span<const StepOutcome>` interface of
// RequestSource::observe_batch. The views borrow this buffer: they are
// invalidated by append/clear/swap/destruction, like the live outcomes
// they stand in for.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/online_algorithm.hpp"

namespace treecache {

class OutcomeBuffer {
 public:
  /// Appends a deep copy of `outcome` (flattened, no per-outcome
  /// allocation beyond amortized vector growth).
  void append(const StepOutcome& outcome);

  /// StepOutcome views over the buffered outcomes, in append order. Valid
  /// until the next append/clear/swap or destruction.
  [[nodiscard]] std::span<const StepOutcome> views() const;

  [[nodiscard]] std::size_t size() const { return headers_.size(); }
  [[nodiscard]] bool empty() const { return headers_.empty(); }

  /// Forgets the contents but keeps the capacity — the recycling half of
  /// the ring-buffer protocol.
  void clear();

  /// O(1) exchange of contents (and capacity) — how a full worker-side
  /// buffer trades places with an empty producer-side one without copying.
  void swap(OutcomeBuffer& other) noexcept;

 private:
  /// Fixed-size per-outcome record; the three node lists live back to back
  /// in `nodes_`, so the counts here locate them.
  struct Header {
    std::uint32_t changed = 0;
    std::uint32_t also_evicted = 0;
    std::uint32_t aborted_fetch = 0;
    std::uint32_t aborted_fetch_size = 0;
    ChangeKind change = ChangeKind::kNone;
    bool paid = false;
  };

  std::vector<Header> headers_;
  std::vector<NodeId> nodes_;  // shared arena: changed | evicted | aborted
  mutable std::vector<StepOutcome> views_;
  mutable bool views_valid_ = false;
};

}  // namespace treecache
