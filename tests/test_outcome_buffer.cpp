// OutcomeBuffer — the flattened StepOutcome transport of batched
// feedback. These tests pin its value contract: append deep-copies every
// span, views() reproduces the outcomes field for field in append order,
// clear() recycles, and swap() moves whole chunks in O(1) without mixing
// contents.
#include <gtest/gtest.h>

#include <vector>

#include "core/outcome_buffer.hpp"

namespace treecache {
namespace {

std::vector<StepOutcome> sample_outcomes() {
  // Scratch node lists live in static storage so the spans of the
  // expected outcomes stay valid for the whole test.
  static const std::vector<NodeId> fetched{3, 5, 8};
  static const std::vector<NodeId> evicted{2};
  static const std::vector<NodeId> aborted{1, 4, 6, 7};
  std::vector<StepOutcome> outcomes;
  outcomes.push_back({.paid = true,
                      .change = ChangeKind::kFetch,
                      .changed = fetched,
                      .also_evicted = evicted});
  // All-empty spans: a free hit must round-trip too.
  outcomes.push_back({.paid = false, .change = ChangeKind::kNone});
  outcomes.push_back({.paid = true,
                      .change = ChangeKind::kPhaseRestart,
                      .changed = evicted,
                      .aborted_fetch = aborted,
                      .aborted_fetch_size = 4});
  return outcomes;
}

void expect_outcome_eq(const StepOutcome& got, const StepOutcome& want) {
  EXPECT_EQ(got.paid, want.paid);
  EXPECT_EQ(got.change, want.change);
  EXPECT_EQ(got.aborted_fetch_size, want.aborted_fetch_size);
  ASSERT_EQ(got.changed.size(), want.changed.size());
  ASSERT_EQ(got.also_evicted.size(), want.also_evicted.size());
  ASSERT_EQ(got.aborted_fetch.size(), want.aborted_fetch.size());
  for (std::size_t i = 0; i < want.changed.size(); ++i) {
    EXPECT_EQ(got.changed[i], want.changed[i]);
  }
  for (std::size_t i = 0; i < want.also_evicted.size(); ++i) {
    EXPECT_EQ(got.also_evicted[i], want.also_evicted[i]);
  }
  for (std::size_t i = 0; i < want.aborted_fetch.size(); ++i) {
    EXPECT_EQ(got.aborted_fetch[i], want.aborted_fetch[i]);
  }
}

TEST(OutcomeBuffer, RoundTripsOutcomesInAppendOrder) {
  const std::vector<StepOutcome> expected = sample_outcomes();
  OutcomeBuffer buffer;
  EXPECT_TRUE(buffer.empty());
  EXPECT_TRUE(buffer.views().empty());

  for (const StepOutcome& outcome : expected) buffer.append(outcome);
  EXPECT_FALSE(buffer.empty());
  ASSERT_EQ(buffer.size(), expected.size());

  const std::span<const StepOutcome> views = buffer.views();
  ASSERT_EQ(views.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("outcome " + std::to_string(i));
    expect_outcome_eq(views[i], expected[i]);
  }
}

TEST(OutcomeBuffer, CopiesAreDeepNotBorrowed) {
  // The whole point of the buffer: the views must survive the death of the
  // storage the appended outcome's spans pointed into.
  std::vector<NodeId> scratch{9, 11};
  OutcomeBuffer buffer;
  buffer.append(
      {.paid = true, .change = ChangeKind::kEvict, .changed = scratch});
  scratch.assign(scratch.size(), 0);  // clobber the borrowed storage
  scratch.clear();

  const std::span<const StepOutcome> views = buffer.views();
  ASSERT_EQ(views.size(), 1u);
  ASSERT_EQ(views[0].changed.size(), 2u);
  EXPECT_EQ(views[0].changed[0], 9u);
  EXPECT_EQ(views[0].changed[1], 11u);
}

TEST(OutcomeBuffer, ViewsRefreshAfterFurtherAppends) {
  const std::vector<StepOutcome> expected = sample_outcomes();
  OutcomeBuffer buffer;
  buffer.append(expected[0]);
  EXPECT_EQ(buffer.views().size(), 1u);
  buffer.append(expected[1]);
  buffer.append(expected[2]);
  const std::span<const StepOutcome> views = buffer.views();
  ASSERT_EQ(views.size(), 3u);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("outcome " + std::to_string(i));
    expect_outcome_eq(views[i], expected[i]);
  }
}

TEST(OutcomeBuffer, ClearRecyclesForReuse) {
  const std::vector<StepOutcome> expected = sample_outcomes();
  OutcomeBuffer buffer;
  for (const StepOutcome& outcome : expected) buffer.append(outcome);
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_TRUE(buffer.views().empty());

  // A recycled buffer accumulates a fresh chunk with no leftovers.
  buffer.append(expected[2]);
  const std::span<const StepOutcome> views = buffer.views();
  ASSERT_EQ(views.size(), 1u);
  expect_outcome_eq(views[0], expected[2]);
}

TEST(OutcomeBuffer, SwapExchangesWholeChunks) {
  const std::vector<StepOutcome> expected = sample_outcomes();
  OutcomeBuffer full;
  for (const StepOutcome& outcome : expected) full.append(outcome);
  OutcomeBuffer empty;

  full.swap(empty);  // the ring handoff: full worker buffer <-> empty slot
  EXPECT_TRUE(full.empty());
  ASSERT_EQ(empty.size(), expected.size());
  const std::span<const StepOutcome> views = empty.views();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("outcome " + std::to_string(i));
    expect_outcome_eq(views[i], expected[i]);
  }

  // And the drained side is immediately reusable.
  full.append(expected[0]);
  ASSERT_EQ(full.size(), 1u);
  expect_outcome_eq(full.views()[0], expected[0]);
}

}  // namespace
}  // namespace treecache
