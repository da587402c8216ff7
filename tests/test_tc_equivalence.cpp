// Cross-validation of the efficient TreeCache (§6 data structures) against
// the recompute-from-scratch NaiveTreeCache, plus specification checking
// against the raw definition of TC via exhaustive changeset enumeration.
//
// These parameterized suites are the primary defense against bugs in the
// incremental P_t(u) / H_t(u) maintenance.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/invariant_checker.hpp"
#include "core/naive_tree_cache.hpp"
#include "core/trace.hpp"
#include "core/tree_cache.hpp"
#include "tree/tree_builder.hpp"
#include "util/rng.hpp"

namespace treecache {
namespace {

std::vector<NodeId> sorted(std::span<const NodeId> nodes) {
  std::vector<NodeId> v(nodes.begin(), nodes.end());
  std::sort(v.begin(), v.end());
  return v;
}

Tree make_tree(const std::string& shape, std::uint64_t seed) {
  Rng rng(seed);
  if (shape == "path") return trees::path(9);
  if (shape == "star") return trees::star(8);
  if (shape == "binary") return trees::complete_kary(3, 2);
  if (shape == "ternary") return trees::complete_kary(2, 3);
  if (shape == "caterpillar") return trees::caterpillar(3, 2);
  if (shape == "spider") return trees::spider(3, 3);
  if (shape == "random") return trees::random_recursive(10, rng);
  if (shape == "randomdeg2") return trees::random_bounded_degree(10, 2, rng);
  throw CheckFailure("unknown shape " + shape);
}

Trace random_trace(const Tree& tree, std::size_t length, double negative_frac,
                   Rng& rng) {
  Trace trace;
  trace.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    const auto v = static_cast<NodeId>(rng.below(tree.size()));
    const Sign s =
        rng.chance(negative_frac) ? Sign::kNegative : Sign::kPositive;
    trace.push_back(Request{v, s});
  }
  return trace;
}

using EquivalenceParam =
    std::tuple<std::string /*shape*/, std::uint64_t /*alpha*/,
               std::size_t /*capacity*/, double /*negative fraction*/>;

class TcEquivalence : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(TcEquivalence, MatchesNaiveAndSpecification) {
  const auto& [shape, alpha, capacity, negative_frac] = GetParam();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Tree tree = make_tree(shape, seed);
    Rng rng(seed * 7919 + alpha);
    const Trace trace = random_trace(tree, 220, negative_frac, rng);

    TreeCache fast(tree, {.alpha = alpha, .capacity = capacity});
    NaiveTreeCache naive(tree, {.alpha = alpha, .capacity = capacity});
    SpecChecker checker(tree, alpha, capacity, /*max_enum_candidates=*/10);

    for (std::size_t i = 0; i < trace.size(); ++i) {
      const Request r = trace[i];
      const StepOutcome a = fast.step(r);
      const StepOutcome b = naive.step(r);

      ASSERT_EQ(a.paid, b.paid) << shape << " seed " << seed << " round " << i;
      ASSERT_EQ(a.change, b.change)
          << shape << " seed " << seed << " round " << i;
      ASSERT_EQ(sorted(a.changed), sorted(b.changed))
          << shape << " seed " << seed << " round " << i;
      ASSERT_EQ(a.aborted_fetch_size, b.aborted_fetch_size);
      ASSERT_EQ(fast.cache().as_vector(), naive.cache().as_vector());
      ASSERT_EQ(fast.cost(), naive.cost());

      ASSERT_NO_THROW(checker.observe(r, a))
          << shape << " seed " << seed << " round " << i;
      ASSERT_EQ(checker.mirror_cache().as_vector(), fast.cache().as_vector());
    }
    // The small trees in this suite must have exercised the exhaustive
    // enumeration path — otherwise the suite checks less than it claims.
    EXPECT_GT(checker.exhaustive_rounds(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TcEquivalence,
    ::testing::Combine(
        ::testing::Values("path", "star", "binary", "ternary", "caterpillar",
                          "spider", "random", "randomdeg2"),
        ::testing::Values<std::uint64_t>(1, 2, 4),
        ::testing::Values<std::size_t>(1, 3, 6, 100),
        ::testing::Values(0.0, 0.35, 0.75)),
    [](const ::testing::TestParamInfo<EquivalenceParam>& param_info) {
      return std::get<0>(param_info.param) + "_a" +
             std::to_string(std::get<1>(param_info.param)) + "_k" +
             std::to_string(std::get<2>(param_info.param)) + "_n" +
             std::to_string(
                 static_cast<int>(std::get<3>(param_info.param) * 100));
    });

// Deeper randomized sweep on bigger trees without enumeration (naive
// comparison only), to push the incremental structures harder. Besides the
// outcomes it checks every node's counter after every round and the node
// set of every aborted fetch, which no other differential compares.
TEST(TcEquivalenceLarge, RandomTreesLongTraces) {
  std::uint64_t restarts = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const Tree tree = trees::random_recursive(120, rng);
    const std::uint64_t alpha = 1 + rng.below(5);
    const std::size_t capacity = 1 + rng.below(tree.size());
    const Trace trace = random_trace(tree, 3000, 0.4, rng);

    TreeCache fast(tree, {.alpha = alpha, .capacity = capacity});
    NaiveTreeCache naive(tree, {.alpha = alpha, .capacity = capacity});
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const StepOutcome a = fast.step(trace[i]);
      const StepOutcome b = naive.step(trace[i]);
      ASSERT_EQ(a.paid, b.paid) << "seed " << seed << " round " << i;
      ASSERT_EQ(a.change, b.change) << "seed " << seed << " round " << i;
      ASSERT_EQ(sorted(a.changed), sorted(b.changed))
          << "seed " << seed << " round " << i;
      ASSERT_EQ(sorted(a.aborted_fetch), sorted(b.aborted_fetch))
          << "seed " << seed << " round " << i;
      ASSERT_EQ(a.aborted_fetch_size, b.aborted_fetch_size)
          << "seed " << seed << " round " << i;
      for (NodeId v = 0; v < tree.size(); ++v) {
        ASSERT_EQ(fast.counter(v), naive.counter(v))
            << "seed " << seed << " round " << i << " node " << v;
      }
      ASSERT_TRUE(fast.cache().is_valid());
      if (a.change == ChangeKind::kPhaseRestart) ++restarts;
    }
    ASSERT_EQ(fast.cost(), naive.cost());
  }
  // The aborted-fetch comparison is only as good as the restarts it saw.
  EXPECT_GT(restarts, 0u);
}

// Hot-path skew: repeated positive requests concentrated on few nodes mixed
// with negative bursts at the cached tree tops.
TEST(TcEquivalenceLarge, SkewedHotspotTraces) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 31);
    const Tree tree = trees::random_bounded_degree(80, 3, rng);
    const std::uint64_t alpha = 2 + rng.below(3);
    const std::size_t capacity = 10 + rng.below(30);

    Trace trace;
    const auto leaves = tree.leaves();
    for (int block = 0; block < 60; ++block) {
      const NodeId hot = rng.pick(leaves);
      for (int i = 0; i < 12; ++i) {
        // Hammer the hot leaf and its ancestors with positives, then send
        // negatives at low-depth nodes to provoke evictions.
        trace.push_back(positive(hot));
        const auto path = tree.path_to_root(hot);
        trace.push_back(positive(path[rng.below(path.size())]));
        if (rng.chance(0.5)) {
          trace.push_back(
              negative(static_cast<NodeId>(rng.below(tree.size()))));
        }
      }
    }

    TreeCache fast(tree, {.alpha = alpha, .capacity = capacity});
    NaiveTreeCache naive(tree, {.alpha = alpha, .capacity = capacity});
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const StepOutcome a = fast.step(trace[i]);
      const StepOutcome b = naive.step(trace[i]);
      ASSERT_EQ(a.paid, b.paid) << "seed " << seed << " round " << i;
      ASSERT_EQ(a.change, b.change) << "seed " << seed << " round " << i;
      ASSERT_EQ(sorted(a.changed), sorted(b.changed))
          << "seed " << seed << " round " << i;
    }
    ASSERT_EQ(fast.cost(), naive.cost());
    ASSERT_EQ(fast.cache().as_vector(), naive.cache().as_vector());
  }
}

}  // namespace
}  // namespace treecache
