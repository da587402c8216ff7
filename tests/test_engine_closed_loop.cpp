// Closed-loop sharding, proven differentially: the sharded engine run of
// the FIB router source — per-shard mirrors off one shared event producer,
// each running its own closed loop on its shard's worker — must be
// bit-identical to the single-threaded
// reference (each shard's mirror driven through sim::run_source on a
// fresh instance, no engine machinery at all) for every registered
// algorithm × shard count × thread count × traffic shape. Feedback-
// dependent streams are where parallel caching goes subtly wrong, so
// nothing here is spot-checked: the sweep is exhaustive over the
// registry, the seeds are randomized (override TREECACHE_DIFF_SEED to
// replay a failure), and CI runs the suite under both ASan and TSan.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>


#include "engine/shard_plan.hpp"
#include "engine/sharded_engine.hpp"
#include "fib/fib_workloads.hpp"
#include "fib/router_sim.hpp"
#include "fib/router_source.hpp"
#include "sim/fib_engine.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "tree/tree_builder.hpp"
#include "util/rng.hpp"

namespace treecache {
namespace {

/// Traffic shapes of the differential sweep: the fib default (sparse BGP
/// updates) and the update-heavy fib-churn variant.
struct TrafficShape {
  const char* name;
  const char* update_prob;
};
constexpr TrafficShape kShapes[] = {{"fib", "0.01"}, {"fib-churn", "0.10"}};

constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};
// 3 is the uneven mapping (8 shards on 3 workers) the benchmark runs.
constexpr std::size_t kThreadCounts[] = {1, 2, 3, 4};

sim::Params diff_params(const TrafficShape& shape) {
  sim::Params p;
  p.set("rules", "150");
  p.set("packets", "900");
  p.set("alpha", "4");
  p.set("capacity", "48");
  p.set("update-prob", shape.update_prob);
  return p;
}

/// Randomized but reproducible: the sweep draws its RIB and traffic seeds
/// from this; export TREECACHE_DIFF_SEED to replay a reported failure.
std::uint64_t harness_seed() {
  if (const char* env = std::getenv("TREECACHE_DIFF_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260730;
}

struct Reference {
  std::vector<sim::RunResult> per_shard;
  std::vector<fib::RouterSimResult> stats;
};

/// The single-threaded reference of the S-shard closed loop: shard by
/// shard, a fresh mirror driven through sim::run_source against a fresh
/// registry-built instance over the shard tree. This is the definition
/// the engine's queue machinery must reproduce bit for bit.
Reference sequential_reference(const fib::RuleTree& rules,
                               const engine::ShardPlan& plan,
                               const std::string& algorithm,
                               const sim::Params& params,
                               const fib::RouterSimConfig& router) {
  Reference ref;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    fib::RouterMirrorSource mirror(rules, router, plan, s);
    const auto alg =
        sim::make_algorithm(algorithm, plan.shard_tree(s), params);
    sim::RunResult result = sim::run_source(*alg, mirror);
    result.wall_seconds = 0.0;
    ref.per_shard.push_back(result);
    ref.stats.push_back(mirror.stats());
  }
  return ref;
}

// --- The randomized differential stress sweep ----------------------------

TEST(ClosedLoopSharding, DifferentialSweepMatchesSequentialReference) {
  Rng rng(harness_seed());
  for (const TrafficShape& shape : kShapes) {
    sim::Params params = diff_params(shape);
    const std::uint64_t rib_seed = rng.below(1u << 20) + 1;
    const std::uint64_t traffic_seed = rng.below(1u << 20) + 1;
    params.set("rib-seed", std::to_string(rib_seed));
    RecordProperty(std::string(shape.name) + "_rib_seed",
                   static_cast<int>(rib_seed));
    RecordProperty(std::string(shape.name) + "_traffic_seed",
                   static_cast<int>(traffic_seed));
    const fib::RuleTree rules = fib::rule_tree_from_params(params);
    const fib::RouterSimConfig router =
        sim::fib_router_config(params, traffic_seed);

    for (const std::string& algorithm :
         sim::AlgorithmRegistry::instance().names()) {
      for (const std::size_t shards : kShardCounts) {
        SCOPED_TRACE(std::string(shape.name) + " x " + algorithm + " x " +
                     std::to_string(shards) + " shards (rib-seed " +
                     std::to_string(rib_seed) + ", seed " +
                     std::to_string(traffic_seed) + ")");
        const engine::ShardPlan plan(rules.tree, shards);
        const Reference ref =
            sequential_reference(rules, plan, algorithm, params, router);

        for (const std::size_t threads : kThreadCounts) {
          SCOPED_TRACE(std::to_string(threads) + " threads");
          engine::ShardedEngine eng(rules.tree, algorithm, params,
                                    {.shards = shards, .threads = threads});
          ASSERT_EQ(eng.plan().num_shards(), plan.num_shards());
          fib::RouterSource source(rules, router);
          const engine::EngineResult got = eng.run(source);

          // Per-shard AND aggregate equality with the reference — which
          // also makes every thread count bit-identical to every other.
          ASSERT_EQ(got.per_shard.size(), ref.per_shard.size());
          Cost cost_sum;
          std::uint64_t rounds_sum = 0;
          for (std::size_t s = 0; s < ref.per_shard.size(); ++s) {
            EXPECT_EQ(got.per_shard[s], ref.per_shard[s]) << "shard " << s;
            cost_sum += ref.per_shard[s].cost;
            rounds_sum += ref.per_shard[s].rounds;
          }
          EXPECT_EQ(got.total.cost, cost_sum);
          EXPECT_EQ(got.total.rounds, rounds_sum);
        }
      }
    }
  }
}

// --- Mirror semantics ----------------------------------------------------

TEST(ClosedLoopSharding, TrivialPlanMirrorEqualsRouterSource) {
  sim::Params params = diff_params(kShapes[0]);
  const fib::RuleTree rules = fib::rule_tree_from_params(params);
  const fib::RouterSimConfig router = sim::fib_router_config(params, 9);
  const engine::ShardPlan plan(rules.tree, 1);

  fib::RouterMirrorSource mirror(rules, router, plan, 0);
  const auto mirror_alg = sim::make_algorithm("tc", rules.tree, params);
  const sim::RunResult via_mirror = sim::run_source(*mirror_alg, mirror);

  fib::RouterSource source(rules, router);
  const auto source_alg = sim::make_algorithm("tc", rules.tree, params);
  const sim::RunResult via_source = sim::run_source(*source_alg, source);

  EXPECT_EQ(via_mirror, via_source);
  EXPECT_EQ(mirror.stats().packets, source.stats().packets);
  EXPECT_EQ(mirror.stats().hits, source.stats().hits);
  EXPECT_EQ(mirror.stats().misses, source.stats().misses);
  EXPECT_EQ(mirror.stats().updates, source.stats().updates);
  EXPECT_EQ(mirror.stats().cached_updates, source.stats().cached_updates);
  EXPECT_EQ(mirror.stats().forwarding_errors,
            source.stats().forwarding_errors);
}

TEST(ClosedLoopSharding, MirrorStatsPartitionTheEventStream) {
  // Every packet and every update event is owned by exactly one shard, so
  // the event-level statistics are conserved under the mirror split for
  // every shard count — hits vs misses may legitimately differ from the
  // unsharded run (each line card decides over its own slice), but events
  // can never be dropped or double-counted.
  sim::Params params = diff_params(kShapes[1]);
  const fib::RuleTree rules = fib::rule_tree_from_params(params);
  const fib::RouterSimConfig router = sim::fib_router_config(params, 4);

  fib::RouterSource whole(rules, router);
  const auto whole_alg = sim::make_algorithm("tc", rules.tree, params);
  (void)sim::run_source(*whole_alg, whole);

  for (const std::size_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    const engine::ShardPlan plan(rules.tree, shards);
    const Reference ref =
        sequential_reference(rules, plan, "tc", params, router);
    fib::RouterSimResult sum;
    for (std::size_t s = 0; s < ref.stats.size(); ++s) {
      const fib::RouterSimResult& stats = ref.stats[s];
      EXPECT_EQ(stats.hits + stats.misses + stats.forwarding_errors,
                stats.packets)
          << "shard " << s;
      sum += stats;
    }
    EXPECT_EQ(sum.packets, whole.stats().packets);
    EXPECT_EQ(sum.updates, whole.stats().updates);
  }
}

TEST(ClosedLoopSharding, StatelessAlgorithmAggregateIsShardCountInvariant) {
  // "none" never caches, so the closed loop has no feedback coupling at
  // all and the line-card model coincides with the global model exactly:
  // the aggregate of `--shards 8 --threads 4` is bit-identical to the
  // shards=1/threads=1 run, field for field.
  sim::Params params = diff_params(kShapes[1]);
  const fib::RuleTree rules = fib::rule_tree_from_params(params);
  const fib::RouterSimConfig router = sim::fib_router_config(params, 13);

  engine::ShardedEngine baseline_eng(rules.tree, "none", params,
                                     {.shards = 1, .threads = 1});
  fib::RouterSource baseline_source(rules, router);
  const sim::RunResult baseline = baseline_eng.run(baseline_source).total;

  for (const std::size_t shards : {2u, 4u, 8u}) {
    for (const std::size_t threads : {2u, 4u}) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   std::to_string(threads) + " threads");
      engine::ShardedEngine eng(rules.tree, "none", params,
                                {.shards = shards, .threads = threads});
      fib::RouterSource source(rules, router);
      EXPECT_EQ(eng.run(source).total, baseline);
    }
  }
}

// --- Shared generation & the batched feedback API -------------------------

TEST(ClosedLoopSharding, ProducerPartitionsTheGlobalEventStream) {
  // The stable-partition property of shared generation: event by event, a
  // sharded producer emits exactly the unsharded global stream — same
  // order, same kinds, same payloads — with each event routed to exactly
  // one queue, the one of the shard owning its full-table match.
  for (const TrafficShape& shape : kShapes) {
    sim::Params params = diff_params(shape);
    const fib::RuleTree rules = fib::rule_tree_from_params(params);
    const fib::RouterSimConfig router = sim::fib_router_config(params, 21);
    const engine::ShardPlan global_plan(rules.tree, 1);

    for (const std::size_t shards : {2u, 4u, 8u}) {
      SCOPED_TRACE(std::string(shape.name) + " x " + std::to_string(shards) +
                   " shards");
      const engine::ShardPlan plan(rules.tree, shards);
      fib::RouterEventProducer global(rules, router, global_plan);
      fib::RouterEventProducer sharded(rules, router, plan);

      std::uint64_t events = 0;
      while (true) {
        const std::size_t generated = global.pump(1);
        ASSERT_EQ(sharded.pump(1), generated);
        if (generated == 0) break;
        ASSERT_TRUE(global.has_event(0));
        const fib::RouterEvent expected = global.pop(0);
        const std::size_t owner = plan.shard_of(expected.node);
        // Exactly one queue grew, and it is the owner's.
        std::size_t buffered = 0;
        for (std::size_t s = 0; s < plan.num_shards(); ++s) {
          buffered += sharded.buffered(s);
        }
        ASSERT_EQ(buffered, 1u) << "event " << events;
        ASSERT_TRUE(sharded.has_event(owner)) << "event " << events;
        const fib::RouterEvent got = sharded.pop(owner);
        ASSERT_EQ(got.kind, expected.kind) << "event " << events;
        ASSERT_EQ(got.node, expected.node) << "event " << events;
        ASSERT_EQ(got.addr, expected.addr) << "event " << events;
        ++events;
      }
      EXPECT_TRUE(global.exhausted());
      EXPECT_TRUE(sharded.exhausted());
      EXPECT_GT(events, 0u);
    }
  }
}

/// Order-sensitive digest of one shard's event sequence.
struct EventDigest {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  std::uint64_t events = 0;

  void add(const fib::RouterEvent& event) {
    for (const std::uint64_t word :
         {std::uint64_t{event.addr}, std::uint64_t{event.node},
          std::uint64_t{static_cast<std::uint8_t>(event.kind)}}) {
      hash = (hash ^ word) * 1099511628211ULL;  // FNV-1a prime
    }
    ++events;
  }
  bool operator==(const EventDigest&) const = default;
};

TEST(ClosedLoopSharding, ConcurrentTakeMatchesSerialPump) {
  // The thread-safe batch take: worker threads each draining their own
  // shards of one shared producer, in whatever interleaving the scheduler
  // picks, must hand every shard exactly the event sequence the
  // single-threaded pump_for/pop loop yields — generation stays serial and
  // in global RNG order, only its consumers run in parallel.
  sim::Params params = diff_params(kShapes[1]);
  params.set("rules", "400");
  params.set("packets", "20000");
  const fib::RuleTree rules = fib::rule_tree_from_params(params);
  const fib::RouterSimConfig router = sim::fib_router_config(params, 47);
  const engine::ShardPlan plan(rules.tree, 8);
  ASSERT_EQ(plan.num_shards(), 8u);

  std::vector<EventDigest> serial(plan.num_shards());
  {
    fib::RouterEventProducer producer(rules, router, plan);
    for (std::size_t s = 0; s < plan.num_shards(); ++s) {
      while (producer.pump_for(s)) serial[s].add(producer.pop(s));
    }
  }
  for (const EventDigest& digest : serial) ASSERT_GT(digest.events, 0u);

  for (const std::size_t threads : {3u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    fib::RouterEventProducer producer(rules, router, plan);
    std::vector<EventDigest> got(plan.num_shards());
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        // Round-robin one take per owned shard, as the engine's workers
        // interleave their shards' fills.
        std::vector<std::size_t> live;
        for (std::size_t s = t; s < plan.num_shards(); s += threads) {
          live.push_back(s);
        }
        std::vector<fib::RouterEvent> events;
        while (!live.empty()) {
          for (std::size_t k = 0; k < live.size();) {
            if (!producer.take(live[k], events)) {
              live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
              continue;
            }
            for (const fib::RouterEvent& event : events) {
              got[live[k]].add(event);
            }
            ++k;
          }
        }
      });
    }
    for (auto& thread : pool) thread.join();
    for (std::size_t s = 0; s < plan.num_shards(); ++s) {
      EXPECT_EQ(got[s], serial[s]) << "shard " << s;
    }
    EXPECT_TRUE(producer.exhausted());
  }
}

TEST(ClosedLoopSharding, MirrorReportsBufferedInput) {
  // has_buffered() tells the engine a mirror can still be served from what
  // it already holds — here, an α-chunk cut short by a one-request buffer
  // — before a sibling pulls more of the shared stream.
  sim::Params params = diff_params(kShapes[1]);
  const fib::RuleTree rules = fib::rule_tree_from_params(params);
  const fib::RouterSimConfig router = sim::fib_router_config(params, 8);
  const engine::ShardPlan plan(rules.tree, 2);
  fib::RouterMirrorSource mirror(rules, router, plan, 0);
  const auto alg = sim::make_algorithm("tc", plan.shard_tree(0), params);
  EXPECT_FALSE(mirror.has_buffered());

  std::array<Request, 1> one{};
  std::uint64_t negatives = 0;
  while (mirror.fill(one) == 1) {
    if (one[0].sign == Sign::kNegative) {
      // Mid-chunk, the rest of the chunk is still buffered.
      ++negatives;
      if (negatives % router.alpha != 0) {
        ASSERT_TRUE(mirror.has_buffered()) << "negative request " << negatives;
      }
    }
    mirror.observe(alg->step(one[0]));
  }
  EXPECT_GT(negatives, 0u);
  EXPECT_FALSE(mirror.has_buffered());
}

/// A chunk of outcomes that outlive their step: each outcome's node lists
/// are copied out (a live outcome's spans die at the next step) and the
/// spans are pointed at the copies when the chunk is delivered.
class OwnedOutcomes {
 public:
  void clear() {
    outcomes_.clear();
    nodes_.clear();
  }
  void append(const StepOutcome& outcome) {
    outcomes_.push_back(outcome);
    nodes_.push_back({std::vector<NodeId>(outcome.changed.begin(),
                                          outcome.changed.end()),
                      std::vector<NodeId>(outcome.also_evicted.begin(),
                                          outcome.also_evicted.end()),
                      std::vector<NodeId>(outcome.aborted_fetch.begin(),
                                          outcome.aborted_fetch.end())});
  }
  [[nodiscard]] std::span<const StepOutcome> views() {
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
      outcomes_[i].changed = nodes_[i][0];
      outcomes_[i].also_evicted = nodes_[i][1];
      outcomes_[i].aborted_fetch = nodes_[i][2];
    }
    return outcomes_;
  }

 private:
  std::vector<StepOutcome> outcomes_;
  std::vector<std::array<std::vector<NodeId>, 3>> nodes_;
};

TEST(ClosedLoopSharding, ObserveBatchEqualsPerOutcomeObserve) {
  // Chunk-granularity feedback must be invisible to the closed loop: a
  // source fed one observe_batch per fill()-chunk stays in request-level
  // lockstep with a twin fed every outcome individually through the
  // scalar observe() forwarder, for the whole source and for every shard
  // mirror. The batched side holds its outcomes in an OwnedOutcomes
  // chunk.
  sim::Params params = diff_params(kShapes[1]);
  const fib::RuleTree rules = fib::rule_tree_from_params(params);
  const fib::RouterSimConfig router = sim::fib_router_config(params, 33);

  const auto drive = [&params](RequestSource& unit, RequestSource& batched,
                               const Tree& tree) {
    const auto alg_scalar = sim::make_algorithm("tc", tree, params);
    const auto alg_batched = sim::make_algorithm("tc", tree, params);
    std::array<Request, 64> buf_scalar{};
    std::array<Request, 64> buf_batched{};
    OwnedOutcomes chunk;
    std::uint64_t requests = 0;
    while (true) {
      const std::size_t n = unit.fill(buf_scalar);
      ASSERT_EQ(batched.fill(buf_batched), n);
      if (n == 0) break;
      chunk.clear();
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(buf_batched[i], buf_scalar[i]) << "request " << requests + i;
        unit.observe(alg_scalar->step(buf_scalar[i]));
        chunk.append(alg_batched->step(buf_batched[i]));
      }
      batched.observe_batch(chunk.views());
      requests += n;
    }
    ASSERT_GT(requests, 0u);
  };

  const auto expect_equal_stats = [](const fib::RouterSimResult& got,
                                     const fib::RouterSimResult& want) {
    EXPECT_EQ(got.packets, want.packets);
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.updates, want.updates);
    EXPECT_EQ(got.cached_updates, want.cached_updates);
    EXPECT_EQ(got.forwarding_errors, want.forwarding_errors);
  };

  {
    SCOPED_TRACE("RouterSource");
    fib::RouterSource unit(rules, router);
    fib::RouterSource batched(rules, router);
    drive(unit, batched, rules.tree);
    expect_equal_stats(batched.stats(), unit.stats());
  }
  const engine::ShardPlan plan(rules.tree, 4);
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    SCOPED_TRACE("mirror shard " + std::to_string(s));
    fib::RouterMirrorSource unit(rules, router, plan, s);
    fib::RouterMirrorSource batched(rules, router, plan, s);
    drive(unit, batched, plan.shard_tree(s));
    expect_equal_stats(batched.stats(), unit.stats());
  }
}

// --- The fib scenario layer ----------------------------------------------

TEST(ClosedLoopSharding, ShardedFibScenarioAggregatesMirrorStats) {
  sim::Params params = diff_params(kShapes[0]);
  const fib::RuleTree rules = fib::rule_tree_from_params(params);
  const sim::FibScenario scenario{.algorithm = "tc",
                                  .params = params,
                                  .seed = 7,
                                  .engine = {.shards = 4, .threads = 2}};
  const sim::FibScenarioResult got = sim::run_fib_scenario(rules, scenario);
  ASSERT_GT(got.shards, 1u);

  const engine::ShardPlan plan(rules.tree, scenario.engine.shards);
  const Reference ref = sequential_reference(
      rules, plan, "tc", params, sim::fib_router_config(params, 7));
  fib::RouterSimResult expected;
  Cost cost_sum;
  for (std::size_t s = 0; s < ref.stats.size(); ++s) {
    expected += ref.stats[s];
    cost_sum += ref.per_shard[s].cost;
  }
  EXPECT_EQ(got.router.packets, expected.packets);
  EXPECT_EQ(got.router.hits, expected.hits);
  EXPECT_EQ(got.router.misses, expected.misses);
  EXPECT_EQ(got.router.updates, expected.updates);
  EXPECT_EQ(got.router.cached_updates, expected.cached_updates);
  // The subforest invariant holds per line card, too.
  EXPECT_EQ(got.router.forwarding_errors, 0u);
  EXPECT_EQ(got.router.algorithm_cost, cost_sum);

  // Scenario-level thread invariance.
  sim::FibScenario single_threaded = scenario;
  single_threaded.engine.threads = 1;
  const sim::FibScenarioResult again =
      sim::run_fib_scenario(rules, single_threaded);
  EXPECT_EQ(again.router.hits, got.router.hits);
  EXPECT_EQ(again.router.algorithm_cost, got.router.algorithm_cost);
}

// --- Fault injection: mirror-side throws ---------------------------------

/// A shard mirror that misbehaves on demand: emits one scripted chunk per
/// fill until exhausted, then (optionally) throws out of fill() — on its
/// shard's worker — while another shard's worker is still mid-run.
class ScriptedMirror final : public RequestSource {
 public:
  ScriptedMirror(std::vector<Request> requests, bool throw_after)
      : requests_(std::move(requests)), throw_after_(throw_after) {}

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override {
    if (position_ >= requests_.size()) {
      if (throw_after_) throw CheckFailure("injected producer fault");
      return 0;
    }
    std::size_t n = 0;
    while (n < buffer.size() && position_ < requests_.size()) {
      buffer[n++] = requests_[position_++];
    }
    return n;
  }
  void reset() override { position_ = 0; }
  [[nodiscard]] bool is_closed_loop() const override { return true; }

 private:
  std::vector<Request> requests_;
  std::size_t position_ = 0;
  bool throw_after_ = false;
};

TEST(ClosedLoopSharding, MirrorThrowRethrowsWithoutDeadlock) {
  // Regression for the shutdown path: shard 0's worker is stepping a large
  // chunk while shard 1's mirror throws out of fill() on its own worker.
  // The engine must let every worker finish or stop, join them all, and
  // rethrow the fault — a worker left waiting on a failed peer would hang
  // join() (this test then hangs, which is the point).
  const Tree tree = trees::complete_kary(3, 2);  // two top-level subtrees
  sim::Params params;
  params.set("alpha", "2");
  params.set("capacity", "16");
  engine::ShardedEngine eng(
      tree, "tc", params,
      {.shards = 2, .threads = 2, .batch = 512});
  ASSERT_EQ(eng.plan().num_shards(), 2u);

  std::vector<Request> busywork;
  const std::size_t shard0_nodes = eng.plan().shard_tree(0).size();
  for (std::size_t i = 0; i < 400; ++i) {
    busywork.push_back(positive(static_cast<NodeId>(i % shard0_nodes)));
  }
  std::vector<std::unique_ptr<RequestSource>> mirrors;
  mirrors.push_back(std::make_unique<ScriptedMirror>(std::move(busywork),
                                                     /*throw_after=*/false));
  mirrors.push_back(std::make_unique<ScriptedMirror>(
      std::vector<Request>{}, /*throw_after=*/true));
  EXPECT_THROW((void)eng.run_split(mirrors), CheckFailure);

  // The engine is intact after the failed run: the same geometry runs a
  // healthy pair of mirrors to completion.
  std::vector<std::unique_ptr<RequestSource>> healthy;
  healthy.push_back(std::make_unique<ScriptedMirror>(
      std::vector<Request>{positive(1)}, false));
  healthy.push_back(std::make_unique<ScriptedMirror>(
      std::vector<Request>{positive(1)}, false));
  EXPECT_EQ(eng.run_split(healthy).total.rounds, 2u);
}

TEST(ClosedLoopSharding, UnsplittableClosedLoopSourceIsRefused) {
  // A closed-loop source without a split() override cannot run sharded —
  // the refusal must be loud, up front, and must not touch the stream.
  const Tree tree = trees::complete_kary(3, 2);
  sim::Params params;
  params.set("alpha", "2");
  params.set("capacity", "16");
  engine::ShardedEngine eng(tree, "tc", params, {.shards = 2});
  ScriptedMirror closed({positive(1)}, false);
  EXPECT_THROW((void)eng.run(closed), CheckFailure);
}

}  // namespace
}  // namespace treecache
