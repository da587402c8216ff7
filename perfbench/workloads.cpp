#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "engine/sharded_engine.hpp"
#include "fib/rib_gen.hpp"
#include "fib/router_source.hpp"
#include "fib/rule_tree.hpp"
#include "rib/churn_source.hpp"
#include "rib/feed.hpp"
#include "rib/ingest.hpp"
#include "rib/mrt.hpp"
#include "sim/registry.hpp"
#include "trace.hpp"
#include "tree/tree_builder.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace perfbench {

using namespace treecache;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Collects check failures of one rep.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    if (!failure_.empty()) failure_ += "; ";
    failure_ += what;
  }
  template <typename T>
  void expect_eq(const T& got, const T& want, const std::string& what) {
    if (got == want) return;
    std::ostringstream os;
    os << what << ": got " << got << ", want " << want;
    expect(false, os.str());
  }
  [[nodiscard]] const std::string& failure() const { return failure_; }

 private:
  std::string failure_;
};

void push_result(std::vector<std::uint64_t>& fp, const sim::RunResult& r) {
  fp.insert(fp.end(), {r.cost.service, r.cost.reorg, r.rounds,
                       r.paid_requests, r.paid_positive, r.paid_negative,
                       r.fetched_nodes, r.evicted_nodes, r.phase_restarts,
                       r.restart_evictions, r.max_cache_size,
                       r.final_cache_size});
}

void push_router(std::vector<std::uint64_t>& fp,
                 const fib::RouterSimResult& r) {
  fp.insert(fp.end(), {r.packets, r.hits, r.misses, r.updates,
                       r.cached_updates, r.forwarding_errors});
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The highest of these percentiles with at least ten samples beyond it.
double tail_percentile(std::size_t samples) {
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 0.0;
}

/// Nearest-rank percentile of sorted `values`.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::map<std::string, double> zero_layers() {
  std::map<std::string, double> layers;
  for (const auto& [name, unit] : layer_metrics()) layers[name] = 0.0;
  return layers;
}

// ---------------------------------------------------------------------------
// Caching workloads: tc-deep, zipf-sharded, fib-closed.

enum class Shape { kDeep, kKary8, kRules };

struct CachingSpec {
  Shape shape = Shape::kDeep;
  std::size_t shards = 1;
  std::size_t threads = 1;
  sim::Params params;  // alpha, capacity, skew; zipf: length, neg
  /// Zipf workloads: one stream per seed, run back to back in every rep.
  /// A stream's cost depends on where its rank permutation puts the hot
  /// nodes, so several streams per rep keep a run's figures from hanging
  /// on one draw.
  std::vector<std::uint64_t> traffic_seeds;
  // fib-closed only.
  fib::RibConfig rib;
  std::uint64_t rib_seed = 1;
  fib::RouterSimConfig router;
};

/// Eight 12-level complete binary subtrees under one root: 13 levels,
/// 32761 nodes — walks deep enough that the slice scans dominate a round.
std::vector<NodeId> deep_parents() {
  constexpr std::size_t kSubLevels = 12;
  constexpr std::size_t kSubNodes = (std::size_t{1} << kSubLevels) - 1;
  std::vector<NodeId> parents(1 + 8 * kSubNodes, kNoNode);
  for (std::size_t t = 0; t < 8; ++t) {
    for (std::size_t j = 0; j < kSubNodes; ++j) {
      parents[1 + t * kSubNodes + j] = static_cast<NodeId>(
          j == 0 ? 0 : 1 + t * kSubNodes + (j - 1) / 2);
    }
  }
  return parents;
}

class CachingWorkload final : public Workload {
 public:
  explicit CachingWorkload(CachingSpec spec) : spec_(std::move(spec)) {
    if (spec_.shape == Shape::kDeep) parents_ = deep_parents();
    if (spec_.shape == Shape::kRules) {
      Rng rng(spec_.rib_seed);
      prefixes_ = fib::generate_rib(spec_.rib, rng);
    }
  }

  ~CachingWorkload() override {
    // Engines view the tree: drop them first.
    engine_.reset();
    traced_engine_.reset();
    reference_engine_.reset();
  }

  SetupTime setup() override {
    engine_.reset();
    rules_.reset();
    tree_.reset();
    std::vector<NodeId> parents = parents_;
    std::vector<fib::Prefix> prefixes = prefixes_;
    const auto t0 = Clock::now();
    switch (spec_.shape) {
      case Shape::kDeep:
        tree_ = std::make_unique<Tree>(std::move(parents));
        break;
      case Shape::kKary8:
        tree_ = std::make_unique<Tree>(trees::complete_kary(6, 8));
        break;
      case Shape::kRules:
        rules_ = std::make_unique<fib::RuleTree>(
            fib::build_rule_tree(std::move(prefixes)));
        break;
    }
    const auto t1 = Clock::now();
    engine_ = std::make_unique<engine::ShardedEngine>(
        tree(), "tc", spec_.params, config(spec_.threads));
    const auto t2 = Clock::now();
    return {seconds_between(t0, t2), seconds_between(t1, t2)};
  }

  std::string prepare() override {
    traced_engine_ = std::make_unique<engine::ShardedEngine>(
        tree(), kTracedTc, spec_.params, config(spec_.threads));
    reference_engine_ = std::make_unique<engine::ShardedEngine>(
        tree(), "tc", spec_.params, config(1));
    if (rules_ != nullptr) {
      // The event stream is pure RNG: replaying the producer on a
      // one-shard plan counts the updates any geometry must observe.
      const engine::ShardPlan plan(rules_->tree, 1);
      fib::RouterEventProducer producer(*rules_, spec_.router, plan);
      while (producer.pump_for(0)) {
        const fib::RouterEvent event = producer.pop(0);
        if (event.kind == fib::RouterEventKind::kUpdate) ++expected_updates_;
      }
    }
    Rep reference = execute(*reference_engine_, false);
    reference_fingerprint_ = reference.fingerprint;
    return reference.failure.empty() ? std::string{}
                                     : "threads=1 reference: " +
                                           reference.failure;
  }

  Rep run(bool traced) override {
    Rep rep = execute(traced ? *traced_engine_ : *engine_, traced);
    Checks checks;
    checks.expect(rep.failure.empty(), rep.failure);
    checks.expect(rep.fingerprint == reference_fingerprint_,
                  "RunResult or router statistics differ from the "
                  "threads=1 run of the same geometry and seed");
    rep.failure = checks.failure();
    return rep;
  }

 private:
  [[nodiscard]] const Tree& tree() const {
    return rules_ != nullptr ? rules_->tree : *tree_;
  }

  [[nodiscard]] engine::EngineConfig config(std::size_t threads) const {
    return {.shards = spec_.shards, .threads = threads};
  }

  /// Traced counters of one shard instance, summed over a rep's streams
  /// (the engine resets every instance, and so its counters, per run).
  struct ShardTotals {
    double step_s = 0, sink_s = 0, calls = 0, items = 0;
    bool on_main = false;
  };

  /// One rep on `eng` — every stream of the spec back to back — with the
  /// checks that need no reference.
  Rep execute(engine::ShardedEngine& eng, bool traced) {
    Rep rep;
    Checks checks;
    SourceLedger ledger;  // every traced source of the rep
    std::vector<ShardTotals> shards(eng.plan().num_shards());
    sim::RunResult sum;  // cost and counters summed over the streams
    fib::RouterSimResult router;
    std::size_t threads = 1;
    const std::size_t streams =
        rules_ == nullptr ? spec_.traffic_seeds.size() : 1;
    for (std::size_t k = 0; k < streams; ++k) {
      std::unique_ptr<RequestSource> source;
      std::vector<std::unique_ptr<RequestSource>> parts;  // fib: mirrors
      std::vector<const fib::RouterMirrorSource*> mirrors;
      engine::EngineResult result;
      Clock::time_point t0;
      Clock::time_point t1;
      if (rules_ == nullptr) {
        source = sim::make_source("zipf", tree(), spec_.params,
                                  spec_.traffic_seeds[k]);
        if (traced) {
          source = std::make_unique<TimedSource>(std::move(source), ledger);
        }
        t0 = Clock::now();
        result = eng.run(*source);
        t1 = Clock::now();
        checks.expect_eq(result.total.rounds,
                         spec_.params.get_u64("length", 0),
                         "rounds vs stream length");
      } else {
        fib::RouterSource whole(*rules_, spec_.router);
        t0 = Clock::now();
        // Split here, not inside run(), so the mirrors — and their router
        // statistics — outlive the run.
        parts = whole.split(eng.plan());
        for (auto& part : parts) {
          mirrors.push_back(
              dynamic_cast<const fib::RouterMirrorSource*>(part.get()));
          if (traced) {
            part = std::make_unique<TimedSource>(std::move(part), ledger);
          }
        }
        result = eng.run_split(parts);
        t1 = Clock::now();
      }
      rep.wall_s += seconds_between(t0, t1);
      threads = result.threads;
      push_result(rep.fingerprint, result.total);
      for (const sim::RunResult& shard : result.per_shard) {
        push_result(rep.fingerprint, shard);
      }
      for (const fib::RouterMirrorSource* mirror : mirrors) {
        checks.expect(mirror != nullptr, "split() returned a non-mirror part");
        if (mirror == nullptr) continue;
        push_router(rep.fingerprint, mirror->stats());
        router += mirror->stats();
      }
      sum.cost += result.total.cost;
      sum.rounds += result.total.rounds;
      sum.fetched_nodes += result.total.fetched_nodes;
      sum.evicted_nodes += result.total.evicted_nodes;
      sum.phase_restarts += result.total.phase_restarts;
      sum.max_cache_size =
          std::max(sum.max_cache_size, result.total.max_cache_size);
      for (std::size_t s = 0; traced && s < shards.size(); ++s) {
        const auto* alg =
            dynamic_cast<const TimedAlgorithm*>(&eng.algorithm(s));
        checks.expect(alg != nullptr, "a traced shard is not a TimedAlgorithm");
        if (alg == nullptr) continue;
        const AlgorithmStats& stats = alg->stats();
        shards[s].step_s += stats.step.seconds();
        shards[s].sink_s += stats.sink.seconds();
        shards[s].calls += static_cast<double>(stats.step.calls);
        shards[s].items += static_cast<double>(stats.step.items);
        shards[s].on_main = stats.step.on_main;
      }
    }

    const auto cost = static_cast<double>(sum.cost.total());
    if (rules_ == nullptr) {
      rep.items = static_cast<double>(sum.rounds);
      rep.cost_per_item = ratio(cost, rep.items);
    } else {
      rep.items = static_cast<double>(router.packets + router.updates);
      rep.cost_per_item = ratio(cost, static_cast<double>(router.packets));
      checks.expect_eq(router.packets,
                       std::uint64_t{spec_.router.packets},
                       "router packets vs configured packets");
      checks.expect_eq(router.updates, expected_updates_,
                       "router updates vs updates generated");
      checks.expect_eq(router.forwarding_errors, std::uint64_t{0},
                       "fib.forwarding_errors");
      checks.expect_eq(sum.rounds,
                       router.misses + router.forwarding_errors +
                           spec_.router.alpha * router.updates,
                       "rounds vs packet detours plus alpha x updates");
    }
    rep.failure = checks.failure();
    if (traced) ledger_layers(shards, ledger, sum, router, threads, rep);
    return rep;
  }

  /// The per-layer ledger of a traced rep (see README.md for the terms).
  void ledger_layers(const std::vector<ShardTotals>& shards,
                     const SourceLedger& ledger, const sim::RunResult& sum,
                     const fib::RouterSimResult& router, std::size_t workers,
                     Rep& rep) const {
    std::map<std::string, double>& m = rep.layers;
    m = zero_layers();
    double workload_fill = 0, fib_fill = 0, fib_observe = 0;
    double sim_account = 0, core_self = 0;
    double main_busy = 0, other_busy = 0;
    double open_calls = 0, open_items = 0, closed_calls = 0,
           closed_items = 0, observe_calls = 0;
    std::vector<double> rtt;
    for (const auto& source : ledger.sources()) {
      const double fill = source->fill.seconds();
      const double outer = source->observe.seconds();
      const double nested = source->observe_nested.seconds();
      observe_calls += static_cast<double>(source->observe.calls +
                                           source->observe_nested.calls);
      if (source->closed_loop) {
        fib_fill += fill;
        fib_observe += outer + nested;
        sim_account -= nested;  // already inside the sink's time
        closed_calls += static_cast<double>(source->fill.calls);
        closed_items += static_cast<double>(source->fill.items);
      } else {
        workload_fill += fill;
        sim_account += outer;
        open_calls += static_cast<double>(source->fill.calls);
        open_items += static_cast<double>(source->fill.items);
      }
      (source->fill.on_main ? main_busy : other_busy) += fill;
      (source->observe.on_main ? main_busy : other_busy) += outer;
      rtt.insert(rtt.end(), source->feedback_rtt_s.begin(),
                 source->feedback_rtt_s.end());
    }
    double chunks = 0, stepped = 0, busy_sum = 0, busy_max = 0;
    for (const ShardTotals& shard : shards) {
      core_self += shard.step_s - shard.sink_s;
      sim_account += shard.sink_s;
      chunks += shard.calls;
      stepped += shard.items;
      busy_sum += shard.step_s;
      busy_max = std::max(busy_max, shard.step_s);
      rep.shard_busy_s.push_back(shard.step_s);
      (shard.on_main ? main_busy : other_busy) += shard.step_s;
    }
    const double busy =
        workload_fill + fib_fill + fib_observe + core_self + sim_account;
    const bool producer = rules_ != nullptr && workers > 1;
    const double threads =
        static_cast<double>(workers) + (producer ? 1.0 : 0.0);
    const double wall = rep.wall_s;
    const auto rounds = static_cast<double>(sum.rounds);

    m["workload.fill_s"] = workload_fill;
    m["workload.fill_ns_per_req"] = 1e9 * ratio(workload_fill, open_items);
    m["workload.reqs_per_fill"] = ratio(open_items, open_calls);
    m["sim.account_s"] = sim_account;
    m["sim.observe_calls_per_req"] = ratio(observe_calls, rounds);
    m["core.step_s"] = core_self;
    m["core.step_ns_per_req"] = 1e9 * ratio(core_self, rounds);
    m["core.reqs_per_step"] = ratio(stepped, chunks);
    m["core.shard_busy_max_over_mean"] = ratio(
        busy_max, busy_sum / static_cast<double>(std::max<std::size_t>(
                                 1, shards.size())));
    m["core.fetched_nodes"] = static_cast<double>(sum.fetched_nodes);
    m["core.evicted_nodes"] = static_cast<double>(sum.evicted_nodes);
    m["core.phase_restarts"] = static_cast<double>(sum.phase_restarts);
    m["core.max_cache_size"] = static_cast<double>(sum.max_cache_size);
    m["engine.overhead_core_s"] = threads * wall - busy;
    m["engine.worker_busy_frac"] =
        ratio(producer ? other_busy : main_busy + other_busy,
              static_cast<double>(workers) * wall);
    m["engine.producer_busy_frac"] = producer ? ratio(main_busy, wall) : 0.0;
    m["engine.chunks"] = chunks;
    std::sort(rtt.begin(), rtt.end());
    const double tail = tail_percentile(rtt.size());
    m["engine.feedback_rtt_p50_us"] = 1e6 * percentile(rtt, 50.0);
    m["engine.feedback_rtt_tail_us"] =
        tail > 0.0 ? 1e6 * percentile(rtt, tail) : 0.0;
    m["engine.feedback_rtt_tail_pct"] = tail;
    m["engine.feedback_rtt_samples"] = static_cast<double>(rtt.size());
    m["fib.fill_s"] = fib_fill;
    m["fib.reqs_per_fill"] = ratio(closed_items, closed_calls);
    m["fib.observe_s"] = fib_observe;
    m["fib.hit_rate"] = router.hit_rate();
    m["fib.forwarding_errors"] =
        static_cast<double>(router.forwarding_errors);
    m["trace.accounted_frac"] = ratio(busy, threads * wall);
  }

  CachingSpec spec_;
  // Inputs, generated from the seed before anything is timed.
  std::vector<NodeId> parents_;
  std::vector<fib::Prefix> prefixes_;
  // Program state, rebuilt by every setup().
  std::unique_ptr<Tree> tree_;
  std::unique_ptr<fib::RuleTree> rules_;
  std::unique_ptr<engine::ShardedEngine> engine_;
  // Untimed companions, built by prepare() over the last set-up's tree.
  std::unique_ptr<engine::ShardedEngine> traced_engine_;
  std::unique_ptr<engine::ShardedEngine> reference_engine_;
  std::vector<std::uint64_t> reference_fingerprint_;
  std::uint64_t expected_updates_ = 0;
};

// ---------------------------------------------------------------------------
// rib-ingest.

/// Records pulled from the reader per batch: parse and apply are timed
/// per batch, never per record, and the untraced loop has the same shape.
constexpr std::size_t kRibBatch = 4096;

const std::vector<std::string>& truth_keys() {
  static const std::vector<std::string> keys{
      "records",         "bytes",          "dump_routes",
      "announces",       "withdraws",      "withdraw_misses",
      "replaced_routes", "live_routes",    "fib_nodes",
      "churn_events"};
  return keys;
}

rib::SyntheticFeedConfig feed_config(Scale scale) {
  rib::SyntheticFeedConfig config;
  config.routes = scale == Scale::kFull ? 1000000 : 5000;
  config.updates = scale == Scale::kFull ? 50000 : 500;
  config.family = 4;
  return config;
}

class RibWorkload final : public Workload {
 public:
  explicit RibWorkload(std::string feed) : feed_(std::move(feed)) {
    std::ifstream in(feed_ + ".truth");
    TC_CHECK(static_cast<bool>(in), "cannot open " + feed_ + ".truth");
    std::string key;
    std::uint64_t value = 0;
    while (in >> key >> value) truth_[key] = value;
    for (const std::string& k : truth_keys()) {
      TC_CHECK(truth_.contains(k), "ground truth lacks " + k);
    }
  }

  /// Time to the first batch: open the feed and parse the records the
  /// apply stage receives first. Opening alone takes microseconds of
  /// system calls, too little to time steadily.
  SetupTime setup() override {
    std::vector<rib::FeedRecord> batch(kRibBatch);
    const auto t0 = Clock::now();
    rib::FeedReader reader({feed_});
    std::size_t n = 0;
    while (n < batch.size()) {
      std::optional<rib::FeedRecord> record = reader.next();
      if (!record) break;
      batch[n++] = *record;
    }
    const auto t1 = Clock::now();
    TC_CHECK(n == batch.size(), "the feed is shorter than one batch");
    return {seconds_between(t0, t1), 0.0};
  }

  std::string prepare() override { return {}; }

  Rep run(bool traced) override {
    std::vector<rib::FeedRecord> batch(kRibBatch);
    double parse_s = 0, apply_s = 0;
    const auto t0 = Clock::now();
    rib::FeedReader reader({feed_});
    rib::IngestResult ingest;
    for (;;) {
      const Clock::time_point a = traced ? Clock::now() : t0;
      std::size_t n = 0;
      while (n < batch.size()) {
        std::optional<rib::FeedRecord> record = reader.next();
        if (!record) break;
        batch[n++] = *record;
      }
      const Clock::time_point b = traced ? Clock::now() : t0;
      for (std::size_t i = 0; i < n; ++i) ingest.apply(batch[i]);
      if (traced) {
        const auto c = Clock::now();
        parse_s += seconds_between(a, b);
        apply_s += seconds_between(b, c);
      }
      if (n < batch.size()) break;
    }
    ingest.bytes = reader.bytes();
    const Clock::time_point r0 = traced ? Clock::now() : t0;
    const rib::ChurnReplay replay = rib::make_churn_replay(ingest.v4);
    const auto t1 = Clock::now();

    Rep rep;
    rep.wall_s = seconds_between(t0, t1);
    rep.items = static_cast<double>(ingest.records);
    const rib::IngestStats& s = ingest.v4.stats;
    const std::uint64_t trie_nodes = ingest.v4.rib.node_count();
    const std::uint64_t fib_nodes = replay.fib.tree.size();
    rep.cost_per_item =
        ratio(static_cast<double>(trie_nodes + fib_nodes), rep.items);

    Checks checks;
    const auto want = [&](const std::string& key) { return truth_.at(key); };
    checks.expect_eq(ingest.records, want("records"), "records");
    checks.expect_eq(ingest.bytes, want("bytes"), "feed bytes");
    checks.expect_eq(s.dump_routes, want("dump_routes"), "v4 dump_routes");
    checks.expect_eq(s.announces, want("announces"), "v4 announces");
    checks.expect_eq(s.withdraws, want("withdraws"), "v4 withdraws");
    checks.expect_eq(s.withdraw_misses, want("withdraw_misses"),
                     "v4 withdraw_misses");
    checks.expect_eq(s.replaced_routes, want("replaced_routes"),
                     "v4 replaced_routes");
    checks.expect_eq(std::uint64_t{ingest.v4.rib.size()}, want("live_routes"),
                     "v4 live routes");
    checks.expect(ingest.v6.empty() && ingest.v6.rib.size() == 0 &&
                      ingest.v6.stats.replaced_routes == 0 &&
                      ingest.v6.stats.withdraw_misses == 0,
                  "v6 counters of an IPv4-only feed are not zero");
    checks.expect_eq(fib_nodes, want("fib_nodes"), "replay FIB nodes");
    checks.expect_eq(std::uint64_t{replay.churn_nodes.size()},
                     want("churn_events"), "replay churn events");
    rep.failure = checks.failure();

    std::uint64_t tree_hash = 0xcbf29ce484222325ULL;
    for (const NodeId p : replay.fib.tree.parent_array()) {
      tree_hash = fnv1a(tree_hash, p);
    }
    std::uint64_t churn_hash = 0xcbf29ce484222325ULL;
    for (const NodeId v : replay.churn_nodes) churn_hash = fnv1a(churn_hash, v);
    rep.fingerprint = {ingest.records,     ingest.bytes,     s.dump_routes,
                       s.announces,        s.withdraws,      s.withdraw_misses,
                       s.replaced_routes,  ingest.v4.rib.size(),
                       trie_nodes,         fib_nodes,        tree_hash,
                       churn_hash};

    if (traced) {
      const double rebuild_s = seconds_between(r0, t1);
      std::map<std::string, double>& m = rep.layers;
      m = zero_layers();
      m["rib.parse_s"] = parse_s;
      m["rib.parse_mb_per_s"] =
          ratio(static_cast<double>(ingest.bytes) / 1e6, parse_s);
      m["rib.apply_s"] = apply_s;
      m["rib.apply_ns_per_record"] = 1e9 * ratio(apply_s, rep.items);
      m["rib.rebuild_s"] = rebuild_s;
      m["rib.rebuild_ns_per_node"] =
          1e9 * ratio(rebuild_s, static_cast<double>(fib_nodes));
      m["rib.trie_bytes"] =
          static_cast<double>(ingest.v4.rib.memory_bytes());
      m["rib.trie_nodes"] = static_cast<double>(trie_nodes);
      m["rib.fib_nodes"] = static_cast<double>(fib_nodes);
      m["trace.accounted_frac"] =
          ratio(parse_s + apply_s + rebuild_s, rep.wall_s);
    }
    return rep;
  }

 private:
  std::string feed_;
  std::map<std::string, std::uint64_t> truth_;
};

}  // namespace

std::size_t nproc() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics{
      {"workload.fill_s", "s"},
      {"workload.fill_ns_per_req", "ns"},
      {"workload.reqs_per_fill", "req/call"},
      {"sim.account_s", "s"},
      {"sim.observe_calls_per_req", "call/req"},
      {"core.step_s", "s"},
      {"core.step_ns_per_req", "ns"},
      {"core.reqs_per_step", "req/call"},
      {"core.shard_busy_max_over_mean", "ratio"},
      {"core.fetched_nodes", "count"},
      {"core.evicted_nodes", "count"},
      {"core.phase_restarts", "count"},
      {"core.max_cache_size", "count"},
      {"engine.overhead_core_s", "s"},
      {"engine.worker_busy_frac", "ratio"},
      {"engine.producer_busy_frac", "ratio"},
      {"engine.chunks", "count"},
      {"engine.feedback_rtt_p50_us", "us"},
      {"engine.feedback_rtt_tail_us", "us"},
      {"engine.feedback_rtt_tail_pct", "%"},
      {"engine.feedback_rtt_samples", "count"},
      {"engine.construct_s", "s"},
      {"fib.fill_s", "s"},
      {"fib.reqs_per_fill", "req/call"},
      {"fib.observe_s", "s"},
      {"fib.hit_rate", "ratio"},
      {"fib.forwarding_errors", "count"},
      {"rib.parse_s", "s"},
      {"rib.parse_mb_per_s", "MB/s"},
      {"rib.apply_s", "s"},
      {"rib.apply_ns_per_record", "ns"},
      {"rib.rebuild_s", "s"},
      {"rib.rebuild_ns_per_node", "ns"},
      {"rib.trie_bytes", "B"},
      {"rib.trie_nodes", "count"},
      {"rib.fib_nodes", "count"},
      {"trace.overhead_frac", "ratio"},
      {"trace.accounted_frac", "ratio"},
  };
  return metrics;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"tc-deep", "zipf-sharded",
                                              "fib-closed", "rib-ingest"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale,
                                        const std::string& feed) {
  const bool full = scale == Scale::kFull;
  CachingSpec spec;
  spec.params.set("alpha", "16");
  spec.params.set("capacity", "512");
  spec.params.set("skew", "1.0");
  spec.params.set("neg", "0.1");
  // 4M requests per rep. On the deep tree a stream's cost swings with
  // where its permutation puts the hot nodes, so tc-deep runs eight 500k
  // streams; on the 8-ary tree one stream varies little, and eight short
  // ones would never fill the shards' caches.
  const std::uint64_t streams = name == "tc-deep" ? 8 : 1;
  spec.params.set("length",
                  std::to_string((full ? 4000000 : 40000) / streams));
  Rng seeder(seed);
  for (std::uint64_t k = 0; k < streams; ++k) {
    spec.traffic_seeds.push_back(seeder());
  }
  if (name == "tc-deep") {
    spec.shape = Shape::kDeep;
  } else if (name == "zipf-sharded") {
    spec.shape = Shape::kKary8;
    spec.shards = 8;
    spec.threads = nproc();
  } else if (name == "fib-closed") {
    spec.shape = Shape::kRules;
    spec.shards = 8;
    spec.threads = std::max<std::size_t>(1, nproc() - 1);
    spec.rib_seed = seeder();
    spec.rib = fib::RibConfig{.rules = full ? 20000u : 2000u};
    spec.router = fib::RouterSimConfig{.packets = full ? 1000000u : 20000u,
                                       .zipf_skew = 1.0,
                                       .update_probability = 0.01,
                                       .alpha = 16,
                                       .seed = seeder()};
  } else if (name == "rib-ingest") {
    return std::make_unique<RibWorkload>(feed);
  } else {
    TC_CHECK(false, "unknown workload " + name);
  }
  return std::make_unique<CachingWorkload>(std::move(spec));
}

void gen_feed(std::uint64_t seed, Scale scale, const std::string& path) {
  Rng rng(seed);
  const std::vector<rib::FeedRecord> records =
      rib::generate_feed(feed_config(scale), rng);
  std::ofstream out(path, std::ios::binary);
  TC_CHECK(static_cast<bool>(out), "cannot open " + path);
  rib::MrtWriter writer(out);
  for (const rib::FeedRecord& record : records) writer.write(record);
  out.flush();
  TC_CHECK(out.good(), "writing " + path + " failed");

  // Ground truth straight from the records, with a hash set standing in
  // for the radix RIB: announce inserts or replaces, withdraw removes.
  std::map<std::string, std::uint64_t> truth;
  for (const std::string& k : truth_keys()) truth[k] = 0;
  truth["records"] = records.size();
  truth["bytes"] = writer.bytes();
  const auto key = [](const fib::Prefix& p) {
    return (std::uint64_t{p.bits} << 8) | p.length;
  };
  std::unordered_set<std::uint64_t> live;
  std::unordered_set<std::uint64_t> named;
  bool default_route = false;
  for (const rib::FeedRecord& record : records) {
    TC_CHECK(!record.v6, "the rib-ingest feed is IPv4 only");
    const std::uint64_t k = key(record.prefix4);
    named.insert(k);
    default_route |= record.prefix4.length == 0;
    switch (record.op) {
      case rib::FeedOp::kDump:
      case rib::FeedOp::kAnnounce:
        ++truth[record.op == rib::FeedOp::kDump ? "dump_routes"
                                                 : "announces"];
        if (!live.insert(k).second) ++truth["replaced_routes"];
        break;
      case rib::FeedOp::kWithdraw:
        ++truth["withdraws"];
        if (live.erase(k) == 0) ++truth["withdraw_misses"];
        break;
    }
  }
  truth["live_routes"] = live.size();
  // The replay FIB holds every prefix the feed named under an artificial
  // default rule, which a /0 in the feed merges into.
  truth["fib_nodes"] = named.size() + (default_route ? 0 : 1);
  truth["churn_events"] = truth["announces"] + truth["withdraws"];

  std::ofstream truth_out(path + ".truth");
  for (const auto& [k, v] : truth) truth_out << k << ' ' << v << '\n';
  TC_CHECK(truth_out.good(), "writing " + path + ".truth failed");
}

}  // namespace perfbench
