// Sharded execution engine: many algorithm instances, one request stream.
//
// A ShardedEngine owns one OnlineAlgorithm instance per shard of a
// ShardPlan (each built by the registry over its shard tree, each with the
// full per-instance capacity — the line-card model: every card holds its
// own TCAM slice). Every request reaches the shard owning its node and is
// stepped through the batched OnlineAlgorithm::step_batch hot path —
// either from a per-shard part of the split source that the shard's
// worker drives itself, or through a demux on the caller thread.
//
// Determinism contract: routing is a pure function of the requested node,
// each shard consumes its subsequence in stream order (a shard is pinned
// to one worker; queues are FIFO), and shard instances share no state — so
// every per-shard RunResult, and therefore the aggregate, is bit-identical
// regardless of the worker-thread count, including the sequential
// threads=1 demux. Tests enforce equality against independent per-shard
// sequential runs and across thread counts.
//
// Split runs: when the source splits (RequestSource::split) into one part
// per shard, worker w self-drives the parts of shards w, w+workers, ...
// through fill → step_batch (→ observe_batch for closed loops) — request
// generation runs on the workers, and threads=1 runs the same loop
// inline. Open loops split whenever more than one worker is available;
// sources that cannot split keep the demux path (the caller thread routes
// batches to per-shard queues). A multi-shard run over a replicated split
// (SplitKind::kReplicated — every part replays the whole stream) logs a
// warning to stderr: it is correct, but pays the generation cost once per
// shard.
//
// Closed loops: with one shard the engine delegates to sim::run_source,
// which feeds outcomes back to the source, so closed-loop sources (the FIB
// router) run unchanged. With multiple shards a closed-loop source is
// split into per-shard mirrors (for the FIB router a SplitKind::kShared
// split: one thread-safe event producer generates the stream once, each
// mirror consumes its shard's events) and every mirror runs its own
// fill → step → observe loop on the worker that owns its shard. The
// worker's sink hands each outcome straight to the mirror, so feedback
// never crosses shards or threads, and each shard's closed loop is exactly
// the sequential alternation of sim::run_source: per-shard results are
// bit-identical for every thread count and equal to independent per-shard
// sequential runs (the differential suite in
// tests/test_engine_closed_loop.cpp enforces this for every registered
// algorithm). A closed-loop source whose split() returns empty is refused
// with more than one shard.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/request_source.hpp"
#include "engine/shard_plan.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"

namespace treecache {
class TreeCache;
}

namespace treecache::engine {

struct EngineConfig {
  /// Requested shard count; the plan caps it at the number of top-level
  /// subtrees. 1 = unsharded (delegates to sim::run_source).
  std::size_t shards = 1;
  /// Worker threads for the sharded path; 0 picks one per shard, capped at
  /// the hardware concurrency. Never more than one worker per shard.
  std::size_t threads = 1;
  /// Demux chunk size: requests handed to one shard per step_batch call.
  /// Single-shard plans run through sim::run_source, whose batch is always
  /// kDriverBatchSize — the constructor normalizes this field accordingly,
  /// so config() reports the geometry actually used.
  std::size_t batch = sim::kDriverBatchSize;
  /// Pin worker w to CPU w % hardware_concurrency (Linux sched_setaffinity;
  /// a no-op elsewhere and when affinity is denied). Shard instances are
  /// then also *constructed* on their pinned worker, so each shard's
  /// NodeState block and scratch arena are first-touched — hence placed —
  /// on the core (and NUMA node) that runs it. Only effective when the run
  /// actually uses more than one worker; the constructor normalizes it to
  /// false otherwise, so config() reports what was done. Unpinned workers
  /// still start on CPU w % hardware_concurrency, then may migrate.
  bool pin_threads = false;
};

struct EngineResult {
  /// Aggregate over shards: costs and tallies are sums, max_cache_size is
  /// the largest single-instance peak, final_cache_size the total cached
  /// across instances, wall_seconds the engine wall time (per-shard results
  /// carry no wall time of their own).
  sim::RunResult total;
  std::vector<sim::RunResult> per_shard;
  std::size_t shards = 0;
  std::size_t threads = 0;  // workers actually used
  /// True iff the run used pinned workers (EngineConfig::pin_threads after
  /// normalization); worker_cpus[w] is the CPU worker w landed on, or -1
  /// when the affinity call failed (reported, not fatal).
  bool pinned = false;
  std::vector<int> worker_cpus;
};

class ShardedEngine {
 public:
  /// Plans the shards over `tree` and builds one registry-resolved
  /// `algorithm` instance per shard on its shard tree. `tree` must outlive
  /// the engine.
  ShardedEngine(const Tree& tree, const std::string& algorithm,
                const sim::Params& params, EngineConfig config);

  /// Resets every instance and runs `source` to exhaustion. See the header
  /// comment for the determinism and closed-loop contracts. A multi-shard
  /// source is split() and routed through run_split when it is closed-loop
  /// (it must be shardable or the run is refused) or more than one worker
  /// is available. Paths that split replay the stream from its very
  /// beginning — pass a fresh or reset source.
  [[nodiscard]] EngineResult run(RequestSource& source);

  /// Resets every instance and runs one pre-split per-shard source per
  /// shard (parts[s] feeds shard s's instance, already in shard-local ids;
  /// closed-loop parts observe their shard's outcomes). Callers that need
  /// part-side state afterwards — e.g. per-shard router statistics — split
  /// themselves and keep the parts; run() is sugar over this for everyone
  /// else. Parts must be fresh (or reset) and are run to exhaustion; each
  /// is driven by one thread at a time.
  [[nodiscard]] EngineResult run_split(
      std::span<const std::unique_ptr<RequestSource>> parts);

  [[nodiscard]] const ShardPlan& plan() const { return plan_; }
  /// The configuration as normalized by the constructor (see
  /// EngineConfig::batch) — what result documents should echo.
  [[nodiscard]] const EngineConfig& config() const { return config_; }
  [[nodiscard]] const OnlineAlgorithm& algorithm(std::size_t s) const {
    return *algs_[s];
  }

 private:
  /// Steps one chunk on shard `s`. When the instance is the paper's TC the
  /// call goes through a cached concrete TreeCache pointer — TreeCache is
  /// final, so the compiler emits a direct (inlinable) call into the
  /// preorder-SoA batch loop with no virtual dispatch anywhere on the
  /// per-request path. Every other algorithm takes the virtual step_batch.
  void step_shard(std::size_t s, std::span<const Request> requests,
                  OutcomeSink& sink);

  [[nodiscard]] std::size_t effective_threads() const;
  /// Sums per-shard results (already finalized from the instances) into
  /// out.total, in shard order — fixed order, bit-reproducible totals.
  void finalize(EngineResult& out) const;
  /// The split-run worker loop: drives the parts of shards worker,
  /// worker+workers, ... to exhaustion (or until `failed` is set), round
  /// robin — a visit lasts while the part has_buffered() — accounting
  /// into out.per_shard.
  void drive_parts(std::span<const std::unique_ptr<RequestSource>> parts,
                   EngineResult& out, std::size_t worker,
                   std::size_t workers, const std::atomic<bool>& failed);

  ShardPlan plan_;
  EngineConfig config_;
  /// CPU each worker was pinned to at construction (-1 = affinity denied);
  /// empty when pin_threads is off. Run-time pools re-pin worker w to the
  /// same w % hardware_concurrency slot.
  std::vector<int> worker_cpus_;
  std::vector<std::unique_ptr<OnlineAlgorithm>> algs_;  // one per shard
  /// algs_[s] downcast once at construction: non-null iff shard s runs the
  /// concrete TreeCache (the step_shard fast path), non-owning.
  std::vector<TreeCache*> tc_;
};

/// Re-arms the once-per-process "replicated generation" stderr warning
/// (it deduplicates across runs and call sites). Test hook only.
void rearm_replicated_split_warning();

}  // namespace treecache::engine
