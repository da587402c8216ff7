#include "engine/sharded_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "core/tree_cache.hpp"
#include "util/stopwatch.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace treecache::engine {
namespace {

/// Moves the calling thread to the CPU owned by worker `w` (w modulo the
/// hardware concurrency — the same mapping every pool uses, so a worker
/// lands on the same core at construction and on every run). With `pin`
/// the thread stays there. Without, its affinity is restored at once, so
/// the move only places it: some kernels leave freshly spawned threads
/// stacked on the spawning CPU for hundreds of milliseconds, which runs a
/// short parallel run serially. Returns the CPU, or -1 when affinity is
/// unavailable or denied (reported, not fatal).
int move_to_cpu(std::size_t w, bool pin) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (!pin && sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  const unsigned hardware =
      std::max(1u, std::thread::hardware_concurrency());
  const int cpu = static_cast<int>(w % hardware);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) return -1;
  if (!pin) sched_setaffinity(0, sizeof(allowed), &allowed);
  return cpu;
#else
  (void)w;
  (void)pin;
  return -1;
#endif
}

}  // namespace

/// Generates an open-loop stream ONCE for every shard — the open-loop twin
/// of fib::RouterEventProducer. Under one lock, take() pumps blocks of
/// sim::kDriverBatchSize requests from the borrowed source into per-shard
/// rings of shard-local requests until the asking shard has one (or the
/// stream ends), then copies them straight into the caller's step buffer.
/// Generation is serial and in stream order, so each shard sees its exact
/// subsequence. Nothing is pumped while a queue holds kDemuxQueueCap
/// requests: a take for an empty shard whose worker owns a full queue
/// returns 0 ("not yet", finished() false) so the worker drains that queue
/// first, and one that finds only other workers' queues full waits. The
/// owner of a full queue never waits (no deadlock), nor does one worker.
class DemuxProducer {
 public:
  DemuxProducer(RequestSource& source, const ShardPlan& plan,
                std::size_t workers)
      : source_(&source), plan_(&plan), workers_(workers) {
    queues_.resize(plan.num_shards());
    for (Queue& q : queues_) q.ring.resize(kRing);
  }

  /// One shard's slice of the stream; fill() returns 0 at the end and
  /// while not yet ready (drive_parts asks finished()).
  class Part final : public RequestSource {
   public:
    Part(DemuxProducer& producer, std::size_t shard)
        : producer_(&producer), shard_(shard) {}

    [[nodiscard]] std::size_t fill(std::span<Request> buffer) override {
      return producer_->take(shard_, buffer, buffered_);
    }
    void reset() override {
      TC_CHECK(false, "a demuxed shard part cannot replay its stream");
    }
    [[nodiscard]] bool has_buffered() const override { return buffered_; }

   private:
    DemuxProducer* producer_;
    std::size_t shard_;
    bool buffered_ = false;  // the last take left requests in the queue
  };

  /// Copies up to out.size() of shard's queued requests into `out` and
  /// returns how many; `more` tells whether the queue still holds some. A
  /// throw from the source or the routing stops the run and propagates.
  std::size_t take(std::size_t shard, std::span<Request> out, bool& more) {
    more = false;
    std::unique_lock<std::mutex> lock(mutex_);
    Queue& q = queues_[shard];
    const std::size_t worker = shard % workers_;
    while (q.size == 0 && !exhausted_ && !stopped_) {
      const Full full = full_queue(worker);
      if (full == Full::kOwn) return 0;  // not yet: drain that one first
      if (full == Full::kOther) {
        space_.wait(lock);
        continue;
      }
      try {
        pump();
      } catch (...) {
        stopped_ = true;
        space_.notify_all();
        throw;
      }
    }
    if (stopped_) return 0;
    const bool was_full = q.size >= kDemuxQueueCap;
    const std::size_t n = std::min(out.size(), q.size);
    const std::size_t first = std::min(n, kRing - q.head);
    std::copy_n(q.ring.begin() + static_cast<std::ptrdiff_t>(q.head), first,
                out.begin());
    std::copy_n(q.ring.begin(), n - first, out.begin() + first);
    q.head = (q.head + n) % kRing;
    q.size -= n;
    more = q.size > 0;
    if (was_full && q.size < kDemuxQueueCap) space_.notify_all();
    return n;
  }

  /// True once shard has nothing left: its queue is empty and the stream
  /// is over, or the run stopped.
  [[nodiscard]] bool finished(std::size_t shard) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stopped_ || (exhausted_ && queues_[shard].size == 0);
  }

  /// Ends the run early (a worker failed): every take returns 0, and none
  /// waits on a worker that will never drain its queue.
  void stop() {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
    space_.notify_all();
  }

  /// Most requests ever queued for one shard (read after the run).
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

 private:
  /// Ring size: a pump starts with every queue below the cap and adds at
  /// most one block.
  static constexpr std::size_t kRing = kDemuxQueueCap + sim::kDriverBatchSize;

  struct Queue {
    std::vector<Request> ring;  // kRing slots, shard-local ids
    std::size_t head = 0;       // oldest queued request
    std::size_t size = 0;
  };

  /// Which full queue, if any, blocks a pump: one of `worker`'s own (it
  /// drains that first), only other workers' (it waits), or none.
  enum class Full : std::uint8_t { kNone, kOwn, kOther };
  [[nodiscard]] Full full_queue(std::size_t worker) const {
    Full full = Full::kNone;
    for (std::size_t s = 0; s < queues_.size(); ++s) {
      if (queues_[s].size < kDemuxQueueCap) continue;
      if (s % workers_ == worker) return Full::kOwn;
      full = Full::kOther;
    }
    return full;
  }

  /// Routes one block of the source into the queues.
  void pump() {
    const std::size_t n = source_->fill(block_);
    if (n == 0) {
      exhausted_ = true;
      space_.notify_all();  // waiters' shards may be finished now
      return;
    }
    const std::span<const NodeId> local = plan_->local_ids();
    for (std::size_t i = 0; i < n; ++i) {
      const Request r = block_[i];
      Queue& q = queues_[plan_->shard_of(r.node)];
      q.ring[(q.head + q.size++) % kRing] = {local[r.node], r.sign};
    }
    for (const Queue& q : queues_) high_water_ = std::max(high_water_, q.size);
  }

  RequestSource* source_;
  const ShardPlan* plan_;
  std::size_t workers_;
  std::mutex mutex_;
  std::condition_variable space_;
  std::vector<Queue> queues_;  // one per shard
  std::array<Request, sim::kDriverBatchSize> block_;
  std::size_t high_water_ = 0;
  bool exhausted_ = false;
  bool stopped_ = false;
};

ShardedEngine::ShardedEngine(const Tree& tree, const std::string& algorithm,
                             const sim::Params& params, EngineConfig config)
    : plan_(tree, config.shards), config_(config) {
  TC_CHECK(config_.batch >= 1, "engine batch size must be at least 1");
  // Single-shard plans delegate to run_source, whose batch is fixed:
  // normalize so config() never claims a geometry that was not used.
  if (plan_.num_shards() == 1) config_.batch = sim::kDriverBatchSize;
  // Pinning only matters where worker threads exist; normalize it away on
  // single-worker geometries so config() reports what was done.
  if (effective_threads() <= 1) config_.pin_threads = false;

  const std::size_t num_shards = plan_.num_shards();
  algs_.resize(num_shards);
  tc_.resize(num_shards);
  if (config_.pin_threads) {
    // Build shard s on pinned worker s % workers — the owner under the
    // run-time mapping of every pool. The instance's NodeState block and
    // scratch arena are first-touched on that worker's core, so their
    // pages are placed on its NUMA node. The registry is read-only after
    // static init, so concurrent make_algorithm calls are safe; each
    // thread writes disjoint algs_/tc_/worker_cpus_ slots and the join
    // publishes them.
    const std::size_t workers = effective_threads();
    worker_cpus_.assign(workers, -1);
    std::exception_ptr error;
    std::mutex error_mutex;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        worker_cpus_[w] = move_to_cpu(w, /*pin=*/true);
        try {
          for (std::size_t s = w; s < num_shards; s += workers) {
            algs_[s] =
                sim::make_algorithm(algorithm, plan_.shard_tree(s), params);
            tc_[s] = dynamic_cast<TreeCache*>(algs_[s].get());
          }
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
      });
    }
    for (auto& worker : pool) worker.join();
    if (error) std::rethrow_exception(error);
  } else {
    for (std::size_t s = 0; s < num_shards; ++s) {
      algs_[s] = sim::make_algorithm(algorithm, plan_.shard_tree(s), params);
      // Downcast once here; step_shard then calls the final TreeCache
      // directly, off the virtual path, for every chunk of the run.
      tc_[s] = dynamic_cast<TreeCache*>(algs_[s].get());
    }
  }
}

void ShardedEngine::step_shard(std::size_t s,
                               std::span<const Request> requests,
                               OutcomeSink& sink) {
  if (TreeCache* const tc = tc_[s]) {
    tc->step_batch(requests, sink);  // direct call: TreeCache is final
  } else {
    algs_[s]->step_batch(requests, sink);
  }
}

std::size_t ShardedEngine::effective_threads() const {
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t requested =
      config_.threads == 0 ? hardware : config_.threads;
  return std::min(requested, plan_.num_shards());
}

EngineResult ShardedEngine::run(RequestSource& source) {
  const std::size_t num_shards = plan_.num_shards();
  if (num_shards == 1) {
    // Unsharded: the plain driver, which also feeds closed-loop sources.
    algs_[0]->reset();
    EngineResult out = start_result(1);
    const Stopwatch timer;
    out.per_shard.push_back(sim::run_source(*algs_[0], source));
    out.total = out.per_shard.front();
    out.total.wall_seconds = timer.seconds();
    return out;
  }
  if (source.is_closed_loop()) {
    // One mirror per shard, so each shard's feedback stays local (see the
    // header comment). The split replays the stream from its start.
    const auto parts = source.split(plan_);
    TC_CHECK(parts.size() == num_shards,
             "closed-loop source cannot split into per-shard mirrors "
             "(RequestSource::split); run it with a single shard");
    return run_split(parts);
  }
  // Open loop: generate the stream once and demux it into per-shard parts.
  DemuxProducer demux(source, plan_, effective_threads());
  std::vector<std::unique_ptr<RequestSource>> parts;
  parts.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    parts.push_back(std::make_unique<DemuxProducer::Part>(demux, s));
  }
  EngineResult out = drive(parts, &demux);
  out.queue_high_water = demux.high_water();
  return out;
}

EngineResult ShardedEngine::start_result(std::size_t workers) const {
  EngineResult out;
  out.shards = plan_.num_shards();
  out.threads = workers;
  out.pinned = config_.pin_threads;
  out.worker_cpus = worker_cpus_;
  return out;
}

void ShardedEngine::finalize(EngineResult& out) const {
  // Finalize each shard from its instance, then aggregate in shard order
  // (a fixed order, so the totals are reproducible bit for bit).
  for (std::size_t s = 0; s < plan_.num_shards(); ++s) {
    sim::RunResult& r = out.per_shard[s];
    r.cost = algs_[s]->cost();
    r.final_cache_size = algs_[s]->cache().size();
    out.total.cost += r.cost;
    out.total.rounds += r.rounds;
    out.total.paid_requests += r.paid_requests;
    out.total.paid_positive += r.paid_positive;
    out.total.paid_negative += r.paid_negative;
    out.total.fetched_nodes += r.fetched_nodes;
    out.total.evicted_nodes += r.evicted_nodes;
    out.total.phase_restarts += r.phase_restarts;
    out.total.restart_evictions += r.restart_evictions;
    out.total.max_cache_size =
        std::max(out.total.max_cache_size, r.max_cache_size);
    out.total.final_cache_size += r.final_cache_size;
  }
}

EngineResult ShardedEngine::run_split(
    std::span<const std::unique_ptr<RequestSource>> parts) {
  TC_CHECK(parts.size() == plan_.num_shards(),
           "run_split needs exactly one source per shard");
  for (const auto& part : parts) {
    TC_CHECK(part != nullptr, "run_split was handed a null source");
  }
  return drive(parts, nullptr);
}

EngineResult ShardedEngine::drive(
    std::span<const std::unique_ptr<RequestSource>> parts,
    DemuxProducer* demux) {
  for (auto& alg : algs_) alg->reset();
  const std::size_t num_shards = plan_.num_shards();
  const std::size_t workers = num_shards == 1 ? 1 : effective_threads();
  EngineResult out = start_result(workers);
  out.per_shard.resize(num_shards);
  const Stopwatch timer;

  std::atomic<bool> failed{false};
  if (workers <= 1) {
    drive_parts(parts, demux, out, 0, 1, failed);
  } else {
    std::exception_ptr error;
    std::mutex error_mutex;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        move_to_cpu(w, config_.pin_threads);  // same core as construction
        try {
          drive_parts(parts, demux, out, w, workers, failed);
        } catch (...) {
          {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!error) error = std::current_exception();
          }
          failed.store(true, std::memory_order_relaxed);
          // No sibling may keep waiting for this worker to drain a queue.
          if (demux != nullptr) demux->stop();
        }
      });
    }
    for (auto& worker : pool) worker.join();
    if (error) std::rethrow_exception(error);
  }
  finalize(out);
  out.total.wall_seconds = timer.seconds();
  return out;
}

void ShardedEngine::drive_parts(
    std::span<const std::unique_ptr<RequestSource>> parts,
    DemuxProducer* demux, EngineResult& out, std::size_t worker,
    std::size_t workers, const std::atomic<bool>& failed) {
  // Worker w owns shards w, w+workers, ...: a shard is driven by one thread
  // for the whole run, so its loop is the exact fill → step → observe
  // alternation of sim::run_source, and a closed-loop part gets its own
  // outcomes through the sink, in order. Owned shards are visited round
  // robin: the parts of a shared generation pass (run()'s demux,
  // SplitKind::kShared splits) pull from one producer, and draining one
  // shard first would buffer its siblings' share of the stream. A visit
  // keeps filling while the part has_buffered(), so only a shard with
  // nothing left pulls more for everyone. Shards share no state, so the
  // order is free and per-shard results are unchanged.
  std::vector<std::size_t> owned;
  std::vector<sim::AccountingSink> sinks;
  for (std::size_t s = worker; s < plan_.num_shards(); s += workers) {
    owned.push_back(s);
    RequestSource* const observer =
        parts[s]->is_closed_loop() ? parts[s].get() : nullptr;
    sinks.emplace_back(out.per_shard[s], *algs_[s], observer);
  }
  std::vector<Request> buffer(config_.batch);
  std::vector<bool> done(owned.size(), false);
  std::size_t remaining = owned.size();
  while (remaining > 0 && !failed.load(std::memory_order_relaxed)) {
    for (std::size_t k = 0; k < owned.size(); ++k) {
      if (done[k]) continue;
      RequestSource& part = *parts[owned[k]];
      const Stopwatch visit;
      for (;;) {
        const std::size_t n = part.fill({buffer.data(), buffer.size()});
        if (n == 0) {
          // 0 is final (fill() contract) — except from a demux part that
          // waits for this worker to drain another shard's full queue.
          if (demux == nullptr || demux->finished(owned[k])) {
            done[k] = true;
            --remaining;
          }
          break;
        }
        step_shard(owned[k], {buffer.data(), n}, sinks[k]);
        if (!part.has_buffered()) break;
      }
      // The shard's own time: its fills (demux pumping included) and steps.
      out.per_shard[owned[k]].wall_seconds += visit.seconds();
    }
  }
}

}  // namespace treecache::engine
