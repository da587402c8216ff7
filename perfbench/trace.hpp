// Outside-in tracing for the benchmark: decorators around the public calls
// into each layer, so no file of the library has to change to be measured.
//
//   TimedSource     wraps a RequestSource: fill() and observe_batch(), plus
//                   the closed-loop feedback round trip (fill → the
//                   observe_batch that completes that chunk).
//   TimedAlgorithm  wraps an OnlineAlgorithm: step_batch(), and the outcome
//                   sink it drives (the driver's accounting and feedback).
//                   Registered as the algorithm "perfbench-tc", which wraps
//                   the registry's "tc", so ShardedEngine builds traced
//                   shard instances by name.
//
// Cost model. Every call is counted exactly. A call that carries a whole
// batch (kWholeBatch items or more) is always timed; smaller calls — the
// closed loop's ~1.4-request chunks, the per-outcome sink — are timed one
// in kSampleEvery (a prime, so the sample cannot lock onto the α-chunk
// period) and the layer's time is scaled up from the sample. A clock read
// costs tens of nanoseconds here, as much as a whole small call, so every
// timed interval has the calibrated cost of an empty timed interval taken
// off, and a small call nested in a timed small call is never timed itself
// (its clock reads would land inside the outer interval). Clocking every
// per-outcome call instead inflates the 1×1 driver by tens of percent.
//
// Threads. Each decorator instance is driven by exactly one thread per run
// (a shard is pinned to one worker; mirrors and the demux live on the
// caller), so its counters are plain fields: nothing is shared across
// threads, and the caller reads them only after the engine has joined its
// workers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/online_algorithm.hpp"
#include "core/request_source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Calls at or above this many items are timed whole.
inline constexpr std::uint64_t kWholeBatch = 64;
/// Smaller calls are timed one in this many.
inline constexpr std::uint64_t kSampleEvery = 61;
/// One closed-loop chunk in this many has its feedback round trip timed.
inline constexpr std::uint64_t kRttEvery = 8;

/// The registry name of the traced TC.
inline constexpr const char* kTracedTc = "perfbench-tc";

/// Marks the calling thread as the benchmark's main thread — the engine's
/// caller, which is the producer in a closed-loop run — and calibrates the
/// cost of an empty timed interval. Call once, first thing in main().
void init_main_thread();

/// Exact call and item counts of one layer boundary, with the time spent
/// in it estimated from the timed calls (see the header comment).
struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
  std::uint64_t small_calls = 0;
  std::uint64_t small_timed = 0;
  std::uint64_t countdown = 1;  // small calls until the next sample
  double whole_s = 0.0;         // calls timed because they were large
  double small_timed_s = 0.0;   // the sampled small calls
  bool on_main = false;         // the last timed call ran on the main thread

  [[nodiscard]] double seconds() const {
    const double small =
        small_timed == 0 ? 0.0
                         : small_timed_s * static_cast<double>(small_calls) /
                               static_cast<double>(small_timed);
    return std::max(0.0, whole_s + small);
  }
};

/// Times one call into `stats` if the cost model says so. `large` must be
/// decided before the call (the request count of a batch, or the size the
/// previous call returned), never from the call's own duration. The
/// untimed path is inline and touches only the counters.
class Probe {
 public:
  Probe(CallStats& stats, bool large) : stats_(&stats) {
    ++stats.calls;
    if (large) {
      start(Kind::kWhole);
      return;
    }
    ++stats.small_calls;
    if (--stats.countdown == 0) sample();
  }
  ~Probe() {
    if (kind_ != Kind::kNone) finish();
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

 private:
  enum class Kind : std::uint8_t { kNone, kWhole, kSmall };
  void start(Kind kind);
  void sample();
  void finish();

  CallStats* stats_;
  Kind kind_ = Kind::kNone;
  Clock::time_point start_{};
};

/// Counters of one traced source (one per split part or mirror).
struct SourceStats {
  bool closed_loop = false;
  CallStats fill;
  CallStats observe;         // called outside any step_batch
  CallStats observe_nested;  // called from a sink inside step_batch
  /// Closed-loop only: fill → completing observe_batch, in seconds, for
  /// one non-empty chunk in kRttEvery.
  std::vector<double> feedback_rtt_s;
};

/// Owns the counters of a traced source and of every part split from it,
/// so they outlive the parts (which the engine destroys inside run()).
class SourceLedger {
 public:
  SourceStats& add(bool closed_loop);
  [[nodiscard]] const std::vector<std::unique_ptr<SourceStats>>& sources()
      const {
    return sources_;
  }

 private:
  std::vector<std::unique_ptr<SourceStats>> sources_;
};

class TimedSource final : public treecache::RequestSource {
 public:
  /// Wraps `inner`; its counters live in `ledger`, which must outlive it.
  TimedSource(std::unique_ptr<treecache::RequestSource> inner,
              SourceLedger& ledger);

  [[nodiscard]] std::size_t fill(std::span<treecache::Request> buffer)
      override;
  void reset() override;
  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return inner_->size_hint();
  }
  void observe_batch(
      std::span<const treecache::StepOutcome> outcomes) override;
  [[nodiscard]] bool is_closed_loop() const override {
    return inner_->is_closed_loop();
  }
  [[nodiscard]] std::unique_ptr<treecache::RequestSource> fork()
      const override;
  /// The inner source's parts, each wrapped with counters of its own.
  [[nodiscard]] std::vector<std::unique_ptr<treecache::RequestSource>> split(
      const treecache::engine::ShardPlan& plan) const override;
  [[nodiscard]] treecache::SplitKind split_kind() const override {
    return inner_->split_kind();
  }

 private:
  std::unique_ptr<treecache::RequestSource> inner_;
  SourceLedger* ledger_;
  SourceStats* stats_;
  std::size_t last_fill_ = 0;
  std::uint64_t outstanding_ = 0;  // outcomes of the last chunk not yet seen
  std::uint64_t chunks_ = 0;       // non-empty fills so far
  bool rtt_armed_ = false;
  Clock::time_point rtt_start_{};
};

/// Counters of one traced algorithm instance (one per shard).
struct AlgorithmStats {
  CallStats step;  // step_batch, including the nested sink calls
  CallStats sink;  // OutcomeSink::on_outcome: accounting and feedback
};

class TimedAlgorithm final : public treecache::OnlineAlgorithm {
 public:
  explicit TimedAlgorithm(std::unique_ptr<treecache::OnlineAlgorithm> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  treecache::StepOutcome step(treecache::Request request) override {
    return inner_->step(request);
  }
  void step_batch(std::span<const treecache::Request> requests,
                  treecache::OutcomeSink& sink) override;
  /// Resets the inner algorithm and zeroes the counters: the engine resets
  /// every instance at the start of a run, so counters are per run.
  void reset() override;
  [[nodiscard]] const treecache::Subforest& cache() const override {
    return inner_->cache();
  }
  [[nodiscard]] const treecache::Cost& cost() const override {
    return inner_->cost();
  }

  [[nodiscard]] const AlgorithmStats& stats() const { return stats_; }

 private:
  std::unique_ptr<treecache::OnlineAlgorithm> inner_;
  AlgorithmStats stats_;
};

}  // namespace perfbench
