#include "trace.hpp"

#include <algorithm>

#include "sim/registry.hpp"

namespace perfbench {
namespace {

thread_local bool t_main_thread = false;
/// Set while a traced step_batch runs on this thread, so an observe_batch
/// reached from the driver's sink is told apart from the producer's.
thread_local bool t_in_step = false;
/// Set while a sampled small call is being timed on this thread.
thread_local bool t_small_timing = false;
/// The measured length of an empty timed interval, taken off every sample.
double g_probe_bias_s = 0.0;

/// Median over 101 rounds of the mean empty interval of 1000 clock pairs.
double calibrate_probe_bias() {
  std::vector<double> rounds;
  for (int r = 0; r < 101; ++r) {
    double sum = 0.0;
    for (int i = 0; i < 1000; ++i) {
      const auto a = Clock::now();
      const auto b = Clock::now();
      sum += std::chrono::duration<double>(b - a).count();
    }
    rounds.push_back(sum / 1000.0);
  }
  std::nth_element(rounds.begin(), rounds.begin() + 50, rounds.end());
  return rounds[50];
}

class InStep {
 public:
  InStep() { t_in_step = true; }
  ~InStep() { t_in_step = false; }
  InStep(const InStep&) = delete;
  InStep& operator=(const InStep&) = delete;
};

/// Forwards every outcome to the driver's sink, timing one in
/// kSampleEvery: the sink is the driver's accounting plus, in the 1×1
/// driver, the per-outcome feedback into the source.
class SampledSink final : public treecache::OutcomeSink {
 public:
  SampledSink(treecache::OutcomeSink& inner, CallStats& stats)
      : inner_(&inner), stats_(&stats) {}

  void on_outcome(const treecache::Request& request,
                  const treecache::StepOutcome& outcome) override {
    const Probe probe(*stats_, false);
    inner_->on_outcome(request, outcome);
  }

 private:
  treecache::OutcomeSink* inner_;
  CallStats* stats_;
};

const treecache::sim::AlgorithmRegistrar kRegisterTracedTc{
    kTracedTc, "the registry's tc behind the benchmark's timing decorator",
    [](const treecache::Tree& tree, const treecache::sim::Params& params)
        -> std::unique_ptr<treecache::OnlineAlgorithm> {
      return std::make_unique<TimedAlgorithm>(
          treecache::sim::make_algorithm("tc", tree, params));
    }};

}  // namespace

void init_main_thread() {
  t_main_thread = true;
  g_probe_bias_s = calibrate_probe_bias();
}

void Probe::start(Kind kind) {
  kind_ = kind;
  stats_->on_main = t_main_thread;
  start_ = Clock::now();
}

void Probe::sample() {
  if (t_small_timing) {
    stats_->countdown = 1;  // nested in a timed call: sample the next one
    return;
  }
  stats_->countdown = kSampleEvery;
  t_small_timing = true;
  start(Kind::kSmall);
}

void Probe::finish() {
  const double s =
      std::chrono::duration<double>(Clock::now() - start_).count() -
      g_probe_bias_s;
  if (kind_ == Kind::kWhole) {
    stats_->whole_s += s;
  } else {
    t_small_timing = false;
    stats_->small_timed_s += s;
    ++stats_->small_timed;
  }
}

SourceStats& SourceLedger::add(bool closed_loop) {
  sources_.push_back(std::make_unique<SourceStats>());
  sources_.back()->closed_loop = closed_loop;
  return *sources_.back();
}

TimedSource::TimedSource(std::unique_ptr<treecache::RequestSource> inner,
                         SourceLedger& ledger)
    : inner_(std::move(inner)),
      ledger_(&ledger),
      stats_(&ledger.add(inner_->is_closed_loop())) {}

std::size_t TimedSource::fill(std::span<treecache::Request> buffer) {
  {
    const Probe probe(stats_->fill, last_fill_ >= kWholeBatch);
    last_fill_ = inner_->fill(buffer);
  }
  stats_->fill.items += last_fill_;
  if (stats_->closed_loop && last_fill_ > 0) {
    outstanding_ = last_fill_;
    rtt_armed_ = chunks_++ % kRttEvery == 0;
    if (rtt_armed_) rtt_start_ = Clock::now();
  }
  return last_fill_;
}

void TimedSource::reset() {
  inner_->reset();
  last_fill_ = 0;
  outstanding_ = 0;
  rtt_armed_ = false;
}

void TimedSource::observe_batch(
    std::span<const treecache::StepOutcome> outcomes) {
  CallStats& stats = t_in_step ? stats_->observe_nested : stats_->observe;
  {
    const Probe probe(stats, outcomes.size() >= kWholeBatch);
    inner_->observe_batch(outcomes);
  }
  stats.items += outcomes.size();
  if (outstanding_ == 0) return;
  outstanding_ -= std::min<std::uint64_t>(outstanding_, outcomes.size());
  if (outstanding_ == 0 && rtt_armed_) {
    stats_->feedback_rtt_s.push_back(
        std::chrono::duration<double>(Clock::now() - rtt_start_).count());
    rtt_armed_ = false;
  }
}

std::unique_ptr<treecache::RequestSource> TimedSource::fork() const {
  auto inner = inner_->fork();
  if (inner == nullptr) return nullptr;
  return std::make_unique<TimedSource>(std::move(inner), *ledger_);
}

std::vector<std::unique_ptr<treecache::RequestSource>> TimedSource::split(
    const treecache::engine::ShardPlan& plan) const {
  auto parts = inner_->split(plan);
  for (auto& part : parts) {
    part = std::make_unique<TimedSource>(std::move(part), *ledger_);
  }
  return parts;
}

void TimedAlgorithm::step_batch(std::span<const treecache::Request> requests,
                                treecache::OutcomeSink& sink) {
  SampledSink sampled(sink, stats_.sink);
  {
    const Probe probe(stats_.step, requests.size() >= kWholeBatch);
    const InStep in_step;
    inner_->step_batch(requests, sampled);
  }
  stats_.step.items += requests.size();
}

void TimedAlgorithm::reset() {
  inner_->reset();
  stats_ = {};
}

}  // namespace perfbench
