// perfbench — the benchmark program behind perfbench/run.py.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --tmpdir DIR [--feed PATH]
//       Generates W's inputs from N, self-tests the trace decorators at
//       tiny scale, times the program's set-up, checks a warm-up rep, then
//       runs checked reps for about S seconds. The last stdout line is the
//       result: {"correct", "attempted", "failed", "metrics"}; the line
//       before it carries the details. Exits 1 when any check failed.
//   perfbench gen-feed --seed N --out PATH
//       Writes the rib-ingest MRT feed and its ground truth (PATH.truth).
//   perfbench selftest --tmpdir DIR
//       Wrapped vs unwrapped runs of every workload at tiny scale must be
//       bit-identical.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "sim/bench_env.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Rep;
using treecache::util::Json;

/// Timed set-ups per run; setup_s is their median.
constexpr int kSetupReps = 15;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// A rep during which the hypervisor took more than this share of the time
/// the machine's CPUs wanted to run measures the host, not the program: the
/// medians leave it out while enough undisturbed reps remain. It is still
/// checked.
constexpr double kMaxSteal = 0.1;

/// One measured rep: items per second, and the share of the CPUs' busy
/// time stolen while it ran.
struct Sample {
  double ips = 0.0;
  double steal = 0.0;
};

/// The machine's non-idle CPU time and the part of it the hypervisor
/// stole, in clock ticks (the first line of /proc/stat); zero where there
/// is no such file.
struct CpuTicks {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
};

CpuTicks cpu_ticks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value)) break;
    if (field != 3 && field != 4) ticks.busy += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

/// The reps the medians use: those with steal at most kMaxSteal when at
/// least `min_clean` of them exist, otherwise all of them.
std::vector<std::size_t> undisturbed(const std::vector<Sample>& reps,
                                     std::size_t min_clean) {
  std::vector<std::size_t> clean, all;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    all.push_back(i);
    if (reps[i].steal <= kMaxSteal) clean.push_back(i);
  }
  return clean.size() >= min_clean ? clean : all;
}

double median_ips(const std::vector<Sample>& reps, std::size_t min_clean) {
  std::vector<double> values;
  for (const std::size_t i : undisturbed(reps, min_clean)) {
    values.push_back(reps[i].ips);
  }
  return median(values);
}


std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw std::runtime_error("bad flag " + arg);
    if (i + 1 == argc) throw std::runtime_error(arg + " needs a value");
    flags[arg.substr(2)] = argv[++i];
  }
  return flags;
}

const std::string& need(const std::map<std::string, std::string>& flags,
                        const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

/// Tiny-scale self-test of one workload: a run through the trace
/// decorators must produce exactly the counters of an undecorated run.
/// Returns an empty string on success.
std::string selftest(const std::string& name, std::uint64_t seed,
                     const std::string& tmpdir) {
  std::string feed;
  if (name == "rib-ingest") {
    feed = tmpdir + "/selftest-" + std::to_string(seed) + ".mrt";
    perfbench::gen_feed(seed, perfbench::Scale::kTiny, feed);
  }
  const auto workload =
      perfbench::make_workload(name, seed, perfbench::Scale::kTiny, feed);
  (void)workload->setup();
  std::string failure = workload->prepare();
  const Rep plain = workload->run(false);
  const Rep traced = workload->run(true);
  if (failure.empty()) failure = plain.failure;
  if (failure.empty()) failure = traced.failure;
  if (failure.empty() && (plain.fingerprint.empty() ||
                          plain.fingerprint != traced.fingerprint)) {
    failure = "traced run differs from the untraced run";
  }
  if (!feed.empty()) {
    std::remove(feed.c_str());
    std::remove((feed + ".truth").c_str());
  }
  return failure.empty() ? failure : name + " self-test: " + failure;
}

Json provenance() {
  return Json::object()
      .set("nproc", std::uint64_t{perfbench::nproc()})
      .set("kernels",
           std::string(treecache::kernels::active().name))
      .set("compiler", std::string("gcc ") + __VERSION__)
      .set("build_type", PERFBENCH_BUILD_TYPE);
}

int cmd_run(const std::map<std::string, std::string>& flags) {
  const std::string name = need(flags, "workload");
  const std::uint64_t seed = std::stoull(need(flags, "seed"));
  const double seconds = std::stod(need(flags, "seconds"));
  const bool trace = need(flags, "trace") == "1";
  const std::string tmpdir = need(flags, "tmpdir");
  const auto feed_it = flags.find("feed");
  const std::string feed = feed_it == flags.end() ? "" : feed_it->second;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  const auto record = [&](const std::string& failure) {
    ++attempted;
    if (failure.empty()) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(failure);
  };

  std::vector<double> setup_s, construct_s;
  std::vector<Sample> untraced, traced_samples;
  std::vector<double> walls;
  std::vector<Rep> traced_reps;
  double cost_per_item = 0.0;
  try {
    record(selftest(name, seed, tmpdir));
    // Inputs first (not timed), then the program's set-up, timed.
    const auto workload =
        perfbench::make_workload(name, seed, perfbench::Scale::kFull, feed);
    // Two untimed set-ups first: the first one pays for cold caches and
    // page faults that no later one sees.
    for (int i = 0; i < 2; ++i) (void)workload->setup();
    for (int i = 0; i < kSetupReps; ++i) {
      const perfbench::SetupTime t = workload->setup();
      setup_s.push_back(t.total_s);
      construct_s.push_back(t.engine_s);
    }
    record(workload->prepare());
    // Warm-up: caches, allocator and page tables settle; checked, not timed.
    record(workload->run(false).failure);
    if (trace) record(workload->run(true).failure);

    const auto start = perfbench::Clock::now();
    for (std::size_t i = 0;; ++i) {
      const bool traced = trace && i % 2 == 1;
      const CpuTicks before = cpu_ticks();
      Rep rep = workload->run(traced);
      const CpuTicks after = cpu_ticks();
      record(rep.failure);
      if (rep.failure.empty()) {
        const Sample sample{
            .ips = rep.items / rep.wall_s,
            .steal = after.busy > before.busy
                         ? static_cast<double>(after.steal - before.steal) /
                               static_cast<double>(after.busy - before.busy)
                         : 0.0};
        (traced ? traced_samples : untraced).push_back(sample);
        if (!traced) cost_per_item = rep.cost_per_item;
        walls.push_back(rep.wall_s);
        if (traced) traced_reps.push_back(std::move(rep));
      }
      // Stop once the next rep would overrun the budget, with at least
      // three untraced (or two traced and two untraced) reps measured.
      const double elapsed = std::chrono::duration<double>(
                                 perfbench::Clock::now() - start)
                                 .count();
      const bool enough = trace ? traced_samples.size() >= 2 &&
                                      untraced.size() >= 2
                                : untraced.size() >= 3;
      if ((enough && elapsed + median(walls) > seconds) || failed > 0) break;
    }
  } catch (const std::exception& e) {
    record(std::string("exception: ") + e.what());
  }

  Json metrics = Json::object();
  const auto metric = [&](const std::string& key, double value,
                          const std::string& unit) {
    metrics.set(key, Json::object().set("value", value).set("unit", unit));
  };
  Json shard_busy = Json::array();
  if (!trace) {
    metric("items_per_s", median_ips(untraced, 3), "items/s");
    metric("setup_s", median(setup_s), "s");
    metric("peak_rss_mb",
           static_cast<double>(treecache::sim::peak_rss_bytes()) / 1e6, "MB");
    metric("cost_per_item", cost_per_item, "cost/item");
  } else {
    const std::vector<std::size_t> used = undisturbed(traced_samples, 2);
    for (const auto& [key, unit] : perfbench::layer_metrics()) {
      std::vector<double> values;
      for (const std::size_t i : used) {
        values.push_back(traced_reps[i].layers.at(key));
      }
      double value = median(values);
      if (key == "engine.construct_s") value = median(construct_s);
      if (key == "trace.overhead_frac") {
        const double plain = median_ips(untraced, 2);
        value = plain > 0.0 ? 1.0 - median_ips(traced_samples, 2) / plain
                            : 0.0;
      }
      metric(key, value, unit);
    }
    if (!traced_reps.empty()) {
      for (const double b : traced_reps.front().shard_busy_s) {
        shard_busy.push(b);
      }
    }
  }

  const auto samples_json = [](const std::vector<Sample>& samples) {
    Json out = Json::array();
    for (const Sample& sample : samples) {
      out.push(Json::object()
                   .set("items_per_s", sample.ips)
                   .set("steal", sample.steal));
    }
    return out;
  };
  Json setup_json = Json::array();
  for (const double v : setup_s) setup_json.push(v);
  Json failure_json = Json::array();
  for (const std::string& f : failures) failure_json.push(f);
  const Json detail =
      Json::object()
          .set("workload", name)
          .set("seed", seed)
          .set("trace", trace)
          .set("untraced_reps", samples_json(untraced))
          .set("traced_reps", samples_json(traced_samples))
          .set("max_steal", kMaxSteal)
          .set("setup_s", std::move(setup_json))
          .set("shard_busy_s", std::move(shard_busy))
          .set("failures", std::move(failure_json))
          .set("provenance", provenance());
  std::cout << Json::object().set("detail", detail).dump() << "\n";

  const bool correct = failed == 0;
  std::cout << Json::object()
                   .set("correct", correct)
                   .set("attempted", attempted)
                   .set("failed", failed)
                   .set("metrics", std::move(metrics))
                   .dump()
            << std::endl;
  return correct ? 0 : 1;
}

int cmd_gen_feed(const std::map<std::string, std::string>& flags) {
  perfbench::gen_feed(std::stoull(need(flags, "seed")),
                      perfbench::Scale::kFull, need(flags, "out"));
  return 0;
}

int cmd_selftest(const std::map<std::string, std::string>& flags) {
  const std::string tmpdir = need(flags, "tmpdir");
  int status = 0;
  for (const std::string& name : perfbench::workload_names()) {
    const std::string failure = selftest(name, 1, tmpdir);
    std::cout << name << ": " << (failure.empty() ? "ok" : failure)
              << std::endl;
    if (!failure.empty()) status = 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::init_main_thread();
  try {
    const std::string command = argc > 1 ? argv[1] : "";
    const auto flags = parse_flags(argc, argv);
    if (command == "run") return cmd_run(flags);
    if (command == "gen-feed") return cmd_gen_feed(flags);
    if (command == "selftest") return cmd_selftest(flags);
    std::cerr << "usage: perfbench run|gen-feed|selftest [flags]\n";
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
  }
  return 2;
}
