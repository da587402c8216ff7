// The benchmark's four workloads. Each one generates its inputs from the
// seed when it is built (the benchmark's job, never timed), then offers:
//
//   setup()    the program's set-up — tree or rule-tree build plus
//              ShardedEngine construction (rib-ingest: opening the feed and
//              parsing its first batch) — timed, repeated by the caller,
//              last one kept;
//   prepare()  untimed references every timed rep is checked against: a
//              threads=1 run of the same geometry and seed and the event
//              counts of the router stream (rib-ingest reads its ground
//              truth when it is built);
//   run()      one timed rep, checked; traced reps also fill the ledger.
//
// Why these four (also recorded in BENCHMARK.json):
//   tc-deep       single-core ceiling: workload generation vs core stepping
//   zipf-sharded  the replicated open-loop split on nproc workers
//   fib-closed    the paper's closed-loop FIB router: engine handoff and
//                 feedback dominate
//   rib-ingest    MRT parse, RIB apply, replay-FIB rebuild — no cache and
//                 no engine, the control for every caching change
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One timed rep.
struct Rep {
  double wall_s = 0.0;
  /// Items the rep completed: requests stepped, router events, or feed
  /// records turned into a ready replay FIB.
  double items = 0.0;
  /// Empty when every check passed; otherwise what failed.
  std::string failure;
  /// Every counter the rep produced, in a fixed order: RunResult fields
  /// per shard and in total plus router statistics, or the ingest counts
  /// and a digest of the replay FIB. Equal fingerprints = identical runs.
  std::vector<std::uint64_t> fingerprint;
  /// Traced reps only: per-layer metric name → value.
  std::map<std::string, double> layers;
  /// Traced reps only: busy seconds of each shard instance.
  std::vector<double> shard_busy_s;
  /// Deterministic cost per item (see README.md): TC total cost per
  /// request or per packet; for rib-ingest, trie plus replay-FIB nodes
  /// built per feed record.
  double cost_per_item = 0.0;
};

struct SetupTime {
  double total_s = 0.0;
  double engine_s = 0.0;  // the ShardedEngine construction part
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual SetupTime setup() = 0;
  /// Returns an empty string when the references pass their own checks.
  [[nodiscard]] virtual std::string prepare() = 0;
  [[nodiscard]] virtual Rep run(bool traced) = 0;
};

/// Scale of a workload's inputs.
enum class Scale { kFull, kTiny };

/// Every per-layer metric a traced rep reports, with its unit, in output
/// order. Layers a workload does not exercise report 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layer_metrics();

/// CPUs this process may run on (what `nproc` prints): the thread budget.
[[nodiscard]] std::size_t nproc();

/// The workload names, in the order the benchmark runs them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds `name` with inputs from `seed`. rib-ingest reads the MRT feed at
/// `feed`, whose ground truth gen_feed() wrote to `feed + ".truth"`.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed, Scale scale,
    const std::string& feed);

/// Generates the rib-ingest MRT feed for `seed` at `path`, and its ground
/// truth (computed from the records, independently of the RIB) at
/// `path + ".truth"`.
void gen_feed(std::uint64_t seed, Scale scale, const std::string& path);

}  // namespace perfbench
