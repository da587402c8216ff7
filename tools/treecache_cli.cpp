// treecache — command-line interface to the library.
//
// Algorithms, workloads and offline evaluators resolve by name through
// sim/registry.hpp; `treecache list` prints everything that is registered.
// Adding a policy or streaming source to the library makes it available
// here with no CLI changes.
//
// `run` and `gen-trace` are fully streaming: workloads are pull-based
// RequestSources and `--trace` files are read line by line, so
// `--length 1000000000` runs in O(tree) memory (CI asserts the RSS bound).
// Composite workloads come from the registered combinators, e.g.
// `--workload mix --parts zipf,hotspot --weights 3,1` or
// `--workload churn-inject --inner zipfleaf --churn-period 500`.
//
// Subcommands:
//   list       prints the registered algorithms / workloads / evaluators
//   gen-tree   --shape path|star|kary|caterpillar|spider|random|randomdeg
//              --nodes N [--arity A] [--levels L] [--seed S]
//              [--out tree.txt]
//   gen-rib    --rules N [--deagg D] [--seed S] [--out tree.txt]
//              [--prefixes prefixes.txt]
//   gen-feed   --routes N --updates M [--family 4|6|46] [--seed S]
//              [--withdraw-prob P] [--fresh-prob P] [--max-len L]
//              [--max-len6 L] [--deagg D] [--format text|mrt]
//              [--out feed.txt]; emits a synthetic dump+update feed —
//              the source of the checked-in CI fixtures. --format mrt
//              writes binary MRT (RFC 6396: TABLE_DUMP_V2 + BGP4MP,
//              rib/mrt.hpp) instead of the text grammar; both decode to
//              identical records
//   ingest     --rib-feed dump.feed[,updates.feed...] [--json out.json]
//              [--follow [--poll-ms P] [--idle-ms I]]; streams the
//              feed(s) — text or binary MRT, sniffed per file — into
//              per-family radix RIBs (route_add/route_delete), rebuilds
//              the replay FIBs, and reports routes, churn, bytes,
//              routes/sec, tree depth histograms and the ingest and
//              rebuild seconds (schema treecache.ingest/1). --follow
//              tail-polls the last file for growth and stops after
//              --idle-ms with no new bytes (0 = follow until killed)
//   gen-trace  --tree tree.txt --kind <workload> --length N [--skew Z]
//              [--neg F] [--alpha A] [--update-prob P] [--seed S]
//              [--out trace.txt]
//   run        --tree tree.txt --algo <algorithm> --alpha A --capacity K
//              (--trace trace.txt | --workload <workload> [--length N ...])
//              [--seed S] [--validate] [--json out.json]
//   throughput sharded-engine run (engine/sharded_engine.hpp): --tree
//              tree.txt|fib --algo <algorithm> [--workload <w>|--trace f]
//              [--shards S] [--threads N] [--batch B]
//              [--pin on|off] [--seed S] [--json out.json]; aggregate
//              costs are identical for every --threads value (per-shard
//              routing is deterministic). --pin on pins shard workers to
//              cores and first-touches shard state on its worker; the
//              JSON echoes the effective affinity. --algos a,b,...
//              instead of --algo runs a side-by-side comparison over the
//              same stream (speedup vs the first name — `--algos lru,tc`
//              reads as TC's speedup over LRU)
//   sweep      --tree tree.txt --algos a,b,... --workloads w1,w2,...
//              [shared params] [--seed S] [--json out.json]
//   fib        closed-loop router simulation (switch + controller) on a
//              synthetic RIB: --algos a,b,... --skews 0.8,1.2
//              --capacities 64,256 --alphas 8,32 [--packets N]
//              [--update-prob P] [--rules N] [--deagg D] [--max-len L]
//              [--rib-seed S] [--seed S] [--shards S] [--threads N]
//              [--batch B] [--json out.json];
//              --rib-feed d.feed[,u.feed] swaps the synthetic RIB for
//              the table ingested from a real feed; --shards > 1
//              runs the closed loop sharded by top-level prefix
//              (per-shard router mirrors off one shared event producer,
//              each running its own closed loop on its shard's worker);
//              results are bit-identical for every --threads/--batch
//              value
//   opt        --tree tree.txt --trace trace.txt --alpha A --capacity K
//              [--evaluator opt|static]
//   fields     --tree tree.txt --trace trace.txt --alpha A --capacity K
//              [--render N]
//
// Files: trees are whitespace-separated parent lists (root = -1); traces
// are one request per line ("+12" / "-3"); both match tree_io/trace I/O.
// `--tree fib` derives the RIB rule tree from the same
// --rules/--deagg/--max-len/--rib-seed flags the fib* workloads use, so
// `run`/`sweep` can drive FIB workloads without an intermediate file;
// `--tree fib-real` derives the replay tree from --rib-feed/--family the
// same way (what `--workload fib-real` expects).
// `--json` writes the machine-readable result document (schemas in
// sim/reporting.hpp); "-" means stdout.
#include <array>
#include <charconv>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>

#include "analysis/opt_bound.hpp"
#include "core/field_tracker.hpp"
#include "core/request_source.hpp"
#include "core/tree_cache.hpp"  // `fields` instruments TC specifically
#include "engine/sharded_engine.hpp"
#include "fib/fib_workloads.hpp"
#include "fib/rib_gen.hpp"
#include "fib/rule_tree.hpp"
#include "rib/churn_source.hpp"
#include "rib/feed.hpp"
#include "rib/ingest.hpp"
#include "rib/mrt.hpp"
#include "rib/workloads.hpp"
#include "sim/fib_engine.hpp"
#include "sim/registry.hpp"
#include "sim/reporting.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "tools/engine_flags.hpp"
#include "tools/flags.hpp"
#include "tree/tree_builder.hpp"
#include "tree/tree_io.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace treecache::tools {
namespace {

int usage() {
  std::cerr
      << "usage: treecache <list|gen-tree|gen-rib|gen-feed|gen-trace|run|"
         "throughput|sweep|fib|ingest|opt|fields> [--flags]\n"
         "see the header of tools/treecache_cli.cpp for the full list\n";
  return 2;
}

/// Every --key value forwarded verbatim, so registry factories see their
/// own knobs without CLI plumbing per parameter. Presentation and file
/// flags are dropped: they never parameterize a scenario, and keeping
/// them out makes the params echoed into --json documents byte-identical
/// across output paths.
sim::Params params_from(const Flags& flags,
                        std::span<const char* const> extra_drop = {}) {
  auto values = flags.all();
  for (const char* key : {"json", "out", "tree", "trace", "validate"}) {
    values.erase(key);
  }
  for (const char* key : extra_drop) values.erase(key);
  return sim::Params(std::move(values));
}

/// True when human-readable output belongs on stdout: suppressed only
/// while `--json -` streams the document there, so the two never mix.
bool stdout_is_human(const Flags& flags) {
  return !flags.has("json") || flags.get("json", "-") != "-";
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  for (std::string item; std::getline(ss, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<double> split_csv_doubles(const std::string& text) {
  std::vector<double> out;
  for (const std::string& item : split_csv(text)) {
    try {
      out.push_back(std::stod(item));
    } catch (const std::exception&) {
      throw CheckFailure("'" + item + "' is not a number");
    }
  }
  return out;
}

template <typename T>
std::vector<T> split_csv_u64(const std::string& text) {
  std::vector<T> out;
  for (const std::string& item : split_csv(text)) {
    // from_chars, not stoull: stoull accepts "-1" and wraps it mod 2^64.
    std::uint64_t value = 0;
    const auto [end, ec] =
        std::from_chars(item.data(), item.data() + item.size(), value);
    if (ec != std::errc{} || end != item.data() + item.size()) {
      throw CheckFailure("'" + item + "' is not an unsigned integer");
    }
    out.push_back(static_cast<T>(value));
  }
  return out;
}

int cmd_list() {
  std::cout << "online algorithms (--algo):\n"
            << sim::AlgorithmRegistry::instance().describe()
            << "workloads (--workload / gen-trace --kind):\n"
            << sim::WorkloadRegistry::instance().describe()
            << "offline evaluators (opt --evaluator):\n"
            << sim::OfflineEvaluatorRegistry::instance().describe()
            << "paging policies (Appendix C reduction):\n"
            << sim::PagingRegistry::instance().describe();
  return 0;
}

void write_text(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text;
    return;
  }
  std::ofstream out(path);
  TC_CHECK(static_cast<bool>(out), "cannot open " + path);
  out << text;
}

Tree load_tree(const Flags& flags) {
  const std::string path = flags.get("tree", "");
  TC_CHECK(!path.empty(), "--tree is required");
  // The special value "fib" derives the RIB rule tree from the same flags
  // the fib* workloads read, so no intermediate tree file is needed;
  // "fib-real" does the same for the feed-replay tree (--rib-feed,
  // --family) the fib-real workload expects.
  if (path == "fib") {
    return fib::rule_tree_from_params(params_from(flags)).tree;
  }
  if (path == "fib-real") {
    return rib::shared_real_fib(params_from(flags)).tree();
  }
  std::ifstream in(path);
  TC_CHECK(static_cast<bool>(in), "cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return from_parent_string(buffer.str());
}

Trace load_trace_file(const Flags& flags, std::size_t tree_size) {
  const std::string path = flags.get("trace", "");
  TC_CHECK(!path.empty(), "--trace is required");
  std::ifstream in(path);
  TC_CHECK(static_cast<bool>(in), "cannot open " + path);
  return load_trace(in, tree_size);
}

int cmd_gen_tree(const Flags& flags) {
  const std::string shape = flags.get("shape", "random");
  const std::size_t nodes = flags.get_u64("nodes", 1000);
  Rng rng(flags.get_u64("seed", 1));
  Tree tree = [&]() -> Tree {
    if (shape == "path") return trees::path(nodes);
    if (shape == "star") return trees::star(nodes - 1);
    if (shape == "kary") {
      return trees::complete_kary(flags.get_u64("levels", 4),
                                  flags.get_u64("arity", 2));
    }
    if (shape == "caterpillar") {
      return trees::caterpillar(flags.get_u64("levels", 8),
                                flags.get_u64("arity", 3));
    }
    if (shape == "spider") {
      return trees::spider(flags.get_u64("arity", 8),
                           flags.get_u64("levels", 16));
    }
    if (shape == "random") return trees::random_recursive(nodes, rng);
    if (shape == "randomdeg") {
      return trees::random_bounded_degree(nodes, flags.get_u64("arity", 3),
                                          rng);
    }
    throw CheckFailure("unknown --shape " + shape);
  }();
  write_text(flags.get("out", "-"), to_parent_string(tree) + "\n");
  std::cerr << "tree: " << tree.size() << " nodes, height " << tree.height()
            << ", max degree " << tree.max_degree() << "\n";
  return 0;
}

int cmd_gen_rib(const Flags& flags) {
  Rng rng(flags.get_u64("seed", 1));
  const fib::RibConfig config{
      .rules = flags.get_u64("rules", 10000),
      .deaggregation = flags.get_double("deagg", 0.45),
      .max_length = static_cast<std::uint8_t>(flags.get_u64("max-len", 24))};
  const auto rib = fib::generate_rib(config, rng);
  const fib::RuleTree rt = fib::build_rule_tree(rib);
  write_text(flags.get("out", "-"), to_parent_string(rt.tree) + "\n");
  if (flags.has("prefixes")) {
    std::string text;
    for (NodeId v = 0; v < rt.tree.size(); ++v) {
      text += rt.prefix[v].to_string() + "\n";
    }
    write_text(flags.get("prefixes", "-"), text);
  }
  std::cerr << "rule tree: " << rt.tree.size() << " nodes, height "
            << rt.tree.height() << "\n";
  return 0;
}

int cmd_gen_feed(const Flags& flags) {
  rib::SyntheticFeedConfig config;
  config.routes = flags.get_u64("routes", config.routes);
  config.updates = flags.get_u64("updates", config.updates);
  config.family = static_cast<int>(flags.get_u64("family", 4));
  config.withdraw_probability =
      flags.get_double("withdraw-prob", config.withdraw_probability);
  config.fresh_announce_probability =
      flags.get_double("fresh-prob", config.fresh_announce_probability);
  config.max_length4 =
      static_cast<std::uint8_t>(flags.get_u64("max-len", config.max_length4));
  config.max_length6 =
      static_cast<std::uint8_t>(flags.get_u64("max-len6", config.max_length6));
  config.deaggregation = flags.get_double("deagg", config.deaggregation);
  const std::uint64_t seed = flags.get_u64("seed", 1);
  const std::string format = flags.get("format", "text");
  TC_CHECK(format == "text" || format == "mrt",
           "--format must be text or mrt");
  Rng rng(seed);
  const std::vector<rib::FeedRecord> records = rib::generate_feed(config, rng);

  // Streamed straight to the sink — at 1M routes the text form is
  // tens of MB and never needs to live in one string.
  const std::string out_path = flags.get("out", "-");
  std::ofstream file;
  if (out_path != "-") {
    file.open(out_path, std::ios::binary);
    TC_CHECK(static_cast<bool>(file), "cannot open " + out_path);
  }
  std::ostream& os = out_path == "-" ? std::cout : file;
  std::uint64_t updates = 0;
  for (const rib::FeedRecord& record : records) {
    updates += record.op == rib::FeedOp::kDump ? 0u : 1u;
  }
  if (format == "mrt") {
    rib::MrtWriter writer(os);
    for (const rib::FeedRecord& record : records) writer.write(record);
  } else {
    // The header records the generating command, so a checked-in
    // fixture documents how to regenerate itself.
    os << "# treecache gen-feed --routes " << config.routes << " --updates "
       << config.updates << " --family " << config.family << " --seed "
       << seed << "\n";
    for (const rib::FeedRecord& record : records) {
      os << rib::format_feed_record(record) << "\n";
    }
  }
  os.flush();
  TC_CHECK(os.good(), "writing the feed to " + out_path + " failed");
  std::cerr << "feed: " << records.size() << " records ("
            << records.size() - updates << " dump, " << updates
            << " updates, " << format << ")\n";
  return 0;
}

/// One family's block of the treecache.ingest/1 document. The tree shape
/// is reported over the replay FIB — the rule tree the fib-real workload
/// runs on, over every prefix the feed named — so the numbers describe
/// exactly what a `--workload fib-real` run would execute.
template <typename PrefixT>
util::Json ingest_family_json(const rib::BasicIngest<PrefixT>& family,
                              const rib::BasicChurnReplay<PrefixT>& replay) {
  const rib::IngestStats& stats = family.stats;
  util::Json doc =
      util::Json::object()
          .set("dump_routes", stats.dump_routes)
          .set("announces", stats.announces)
          .set("withdraws", stats.withdraws)
          .set("withdraw_misses", stats.withdraw_misses)
          .set("replaced_routes", stats.replaced_routes)
          .set("routes", std::uint64_t{family.rib.size()})
          .set("churn_rate", stats.dump_routes > 0
                                 ? static_cast<double>(stats.updates()) /
                                       static_cast<double>(stats.dump_routes)
                                 : 0.0);
  if (!family.empty()) {
    const Tree& tree = replay.fib.tree;
    util::Json histogram = util::Json::array();
    for (const std::uint64_t count : rib::depth_histogram(tree)) {
      histogram.push(count);
    }
    doc.set("tree", util::Json::object()
                        .set("nodes", std::uint64_t{tree.size()})
                        .set("height", std::uint64_t{tree.height()})
                        .set("depth_histogram", std::move(histogram)));
  }
  return doc;
}

template <typename PrefixT>
void print_ingest_family(const char* name,
                         const rib::BasicIngest<PrefixT>& family,
                         const rib::BasicChurnReplay<PrefixT>& replay) {
  if (family.empty()) return;
  const rib::IngestStats& stats = family.stats;
  std::cout << name << ":\n"
            << "  dump routes:     " << stats.dump_routes << "\n"
            << "  announces:       " << stats.announces << "\n"
            << "  withdraws:       " << stats.withdraws << " ("
            << stats.withdraw_misses << " missed)\n"
            << "  replaced routes: " << stats.replaced_routes << "\n"
            << "  live routes:     " << family.rib.size() << "\n"
            << "  replay tree:     " << replay.fib.tree.size()
            << " nodes, height " << replay.fib.tree.height() << ", "
            << replay.churn_nodes.size() << " churn events\n";
}

int cmd_ingest(const Flags& flags) {
  // --follow/--poll-ms/--idle-ms tune the reader, not the scenario:
  // drop them so the params match a plain batch ingest.
  static constexpr const char* kIngestFlagKeys[] = {"follow", "poll-ms",
                                                    "idle-ms"};
  const std::vector<std::string> paths =
      rib::feed_paths_from_params(params_from(flags, kIngestFlagKeys));
  Stopwatch clock;
  const rib::IngestResult result = [&] {
    if (!flags.has("follow")) return rib::ingest_feed(paths);
    const rib::FollowOptions follow{
        .poll = std::chrono::milliseconds(flags.get_u64("poll-ms", 20)),
        .idle = std::chrono::milliseconds(flags.get_u64("idle-ms", 1000))};
    return rib::ingest_feed(paths, follow);
  }();
  const double elapsed = clock.seconds();
  TC_CHECK(result.records > 0, "the feed carries no records");
  // Each family's replay FIB is built once, for both outputs.
  clock.restart();
  const rib::ChurnReplay replay4 = rib::make_churn_replay(result.v4);
  const rib::ChurnReplay6 replay6 = rib::make_churn_replay(result.v6);
  const double rebuild = clock.seconds();

  if (flags.has("json")) {
    util::Json feed = util::Json::array();
    for (const std::string& path : paths) feed.push(path);
    util::save_json(
        flags.get("json", "-"),
        util::Json::object()
            .set("schema", "treecache.ingest/1")
            .set("feed", std::move(feed))
            .set("records", result.records)
            .set("bytes", result.bytes)
            .set("elapsed_seconds", elapsed)
            .set("routes_per_second",
                 elapsed > 0.0 ? static_cast<double>(result.records) / elapsed
                               : 0.0)
            // Kept apart from `families`, which holds only what the feed's
            // content determines.
            .set("timing", util::Json::object()
                               .set("ingest_s", elapsed)
                               .set("rebuild_s", rebuild))
            .set("families",
                 util::Json::object()
                     .set("ipv4", ingest_family_json(result.v4, replay4))
                     .set("ipv6", ingest_family_json(result.v6, replay6))));
  }
  if (stdout_is_human(flags)) {
    std::cout << "feed: " << result.records << " records ("
              << result.bytes << " bytes) from " << paths.size() << " file"
              << (paths.size() == 1 ? "" : "s") << " in " << elapsed
              << " s\n";
    print_ingest_family("IPv4", result.v4, replay4);
    print_ingest_family("IPv6", result.v6, replay6);
  }
  return 0;
}

int cmd_gen_trace(const Flags& flags) {
  const Tree tree = load_tree(flags);
  const auto source = sim::make_source(flags.get("kind", "zipf"), tree,
                                       params_from(flags),
                                       flags.get_u64("seed", 1));
  // Stream straight to the output; the trace never lives in memory.
  const std::string out_path = flags.get("out", "-");
  std::ofstream file;
  if (out_path != "-") {
    file.open(out_path);
    TC_CHECK(static_cast<bool>(file), "cannot open " + out_path);
  }
  std::ostream& os = out_path == "-" ? std::cout : file;
  std::array<Request, 4096> buffer;
  std::uint64_t total = 0;
  std::uint64_t positives = 0;
  for (;;) {
    const std::size_t n = source->fill(buffer);
    if (n == 0) break;
    save_trace(os, std::span<const Request>(buffer.data(), n));
    total += n;
    for (std::size_t i = 0; i < n; ++i) {
      positives += buffer[i].sign == Sign::kPositive ? 1u : 0u;
    }
  }
  std::cerr << "trace: " << total << " requests (" << positives
            << " positive, " << total - positives << " negative)\n";
  return 0;
}

int cmd_run(const Flags& flags) {
  const Tree tree = load_tree(flags);
  const sim::Params params = params_from(flags);
  // --algo resolves through the registry (--alg kept as an alias).
  const std::string name = flags.get("algo", flags.get("alg", "tc"));
  const auto alg = sim::make_algorithm(name, tree, params);

  // The requests stream from a file (line by line, never slurped) or from
  // the workload registry (--workload <name>, parameterized by the same
  // flags) — either way the run's memory is O(tree), not O(length).
  TC_CHECK(!(flags.has("trace") && flags.has("workload")),
           "--trace and --workload are mutually exclusive");
  const auto source = [&]() -> std::unique_ptr<RequestSource> {
    if (flags.has("workload")) {
      return sim::make_source(flags.get("workload", ""), tree, params,
                              flags.get_u64("seed", 1));
    }
    const std::string path = flags.get("trace", "");
    TC_CHECK(!path.empty(), "--trace is required");
    return std::make_unique<FileTraceSource>(path, tree.size());
  }();

  const auto result =
      sim::run_source(*alg, *source, {}, flags.has("validate"));
  if (flags.has("json")) {
    const sim::Scenario scenario{.algorithm = name,
                                 .workload = flags.get("workload", ""),
                                 .params = params,
                                 .seed = flags.get_u64("seed", 1)};
    util::Json scenario_doc = sim::to_json(scenario);
    if (!flags.has("workload")) {
      scenario_doc.set("trace", flags.get("trace", ""));
    }
    util::save_json(flags.get("json", "-"),
                    util::Json::object()
                        .set("schema", "treecache.run/2")
                        .set("scenario", std::move(scenario_doc))
                        .set("result", sim::to_json(result)));
  }
  if (stdout_is_human(flags)) {
    std::cout << "algorithm:       " << alg->name() << "\n"
              << "rounds:          " << result.rounds << "\n"
              << "service cost:    " << result.cost.service << "\n"
              << "reorg cost:      " << result.cost.reorg << "\n"
              << "total cost:      " << result.cost.total() << "\n"
              << "paid positives:  " << result.paid_positive << "\n"
              << "paid negatives:  " << result.paid_negative << "\n"
              << "fetched nodes:   " << result.fetched_nodes << "\n"
              << "evicted nodes:   " << result.evicted_nodes << "\n"
              << "phase restarts:  " << result.phase_restarts << "\n"
              << "max cache size:  " << result.max_cache_size << "\n"
              << "final cache:     " << result.final_cache_size << "\n";
  }
  return 0;
}

/// `throughput --algos a,b,...`: the comparison mode. Every named
/// algorithm runs through an identically configured engine over the same
/// stream; the speedup column divides by the FIRST name, so
/// `--algos lru,tc` reads directly as TC's speedup over LRU. The single-algo
/// path (`--algo`, schema treecache.throughput/1) is untouched; this mode
/// writes treecache.throughput-compare/1 {schema, scenario, rows: [...]}.
template <typename MakeSource>
int cmd_throughput_compare(const Flags& flags, const Tree& tree,
                           const sim::Params& params,
                           const engine::EngineConfig& config,
                           const std::string& workload,
                           const MakeSource& make_request_source) {
  const auto algos = split_csv(flags.get("algos", ""));
  TC_CHECK(!algos.empty(), "--algos needs at least one algorithm name");

  struct Row {
    std::string algorithm;
    engine::EngineResult result;
  };
  std::vector<Row> rows;
  rows.reserve(algos.size());
  for (const std::string& name : algos) {
    engine::ShardedEngine eng(tree, name, params, config);
    const auto source = make_request_source();
    rows.push_back({name, eng.run(*source)});
  }
  const double base_rps = rows.front().result.total.requests_per_second();
  const auto speedup = [&](const Row& row) {
    const double rps = row.result.total.requests_per_second();
    return base_rps > 0.0 ? rps / base_rps : 0.0;
  };

  if (flags.has("json")) {
    const sim::Scenario scenario{.algorithm = flags.get("algos", ""),
                                 .workload = workload,
                                 .params = params,
                                 .seed = flags.get_u64("seed", 1)};
    util::Json scenario_doc = sim::to_json(scenario);
    if (workload.empty()) scenario_doc.set("trace", flags.get("trace", ""));
    util::Json json_rows = util::Json::array();
    for (const Row& row : rows) {
      json_rows.push(
          util::Json::object()
              .set("algorithm", row.algorithm)
              .set("shards", std::uint64_t{row.result.shards})
              .set("threads", std::uint64_t{row.result.threads})
              .set("requests_per_second",
                   row.result.total.requests_per_second())
              .set("speedup_vs_first", speedup(row))
              .set("result", sim::to_json(row.result.total)));
    }
    util::save_json(flags.get("json", "-"),
                    util::Json::object()
                        .set("schema", "treecache.throughput-compare/1")
                        .set("scenario", std::move(scenario_doc))
                        .set("rows", std::move(json_rows)));
  }
  if (stdout_is_human(flags)) {
    ConsoleTable table({"algorithm", "shards", "threads", "rounds",
                        "total cost", "wall s", "Mreq/s",
                        "vs " + algos.front()});
    for (const Row& row : rows) {
      const sim::RunResult& r = row.result.total;
      table.add_row({row.algorithm,
                     ConsoleTable::fmt(std::uint64_t{row.result.shards}),
                     ConsoleTable::fmt(std::uint64_t{row.result.threads}),
                     ConsoleTable::fmt(r.rounds),
                     ConsoleTable::fmt(r.cost.total()),
                     ConsoleTable::fmt(r.wall_seconds, 3),
                     ConsoleTable::fmt(r.requests_per_second() / 1e6, 2),
                     ConsoleTable::fmt(speedup(row), 2) + "x"});
    }
    table.print();
  }
  return 0;
}

int cmd_throughput(const Flags& flags) {
  const Tree tree = load_tree(flags);
  // The engine knobs parameterize the engine, not the scenario: drop them
  // so two runs that differ only in engine geometry echo identical
  // scenario params (their costs are identical too — that is the contract).
  const sim::Params params = params_from(flags, kEngineFlagKeys);
  const engine::EngineConfig config = engine_config_from(flags);

  TC_CHECK(!(flags.has("trace") && flags.has("workload")),
           "--trace and --workload are mutually exclusive");
  TC_CHECK(!(flags.has("algo") && flags.has("algos")),
           "--algo and --algos are mutually exclusive");
  const std::string workload =
      flags.has("trace") ? "" : flags.get("workload", "zipf");
  // Sources are consumed by a run; comparison mode rebuilds one per
  // algorithm so every contender replays the identical stream.
  const auto make_request_source = [&]() -> std::unique_ptr<RequestSource> {
    if (!workload.empty()) {
      return sim::make_source(workload, tree, params,
                              flags.get_u64("seed", 1));
    }
    return std::make_unique<FileTraceSource>(flags.get("trace", ""),
                                             tree.size());
  };

  if (flags.has("algos")) return cmd_throughput_compare(flags, tree, params,
                                                        config, workload,
                                                        make_request_source);

  const std::string name = flags.get("algo", flags.get("alg", "tc"));
  const auto source = make_request_source();
  engine::ShardedEngine eng(tree, name, params, config);
  const engine::EngineResult result = eng.run(*source);

  if (flags.has("json")) {
    const sim::Scenario scenario{.algorithm = name,
                                 .workload = workload,
                                 .params = params,
                                 .seed = flags.get_u64("seed", 1)};
    const std::string trace_path =
        workload.empty() ? flags.get("trace", "") : "";
    // eng.config(), not the raw flags: the engine normalizes the batch for
    // single-shard runs, and the document must echo what actually ran.
    util::save_json(flags.get("json", "-"),
                    sim::throughput_json(scenario, eng.config(), eng.plan(),
                                         result, trace_path));
  }
  if (stdout_is_human(flags)) {
    ConsoleTable table({"shard", "nodes", "roots", "rounds", "service",
                        "reorg", "total", "max cache"});
    for (std::size_t s = 0; s < result.per_shard.size(); ++s) {
      const sim::RunResult& r = result.per_shard[s];
      const engine::Shard& shard = eng.plan().shard(s);
      table.add_row({std::to_string(s),
                     ConsoleTable::fmt(std::uint64_t{shard.nodes()}),
                     ConsoleTable::fmt(std::uint64_t{shard.roots.size()}),
                     ConsoleTable::fmt(r.rounds),
                     ConsoleTable::fmt(r.cost.service),
                     ConsoleTable::fmt(r.cost.reorg),
                     ConsoleTable::fmt(r.cost.total()),
                     ConsoleTable::fmt(std::uint64_t{r.max_cache_size})});
    }
    table.print();
    std::cout << "shards:          " << result.shards << " (requested "
              << config.shards << ")\n"
              << "threads:         " << result.threads << "\n"
              << "pinned:          " << (result.pinned ? "yes" : "no");
    if (result.pinned) {
      std::cout << " (cpus:";
      for (const int cpu : result.worker_cpus) std::cout << ' ' << cpu;
      std::cout << ')';
    }
    std::cout << "\n"
              << "rounds:          " << result.total.rounds << "\n"
              << "total cost:      " << result.total.cost.total() << "\n"
              << "wall seconds:    " << result.total.wall_seconds << "\n"
              << "requests/sec:    "
              << static_cast<std::uint64_t>(
                     result.total.requests_per_second())
              << "\n";
  }
  return 0;
}

int cmd_opt(const Flags& flags) {
  const Tree tree = load_tree(flags);
  const Trace trace = load_trace_file(flags, tree.size());
  const std::string evaluator = flags.get("evaluator", "opt");
  sim::Params params = params_from(flags);
  if (!flags.has("capacity")) params.set("capacity", "4");
  const std::uint64_t cost =
      sim::evaluate_offline(evaluator, tree, trace, params);
  std::cout << "offline bound (" << evaluator << "): " << cost << "\n";
  return 0;
}

int cmd_sweep(const Flags& flags) {
  const Tree tree = load_tree(flags);
  const auto algorithms = split_csv(flags.get(
      "algos", "tc,naive,local,lru,lruinv,none"));
  const auto workloads = split_csv(flags.get("workloads", "zipf,uniform"));
  sim::Params base = params_from(flags);
  if (!flags.has("length")) base.set("length", "20000");
  const auto cells = sim::run_grid(tree, algorithms, workloads, base,
                                   flags.get_u64("seed", 1));
  ConsoleTable table({"algorithm", "workload", "service", "reorg", "total",
                      "restarts", "max cache"});
  for (const auto& cell : cells) {
    table.add_row({cell.scenario.algorithm, cell.scenario.workload,
                   ConsoleTable::fmt(cell.run.cost.service),
                   ConsoleTable::fmt(cell.run.cost.reorg),
                   ConsoleTable::fmt(cell.run.cost.total()),
                   ConsoleTable::fmt(cell.run.phase_restarts),
                   ConsoleTable::fmt(std::uint64_t{cell.run.max_cache_size})});
  }
  if (stdout_is_human(flags)) table.print();
  if (flags.has("json")) {
    util::save_json(flags.get("json", "-"), sim::grid_json(cells));
  }
  return 0;
}

int cmd_fib(const Flags& flags) {
  // The same engine knob set as `throughput`, parsed by the same helper:
  // the knobs parameterize the engine, not the scenario, so two runs that
  // differ only in geometry echo identical scenario params (and the
  // per-shard results are identical for every --threads value).
  const sim::Params params = params_from(flags, kEngineFlagKeys);
  // --rib-feed swaps the synthetic RIB for the IPv4 table ingested from a
  // real feed; everything downstream (sweep axes, engine geometry) is
  // identical. The closed-loop router models an IPv4 line card, so the
  // IPv6 replay table is not accepted here — use the open-loop fib-real
  // workload (`throughput --workload fib-real --family 6`) for IPv6.
  const fib::RuleTree rules = [&]() -> fib::RuleTree {
    if (params.has("rib-feed")) {
      const rib::RealFibReplay& replay = rib::shared_real_fib(params);
      TC_CHECK(replay.family == 4,
               "treecache fib replays IPv4 tables only (drop --family 6)");
      return replay.v4->fib;
    }
    return fib::rule_tree_from_params(params);
  }();
  const engine::EngineConfig engine = engine_config_from(flags);
  std::cerr << "rule tree: " << rules.tree.size() << " nodes, height "
            << rules.tree.height() << "\n";

  sim::FibSweepAxes axes;
  axes.algorithms =
      split_csv(flags.get("algos", flags.get("algo", "tc,lru,local")));
  axes.skews =
      split_csv_doubles(flags.get("skews", flags.get("skew", "1.0")));
  axes.capacities = split_csv_u64<std::size_t>(
      flags.get("capacities", flags.get("capacity", "64")));
  axes.alphas = split_csv_u64<std::uint64_t>(
      flags.get("alphas", flags.get("alpha", "16")));

  const auto cells = sim::run_fib_sweep(rules, axes, params,
                                        flags.get_u64("seed", 1), engine);
  if (!cells.empty() && cells.front().shards > 1) {
    std::cerr << "engine: " << cells.front().shards << " shards ("
              << engine.shards << " requested), " << cells.front().threads
              << " worker threads per cell\n";
  }
  ConsoleTable table({"algorithm", "skew", "capacity", "alpha", "hit rate",
                      "fwd err", "misses", "updates", "service", "reorg",
                      "total"});
  for (const auto& cell : cells) {
    table.add_row(
        {cell.scenario.algorithm, cell.scenario.params.get("skew", "?"),
         cell.scenario.params.get("capacity", "?"),
         cell.scenario.params.get("alpha", "?"),
         ConsoleTable::fmt(cell.router.hit_rate(), 3),
         ConsoleTable::fmt(cell.router.forwarding_errors),
         ConsoleTable::fmt(cell.router.misses),
         ConsoleTable::fmt(cell.router.updates),
         ConsoleTable::fmt(cell.router.algorithm_cost.service),
         ConsoleTable::fmt(cell.router.algorithm_cost.reorg),
         ConsoleTable::fmt(cell.router.algorithm_cost.total())});
  }
  if (stdout_is_human(flags)) table.print();
  if (flags.has("json")) {
    util::save_json(flags.get("json", "-"), sim::fib_sweep_json(cells));
  }
  return 0;
}

int cmd_fields(const Flags& flags) {
  const Tree tree = load_tree(flags);
  const Trace trace = load_trace_file(flags, tree.size());
  const std::uint64_t alpha = flags.get_u64("alpha", 16);
  const std::size_t capacity = flags.get_u64("capacity", 64);

  TreeCache tc(tree, {.alpha = alpha, .capacity = capacity});
  FieldTracker tracker(tree, alpha);
  for (const Request& r : trace) tracker.observe(r, tc.step(r));
  tracker.finalize();
  tracker.verify_period_accounting();
  tracker.verify_lemma_5_3(alpha);

  std::size_t positive = 0;
  for (const Field& f : tracker.fields()) positive += f.positive() ? 1u : 0u;
  std::cout << "TC cost:   " << tc.cost().total() << "\n"
            << "fields:    " << tracker.fields().size() << " (" << positive
            << " positive)\n"
            << "phases:    " << tracker.phases().size() << "\n"
            << "certified OPT lower bound (k_opt = capacity): "
            << analysis::certified_opt_lower_bound(
                   tracker, tree.height(),
                   {.alpha = alpha, .k_opt = capacity})
            << "\n";
  if (flags.has("render")) {
    std::cout << tracker.render_event_space(flags.get_u64("render", 160));
  }
  return 0;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "list") return cmd_list();
  const Flags flags(argc, argv, 2);
  if (command == "gen-tree") return cmd_gen_tree(flags);
  if (command == "gen-rib") return cmd_gen_rib(flags);
  if (command == "gen-feed") return cmd_gen_feed(flags);
  if (command == "gen-trace") return cmd_gen_trace(flags);
  if (command == "ingest") return cmd_ingest(flags);
  if (command == "run") return cmd_run(flags);
  if (command == "throughput") return cmd_throughput(flags);
  if (command == "sweep") return cmd_sweep(flags);
  if (command == "fib") return cmd_fib(flags);
  if (command == "opt") return cmd_opt(flags);
  if (command == "fields") return cmd_fields(flags);
  return usage();
}

}  // namespace
}  // namespace treecache::tools

int main(int argc, char** argv) {
  try {
    return treecache::tools::dispatch(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
