// Core-count scaling study — the repo's first beyond-the-paper result.
//
// The paper evaluates SNUG only on the quad-core Table 4 machine; this
// bench sweeps the same cooperative schemes across 2-, 4-, 8- and
// 16-core topologies built from one scenario template (per-core slices
// and the shared-L2 aggregate scale with the core count) and reports
// throughput, average weighted speedup and fair speedup per topology,
// each normalised to that topology's private-L2 baseline.  Workloads
// are generated class-pattern mixes (default 1A+1C: half set-level
// non-uniform big apps, half uniform big apps) expanded to each core
// count, so every topology runs the same *kind* of pressure.
//
//   $ ./scaling_study --jobs=8
//   $ ./scaling_study --cores=2,4,8 --mix=1A+1D --variants=3 --csv
//   $ ./scaling_study --dry-run          # print the grid, no simulation
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/str.hpp"
#include "common/table.hpp"
#include "figure_common.hpp"
#include "sim/campaign.hpp"
#include "sim/figures.hpp"
#include "stats/metrics.hpp"

using namespace snug;

namespace {

struct SchemeRow {
  std::string id;
  double throughput = 0.0;  ///< geomean over combos, normalised to L2P
  double aws = 0.0;
  double fair = 0.0;
};

/// One topology's aggregated results: geomean over the scenario's combos
/// of each metric vs the per-combo L2P baseline.
std::vector<SchemeRow> aggregate_scenario(
    const sim::CampaignSpec& spec, const sim::CampaignResults& results) {
  std::vector<SchemeRow> rows;
  for (const auto& scheme : spec.schemes) {
    const std::string id = scheme.id();
    std::vector<double> thr;
    std::vector<double> aws;
    std::vector<double> fair;
    for (const auto& [combo, combo_results] : results) {
      const auto& base = combo_results.at("L2P").ipc;
      const auto& ipc = combo_results.at(id).ipc;
      thr.push_back(
          sim::metric_value(sim::Metric::kThroughputNorm, ipc, base));
      aws.push_back(sim::metric_value(sim::Metric::kAws, ipc, base));
      fair.push_back(
          sim::metric_value(sim::Metric::kFairSpeedup, ipc, base));
    }
    rows.push_back({id, stats::geometric_mean(thr),
                    stats::geometric_mean(aws),
                    stats::geometric_mean(fair)});
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::string cores_list = args.get_string(
      "cores", "2,4,8,16", "comma-separated core counts to sweep");
  const std::string mix = args.get_string(
      "mix", "1A+1C",
      "class-pattern workload expanded to each core count (Table 6 "
      "classes A-D)");
  const std::int64_t variants =
      args.get_int("variants", 2, "generated mix instances per topology");
  const std::string scheme_list = args.get_string(
      "schemes", "L2P,L2S,CC(100%),DSR,SNUG",
      "comma-separated scheme ids (L2P is forced in as the baseline)");
  const std::string extra = args.get_string(
      "scenario", "",
      "extra scenario directives applied to every topology, e.g. "
      "\"l2-kb=512 dram-latency=400\"");
  const bool csv = args.get_bool("csv", false, "emit CSV instead of tables");
  const std::string cache_dir = args.get_string(
      "cache-dir", sim::default_cache_dir(), "simulation result cache");
  const bool quiet = args.get_bool("quiet", false, "suppress progress");
  const std::int64_t jobs = args.get_jobs();
  const std::int64_t warmup = args.get_int(
      "warmup-cycles", 0, "override warm-up cycles (0 = default scale)");
  const std::int64_t measure = args.get_int(
      "measure-cycles", 0, "override measured cycles (0 = default scale)");
  bench::RobustnessOpts robust;
  if (!bench::parse_robustness_flags(args, robust)) return 2;

  // ---- expand the scenario x scheme grid -------------------------------
  std::vector<schemes::SchemeSpec> grid{{schemes::SchemeKind::kL2P, 0.0}};
  for (const auto& id : split(scheme_list, ',')) {
    schemes::SchemeSpec parsed;
    if (!schemes::parse_scheme_id(id, parsed)) {
      std::fprintf(stderr, "unknown scheme id '%s'\n", id.c_str());
      return 1;
    }
    if (parsed.kind != schemes::SchemeKind::kL2P) grid.push_back(parsed);
  }

  std::vector<sim::CampaignSpec> sweep;
  for (const auto& cores : split(cores_list, ',')) {
    sim::ScenarioSpec scenario;
    std::string error;
    const std::string directives =
        strf("name=%sc cores=%s workload=%s variants=%lld %s",
             cores.c_str(), cores.c_str(), mix.c_str(),
             static_cast<long long>(variants), extra.c_str());
    if (!sim::parse_scenario(directives, scenario, error)) {
      std::fprintf(stderr, "bad topology cores=%s: %s\n", cores.c_str(),
                   error.c_str());
      return 1;
    }
    if (warmup > 0) scenario.scale.warmup_cycles =
        static_cast<Cycle>(warmup);
    if (measure > 0) scenario.scale.measure_cycles =
        static_cast<Cycle>(measure);
    sweep.push_back({std::move(scenario), grid});
  }

  // ---- listing / dry-run flags ----------------------------------------
  const bool listed = bench::handle_grid_listings(args, sweep, &robust);
  if (args.help_requested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  args.check_unknown();
  if (listed) return 0;

  // ---- run every topology ---------------------------------------------
  std::size_t total_tasks = 0;
  for (const auto& spec : sweep) total_tasks += spec.size();
  if (!quiet) {
    std::fprintf(stderr,
                 "scaling study: %zu topologies, %zu tasks, %u worker(s), "
                 "cache %s\n",
                 sweep.size(), total_tasks, sim::resolve_jobs(jobs),
                 cache_dir.empty() ? "disabled" : cache_dir.c_str());
  }

  // The fault plan (if any) must be live before each runner is built:
  // the stores capture fault::env() at construction.
  std::optional<fault::ScopedFaultPlan> faults;
  robust.install(faults);

  ProgressMeter meter(!quiet);
  std::size_t finished_before = 0;
  std::vector<std::vector<SchemeRow>> per_topology;
  for (const auto& spec : sweep) {
    sim::ExperimentRunner runner(spec.scenario, cache_dir);
    sim::CampaignEngine engine(runner, sim::resolve_jobs(jobs));
    bench::apply_robustness(robust, engine);
    // Each topology is its own campaign (distinct fingerprint), so each
    // journals to its own file; sharing one path would make topology N
    // move topology N-1's checkpoints aside as stale.
    if (!robust.journal.empty()) {
      engine.journal_path = robust.journal + "." + spec.scenario.name;
    }
    engine.on_progress = [&](const sim::CampaignProgress& p) {
      meter.report(finished_before + p.done, total_tasks,
                   spec.scenario.name + ": " + p.combo + " / " + p.scheme,
                   p.replayed ? "(journal)"
                              : (p.cached ? "(cached)" : "simulated"));
    };
    const sim::CampaignResults results = engine.run(spec);
    bench::print_robustness_summary(
        engine, runner,
        /*force=*/faults.has_value() || !robust.journal.empty());
    finished_before += spec.size();
    per_topology.push_back(aggregate_scenario(spec, results));
  }

  // ---- per-topology tables --------------------------------------------
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    std::printf("%s\n", sweep[i].scenario.summary().c_str());
    TextTable table({"scheme", "throughput", "avg weighted speedup",
                     "fair speedup"});
    for (const auto& row : per_topology[i]) {
      table.add_row({row.id, strf("%.4f", row.throughput),
                     strf("%.4f", row.aws), strf("%.4f", row.fair)});
    }
    std::fputs((csv ? table.render_csv() : table.render()).c_str(), stdout);
    std::printf("\n");
  }

  // ---- cross-topology summary: throughput vs core count ---------------
  std::printf("throughput (normalised to each topology's L2P) vs cores\n");
  std::vector<std::string> header{"scheme"};
  for (const auto& spec : sweep) header.push_back(spec.scenario.name);
  TextTable summary(header);
  for (std::size_t s = 0; s < grid.size(); ++s) {
    std::vector<std::string> row{grid[s].id()};
    for (const auto& rows : per_topology) {
      row.push_back(strf("%.4f", rows[s].throughput));
    }
    summary.add_row(std::move(row));
  }
  std::fputs((csv ? summary.render_csv() : summary.render()).c_str(),
             stdout);
  return 0;
}
