// fig9_cold — the Table-8 Figure 9 grid (21 combos x 9 schemes = 189
// cells) on a fresh cache directory, through CampaignEngine with two
// jobs, a journal and timing warm-up (the paper-figure default), at the
// 200k/300k-cycle smoke scale the golden fig9 test pins.
//
// Why: the same simulator layers as run16_snug, used differently —
// many short 4-core machines across all nine schemes, where machine
// build, the runner, the EvalCache store, the journal append and the
// executor carry a large share.  The seed permutes the cell order
// (combo order and scheme order); it never changes the set of cells.
//
// Set-up builds the permuted spec and simulates a seeded sample of
// cells (one per scheme) on a cache-less runner: the reference the
// campaign's results must match bit for bit.  Each timed pass is one
// cold campaign in its own directory, and their digests must equal the
// golden fig9 test's; after the passes, a second campaign over the last
// directory must serve all 189 cells from cache.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "common/bitutil.hpp"
#include "common/rng.hpp"
#include "common/str.hpp"
#include "sim/campaign.hpp"
#include "sim/figures.hpp"

namespace perfbench {

using namespace snug;
namespace fs = std::filesystem;

namespace {

constexpr unsigned kJobs = 2;
constexpr int kSetupRepeats = 16;

/// Nominal host seconds of one cold campaign.  A run makes a fixed number
/// of campaigns, --seconds over this, whatever the speed of the code
/// under test, so its best-of statistics draw the same number of samples
/// in every build.
constexpr double kCampaignSeconds = 3.75;

/// sim_golden_fig9_test's pinned digests of this grid at this scale.
constexpr std::uint64_t kGoldenCellHash = 0x549A6716FD6A4694ULL;
constexpr std::uint64_t kGoldenFig9CsvHash = 0xBF77580B0BEAC553ULL;

/// The second-fastest of a fixed number of samples: as steady as the
/// fastest, but not moved by a single lucky one.
double second_fastest(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.size() > 1 ? v[1] : v.front();
}

struct SampleCell {
  trace::WorkloadCombo combo;
  schemes::SchemeSpec scheme;
  std::vector<double> ipc;
};

struct Digests {
  std::uint64_t cells = 0;
  std::uint64_t fig9_csv = 0;
};

Digests digests_of(const sim::CampaignResults& results) {
  // Computed exactly as sim_golden_fig9_test does.
  const sim::FigureSeries fig =
      sim::assemble_figure(results, sim::Metric::kThroughputNorm);
  return {fnv1a64(sim::render_cell_csv(results)),
          fnv1a64(sim::figure_table(fig).render_csv())};
}

struct Pass {
  double wall_s = 0.0;
  std::map<std::string, double> cell_ms;  ///< "combo/scheme" -> wall ms
  std::size_t cached = 0;
  sim::CampaignResults results;
  std::uint64_t append_failures = 0;
};

/// One campaign over `dir`.  Cell wall time runs from the runner's
/// start-of-simulation hook to the engine's completion hook (after the
/// cache store and the journal append), both on the worker thread.
Pass run_pass(const sim::CampaignSpec& spec, const std::string& dir,
              bool journal) {
  Pass p;
  sim::ExperimentRunner runner(spec.scenario,
                               (fs::path(dir) / "cache").string(),
                               /*warm_bank_dir=*/"");
  std::mutex mu;
  std::map<std::string, Clock::time_point> started;
  runner.on_progress = [&](const std::string& combo,
                           const std::string& scheme, bool cached) {
    if (cached) return;
    const std::lock_guard<std::mutex> lock(mu);
    started[combo + "/" + scheme] = Clock::now();
  };
  sim::CampaignEngine engine(runner, kJobs);
  if (journal) {
    engine.journal_path = (fs::path(dir) / "campaign.journal").string();
  }
  engine.on_progress = [&](const sim::CampaignProgress& prog) {
    if (prog.cached || prog.replayed) {
      ++p.cached;
      return;
    }
    const std::lock_guard<std::mutex> lock(mu);
    const std::string key = prog.combo + "/" + prog.scheme;
    const auto it = started.find(key);
    if (it == started.end()) return;
    p.cell_ms[key] = seconds_since(it->second) * 1e3;
  };
  const Tracer::Scope span(tracer(), "fig9.campaign");
  const auto t0 = Clock::now();
  p.results = engine.run(spec);
  p.wall_s = seconds_since(t0);
  p.append_failures = engine.stats().journal_append_failures;
  return p;
}

std::vector<double> ipc_at(const sim::CampaignResults& results,
                           const SampleCell& c) {
  const auto it = results.find(c.combo.name);
  if (it == results.end()) return {};
  const auto jt = it->second.find(c.scheme.id());
  return jt == it->second.end() ? std::vector<double>{} : jt->second.ipc;
}

}  // namespace

Result fig9_cold(const Options& opt) {
  Result r;
  const std::string base = (fs::path(opt.work_dir) /
                            strf("fig9-%d", static_cast<int>(::getpid())))
                               .string();
  fs::remove_all(base);

  // Set-up, repeated through the run: permuted spec + reference sample.
  sim::CampaignSpec spec;
  std::vector<SampleCell> sample;
  SetupRepeats setups(opt.tiny ? 2 : kSetupRepeats, [&](int k) {
    const auto t0 = Clock::now();
    Rng rng(Rng::derive_seed("perfbench-fig9", opt.seed));
    std::vector<trace::WorkloadCombo> combos = trace::all_combos();
    std::vector<schemes::SchemeSpec> grid = schemes::paper_scheme_grid();
    rng.shuffle(combos);
    rng.shuffle(grid);
    sim::CampaignSpec s = sim::CampaignSpec::grid(combos, grid);
    s.scenario.scale.warmup_cycles = opt.tiny ? 20'000 : 200'000;
    s.scenario.scale.measure_cycles = opt.tiny ? 30'000 : 300'000;
    s.scenario.scale.warmup_mode = sim::WarmupMode::kTiming;
    sim::ExperimentRunner isolated(s.scenario, /*cache_dir=*/"",
                                   /*warm_bank_dir=*/"");
    std::vector<SampleCell> cells;
    for (const schemes::SchemeSpec& scheme : grid) {
      SampleCell c{combos[rng.below(combos.size())], scheme, {}};
      c.ipc = isolated.run(c.combo, c.scheme).ipc;
      cells.push_back(std::move(c));
    }
    const double took = seconds_since(t0);
    if (k == 0) {
      spec = std::move(s);
      sample = std::move(cells);
    } else {
      bool same = cells.size() == sample.size();
      for (std::size_t i = 0; same && i < cells.size(); ++i) {
        same = cells[i].ipc == sample[i].ipc;
      }
      r.check(same, "set-up reference sample differs between repeats");
    }
    return took;
  });
  setups.at(0.0);
  const std::size_t n_cells = spec.size();

  // Timed passes, a fixed number of them; with --trace 1 every other
  // pass runs traced.
  const std::size_t n_passes = std::max<std::size_t>(
      opt.trace ? 4 : 2,
      static_cast<std::size_t>(std::lround(opt.seconds / kCampaignSeconds)));
  std::vector<Pass> passes;
  std::vector<double> plain_wall_s;
  std::vector<double> traced_wall_s;
  Digests first{};
  HostProbe probe;  // reported per layer; work_per_s is not adjusted
  for (std::size_t i = 0; i < n_passes; ++i) {
    probe.maybe_sample(0.0);
    const bool traced_pass = opt.trace && i % 2 == 1;
    const std::string dir = base + strf("/pass%zu", i);
    tracer().enabled = traced_pass;
    Pass p = run_pass(spec, dir, /*journal=*/true);
    tracer().enabled = false;
    const Digests d = digests_of(p.results);
    if (passes.empty()) first = d;
    Digests seen = d;
    if (opt.corrupt == "digest" && i == 1) seen.cells ^= 1;
    r.check(seen.cells == first.cells && seen.fig9_csv == first.fig9_csv,
            strf("pass %zu fig9 digest %016llx differs from pass 0's %016llx",
                 i, static_cast<unsigned long long>(seen.cells),
                 static_cast<unsigned long long>(first.cells)));
    r.check(p.cached == 0 && p.cell_ms.size() == n_cells &&
                p.append_failures == 0,
            strf("pass %zu was not a clean cold campaign (%zu cached, %zu "
                 "timed cells, %llu journal failures)",
                 i, p.cached, p.cell_ms.size(),
                 static_cast<unsigned long long>(p.append_failures)));
    for (const SampleCell& c : sample) {
      r.check(ipc_at(p.results, c) == c.ipc,
              "campaign cell " + c.combo.name + "/" + c.scheme.id() +
                  " differs from the cache-less re-simulation");
    }
    (traced_pass ? traced_wall_s : plain_wall_s).push_back(p.wall_s);
    if (i > 0) fs::remove_all(base + strf("/pass%zu", i - 1));
    passes.push_back(std::move(p));
    setups.at(static_cast<double>(i + 1) / static_cast<double>(n_passes));
  }
  // The simulated results themselves: at the golden test's scale the
  // digests must equal its pinned constants, whatever the cell order.
  if (!opt.tiny) {
    r.check(first.cells == kGoldenCellHash,
            strf("cell digest %016llx differs from the golden %016llx",
                 static_cast<unsigned long long>(first.cells),
                 static_cast<unsigned long long>(kGoldenCellHash)));
    r.check(first.fig9_csv == kGoldenFig9CsvHash,
            strf("fig9 csv digest %016llx differs from the golden %016llx",
                 static_cast<unsigned long long>(first.fig9_csv),
                 static_cast<unsigned long long>(kGoldenFig9CsvHash)));
  }

  // Warm check: a second campaign over the last pass's directory.
  const std::string last_dir = base + strf("/pass%zu", passes.size() - 1);
  const Pass warm = run_pass(spec, last_dir, /*journal=*/false);
  r.check(warm.cached == n_cells,
          strf("second pass served %zu of %zu cells from cache", warm.cached,
               n_cells));
  r.check(digests_of(warm.results).cells == first.cells,
          "cached pass results differ from the cold pass");

  // Each cell is an identical op in every campaign: its fastest time
  // across the run's campaigns is its steady cost (host interference only
  // adds time).  The percentiles run over the 189 cells' best times.
  std::map<std::string, double> best_ms;
  double busy_ms = 0.0;
  double wall_ms = 0.0;
  for (const Pass& p : passes) {
    for (const auto& [key, ms] : p.cell_ms) {
      const auto it = best_ms.find(key);
      if (it == best_ms.end() || ms < it->second) best_ms[key] = ms;
      busy_ms += ms;
    }
    wall_ms += p.wall_s * 1e3;
  }
  std::vector<double> cell_ms;
  for (const auto& [key, ms] : best_ms) cell_ms.push_back(ms);
  r.notes.push_back("fig9_cold: " + setups.summary());
  r.notes.push_back("fig9_cold: " + probe.summary());
  r.notes.push_back(strf(
      "fig9_cold: %zu passes x %zu cells, cell digest %016llx, fig9 csv "
      "digest %016llx",
      passes.size(), n_cells, static_cast<unsigned long long>(first.cells),
      static_cast<unsigned long long>(first.fig9_csv)));

  if (!opt.trace) {
    r.end_to_end = {
        {"setup_s", "s", setups.fastest_s()},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        {"work_per_s", "1/s",
         static_cast<double>(n_cells) / second_fastest(plain_wall_s)},
    };
    fs::remove_all(base);
    return r;
  }

  LayerSheet sheet;
  sheet.set("bench.trace_overhead_share",
            second_fastest(traced_wall_s) / second_fastest(plain_wall_s) -
                1.0);
  sheet.set("bench.spans", static_cast<double>(tracer().size()));
  sheet.set("bench.host_speed", probe.speed());
  sheet.set("work_per_s_raw",
            static_cast<double>(n_cells) / second_fastest(plain_wall_s));
  sheet.set("cell_p50_ms", percentile(cell_ms, 0.50));
  sheet.set("cell_p90_ms", percentile(cell_ms, 0.90));
  sheet.set("fig9.cell_digest", fold48(first.cells));
  sheet.set("fig9.csv_digest", fold48(first.fig9_csv));
  sheet.set("fig9.second_pass_cached", static_cast<double>(warm.cached));
  sheet.set("sim.worker_busy_share", busy_ms / (kJobs * wall_ms));

  // Cell phases, simulated directly on the sample; the residual compares
  // them with the same cells' wall time in the first campaign.
  std::vector<double> build_ms;
  std::vector<double> warmup_ms;
  std::vector<double> measure_ms;
  double sample_wall_ms = 0.0;
  for (const SampleCell& c : sample) {
    const CellPhases ph =
        simulate_cell_phases(spec.scenario, c.scheme, c.combo);
    r.check(ph.ipc == c.ipc, "direct simulation of " + c.combo.name + "/" +
                                 c.scheme.id() + " differs from the runner");
    build_ms.push_back(ph.build_ms);
    warmup_ms.push_back(ph.warmup_ms);
    measure_ms.push_back(ph.measure_ms);
    const auto& walls = passes.front().cell_ms;
    const auto it = walls.find(c.combo.name + "/" + c.scheme.id());
    if (it != walls.end()) sample_wall_ms += it->second;
  }
  sheet.set("sim.cell_build_ms", mean(build_ms));
  sheet.set("sim.cell_warmup_ms", mean(warmup_ms));
  sheet.set("sim.cell_measure_ms", mean(measure_ms));

  // Stores, replayed on this workload's own 189 results.
  std::vector<CellResult> own;
  for (const auto& [combo_name, by_scheme] : passes.front().results) {
    for (const trace::WorkloadCombo& combo : trace::all_combos()) {
      if (combo.name != combo_name) continue;
      for (const auto& [scheme_id, result] : by_scheme) {
        schemes::SchemeSpec scheme;
        if (schemes::parse_scheme_id(scheme_id, scheme)) {
          own.push_back({combo, scheme, result.ipc});
        }
      }
    }
  }
  bool stores_exact = false;
  const StoreLayers st =
      replay_stores(base + "/store-replay", spec.scenario.system_config(),
                    spec.scenario.scale, own, &stores_exact);
  r.check(own.size() == n_cells && stores_exact,
          "store replay did not round-trip every cell");
  sheet.set("sim.evalcache_store_us", st.evalcache_store_us);
  sheet.set("sim.evalcache_load_us", st.evalcache_load_us);
  sheet.set("sim.journal_append_us", st.journal_append_us);
  const double explained =
      mean(build_ms) + mean(warmup_ms) + mean(measure_ms) +
      (st.evalcache_store_us + st.journal_append_us) * 1e-3;
  sheet.set("sim.campaign_residual_share",
            1.0 - explained * static_cast<double>(sample.size()) /
                      sample_wall_ms);

  // One SNUG cell of the sample, replayed layer by layer.
  const SampleCell* snug_cell = &sample.front();
  for (const SampleCell& c : sample) {
    if (c.scheme.id() == "SNUG") snug_cell = &c;
  }
  const sim::ScenarioSpec& sc = spec.scenario;
  const MachineFactory warmed = [&sc, snug_cell] {
    auto m = std::make_unique<sim::CmpSystem>(sc, snug_cell->scheme,
                                              snug_cell->combo);
    m->run(sc.scale.warmup_cycles);
    return m;
  };
  WindowCounts counts;
  const MachineLayers layers =
      replay_machine(warmed, sc.scale.measure_cycles, 1'000'000, &counts);
  sheet.set_machine(layers, counts);
  r.per_layer = sheet.metrics();
  fs::remove_all(base);
  return r;
}

}  // namespace perfbench
