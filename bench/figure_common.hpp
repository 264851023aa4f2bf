// Shared harness for the Figure 9/10/11 benches: runs (or loads from the
// shared disk cache) the full 21-combo x 9-scheme campaign — fanned out
// over --jobs worker threads — and renders one metric as the paper
// renders it: per-class geometric means, C1..C6 plus AVG, normalised to
// L2P.  Parallel runs are bit-identical to --jobs=1; a warm cache skips
// simulation entirely.
//
// The campaign is described by a ScenarioSpec (sim/scenario.hpp): the
// default is the paper's quad-core Table 4 machine, and --list-schemes /
// --list-combos / --dry-run print the expanded grid without simulating.
#pragma once

#include <cstdio>
#include <optional>
#include <span>
#include <string>

#include "common/cli.hpp"
#include "common/fault.hpp"
#include "common/str.hpp"
#include "common/table.hpp"
#include "sim/campaign.hpp"
#include "sim/figures.hpp"

namespace snug::bench {

/// The robustness knobs every campaign bench shares: checkpoint journal,
/// deterministic fault-injection plan and transient-failure retry policy.
struct RobustnessOpts {
  std::string journal;          ///< --journal= checkpoint file ("" = off)
  std::string fault_plan_text;  ///< --fault-plan= source text ("" = off)
  fault::FaultPlan plan;        ///< parsed from fault_plan_text
  std::int64_t retry_attempts = 3;
  std::int64_t backoff_ms = 10;

  /// Installs the parsed plan into `scoped` for that guard's lifetime
  /// (no-op without --fault-plan).  Emplace-in-place because the guard
  /// is pinned (non-movable); hold it across store construction AND the
  /// campaign run — stores resolve their Env when built.
  void install(std::optional<fault::ScopedFaultPlan>& scoped) const {
    if (!plan.empty()) scoped.emplace(plan);
  }
};

/// Registers --journal / --fault-plan / --retry-attempts /
/// --retry-backoff-ms and parses the fault plan.
/// Returns false (after printing a one-line diagnostic) when the plan
/// text does not parse; the caller should exit non-zero.
inline bool parse_robustness_flags(CliArgs& args, RobustnessOpts& r) {
  r.journal = args.get_string(
      "journal", "",
      "campaign checkpoint journal: completed cells are appended as they "
      "finish, and a resumed run replays them instead of re-simulating");
  r.fault_plan_text = args.get_string(
      "fault-plan", "",
      "deterministic fault-injection plan, e.g. \"seed=7; "
      "short-write@write:p=0.2\" (grammar in src/common/fault.hpp)");
  r.retry_attempts = args.get_int(
      "retry-attempts", 3,
      "max attempts per campaign cell on an injected transient failure");
  r.backoff_ms = args.get_int(
      "retry-backoff-ms", 10,
      "first retry backoff in ms, doubling per attempt (no jitter)");
  if (args.help_requested() || r.fault_plan_text.empty()) return true;
  std::string error;
  if (!fault::FaultPlan::parse(r.fault_plan_text, r.plan, error)) {
    std::fprintf(stderr, "bad --fault-plan: %s\n", error.c_str());
    return false;
  }
  return true;
}

/// Forwards the parsed knobs onto a campaign engine.
inline void apply_robustness(const RobustnessOpts& r,
                             sim::CampaignEngine& engine) {
  engine.journal_path = r.journal;
  engine.retry.max_attempts =
      r.retry_attempts > 0 ? static_cast<unsigned>(r.retry_attempts) : 1;
  engine.retry.backoff_ms =
      r.backoff_ms > 0 ? static_cast<std::uint64_t>(r.backoff_ms) : 0;
}

/// One stderr line of recovery/retry counters after a campaign: printed
/// whenever anything noteworthy happened (always under a fault plan or
/// journal, so faulty and resumed runs are auditable even with --quiet
/// off the table).
inline void print_robustness_summary(const sim::CampaignEngine& engine,
                                     const sim::ExperimentRunner& runner,
                                     bool force) {
  const sim::CampaignEngine::Stats& s = engine.stats();
  const sim::EvalCache::Recovery cache = runner.cache_recovery();
  const sim::WarmStateBank::Recovery warm = runner.warm_recovery();
  const fault::FaultStats faults = fault::installed_stats();
  const std::uint64_t noteworthy =
      s.replayed + s.retries +
      s.journal_discarded_bytes + s.journal_append_failures +
      s.journal_stale_reaped + (s.journal_reset_stale ? 1 : 0) +
      cache.quarantined + cache.reaped_temps + cache.quarantine_trimmed +
      warm.quarantined + warm.reaped_temps + warm.quarantine_trimmed +
      faults.total();
  if (!force && noteworthy == 0) return;
  std::fprintf(
      stderr,
      "robustness: %llu replayed, %llu retries; "
      "cache %llu quarantined / %llu temps reaped / %llu quarantine "
      "trimmed, warm bank %llu quarantined / %llu temps reaped; journal "
      "%llu torn byte(s) discarded, %llu append failure(s), %llu stale "
      "reaped%s; %llu fault(s) injected\n",
      static_cast<unsigned long long>(s.replayed),
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(cache.quarantined),
      static_cast<unsigned long long>(cache.reaped_temps),
      static_cast<unsigned long long>(cache.quarantine_trimmed),
      static_cast<unsigned long long>(warm.quarantined),
      static_cast<unsigned long long>(warm.reaped_temps),
      static_cast<unsigned long long>(s.journal_discarded_bytes),
      static_cast<unsigned long long>(s.journal_append_failures),
      static_cast<unsigned long long>(s.journal_stale_reaped),
      s.journal_reset_stale ? " (stale journal moved aside)" : "",
      static_cast<unsigned long long>(faults.total()));
}

/// Registers the --list-schemes / --list-combos / --dry-run flags every
/// campaign bench shares and, when one was passed, prints the requested
/// listing for each spec of the sweep (the figure benches pass exactly
/// one; scaling_study one per topology).  --dry-run also reports the
/// robustness configuration when `robust` is given.  Returns true when
/// the caller should exit (a listing was printed).
inline bool handle_grid_listings(CliArgs& args,
                                 std::span<const sim::CampaignSpec> sweep,
                                 const RobustnessOpts* robust = nullptr) {
  const bool list_schemes =
      args.get_bool("list-schemes", false, "print the scheme grid and exit");
  const bool list_combos = args.get_bool(
      "list-combos", false, "print the expanded workload combos and exit");
  const bool dry_run = args.get_bool(
      "dry-run", false,
      "print the expanded scenario x scheme grid and exit (no simulation)");
  if (args.help_requested()) return false;
  if (list_schemes && !sweep.empty()) {
    // Every spec of a sweep runs the same scheme grid.
    std::fputs(sim::describe_schemes(sweep.front().schemes).c_str(),
               stdout);
  }
  if (list_combos) {
    for (const auto& spec : sweep) {
      if (sweep.size() > 1) {
        std::printf("%s:\n", spec.scenario.name.c_str());
      }
      std::fputs(sim::describe_combos(spec.combos()).c_str(), stdout);
    }
  }
  if (dry_run) {
    for (const auto& spec : sweep) {
      std::fputs(sim::describe_grid(spec).c_str(), stdout);
      // Resolved warm-up plan: under warmup-mode=functional each campaign
      // point either restores its warm prefix from the warm-state bank
      // (hit) or warms functionally once and banks the checkpoint (miss).
      // The probe is header-validated only, so a predicted hit can still
      // fall back to a fresh warm-up if the entry turns out torn.
      const bool functional = spec.scenario.scale.warmup_mode ==
                              sim::WarmupMode::kFunctional;
      std::printf("warm-up mode: %s%s\n",
                  functional ? "functional" : "timing",
                  functional
                      ? strf(" (bank %s)",
                             sim::default_warm_bank_dir().c_str())
                            .c_str()
                      : " (warm-state bank inactive)");
      if (functional) {
        const sim::ExperimentRunner probe(spec.scenario, /*cache_dir=*/"");
        for (const auto& combo : spec.combos()) {
          for (const auto& scheme : spec.schemes) {
            std::printf("  %-24s %-10s warm bank %s\n", combo.name.c_str(),
                        scheme.id().c_str(),
                        probe.warm_state_banked(combo, scheme) ? "hit"
                                                               : "miss");
          }
        }
      }
    }
    if (robust != nullptr) {
      std::printf("journal: %s\n", robust->journal.empty()
                                       ? "disabled (--journal= to "
                                         "checkpoint/resume)"
                                       : robust->journal.c_str());
      if (robust->plan.empty()) {
        std::printf("fault plan: none\n");
      } else {
        std::printf("fault plan: %s\n", robust->plan.summary().c_str());
      }
      std::printf("retry: %lld attempt(s), backoff %lld ms doubling\n",
                  static_cast<long long>(robust->retry_attempts),
                  static_cast<long long>(robust->backoff_ms));
    }
  }
  return list_schemes || list_combos || dry_run;
}

inline int run_figure_bench(int argc, char** argv, sim::Metric metric,
                            const char* figure_name) {
  CliArgs args(argc, argv);
  const bool csv = args.get_bool("csv", false, "emit CSV instead of a table");
  const std::string cache_dir = args.get_string(
      "cache-dir", sim::default_cache_dir(), "simulation result cache");
  const bool quiet = args.get_bool("quiet", false, "suppress progress");
  const std::int64_t jobs = args.get_jobs();
  const std::int64_t warmup = args.get_int(
      "warmup-cycles", 0, "override warm-up cycles (0 = default scale)");
  const std::int64_t measure = args.get_int(
      "measure-cycles", 0, "override measured cycles (0 = default scale)");
  RobustnessOpts robust;
  if (!parse_robustness_flags(args, robust)) return 2;

  sim::CampaignSpec spec = sim::CampaignSpec::paper();
  if (warmup > 0) spec.scenario.scale.warmup_cycles =
      static_cast<Cycle>(warmup);
  if (measure > 0) spec.scenario.scale.measure_cycles =
      static_cast<Cycle>(measure);

  const bool listed = handle_grid_listings(args, {&spec, 1}, &robust);
  if (args.help_requested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  args.check_unknown();
  if (listed) return 0;

  // Install the fault plan (if any) before the runner exists: the eval
  // cache and warm-state bank capture fault::env() at construction.
  std::optional<fault::ScopedFaultPlan> faults;
  robust.install(faults);
  sim::ExperimentRunner runner(spec.scenario, cache_dir);
  sim::CampaignEngine engine(runner, sim::resolve_jobs(jobs));
  apply_robustness(robust, engine);
  ProgressMeter meter(!quiet);
  engine.on_progress = [&meter](const sim::CampaignProgress& p) {
    meter.report(p.done, p.total, p.combo + " / " + p.scheme,
                 p.replayed ? "(journal)"
                            : (p.cached ? "(cached)" : "simulated"));
  };
  if (!quiet) {
    std::fprintf(stderr, "%s campaign: %u worker(s), cache %s\n",
                 figure_name, engine.jobs(),
                 cache_dir.empty() ? "disabled" : cache_dir.c_str());
  }

  const sim::CampaignResults results = engine.run(spec);
  print_robustness_summary(engine, runner,
                           /*force=*/faults.has_value() ||
                               !robust.journal.empty());
  const sim::FigureSeries fig = sim::assemble_figure(results, metric);

  std::printf("%s — %s\n", figure_name, sim::to_string(metric));
  std::printf("(geometric means per workload class, normalised to L2P)\n\n");
  const TextTable table = sim::figure_table(fig);
  std::fputs((csv ? table.render_csv() : table.render()).c_str(), stdout);

  const auto& snug_row = fig.values.at("SNUG");
  const auto& dsr_row = fig.values.at("DSR");
  std::printf("\nSNUG average gain over L2P: %s (paper: +13.9%% thr / "
              "+13.0%% AWS / +10.4%% FS)\n",
              pct(snug_row[6] - 1.0).c_str());
  std::printf("DSR  average gain over L2P: %s (paper: +8.4%% thr / "
              "+9.9%% AWS / +6.3%% FS)\n",
              pct(dsr_row[6] - 1.0).c_str());
  return 0;
}

}  // namespace snug::bench
