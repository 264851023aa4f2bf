// Ablation (beyond the paper's tables): how much of SNUG's benefit comes
// from the index-bit-flipping grouper?  Runs the C1 stress tests — where
// identical demand maps make same-index placement impossible, so flipping
// is SNUG's only outlet — with flipping on and off.
#include <cstdio>

#include "common/cli.hpp"
#include "common/str.hpp"
#include "common/table.hpp"
#include "sim/figures.hpp"
#include "sim/runner.hpp"

using namespace snug;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quiet = args.get_bool("quiet", true, "suppress progress");
  if (args.help_requested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  args.check_unknown();

  std::printf("Ablation: index-bit flipping on/off (class C1 stress "
              "tests)\n\n");
  const sim::RunScale scale = sim::default_run_scale();
  TextTable t({"combo", "SNUG thr vs L2P", "SNUG(no flip) thr vs L2P"});

  for (const auto& combo : trace::combos_in_class(1)) {
    double with_flip = 0.0;
    double without_flip = 0.0;
    std::vector<double> base_ipc;
    for (const bool flip : {true, false}) {
      sim::SystemConfig cfg = sim::paper_system_config();
      cfg.scheme_ctx.snug.flip_enabled = flip;
      sim::ExperimentRunner runner(cfg, scale, sim::default_cache_dir());
      if (!quiet) {
        runner.on_progress = [](const std::string& c, const std::string& s,
                                bool cached) {
          std::fprintf(stderr, "  [%s] %s %s\n", c.c_str(), s.c_str(),
                       cached ? "(cached)" : "...");
        };
      }
      const auto base =
          runner.run(combo, {schemes::SchemeKind::kL2P, 0});
      const auto snug_result =
          runner.run(combo, {schemes::SchemeKind::kSNUG, 0});
      const double v = sim::metric_value(sim::Metric::kThroughputNorm,
                                         snug_result.ipc, base.ipc);
      if (flip) {
        with_flip = v;
      } else {
        without_flip = v;
      }
      base_ipc = base.ipc;
    }
    t.add_row({combo.name, pct(with_flip - 1.0), pct(without_flip - 1.0)});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf(
      "\nWith identical co-scheduled applications the same-index set is "
      "always in the same G/T state as the spilling set, so disabling "
      "flipping should erase nearly the whole C1 gain (paper Section 5).\n");
  return 0;
}
