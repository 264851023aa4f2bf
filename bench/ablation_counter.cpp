// Ablation: the taker threshold 1/p and the counter reset point.
// p controls how much hit-rate gain a set must promise before it may
// spill (paper Section 3.1.2 uses p = 8); the reset point decides whether
// unclassified sets default to giver (paper) or taker (this build's
// robust default — see README.md, "Modelling substitutions").
#include <cstdio>

#include "common/cli.hpp"
#include "common/str.hpp"
#include "common/table.hpp"
#include "sim/figures.hpp"
#include "sim/runner.hpp"

using namespace snug;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  if (args.help_requested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  args.check_unknown();

  std::printf("Ablation: saturating-counter parameters (4xammp)\n\n");
  const trace::WorkloadCombo combo{"4xammp", 1,
                                   {"ammp", "ammp", "ammp", "ammp"}};
  const sim::RunScale scale = sim::default_run_scale();

  TextTable t({"p (threshold 1/p)", "reset point", "SNUG thr vs L2P"});
  for (const std::uint32_t p : {4U, 8U, 16U}) {
    for (const bool biased : {true, false}) {
      sim::SystemConfig cfg = sim::paper_system_config();
      cfg.scheme_ctx.snug.monitor.p = p;
      cfg.scheme_ctx.snug.monitor.taker_biased = biased;
      sim::ExperimentRunner runner(cfg, scale, sim::default_cache_dir());
      const auto base = runner.run(combo, {schemes::SchemeKind::kL2P, 0});
      const auto snug_result =
          runner.run(combo, {schemes::SchemeKind::kSNUG, 0});
      const double v = sim::metric_value(sim::Metric::kThroughputNorm,
                                         snug_result.ipc, base.ipc);
      t.add_row({strf("%u", p),
                 biased ? "2^(k-1), taker default"
                        : "2^(k-1)-1, paper",
                 pct(v - 1.0)});
    }
  }
  std::fputs(t.render().c_str(), stdout);
  return 0;
}
