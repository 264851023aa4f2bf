// Ablation: sensitivity to the SNUG epoch lengths (paper Section 3.4
// reports 5M/100M as the empirically good point at full scale).  Sweeps
// the identification-epoch length at a fixed identify:group ratio on the
// 4xammp stress test.
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

  std::printf("Ablation: SNUG epoch lengths (4xammp, identify:group = "
              "1:4)\n\n");
  const trace::WorkloadCombo combo{"4xammp", 1,
                                   {"ammp", "ammp", "ammp", "ammp"}};
  TextTable t({"identify cycles", "group cycles", "SNUG thr vs L2P"});
  for (const Cycle identify :
       {Cycle{500'000}, Cycle{1'000'000}, Cycle{1'500'000},
        Cycle{3'000'000}}) {
    sim::SystemConfig cfg = sim::paper_system_config();
    cfg.scheme_ctx.snug.epochs.identify_cycles = identify;
    cfg.scheme_ctx.snug.epochs.group_cycles = identify * 4;
    sim::RunScale scale = sim::default_run_scale();
    // Warm past the second harvest for every epoch setting.
    scale.warmup_cycles = 2 * identify + identify * 4 + 1'000'000;
    scale.measure_cycles = identify * 5;
    sim::ExperimentRunner runner(cfg, scale, sim::default_cache_dir());
    const auto base = runner.run(combo, {schemes::SchemeKind::kL2P, 0});
    const auto snug_result =
        runner.run(combo, {schemes::SchemeKind::kSNUG, 0});
    const double v = sim::metric_value(sim::Metric::kThroughputNorm,
                                       snug_result.ipc, base.ipc);
    t.add_row({strf("%llu", (unsigned long long)identify),
               strf("%llu", (unsigned long long)(identify * 4)),
               pct(v - 1.0)});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("\nShort identification epochs misclassify sets (too few "
              "per-set events); very long ones delay regrouping.\n");
  return 0;
}
