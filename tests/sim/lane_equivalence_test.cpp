// Engine-equivalence pins: CmpSystem::run has one engine — cores free-run
// through cpu::Core::step to the end of the window, parking at L1 misses
// so shared state is touched in global (cycle, core) order.  A window of
// one cycle can free-run nowhere, so N calls of run(1) are the per-cycle
// reference; run(N) must land in exactly the same machine state, for
// every scheme of the paper grid, at every sweep shape (2/4/8/16 cores
// take the unrolled sweep, 32 the runtime-count one).  The guarantee is
// structural, so these tests compare with ==, no epsilon.
#include <gtest/gtest.h>

#include <vector>

#include "common/str.hpp"
#include "schemes/factory.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"
#include "stats/counters.hpp"

namespace snug::sim {
namespace {

ScenarioSpec tiny_scenario(std::uint32_t cores) {
  ScenarioSpec spec;
  std::string error;
  const std::string text = strf(
      "name=eq%uc cores=%u workload=1A+1C l2-kb=64 "
      "warmup-cycles=12000 measure-cycles=18000 phase-refs=5000",
      cores, cores);
  EXPECT_TRUE(parse_scenario(text, spec, error)) << error;
  return spec;
}

/// The scenario's machine with SNUG/DSR epochs short enough that both
/// windows cross several epoch boundaries (the sweep's tick clamp).
CmpSystem build(const ScenarioSpec& scn, const schemes::SchemeSpec& scheme) {
  SystemConfig cfg = scn.system_config();
  cfg.scheme_ctx.snug.epochs = core::EpochConfig{4'000, 9'000};
  cfg.scheme_ctx.dsr.epochs = cfg.scheme_ctx.snug.epochs;
  return CmpSystem(cfg, scheme, scn.combos().front(), scn.scale);
}

struct Outcome {
  Cycle now = 0;
  std::vector<double> ipc;
  std::string counters;
};

/// Warm-up window, measurement reset, measurement window — each window
/// either in one run() call or one cycle per call.
Outcome simulate(const ScenarioSpec& scn, const schemes::SchemeSpec& scheme,
                 bool cycle_per_call) {
  CmpSystem sys = build(scn, scheme);
  const auto advance = [&](Cycle cycles) {
    if (cycle_per_call) {
      for (Cycle c = 0; c < cycles; ++c) sys.run(1);
    } else {
      sys.run(cycles);
    }
  };
  advance(scn.scale.warmup_cycles);
  sys.begin_measurement();
  advance(scn.scale.measure_cycles);
  return {sys.now(), sys.measured_ipc(),
          stats::render_counter_report(sys.counter_report())};
}

TEST(EngineEquivalence, WholeWindowMatchesCyclePerCallEverySchemeAndTopology) {
  for (const std::uint32_t cores : {2U, 4U, 8U, 16U, 32U}) {
    const ScenarioSpec scn = tiny_scenario(cores);
    for (const auto& scheme : schemes::paper_scheme_grid()) {
      SCOPED_TRACE(strf("%uc / %s", cores, scheme.id().c_str()));
      const Outcome window = simulate(scn, scheme, false);
      const Outcome per_cycle = simulate(scn, scheme, true);
      EXPECT_EQ(window.now, per_cycle.now);
      ASSERT_EQ(window.ipc.size(), cores);
      ASSERT_EQ(per_cycle.ipc.size(), cores);
      for (std::size_t i = 0; i < cores; ++i) {
        EXPECT_EQ(window.ipc[i], per_cycle.ipc[i]) << "core " << i;
      }
      EXPECT_EQ(window.counters, per_cycle.counters);
    }
  }
}

// Window splits that line up with nothing (10k windows against 4k/9k
// epochs) land in the same state as one long run: no park survives a
// run window, and run() is resumable across arbitrary splits.
TEST(EngineEquivalence, OddWindowSplitsAreResumable) {
  const ScenarioSpec scn = tiny_scenario(4);
  const schemes::SchemeSpec snug{schemes::SchemeKind::kSNUG, 0.0};

  CmpSystem reference = build(scn, snug);
  reference.run(130'000);

  CmpSystem split = build(scn, snug);
  for (int i = 0; i < 13; ++i) split.run(10'000);

  ASSERT_EQ(split.now(), reference.now());
  const std::vector<double> a = split.measured_ipc();
  const std::vector<double> b = reference.measured_ipc();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  EXPECT_EQ(stats::render_counter_report(split.counter_report()),
            stats::render_counter_report(reference.counter_report()));
}

}  // namespace
}  // namespace snug::sim
