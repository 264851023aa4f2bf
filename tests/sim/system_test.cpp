#include "sim/system.hpp"

#include <gtest/gtest.h>

#include <string>

#include "schemes/snug_scheme.hpp"
#include "sim/scenario.hpp"

namespace snug::sim {
namespace {

RunScale tiny_scale() {
  RunScale scale;
  // The instruction cache alone needs ~85 K cycles to warm (256 code
  // blocks x ~330-cycle cold fills), so even "tiny" runs warm that long.
  scale.warmup_cycles = 200'000;
  scale.measure_cycles = 150'000;
  scale.phase_period_refs = 50'000;
  return scale;
}

trace::WorkloadCombo mixed_combo() {
  return {"test-mix", 3, {"ammp", "parser", "gzip", "mesa"}};
}

TEST(System, RunsAndProducesPositiveIpc) {
  const SystemConfig cfg = paper_system_config();
  CmpSystem sys(cfg, {schemes::SchemeKind::kL2P, 0}, mixed_combo(),
                tiny_scale());
  sys.run(200'000);
  sys.begin_measurement();
  sys.run(150'000);
  const auto ipc = sys.measured_ipc();
  ASSERT_EQ(ipc.size(), 4U);
  for (const double v : ipc) {
    EXPECT_GT(v, 0.05);
    EXPECT_LE(v, 8.0);
  }
}

TEST(System, DeterministicAcrossInstances) {
  const SystemConfig cfg = paper_system_config();
  const auto run_once = [&] {
    CmpSystem sys(cfg, {schemes::SchemeKind::kSNUG, 0}, mixed_combo(),
                  tiny_scale());
    sys.run(50'000);
    sys.begin_measurement();
    sys.run(60'000);
    return sys.measured_ipc();
  };
  const auto a = run_once();
  const auto b = run_once();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(System, L1FiltersMostAccesses) {
  const SystemConfig cfg = paper_system_config();
  CmpSystem sys(cfg, {schemes::SchemeKind::kL2P, 0}, mixed_combo(),
                tiny_scale());
  sys.run(100'000);
  for (CoreId c = 0; c < 4; ++c) {
    const auto& l1 = sys.l1d(c);
    const auto& st = l1.stats();
    ASSERT_GT(st.accesses(), 0U);
    const double hit_rate =
        static_cast<double>(st.hits()) / static_cast<double>(st.accesses());
    EXPECT_GT(hit_rate, 0.5) << "core " << c;
  }
}

TEST(System, CounterReportNamesEveryComponent) {
  const SystemConfig cfg = paper_system_config();
  CmpSystem sys(cfg, {schemes::SchemeKind::kL2P, 0}, mixed_combo(),
                tiny_scale());
  sys.run(50'000);
  const stats::CounterReport report = sys.counter_report();
  // bus + dram + 2 L1s per core + scheme + per-core slices.
  EXPECT_EQ(report.size(), 2U + 2U * 4U + 1U + 4U);
  std::uint64_t l1d_hits = 0;
  bool saw_bus_requests = false;
  for (const auto& comp : report) {
    EXPECT_FALSE(comp.component.empty());
    EXPECT_FALSE(comp.counters.empty());
    for (const auto& [name, value] : comp.counters) {
      if (comp.component == "bus" && name == "requests") {
        saw_bus_requests = value > 0;
      }
      if (comp.component.rfind("l1d", 0) == 0 && name == "hits") {
        l1d_hits += value;
      }
    }
  }
  EXPECT_TRUE(saw_bus_requests);
  // The named snapshot and the typed accessors view the same words.
  std::uint64_t accessor_hits = 0;
  for (CoreId c = 0; c < 4; ++c) accessor_hits += sys.l1d(c).stats().hits();
  EXPECT_EQ(l1d_hits, accessor_hits);
  EXPECT_FALSE(stats::render_counter_report(report).empty());
}

TEST(System, L2SeesTraffic) {
  const SystemConfig cfg = paper_system_config();
  CmpSystem sys(cfg, {schemes::SchemeKind::kL2P, 0}, mixed_combo(),
                tiny_scale());
  sys.run(300'000);
  EXPECT_GT(sys.scheme().stats().l2_accesses(), 1000U);
  EXPECT_GT(sys.scheme().stats().l2_misses(), 0U);
}

TEST(System, SnugInvariantHoldsAfterLongRun) {
  const SystemConfig cfg = paper_system_config();
  trace::WorkloadCombo combo{"4xammp-test", 1,
                             {"ammp", "ammp", "ammp", "ammp"}};
  CmpSystem sys(cfg, {schemes::SchemeKind::kSNUG, 0}, combo, tiny_scale());
  sys.run(400'000);  // several epochs (identify = 78 125)
  auto& snug =
      dynamic_cast<schemes::SnugScheme&>(sys.scheme());
  EXPECT_EQ(snug.cc_lines_in_taker_sets(), 0U);
  // Each cooperative block exists at most once on chip.
  // (Spot-check through the scheme's helper on a sample of addresses.)
  for (CoreId c = 0; c < 4; ++c) {
    const auto& geo = snug.slice(c).geometry();
    for (SetIndex s = 0; s < 64; ++s) {
      for (std::uint64_t uid = 0; uid < 4; ++uid) {
        const Addr a = (static_cast<Addr>(c) << 40) | geo.addr_of(uid, s);
        EXPECT_LE(snug.cc_copies_of(a), 1U);
      }
    }
  }
}

TEST(System, MeasurementWindowResetsCounters) {
  const SystemConfig cfg = paper_system_config();
  CmpSystem sys(cfg, {schemes::SchemeKind::kL2P, 0}, mixed_combo(),
                tiny_scale());
  sys.run(50'000);
  const auto before = sys.core(0).stats().retired;
  EXPECT_GT(before, 0U);
  sys.begin_measurement();
  EXPECT_EQ(sys.core(0).stats().retired, 0U);
}

// begin_measurement resets the scheme, cache, core, bus and DRAM stats
// but not the capacity monitors': their event counts stay cumulative, so
// a window count is a read after the window minus one taken before the
// boundary (perfbench's monitor_base relies on this; a reset would wrap
// its unsigned delta).
TEST(System, MeasurementBoundaryLeavesMonitorStatsCumulative) {
  ScenarioSpec scenario = ScenarioSpec::paper();
  scenario.l2_slice_kb = 64;  // small slices: the monitors see evictions
  CmpSystem sys(scenario.system_config(), {schemes::SchemeKind::kSNUG, 0},
                mixed_combo(), tiny_scale());
  const auto& snug = dynamic_cast<const schemes::SnugScheme&>(sys.scheme());
  sys.run(200'000);
  std::vector<core::MonitorStats> before;
  for (CoreId c = 0; c < 4; ++c) before.push_back(snug.monitor(c).stats());
  std::uint64_t inserts = 0;
  for (const auto& st : before) inserts += st.shadow_inserts();
  ASSERT_GT(inserts, 0U);

  sys.begin_measurement();
  EXPECT_EQ(sys.scheme().stats().l2_accesses(), 0U);
  for (CoreId c = 0; c < 4; ++c) {
    EXPECT_EQ(snug.monitor(c).stats().words(), before[c].words())
        << "core " << c;
  }
  sys.run(100'000);
  for (CoreId c = 0; c < 4; ++c) {
    const auto& now = snug.monitor(c).stats();
    EXPECT_GE(now.shadow_inserts(), before[c].shadow_inserts());
    EXPECT_GE(now.real_hits(), before[c].real_hits());
    EXPECT_GE(now.shadow_hits(), before[c].shadow_hits());
  }
}

TEST(System, BusSeesTrafficUnderPrivateSchemes) {
  const SystemConfig cfg = paper_system_config();
  CmpSystem sys(cfg, {schemes::SchemeKind::kL2P, 0}, mixed_combo(),
                tiny_scale());
  sys.run(100'000);
  EXPECT_GT(sys.snoop_bus().stats().requests(), 0U);
  // The bus must not be hopelessly saturated at the default traffic level.
  EXPECT_LT(sys.snoop_bus().utilisation(100'000), 0.98);
}

}  // namespace
}  // namespace snug::sim
