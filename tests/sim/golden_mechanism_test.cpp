// Golden pin on the cooperative mechanism: spill, retrieve, G/T
// classification and grouping.
//
// The fig9 pin (golden_fig9_test.cpp) runs the paper machine for
// 200k + 300k cycles: no line leaves a 1 MB slice in that window and the
// first SNUG/DSR harvest falls past its end, so it pins L2P-like timing
// only.  This pin shrinks the slices to 64 KB and the SNUG and DSR epochs
// to 100k identify + 400k group, so a 600k-cycle warm-up reaches a
// harvest and the 500k-cycle window runs the grouping stage with full
// caches.  It runs the first combo of each Table-8 class under all nine
// paper schemes and hashes, per cell, the %.17g IPCs, the mechanism's
// SchemeStats words and SNUG's monitor shadow hits over the window.
//
// Any change to what spills, where it lands, what a retrieve finds or
// how sets are classified trips it.  An intended behaviour change must
// re-capture the constant and say so in its commit message.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/bitutil.hpp"
#include "common/str.hpp"
#include "schemes/snug_scheme.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"

namespace snug::sim {
namespace {

constexpr std::uint64_t kGoldenMechanismHash = 0xC07FC5C359E2E88EULL;

constexpr Cycle kWarmupCycles = 600'000;
constexpr Cycle kMeasureCycles = 500'000;

SystemConfig mechanism_config() {
  ScenarioSpec scenario = ScenarioSpec::paper();
  scenario.l2_slice_kb = 64;
  SystemConfig cfg = scenario.system_config();
  const core::EpochConfig epochs{100'000, 400'000};
  cfg.scheme_ctx.snug.epochs = epochs;
  cfg.scheme_ctx.dsr.epochs = epochs;
  return cfg;
}

/// Summed shadow hits of SNUG's monitors (0 for every other scheme).
/// Monitor stats are cumulative across begin_measurement, so a window
/// count is a difference of two reads.
std::uint64_t snug_shadow_hits(const CmpSystem& sys) {
  const auto* snug = dynamic_cast<const schemes::SnugScheme*>(&sys.scheme());
  if (snug == nullptr) return 0;
  std::uint64_t n = 0;
  for (CoreId c = 0; c < snug->num_slices(); ++c) {
    n += snug->monitor(c).stats().shadow_hits();
  }
  return n;
}

struct Cell {
  trace::WorkloadCombo combo;
  schemes::SchemeSpec scheme;
  std::string text;  ///< the hashed record
  std::uint64_t spills = 0;
};

void simulate(const SystemConfig& cfg, const RunScale& scale, Cell& cell) {
  CmpSystem sys(cfg, cell.scheme, cell.combo, scale);
  sys.run(kWarmupCycles);
  const std::uint64_t shadow_base = snug_shadow_hits(sys);
  sys.begin_measurement();
  sys.run(kMeasureCycles);

  const schemes::SchemeStats& st = sys.scheme().stats();
  cell.spills = st.spills();
  std::string& t = cell.text;
  t = cell.combo.name + "|" + cell.scheme.id();
  for (const double ipc : sys.measured_ipc()) t += strf("|%.17g", ipc);
  for (const std::uint64_t v :
       {st.spills(), st.remote_hits(), st.evict_guest(),
        st.spill_no_target(), st.spill_blocked_stage(),
        st.spill_blocked_giver(), st.spill_blocked_role(), st.cc_flushed(),
        snug_shadow_hits(sys) - shadow_base}) {
    t += strf("|%llu", static_cast<unsigned long long>(v));
  }
  t += "\n";
}

TEST(GoldenMechanism, CooperativeSchemesBitIdenticalToCapture) {
  const SystemConfig cfg = mechanism_config();
  RunScale scale;
  scale.warmup_cycles = kWarmupCycles;
  scale.measure_cycles = kMeasureCycles;

  std::vector<Cell> cells;
  for (int cls = 1; cls <= 6; ++cls) {
    const trace::WorkloadCombo combo = trace::combos_in_class(cls).front();
    for (const schemes::SchemeSpec& s : schemes::paper_scheme_grid()) {
      cells.push_back({combo, s, "", 0});
    }
  }
  ASSERT_EQ(cells.size(), 54U);

  std::atomic<std::size_t> next{0};
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < cells.size();) {
        simulate(cfg, scale, cells[i]);
      }
    });
  }
  for (auto& t : pool) t.join();

  std::string all;
  for (const Cell& c : cells) all += c.text;

  // The pin only sees the mechanism if it acts: every class has a
  // spilling cooperative scheme, and both SNUG and DSR spill somewhere.
  for (std::size_t first = 0; first < cells.size(); first += 9) {
    std::uint64_t spills = 0;
    for (std::size_t i = first; i < first + 9; ++i) spills += cells[i].spills;
    EXPECT_GT(spills, 0U) << "no scheme spills on " << cells[first].combo.name;
  }
  for (const char* id : {"DSR", "SNUG"}) {
    std::uint64_t spills = 0;
    for (const Cell& c : cells) {
      if (c.scheme.id() == id) spills += c.spills;
    }
    EXPECT_GT(spills, 0U) << id << " never spills";
  }

  EXPECT_EQ(fnv1a64(all), kGoldenMechanismHash)
      << "mechanism cells diverged from the capture (hash 0x" << std::hex
      << fnv1a64(all) << "):\n"
      << all;
}

}  // namespace
}  // namespace snug::sim
