// Proof-of-equivalence harness for the functional fast-forward warm-up
// (ISSUE 6): a functionally warmed machine must be *statistically*
// indistinguishable from a full-timing-warmed one everywhere the
// measurement phase can see — L2 set occupancy, SNUG capacity-monitor
// counter distributions, the G/T classification those counters imply —
// and close in measured IPC.  Identity is neither expected nor required
// (the functional clock is an estimate, so the two machines interleave
// references differently); the chi-square bounds below are the same
// df + 6 * sd style the monitor-sampling pins use (~1e-8 false-positive
// rate, and every seed is fixed anyway).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "schemes/snug_scheme.hpp"
#include "sim/system.hpp"

namespace snug::sim {
namespace {

// One warm-up length for the whole suite, ending exactly on the Stage I
// boundary of the 1.5 M-cycle identification epoch.  Both drivers defer
// an end-cycle boundary tick to the next window, so the monitor counters
// still hold the full epoch's evidence (a harvest would reset them); the
// warm-state tests pin the boundary-crossing case bit-exactly.
constexpr Cycle kWarmCycles = 1'500'000;
constexpr Cycle kMeasureCycles = 150'000;

RunScale equivalence_scale() {
  RunScale scale;
  scale.warmup_cycles = kWarmCycles;
  scale.measure_cycles = kMeasureCycles;
  scale.phase_period_refs = 50'000;
  return scale;
}

trace::WorkloadCombo equivalence_combo() {
  return {"equiv-mix", 3, {"ammp", "parser", "gzip", "mesa"}};
}

/// Chi-square homogeneity of two histograms over the same bins.  Empty
/// bins (zero in both rows) contribute nothing and drop out of the dof;
/// returns the statistic and writes the effective dof.
double chi2_homogeneity(const std::vector<double>& a,
                        const std::vector<double>& b, int& dof) {
  double a_tot = 0.0;
  double b_tot = 0.0;
  for (const double v : a) a_tot += v;
  for (const double v : b) b_tot += v;
  const double grand = a_tot + b_tot;
  double chi2 = 0.0;
  int cols = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double col = a[i] + b[i];
    if (col == 0.0) continue;
    ++cols;
    const double e_a = a_tot * col / grand;
    const double e_b = b_tot * col / grand;
    chi2 += (a[i] - e_a) * (a[i] - e_a) / e_a;
    chi2 += (b[i] - e_b) * (b[i] - e_b) / e_b;
  }
  dof = cols > 1 ? cols - 1 : 0;
  return chi2;
}

double chi2_bound(int dof) {
  return dof + 6.0 * std::sqrt(2.0 * dof);
}

// The two machines are expensive to warm (1.5 M cycles each, one of them
// in full timing), so the suite warms them once and every test reads the
// same pair.  The IPC test runs last in file order because it advances
// both machines past the warm-up point.
class WarmupEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const SystemConfig cfg = paper_system_config();
    const schemes::SchemeSpec spec{schemes::SchemeKind::kSNUG, 0.0};
    timing_ = std::make_unique<CmpSystem>(cfg, spec, equivalence_combo(),
                                          equivalence_scale());
    timing_->run(kWarmCycles);
    functional_ = std::make_unique<CmpSystem>(cfg, spec, equivalence_combo(),
                                              equivalence_scale());
    functional_->warm_functional(kWarmCycles);
  }
  static void TearDownTestSuite() {
    timing_.reset();
    functional_.reset();
  }

  static const schemes::SnugScheme& snug(const CmpSystem& sys) {
    return dynamic_cast<const schemes::SnugScheme&>(sys.scheme());
  }

  static std::unique_ptr<CmpSystem> timing_;
  static std::unique_ptr<CmpSystem> functional_;
};

std::unique_ptr<CmpSystem> WarmupEquivalence::timing_;
std::unique_ptr<CmpSystem> WarmupEquivalence::functional_;

// Steady-state L2 occupancy: the per-set fill level distribution (pooled
// over all slices, binned by valid-way count) must be homogeneous across
// the two warm-up modes — the contents machinery ran identically, only
// the clock pacing differed.
TEST_F(WarmupEquivalence, SliceOccupancyDistributionIsHomogeneous) {
  const auto fill_histogram = [](const CmpSystem& sys) {
    // Bins: empty-ish, low, high, full — full dominates after 1.5 M
    // cycles, so the interesting signal is the not-yet-full tail.
    std::vector<double> h(4, 0.0);
    for (CoreId c = 0; c < 4; ++c) {
      const cache::SetAssocCache& slice = sys.scheme().slice(c);
      const std::uint32_t assoc = slice.geometry().associativity();
      for (SetIndex s = 0; s < slice.num_sets(); ++s) {
        const std::uint32_t v = slice.set(s).valid_count();
        if (v == assoc) {
          h[3] += 1.0;
        } else if (v >= (3 * assoc) / 4) {
          h[2] += 1.0;
        } else if (v >= assoc / 2) {
          h[1] += 1.0;
        } else {
          h[0] += 1.0;
        }
      }
    }
    return h;
  };

  const std::vector<double> a = fill_histogram(*timing_);
  const std::vector<double> b = fill_histogram(*functional_);
  // Both warm-ups actually drove the hierarchy: hundreds of sets are at
  // least half full.  (The SPEC-profile working sets are sparse relative
  // to a 1 MB slice, so mostly-empty sets legitimately dominate at this
  // warm length — the shape match is what the chi-square below pins.)
  EXPECT_GT(a[1] + a[2] + a[3], 100.0);
  EXPECT_GT(b[1] + b[2] + b[3], 100.0);

  int dof = 0;
  const double chi2 = chi2_homogeneity(a, b, dof);
  EXPECT_LT(chi2, chi2_bound(dof))
      << "timing [" << a[0] << "," << a[1] << "," << a[2] << "," << a[3]
      << "] functional [" << b[0] << "," << b[1] << "," << b[2] << ","
      << b[3] << "]";
}

// SNUG monitor counters: the per-set saturating counters accumulated over
// the same 1.5 M warm-up cycles must be distributed the same way (4-bit
// counters binned in fours, pooled over all cores).
TEST_F(WarmupEquivalence, MonitorCounterHistogramIsHomogeneous) {
  const auto counter_histogram = [this](const CmpSystem& sys) {
    std::vector<double> h(4, 0.0);
    const schemes::SnugScheme& s = snug(sys);
    for (CoreId c = 0; c < 4; ++c) {
      const core::CapacityMonitor& m = s.monitor(c);
      for (SetIndex set = 0; set < m.config().num_sets; ++set) {
        h[std::min<std::uint32_t>(m.counter(set).value() / 4, 3)] += 1.0;
      }
    }
    return h;
  };

  const std::vector<double> a = counter_histogram(*timing_);
  const std::vector<double> b = counter_histogram(*functional_);
  int dof = 0;
  const double chi2 = chi2_homogeneity(a, b, dof);
  EXPECT_LT(chi2, chi2_bound(dof))
      << "timing [" << a[0] << "," << a[1] << "," << a[2] << "," << a[3]
      << "] functional [" << b[0] << "," << b[1] << "," << b[2] << ","
      << b[3] << "]";
}

// The decision the counters feed: harvest classifies a set as taker from
// the counter MSB (core/monitor.hpp), so the MSB population IS the G/T
// outcome the grouping stage would act on.  Taker *rates* must be
// homogeneous and most sets must classify identically — the same
// rate-plus-agreement pin the monitor-sampling knob carries.
TEST_F(WarmupEquivalence, ImpliedTakerClassificationAgrees) {
  const auto takers = [this](const CmpSystem& sys, std::vector<bool>& out) {
    const schemes::SnugScheme& s = snug(sys);
    std::uint32_t count = 0;
    out.clear();
    for (CoreId c = 0; c < 4; ++c) {
      const core::CapacityMonitor& m = s.monitor(c);
      const std::uint32_t msb = 1U << (m.config().k_bits - 1);
      for (SetIndex set = 0; set < m.config().num_sets; ++set) {
        const bool taker = m.counter(set).value() >= msb;
        out.push_back(taker);
        count += taker;
      }
    }
    return count;
  };

  std::vector<bool> taker_a;
  std::vector<bool> taker_b;
  const std::uint32_t count_a = takers(*timing_, taker_a);
  const std::uint32_t count_b = takers(*functional_, taker_b);
  ASSERT_EQ(taker_a.size(), taker_b.size());
  const double n = static_cast<double>(taker_a.size());

  std::uint32_t agree = 0;
  for (std::size_t i = 0; i < taker_a.size(); ++i) {
    agree += taker_a[i] == taker_b[i];
  }
  EXPECT_GT(static_cast<double>(agree) / n, 0.75)
      << "agreement " << agree << "/" << taker_a.size();

  const std::vector<double> a{static_cast<double>(count_a),
                              n - static_cast<double>(count_a)};
  const std::vector<double> b{static_cast<double>(count_b),
                              n - static_cast<double>(count_b)};
  int dof = 0;
  const double chi2 = chi2_homogeneity(a, b, dof);
  EXPECT_LT(chi2, chi2_bound(dof))
      << "takers: timing " << count_a << ", functional " << count_b
      << " of " << taker_a.size();
}

// End to end: measuring after a functional warm-up lands close to
// measuring after a timing warm-up.  Loose by design — the functional
// machine starts the window with empty WBBs and an idle bus (transient,
// re-filled within the window), so this is a sanity band, not a pin.
// The bit-exact contracts live elsewhere: a bank restore must reproduce
// the functional warm-up exactly (FunctionalWarmup, WarmBankRunner).
TEST_F(WarmupEquivalence, MeasuredIpcIsClose) {
  timing_->begin_measurement();
  timing_->run(kMeasureCycles);
  functional_->begin_measurement();
  functional_->run(kMeasureCycles);

  const std::vector<double> a = timing_->measured_ipc();
  const std::vector<double> b = functional_->measured_ipc();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GT(b[i], 0.0);
    const double rel = std::fabs(a[i] - b[i]) / a[i];
    EXPECT_LT(rel, 0.25) << "core " << i << ": timing " << a[i]
                         << " vs functional " << b[i];
  }
}

}  // namespace
}  // namespace snug::sim
