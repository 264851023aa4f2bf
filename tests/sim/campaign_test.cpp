// Campaign engine tests: a parallel campaign is bit-identical to the
// serial one, on the paper's quad-core machine and on 2-, 4- and 8-core
// scenarios; warm-cache reruns; the progress hook; and --jobs
// resolution.
#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/str.hpp"

namespace snug::sim {
namespace {

RunScale tiny_scale() {
  RunScale scale;
  scale.warmup_cycles = 10'000;
  scale.measure_cycles = 40'000;
  scale.phase_period_refs = 50'000;
  return scale;
}

// A 2-combo x 3-scheme grid that is cheap enough to simulate twice.
CampaignSpec small_grid() {
  CampaignSpec spec = CampaignSpec::grid(
      {
          {"mixA", 3, {"gzip", "mesa", "gzip", "mesa"}},
          {"mixB", 5, {"ammp", "gzip", "mesa", "ammp"}},
      },
      {{schemes::SchemeKind::kL2P, 0.0},
       {schemes::SchemeKind::kCC, 0.5},
       {schemes::SchemeKind::kSNUG, 0.0}});
  spec.scenario.scale = tiny_scale();
  return spec;
}

struct TempCacheDir {
  explicit TempCacheDir(const char* name) {
    dir = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
  }
  ~TempCacheDir() { std::filesystem::remove_all(dir); }
  std::filesystem::path dir;
};

void expect_identical(const CampaignResults& a, const CampaignResults& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [combo, combo_results] : a) {
    const auto it = b.find(combo);
    ASSERT_NE(it, b.end()) << combo;
    ASSERT_EQ(combo_results.size(), it->second.size());
    for (const auto& [scheme, result] : combo_results) {
      const auto& other = it->second.at(scheme);
      ASSERT_EQ(result.ipc.size(), other.ipc.size());
      for (std::size_t i = 0; i < result.ipc.size(); ++i) {
        EXPECT_EQ(result.ipc[i], other.ipc[i])  // bit-identical, no epsilon
            << combo << "/" << scheme << " core " << i;
      }
    }
  }
}

TEST(Campaign, ResolveJobs) {
  EXPECT_EQ(resolve_jobs(1), 1U);
  EXPECT_EQ(resolve_jobs(7), 7U);
  EXPECT_GE(resolve_jobs(0), 1U);   // auto: at least one worker
  EXPECT_GE(resolve_jobs(-3), 1U);  // nonsense degrades to auto
}

TEST(Campaign, PaperSpecCoversFullGrid) {
  const CampaignSpec spec = CampaignSpec::paper();
  EXPECT_EQ(spec.combos().size(), 21U);
  EXPECT_EQ(spec.schemes.size(), 9U);
  EXPECT_EQ(spec.size(), 189U);
}

TEST(Campaign, ParallelIsBitIdenticalToSerial) {
  const CampaignSpec spec = small_grid();

  // Separate runners with caching disabled: both paths must *simulate*
  // everything, so equality proves determinism rather than cache reuse.
  ExperimentRunner serial_runner(spec.scenario, "");
  CampaignEngine serial(serial_runner, 1);
  const CampaignResults a = serial.run(spec);

  ExperimentRunner parallel_runner(spec.scenario, "");
  CampaignEngine parallel(parallel_runner, 4);
  EXPECT_EQ(parallel.jobs(), 4U);
  const CampaignResults b = parallel.run(spec);

  expect_identical(a, b);
}

// ISSUE-2 acceptance: the equivalence holds on every topology, not just
// the paper's quad-core machine — generated mixes expanded to 2, 4 and
// 8 cores.
class CampaignScenarioEquivalence
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CampaignScenarioEquivalence, ParallelMatchesSerialOnNcores) {
  const std::uint32_t cores = GetParam();
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(parse_scenario(
      strf("name=%uc cores=%u workload=1A+1C variants=1 "
           "warmup-cycles=10000 measure-cycles=40000",
           cores, cores),
      spec.scenario, error))
      << error;
  spec.schemes = {{schemes::SchemeKind::kL2P, 0.0},
                  {schemes::SchemeKind::kSNUG, 0.0}};

  ExperimentRunner serial_runner(spec.scenario, "");
  CampaignEngine serial(serial_runner, 1);
  const CampaignResults a = serial.run(spec);

  ExperimentRunner parallel_runner(spec.scenario, "");
  CampaignEngine parallel(parallel_runner, 4);
  const CampaignResults b = parallel.run(spec);

  expect_identical(a, b);
  // Per-core IPC vectors really are N wide.
  for (const auto& [combo, combo_results] : a) {
    for (const auto& [scheme, result] : combo_results) {
      EXPECT_EQ(result.ipc.size(), cores) << combo << "/" << scheme;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cores, CampaignScenarioEquivalence,
                         ::testing::Values(2U, 4U, 8U),
                         [](const ::testing::TestParamInfo<std::uint32_t>& p) {
                           return std::to_string(p.param) + "cores";
                         });

TEST(Campaign, WarmCacheRerunSkipsAllSimulation) {
  TempCacheDir tmp("snug_campaign_warm_cache");
  const CampaignSpec spec = small_grid();
  ExperimentRunner runner(spec.scenario, tmp.dir.string());

  CampaignEngine cold(runner, 2);
  std::size_t cold_hits = 0;
  cold.on_progress = [&](const CampaignProgress& p) {
    if (p.cached) ++cold_hits;
  };
  const CampaignResults first = cold.run(spec);
  EXPECT_EQ(cold_hits, 0U);

  CampaignEngine warm(runner, 2);
  std::size_t warm_hits = 0;
  warm.on_progress = [&](const CampaignProgress& p) {
    if (p.cached) ++warm_hits;
  };
  const CampaignResults second = warm.run(spec);
  EXPECT_EQ(warm_hits, spec.size());  // every task served from cache

  expect_identical(first, second);
}

TEST(Campaign, ProgressTicksOncePerTask) {
  const CampaignSpec spec = small_grid();
  using Cell = std::pair<std::string, std::string>;  // (combo, scheme)
  std::vector<Cell> grid_order;  // combo-major, as the grid is indexed
  for (const auto& combo : spec.combos()) {
    for (const auto& scheme : spec.schemes) {
      grid_order.emplace_back(combo.name, scheme.id());
    }
  }
  std::vector<Cell> every_cell = grid_order;
  std::sort(every_cell.begin(), every_cell.end());

  for (const unsigned jobs : {1U, 3U}) {
    ExperimentRunner runner(spec.scenario, "");
    CampaignEngine engine(runner, jobs);
    std::vector<Cell> ticks;
    std::size_t max_done = 0;
    engine.on_progress = [&](const CampaignProgress& p) {
      EXPECT_EQ(p.total, spec.size());
      ticks.emplace_back(p.combo, p.scheme);
      max_done = std::max(max_done, p.done);
    };
    (void)engine.run(spec);
    // One job runs on the calling thread in grid order.
    if (jobs == 1) {
      EXPECT_EQ(ticks, grid_order);
    }
    std::sort(ticks.begin(), ticks.end());
    EXPECT_EQ(ticks, every_cell) << "jobs=" << jobs;  // each cell once
    EXPECT_EQ(max_done, spec.size());  // done counter reaches the end
  }
}

TEST(Campaign, ListingsDescribeTheGrid) {
  const CampaignSpec spec = small_grid();
  const std::string schemes = describe_schemes(spec.schemes);
  EXPECT_NE(schemes.find("L2P"), std::string::npos);
  EXPECT_NE(schemes.find("CC(50%)"), std::string::npos);

  const std::string combos = describe_combos(spec.combos());
  EXPECT_NE(combos.find("mixA"), std::string::npos);
  EXPECT_NE(combos.find("gzip"), std::string::npos);

  const std::string grid = describe_grid(spec);
  EXPECT_NE(grid.find("2 combo(s) x 3 scheme(s) = 6 task(s)"),
            std::string::npos);
  EXPECT_NE(grid.find("mixB / SNUG"), std::string::npos);
}

}  // namespace
}  // namespace snug::sim
