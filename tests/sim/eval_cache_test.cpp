// EvalCache view tests: exact-bit round trips, run-fingerprint
// stability and sensitivity, and cache keys.  The store's rejection and
// recovery matrix (truncation, CRC, stale vs corrupt, reap, quarantine,
// concurrent writers) runs over both views in blob_store_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "schemes/factory.hpp"
#include "sim/runner.hpp"
#include "trace/workloads.hpp"

namespace snug::sim {
namespace {

struct TempCacheDir {
  TempCacheDir() {
    dir = std::filesystem::temp_directory_path() / "snug_eval_cache_test";
    std::filesystem::remove_all(dir);
  }
  ~TempCacheDir() { std::filesystem::remove_all(dir); }
  std::filesystem::path dir;
};

TEST(EvalCache, RoundTripsExactBits) {
  TempCacheDir tmp;
  EvalCache cache(tmp.dir.string());
  const std::vector<double> ipc{1.2345678901234567, 0.000001, 3.25, 7e-12};
  cache.store("k", 42, ipc);

  std::vector<double> loaded;
  ASSERT_TRUE(cache.load("k", 42, loaded));
  ASSERT_EQ(loaded.size(), ipc.size());
  for (std::size_t i = 0; i < ipc.size(); ++i) {
    EXPECT_EQ(loaded[i], ipc[i]);  // binary format: no text rounding
  }
}

TEST(EvalCache, RunFingerprintCoversFullTopology) {
  // The v5 config descriptor must move with every scenario-reachable
  // topology knob, including the ones the quad-core era ignored (L1I,
  // shared-L2 aggregate, core pipeline).
  const RunScale scale;
  const trace::WorkloadCombo combo{"t", 5, {"gzip", "mesa", "gzip", "mesa"}};
  const schemes::SchemeSpec snug{schemes::SchemeKind::kSNUG, 0.0};
  const SystemConfig base = paper_system_config();
  const std::uint64_t fp = run_fingerprint(base, scale, combo, snug);

  SystemConfig cfg = base;
  cfg.l1i = cache::CacheGeometry(64 << 10, 4, 64);
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo, snug));

  cfg = base;
  cfg.scheme_ctx.shared.l2 = cache::CacheGeometry(8 << 20, 16, 64);
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo, snug));

  cfg = base;
  cfg.core.issue_width = 4;
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo, snug));

  cfg = base;
  cfg.scheme_ctx.priv.wbb.entries = 8;
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo, snug));

  cfg = base;
  cfg.scheme_ctx.snug.flip_enabled = false;
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo, snug));

  cfg = base;
  cfg.scheme_ctx.snug.monitor.p = 4;
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo, snug));

  cfg = base;
  cfg.scheme_ctx.snug.monitor.taker_biased = false;
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo, snug));

  cfg = base;
  cfg.scheme_ctx.snug.epochs.identify_cycles *= 2;
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo, snug));
}

TEST(EvalCache, PaperFingerprintsArePinned) {
  // Every published eval-cache entry at the default scale (SNUG_FULL_SCALE
  // unset) is keyed by these values.  They are literals, not
  // recomputations, so a descriptor edit that moves any key fails here
  // instead of silently cold-starting every cache.
  const SystemConfig cfg = paper_system_config();
  const RunScale scale;
  EXPECT_EQ(config_fingerprint(cfg, scale), 0x75BF827E0857C24EULL);

  const trace::WorkloadCombo& combo = trace::all_combos().front();
  ASSERT_EQ(combo.name, "4xammp");
  const std::vector<std::pair<std::string, std::uint64_t>> want = {
      {"L2P", 0x6C4369951F326AC2ULL},      {"L2S", 0x34846C8DCD45D569ULL},
      {"CC(0%)", 0x7B185E1F72A1B8AFULL},   {"CC(25%)", 0x1BB542CCF18DB01AULL},
      {"CC(50%)", 0xDF60065FB1FBA4E7ULL},  {"CC(75%)", 0xF8CA0D2A15EC0561ULL},
      {"CC(100%)", 0xF1338B17A2093FB6ULL}, {"DSR", 0xE451F81768BA7933ULL},
      {"SNUG", 0xB9C5E62830D7C44DULL},
  };
  const std::vector<schemes::SchemeSpec> grid = schemes::paper_scheme_grid();
  ASSERT_EQ(grid.size(), want.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].id(), want[i].first);
    EXPECT_EQ(run_fingerprint(cfg, scale, combo, grid[i]), want[i].second)
        << combo.name << "/" << grid[i].id();
  }
}

TEST(EvalCache, RunFingerprintIsStableAndSensitive) {
  const SystemConfig cfg = paper_system_config();
  RunScale scale;
  const trace::WorkloadCombo combo{"t", 5, {"gzip", "mesa", "gzip", "mesa"}};
  const schemes::SchemeSpec snug{schemes::SchemeKind::kSNUG, 0.0};

  // Stable: same inputs, same fingerprint, across calls.
  const std::uint64_t fp = run_fingerprint(cfg, scale, combo, snug);
  EXPECT_EQ(fp, run_fingerprint(cfg, scale, combo, snug));

  // Sensitive: scheme, combo contents, combo name, and scale each matter.
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo,
                                {schemes::SchemeKind::kDSR, 0.0}));
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo,
                                {schemes::SchemeKind::kCC, 0.5}));
  trace::WorkloadCombo renamed = combo;
  renamed.name = "t2";
  EXPECT_NE(fp, run_fingerprint(cfg, scale, renamed, snug));
  trace::WorkloadCombo swapped = combo;
  swapped.benchmarks = {"mesa", "gzip", "gzip", "mesa"};
  EXPECT_NE(fp, run_fingerprint(cfg, scale, swapped, snug));
  RunScale longer = scale;
  longer.measure_cycles *= 2;
  EXPECT_NE(fp, run_fingerprint(cfg, longer, combo, snug));
}

TEST(EvalCache, RunFingerprintFromConfigFingerprintMatchesEveryPaperCell) {
  const SystemConfig cfg = paper_system_config();
  const RunScale scale;
  const std::uint64_t config_fp = config_fingerprint(cfg, scale);
  std::size_t cells = 0;
  for (const trace::WorkloadCombo& combo : trace::all_combos()) {
    for (const schemes::SchemeSpec& spec : schemes::paper_scheme_grid()) {
      // The derivation every published cache entry was keyed by.
      std::string tag = combo.name;
      for (const std::string& bench : combo.benchmarks) {
        tag += '|';
        tag += bench;
      }
      tag += '|';
      tag += spec.id();
      const std::uint64_t want =
          Rng::derive_seed(tag, config_fp, EvalCache::kVersion);
      EXPECT_EQ(run_fingerprint(config_fp, combo, spec), want)
          << combo.name << "/" << spec.id();
      EXPECT_EQ(run_fingerprint(cfg, scale, combo, spec), want)
          << combo.name << "/" << spec.id();
      ++cells;
    }
  }
  EXPECT_EQ(cells, 189u) << "21 Table-8 combos x 9 paper schemes";
}

TEST(EvalCache, CacheKeyEmbedsComboSchemeAndFingerprint) {
  ExperimentRunner runner(paper_system_config(), RunScale{}, "");
  const trace::WorkloadCombo combo{"t", 5, {"gzip", "mesa", "gzip", "mesa"}};
  const schemes::SchemeSpec spec{schemes::SchemeKind::kCC, 0.25};
  const std::string key = runner.cache_key(combo, spec);
  EXPECT_NE(key.find("t__"), std::string::npos);
  EXPECT_NE(key.find("CC(25%)"), std::string::npos);
  EXPECT_EQ(key, runner.cache_key(combo, spec));  // stable
}

}  // namespace
}  // namespace snug::sim
