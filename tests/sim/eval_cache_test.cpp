// EvalCache view tests: exact-bit round trips, run-fingerprint
// stability and sensitivity, and cache keys.  The store's rejection and
// recovery matrix (truncation, CRC, stale vs corrupt, reap, quarantine,
// concurrent writers) runs over both views in blob_store_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
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
  cfg.scheme_ctx.dsr.use_set_dueling = true;
  EXPECT_NE(fp, run_fingerprint(cfg, scale, combo, snug));
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
