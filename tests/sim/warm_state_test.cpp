// WarmStateBank view tests and the bit-identity pin of the functional
// warm-up checkpoint path (ISSUE 6): restoring a banked checkpoint into a
// freshly built machine and measuring is byte-for-byte identical to
// functionally warming the same machine in-process and measuring.  The
// store's rejection and recovery matrix runs over both views in
// blob_store_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"
#include "sim/warm_state.hpp"

namespace snug::sim {
namespace {

struct TempBankDir {
  explicit TempBankDir(const char* name = "snug_warm_bank_test") {
    dir = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
  }
  ~TempBankDir() { std::filesystem::remove_all(dir); }
  std::filesystem::path dir;
};

std::vector<std::byte> test_blob(std::size_t n) {
  std::vector<std::byte> blob(n);
  for (std::size_t i = 0; i < n; ++i) {
    blob[i] = static_cast<std::byte>((i * 37 + 11) & 0xFF);
  }
  return blob;
}

// ---- bank view ----------------------------------------------------------

TEST(WarmStateBank, RoundTripsExactBytes) {
  TempBankDir tmp;
  WarmStateBank bank(tmp.dir.string());
  const auto blob = test_blob(1031);  // odd size: no alignment luck
  bank.store("k", 42, blob);

  std::vector<std::byte> loaded;
  ASSERT_TRUE(bank.load("k", 42, loaded));
  EXPECT_EQ(loaded, blob);
  EXPECT_TRUE(bank.contains("k", 42));
}

// ---- warm fingerprint ---------------------------------------------------

TEST(WarmFingerprint, IgnoresMeasurementLength) {
  // The whole point of the bank: campaign points differing only in how
  // long they measure share one warm-up prefix, hence one checkpoint.
  const SystemConfig cfg = paper_system_config();
  const trace::WorkloadCombo combo{"t", 5, {"gzip", "mesa", "gzip", "mesa"}};
  const schemes::SchemeSpec snug{schemes::SchemeKind::kSNUG, 0.0};
  RunScale a;
  a.warmup_mode = WarmupMode::kFunctional;
  RunScale b = a;
  b.measure_cycles *= 4;

  EXPECT_EQ(warm_fingerprint(cfg, a, combo, snug),
            warm_fingerprint(cfg, b, combo, snug));
  // ...while the eval-cache fingerprint rightly separates them.
  EXPECT_NE(run_fingerprint(cfg, a, combo, snug),
            run_fingerprint(cfg, b, combo, snug));
}

TEST(WarmFingerprint, SensitiveToWarmupPrefixInputs) {
  const SystemConfig cfg = paper_system_config();
  const trace::WorkloadCombo combo{"t", 5, {"gzip", "mesa", "gzip", "mesa"}};
  const schemes::SchemeSpec snug{schemes::SchemeKind::kSNUG, 0.0};
  RunScale scale;
  scale.warmup_mode = WarmupMode::kFunctional;
  const std::uint64_t fp = warm_fingerprint(cfg, scale, combo, snug);

  RunScale longer = scale;
  longer.warmup_cycles *= 2;
  EXPECT_NE(fp, warm_fingerprint(cfg, longer, combo, snug));

  RunScale timing = scale;
  timing.warmup_mode = WarmupMode::kTiming;
  EXPECT_NE(fp, warm_fingerprint(cfg, timing, combo, snug));

  EXPECT_NE(fp, warm_fingerprint(cfg, scale, combo,
                                 {schemes::SchemeKind::kDSR, 0.0}));

  trace::WorkloadCombo swapped = combo;
  swapped.benchmarks = {"mesa", "gzip", "gzip", "mesa"};
  EXPECT_NE(fp, warm_fingerprint(cfg, scale, swapped, snug));
}

TEST(WarmFingerprint, IgnoresKnobsTheWarmupNeverReads) {
  // The w2 descriptor keys warm-relevant state only: knobs the
  // functional warm-up provably never consults — measurement length,
  // WBB shape, another scheme's ablation block — must not
  // split checkpoints.
  const SystemConfig cfg = paper_system_config();
  const trace::WorkloadCombo combo{"t", 5, {"gzip", "mesa", "gzip", "mesa"}};
  const schemes::SchemeSpec cc{schemes::SchemeKind::kCC, 0.25};
  RunScale scale;
  scale.warmup_mode = WarmupMode::kFunctional;
  const std::uint64_t fp = warm_fingerprint(cfg, scale, combo, cc);

  RunScale longer = scale;
  longer.measure_cycles *= 3;
  EXPECT_EQ(fp, warm_fingerprint(cfg, longer, combo, cc));

  SystemConfig wbb = cfg;
  wbb.scheme_ctx.priv.wbb.entries *= 2;
  wbb.scheme_ctx.priv.wbb.drain_interval *= 2;
  EXPECT_EQ(fp, warm_fingerprint(wbb, scale, combo, cc));

  // The SNUG monitor threshold and the DSR counter width are SNUG/DSR
  // knobs: CC checkpoints ignore them...
  SystemConfig tuned = cfg;
  tuned.scheme_ctx.snug.monitor.p = 16;
  tuned.scheme_ctx.dsr.k_bits = 6;
  EXPECT_EQ(fp, warm_fingerprint(tuned, scale, combo, cc));

  // ...while the owning schemes rightly key on them.
  const schemes::SchemeSpec snug{schemes::SchemeKind::kSNUG, 0.0};
  const schemes::SchemeSpec dsr{schemes::SchemeKind::kDSR, 0.0};
  EXPECT_NE(warm_fingerprint(cfg, scale, combo, snug),
            warm_fingerprint(tuned, scale, combo, snug));
  EXPECT_NE(warm_fingerprint(cfg, scale, combo, dsr),
            warm_fingerprint(tuned, scale, combo, dsr));

  // Distinct organisations and distinct CC thresholds stay distinct:
  // their warm-up evolution genuinely diverges (per-scheme RNG streams
  // and spill decisions).
  EXPECT_NE(fp, warm_fingerprint(cfg, scale, combo,
                                 {schemes::SchemeKind::kCC, 0.75}));
  EXPECT_NE(fp, warm_fingerprint(cfg, scale, combo,
                                 {schemes::SchemeKind::kL2P, 0.0}));
  EXPECT_NE(fp, warm_fingerprint(cfg, scale, combo,
                                 {schemes::SchemeKind::kL2S, 0.0}));
}

TEST(WarmFingerprint, ConfigFingerprintGainsSuffixOnlyWhenFunctional) {
  // Timing mode (the default) must keep its pre-knob fingerprint so every
  // existing eval-cache entry and golden pin stays valid.
  const SystemConfig cfg = paper_system_config();
  RunScale timing;
  RunScale functional;
  functional.warmup_mode = WarmupMode::kFunctional;
  EXPECT_EQ(config_fingerprint(cfg, RunScale{}),
            config_fingerprint(cfg, timing));
  EXPECT_NE(config_fingerprint(cfg, timing),
            config_fingerprint(cfg, functional));
}

// ---- scenario knob ------------------------------------------------------

TEST(WarmupModeKnob, ParsesAndRoundTrips) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(parse_scenario("warmup-mode=functional", spec, error)) << error;
  EXPECT_EQ(spec.scale.warmup_mode, WarmupMode::kFunctional);
  EXPECT_NE(spec.spec_string().find("warmup-mode=functional"),
            std::string::npos);

  ScenarioSpec round;
  ASSERT_TRUE(parse_scenario(spec.spec_string(), round, error)) << error;
  EXPECT_EQ(round.scale.warmup_mode, WarmupMode::kFunctional);

  ASSERT_TRUE(parse_scenario("warmup-mode=timing", spec, error)) << error;
  EXPECT_EQ(spec.scale.warmup_mode, WarmupMode::kTiming);
  // The default spec string stays knob-free (golden round-trip pins).
  EXPECT_EQ(spec.spec_string().find("warmup-mode"), std::string::npos);

  EXPECT_FALSE(parse_scenario("warmup-mode=fast", spec, error));
  EXPECT_NE(error.find("warmup-mode"), std::string::npos);
}

// ---- functional warm-up semantics --------------------------------------

RunScale warm_test_scale() {
  RunScale scale;
  // Crosses the 1.5 M-cycle Stage I boundary (core::EpochConfig
  // identify_cycles), so the checkpoint carries a mid-flight controller
  // — the hardest state to restore, not the freshly built one.
  scale.warmup_cycles = 2'200'000;
  scale.measure_cycles = 120'000;
  scale.phase_period_refs = 50'000;
  scale.warmup_mode = WarmupMode::kFunctional;
  return scale;
}

trace::WorkloadCombo warm_test_combo() {
  return {"warm-mix", 3, {"ammp", "parser", "gzip", "mesa"}};
}

TEST(FunctionalWarmup, TouchesNoTimingMachinery) {
  const SystemConfig cfg = paper_system_config();
  CmpSystem sys(cfg, {schemes::SchemeKind::kSNUG, 0.0}, warm_test_combo(),
                warm_test_scale());
  sys.warm_functional(300'000);

  // Contents moved...
  bool some_l2_fill = false;
  for (CoreId c = 0; c < 4; ++c) {
    EXPECT_GT(sys.l1d(c).stats().accesses(), 0U) << "core " << c;
    if (sys.scheme().slice(c).stats().accesses() > 0) some_l2_fill = true;
  }
  EXPECT_TRUE(some_l2_fill);

  // ...but no shared timing resource was ever booked.
  const auto& bus = sys.snoop_bus().stats();
  EXPECT_EQ(bus.requests(), 0U);
  EXPECT_EQ(bus.data_blocks(), 0U);
  EXPECT_EQ(bus.spills(), 0U);
  const auto& dram = sys.dram().stats();
  EXPECT_EQ(dram.reads(), 0U);
  EXPECT_EQ(dram.writes(), 0U);
}

TEST(FunctionalWarmup, RestoreMeasureMatchesWarmMeasureBitExactly) {
  // The acceptance pin: bank restore -> measure is indistinguishable —
  // blob bytes and measured IPCs alike — from functional warm-up ->
  // measure in one process, for every scheme of the paper grid family.
  const SystemConfig cfg = paper_system_config();
  const RunScale scale = warm_test_scale();
  const trace::WorkloadCombo combo = warm_test_combo();
  const std::vector<schemes::SchemeSpec> specs = {
      {schemes::SchemeKind::kL2P, 0.0},  {schemes::SchemeKind::kL2S, 0.0},
      {schemes::SchemeKind::kCC, 0.25},  {schemes::SchemeKind::kDSR, 0.0},
      {schemes::SchemeKind::kSNUG, 0.0},
  };

  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.id());

    CmpSystem warmed(cfg, spec, combo, scale);
    warmed.warm_functional(scale.warmup_cycles);
    const std::vector<std::byte> blob = warmed.save_warm_state();
    ASSERT_FALSE(blob.empty());

    CmpSystem restored(cfg, spec, combo, scale);
    restored.load_warm_state(blob);
    // Re-serializing the restored machine reproduces the blob exactly —
    // save/load round-trip to a fixed point.
    EXPECT_EQ(restored.save_warm_state(), blob);
    EXPECT_EQ(restored.now(), warmed.now());

    warmed.begin_measurement();
    warmed.run(scale.measure_cycles);
    restored.begin_measurement();
    restored.run(scale.measure_cycles);

    const auto a = warmed.measured_ipc();
    const auto b = restored.measured_ipc();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "core " << i;  // bit-identical, not close
    }
  }
}

// ---- runner integration -------------------------------------------------

TEST(WarmBankRunner, BanksOnceThenRestoresIdentically) {
  TempBankDir tmp("snug_warm_bank_runner_test");
  RunScale scale;
  scale.warmup_cycles = 250'000;
  scale.measure_cycles = 120'000;
  scale.phase_period_refs = 50'000;
  scale.warmup_mode = WarmupMode::kFunctional;
  // Eval cache disabled ("") so the second run actually re-simulates the
  // measurement and exercises the bank-restore path.
  ExperimentRunner runner(paper_system_config(), scale, "",
                          tmp.dir.string());
  const trace::WorkloadCombo combo = warm_test_combo();
  const schemes::SchemeSpec spec{schemes::SchemeKind::kSNUG, 0.0};

  EXPECT_FALSE(runner.warm_state_banked(combo, spec));
  const RunResult cold = runner.run(combo, spec);
  EXPECT_FALSE(cold.cached);
  EXPECT_FALSE(cold.warm_banked);
  EXPECT_TRUE(runner.warm_state_banked(combo, spec));

  const RunResult banked = runner.run(combo, spec);
  EXPECT_FALSE(banked.cached);
  EXPECT_TRUE(banked.warm_banked);
  ASSERT_EQ(banked.ipc.size(), cold.ipc.size());
  for (std::size_t i = 0; i < cold.ipc.size(); ++i) {
    EXPECT_EQ(banked.ipc[i], cold.ipc[i]) << "core " << i;
  }
}

TEST(WarmBankRunner, CcThresholdsHitTheBankAcrossWarmIrrelevantKnobs) {
  // ISSUE 7 satellite pin: a CC(x%) checkpoint banked by one runner is
  // found — and restored bit-identically — by a runner whose config
  // differs only in knobs the warm-up never reads (measurement length,
  // SNUG/DSR monitor knobs, WBB depth), for more than one spill threshold.
  TempBankDir tmp("snug_warm_bank_cc_share_test");
  RunScale scale;
  scale.warmup_cycles = 250'000;
  scale.measure_cycles = 120'000;
  scale.phase_period_refs = 50'000;
  scale.warmup_mode = WarmupMode::kFunctional;
  const SystemConfig cfg = paper_system_config();
  const trace::WorkloadCombo combo = warm_test_combo();

  RunScale other_scale = scale;
  other_scale.measure_cycles *= 2;
  SystemConfig other_cfg = cfg;
  other_cfg.scheme_ctx.snug.monitor.p = 16;
  other_cfg.scheme_ctx.dsr.k_bits = 6;
  other_cfg.scheme_ctx.priv.wbb.entries *= 2;

  for (const double prob : {0.25, 0.75}) {
    SCOPED_TRACE(prob);
    const schemes::SchemeSpec spec{schemes::SchemeKind::kCC, prob};

    ExperimentRunner cold(cfg, scale, "", tmp.dir.string());
    EXPECT_FALSE(cold.warm_state_banked(combo, spec));
    const RunResult first = cold.run(combo, spec);
    EXPECT_FALSE(first.warm_banked);

    ExperimentRunner other(other_cfg, other_scale, "", tmp.dir.string());
    EXPECT_TRUE(other.warm_state_banked(combo, spec));
    const RunResult shared = other.run(combo, spec);
    EXPECT_TRUE(shared.warm_banked);
    for (const double v : shared.ipc) EXPECT_GT(v, 0.0);
  }

  // The two thresholds banked two distinct checkpoints — neither can
  // serve the other (their warm-up evolution diverges).
  ExperimentRunner probe(cfg, scale, "", tmp.dir.string());
  EXPECT_TRUE(probe.warm_state_banked(combo, {schemes::SchemeKind::kCC, 0.25}));
  EXPECT_FALSE(probe.warm_state_banked(combo, {schemes::SchemeKind::kCC, 0.5}));
}

TEST(WarmBankRunner, TimingModeNeverTouchesTheBank) {
  TempBankDir tmp("snug_warm_bank_timing_test");
  RunScale scale;  // default: timing warm-up
  ExperimentRunner runner(paper_system_config(), scale, "",
                          tmp.dir.string());
  EXPECT_FALSE(
      runner.warm_state_banked(warm_test_combo(),
                               {schemes::SchemeKind::kSNUG, 0.0}));
  // The bank directory is never created for timing-mode runners.
  EXPECT_FALSE(std::filesystem::exists(tmp.dir));
}

TEST(WarmBankRunner, WarmKeyEmbedsPrefixComboAndScheme) {
  RunScale scale;
  scale.warmup_mode = WarmupMode::kFunctional;
  ExperimentRunner runner(paper_system_config(), scale, "", "");
  const trace::WorkloadCombo combo{"t", 5, {"gzip", "mesa", "gzip", "mesa"}};
  const schemes::SchemeSpec spec{schemes::SchemeKind::kCC, 0.25};
  const std::string key = runner.warm_key(combo, spec);
  EXPECT_EQ(key.rfind("warm__", 0), 0U);
  EXPECT_NE(key.find("t__"), std::string::npos);
  EXPECT_NE(key.find("CC(25%)"), std::string::npos);
  EXPECT_EQ(key, runner.warm_key(combo, spec));  // stable
}

}  // namespace
}  // namespace snug::sim
