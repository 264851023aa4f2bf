// ScenarioSpec tests: the declarative scenario layer — grammar, spec
// files, validation diagnostics, N-core expansion, and the guarantee
// that the default spec IS the paper machine (same config fingerprint,
// so the eval cache treats paper-scenario runs and legacy
// paper_system_config() runs as the same experiment).
#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "common/str.hpp"
#include "trace/profile.hpp"

namespace snug::sim {
namespace {

TEST(Scenario, PaperDefaultsMatchPaperSystemConfig) {
  const ScenarioSpec spec = ScenarioSpec::paper();
  EXPECT_EQ(spec.validate(), "");
  EXPECT_EQ(config_fingerprint(spec.system_config(), spec.scale),
            config_fingerprint(paper_system_config(), default_run_scale()));
  EXPECT_EQ(spec.combos().size(), 21U);  // Table 8
}

TEST(Scenario, ParseEmptyIsPaper) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(parse_scenario("", spec, error)) << error;
  EXPECT_EQ(config_fingerprint(spec.system_config(), spec.scale),
            config_fingerprint(paper_system_config(), default_run_scale()));
}

TEST(Scenario, ParseTopologyKeys) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(parse_scenario(
      "name=stress cores=8 l1-kb=64 l1-assoc=8 l2-kb=512 l2-assoc=8 "
      "line-bytes=32 bus-bytes=32 bus-ratio=2 dram-latency=400 "
      "workload=2A+1B+1C variants=3 warmup-cycles=1000 "
      "measure-cycles=2000 phase-refs=500",
      spec, error))
      << error;
  EXPECT_EQ(spec.name, "stress");
  EXPECT_EQ(spec.num_cores, 8U);

  const SystemConfig cfg = spec.system_config();
  EXPECT_EQ(cfg.num_cores, 8U);
  EXPECT_EQ(cfg.l1d.capacity_bytes(), 64ULL << 10);
  EXPECT_EQ(cfg.l1d.associativity(), 8U);
  EXPECT_EQ(cfg.scheme_ctx.priv.l2.capacity_bytes(), 512ULL << 10);
  EXPECT_EQ(cfg.scheme_ctx.priv.l2.line_bytes(), 32U);
  // Derived: shared aggregate is cores x slice, monitor mirrors slice.
  EXPECT_EQ(cfg.scheme_ctx.shared.l2.capacity_bytes(), 8 * (512ULL << 10));
  EXPECT_EQ(cfg.scheme_ctx.shared.num_cores, 8U);
  EXPECT_EQ(cfg.scheme_ctx.snug.monitor.num_sets,
            cfg.scheme_ctx.priv.l2.num_sets());
  EXPECT_EQ(cfg.bus.width_bytes, 32U);
  EXPECT_EQ(cfg.bus.block_bytes, 32U);
  EXPECT_EQ(cfg.dram.latency, 400U);
  EXPECT_EQ(spec.scale.warmup_cycles, 1000U);
  EXPECT_EQ(spec.scale.measure_cycles, 2000U);
  EXPECT_EQ(spec.scale.phase_period_refs, 500U);

  // 8-core pattern workload: 3 variants, 8 benchmarks each.
  const auto combos = spec.combos();
  ASSERT_EQ(combos.size(), 3U);
  for (const auto& combo : combos) {
    EXPECT_EQ(combo.benchmarks.size(), 8U);
    EXPECT_EQ(combo.combo_class, 0);
  }
  // Variants are distinct.
  std::set<std::string> names;
  for (const auto& combo : combos) names.insert(combo.name);
  EXPECT_EQ(names.size(), 3U);
}

TEST(Scenario, DirectivesAreOrderFree) {
  // variants= must survive a later workload= (which resets the
  // workload selection but not the variant count).
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(parse_scenario("variants=3 workload=1A+1C cores=8", spec,
                             error))
      << error;
  EXPECT_EQ(spec.workload.variants, 3U);
  EXPECT_EQ(spec.combos().size(), 3U);

  ScenarioSpec reordered;
  ASSERT_TRUE(parse_scenario("cores=8 workload=1A+1C variants=3",
                             reordered, error))
      << error;
  EXPECT_EQ(scenario_fingerprint(spec), scenario_fingerprint(reordered));
}

TEST(Scenario, SingleExplicitComboSpecStringRoundTrips) {
  const ScenarioSpec spec = ScenarioSpec::with_combos(
      {{"solo", 2, {"ammp", "gzip", "mesa", "ammp"}}});
  ScenarioSpec reparsed;
  std::string error;
  ASSERT_TRUE(parse_scenario(spec.spec_string(), reparsed, error)) << error;
  ASSERT_EQ(reparsed.combos().size(), 1U);
  EXPECT_EQ(reparsed.combos()[0].benchmarks, spec.combos()[0].benchmarks);
}

TEST(Scenario, SpecStringRoundTrips) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(parse_scenario("cores=16 workload=1A+1C variants=2 l2-kb=256",
                             spec, error))
      << error;
  ScenarioSpec reparsed;
  ASSERT_TRUE(parse_scenario(spec.spec_string(), reparsed, error)) << error;
  EXPECT_EQ(scenario_fingerprint(spec), scenario_fingerprint(reparsed));
  EXPECT_EQ(spec.spec_string(), reparsed.spec_string());
}

TEST(Scenario, WorkloadValueForms) {
  ScenarioSpec spec;
  std::string error;

  ASSERT_TRUE(parse_scenario("workload=class3", spec, error)) << error;
  EXPECT_EQ(spec.combos().size(), 3U);  // Table 8 class C3

  ASSERT_TRUE(parse_scenario("workload=ammp+parser+bzip2+mcf", spec, error))
      << error;
  ASSERT_EQ(spec.combos().size(), 1U);
  EXPECT_EQ(spec.combos()[0].name, "ammp+parser+bzip2+mcf");
  EXPECT_EQ(spec.combos()[0].combo_class, 0);

  // Count-free pattern terms default to 1.
  ASSERT_TRUE(parse_scenario("cores=2 workload=A+C", spec, error)) << error;
  ASSERT_EQ(spec.combos().size(), 1U);
  EXPECT_EQ(spec.combos()[0].benchmarks.size(), 2U);
  EXPECT_EQ(trace::profile_for(spec.combos()[0].benchmarks[0]).app_class,
            'A');
  EXPECT_EQ(trace::profile_for(spec.combos()[0].benchmarks[1]).app_class,
            'C');
}

TEST(Scenario, PatternExpansionScalesCounts) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(parse_scenario("cores=16 workload=2A+1B+1C", spec, error))
      << error;
  const auto combos = spec.combos();
  ASSERT_EQ(combos[0].benchmarks.size(), 16U);
  int a = 0, b = 0, c = 0;
  for (const auto& bench : combos[0].benchmarks) {
    const char cls = trace::profile_for(bench).app_class;
    a += cls == 'A';
    b += cls == 'B';
    c += cls == 'C';
  }
  EXPECT_EQ(a, 8);  // 2 of 4 slots, scaled x4
  EXPECT_EQ(b, 4);
  EXPECT_EQ(c, 4);
}

TEST(Scenario, RejectsBadInput) {
  ScenarioSpec spec;
  std::string error;

  EXPECT_FALSE(parse_scenario("flux-capacitor=1", spec, error));
  EXPECT_NE(error.find("unknown scenario key"), std::string::npos);

  EXPECT_FALSE(parse_scenario("cores", spec, error));
  EXPECT_NE(error.find("key=value"), std::string::npos);

  EXPECT_FALSE(parse_scenario("cores=banana", spec, error));
  EXPECT_FALSE(parse_scenario("cores=1", spec, error));
  EXPECT_FALSE(parse_scenario("cores=6", spec, error));  // non-power-of-two

  // The Table 8 workloads are quad-core; other core counts must name a
  // pattern.
  EXPECT_FALSE(parse_scenario("cores=8", spec, error));
  EXPECT_NE(error.find("Table 8"), std::string::npos);

  // Pattern does not divide the core count.
  EXPECT_FALSE(parse_scenario("cores=8 workload=2A+1C", spec, error));
  EXPECT_NE(error.find("does not divide"), std::string::npos);

  // Bench list length must match the core count.
  EXPECT_FALSE(parse_scenario("workload=ammp+parser", spec, error));
  EXPECT_NE(error.find("4 cores"), std::string::npos);

  // Unknown benchmark / malformed pattern.
  EXPECT_FALSE(parse_scenario("workload=ammp+quake3", spec, error));
  EXPECT_FALSE(parse_scenario("workload=2E+2A", spec, error));

  // Geometry that yields a non-power-of-two set count.
  EXPECT_FALSE(parse_scenario("l2-kb=384", spec, error));
  EXPECT_NE(error.find("power-of-two"), std::string::npos);

  // On failure the output spec is untouched.
  ScenarioSpec untouched;
  const std::string before = untouched.spec_string();
  EXPECT_FALSE(parse_scenario("cores=banana", untouched, error));
  EXPECT_EQ(untouched.spec_string(), before);
}

TEST(Scenario, ValidateReportsExplicitComboMismatch) {
  ScenarioSpec spec = ScenarioSpec::with_combos(
      {{"pair", 0, {"gzip", "mesa"}}});
  const std::string error = spec.validate();
  EXPECT_NE(error.find("'pair'"), std::string::npos);
  EXPECT_NE(error.find("2 benchmarks"), std::string::npos);

  spec.num_cores = 2;
  EXPECT_EQ(spec.validate(), "");
  EXPECT_EQ(spec.combos().size(), 1U);
}

TEST(Scenario, SpecFileParsesWithCommentsAndBlankLines) {
  const auto path =
      std::filesystem::temp_directory_path() / "snug_scenario_test.spec";
  {
    std::ofstream out(path);
    out << "# 8-core stress scenario\n";
    out << "name=file-stress\n";
    out << "cores=8 l2-kb=512\n";
    out << "\n";
    out << "workload=2A+2C   # half big-nonuniform, half big-uniform\n";
  }
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(parse_scenario_file(path.string(), spec, error)) << error;
  std::filesystem::remove(path);
  EXPECT_EQ(spec.name, "file-stress");
  EXPECT_EQ(spec.num_cores, 8U);
  EXPECT_EQ(spec.combos()[0].benchmarks.size(), 8U);

  EXPECT_FALSE(parse_scenario_file("/nonexistent/x.spec", spec, error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(Scenario, FingerprintCoversTopologyAndWorkload) {
  const auto fingerprint_of = [](const std::string& text) {
    ScenarioSpec spec;
    std::string error;
    EXPECT_TRUE(parse_scenario(text, spec, error)) << error;
    return scenario_fingerprint(spec);
  };

  const std::uint64_t base = fingerprint_of("cores=4 workload=1A+1B+1C+1D");
  // Same directives, same fingerprint.
  EXPECT_EQ(base, fingerprint_of("cores=4 workload=1A+1B+1C+1D"));
  // Every topology / workload / scale knob moves it.
  const std::set<std::uint64_t> variants{
      fingerprint_of("cores=8 workload=1A+1B+1C+1D"),
      fingerprint_of("cores=4 workload=1A+1B+1C+1D l1-kb=64"),
      fingerprint_of("cores=4 workload=1A+1B+1C+1D l2-kb=512"),
      fingerprint_of("cores=4 workload=1A+1B+1C+1D l2-assoc=8"),
      fingerprint_of("cores=4 workload=1A+1B+1C+1D line-bytes=32"),
      fingerprint_of("cores=4 workload=1A+1B+1C+1D bus-bytes=32"),
      fingerprint_of("cores=4 workload=1A+1B+1C+1D dram-latency=200"),
      fingerprint_of("cores=4 workload=1A+1B+1C+1D variants=2"),
      fingerprint_of("cores=4 workload=2A+2C"),
      fingerprint_of("cores=4 workload=1A+1B+1C+1D warmup-cycles=123"),
  };
  EXPECT_EQ(variants.count(base), 0U);
  EXPECT_EQ(variants.size(), 10U);  // all distinct from each other too
}

TEST(Scenario, RetiredKnobsAreUnknownKeys) {
  // The lane packer's `lanes=` and the 1-in-N capacity-monitor sampling
  // knob were removed; a stale spec naming either must fail loudly and
  // name the key, not parse into a silent no-op.  The sampling key is
  // spelled in two pieces so a source search for it finds no live use.
  for (const std::string& key :
       {std::string("lanes"), std::string("monitor") + "-sample"}) {
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(parse_scenario(key + "=4", spec, error)) << key;
    EXPECT_NE(error.find("unknown scenario key '" + key + "'"),
              std::string::npos)
        << error;
  }
}

TEST(Scenario, SummaryMentionsTopologyAndWorkload) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(parse_scenario("name=s8 cores=8 workload=2A+2C", spec, error))
      << error;
  const std::string summary = spec.summary();
  EXPECT_NE(summary.find("s8"), std::string::npos);
  EXPECT_NE(summary.find("2A+2C"), std::string::npos);
}

}  // namespace
}  // namespace snug::sim
