// ScenarioSpec — one declarative description of a whole experiment
// machine: topology (core count, L1/L2 geometries, bus, DRAM), workload
// (a paper combo table, a generated class-pattern mix, or an explicit
// benchmark list) and run scale.  Any run is reproducible from one spec
// line:
//
//   cores=8 workload=2A+1B+1C variants=3 l2-kb=512
//
// Specs parse from key=value strings (whitespace/comma separated) or
// from spec files (one directive per line, '#' comments).  The default
// spec is the paper's Table 4 quad-core machine with the Table 8
// workload — ScenarioSpec::paper() reproduces the existing figure
// campaigns bit-identically.
//
// Grammar (every key optional, later keys override earlier ones):
//   name=<id>             scenario label (reports, bench output)
//   cores=<n>             2..64 cores / private L2 slices
//   l1-kb=, l1-assoc=     per-core L1I/L1D geometry (default 32 KB 4-way)
//   l2-kb=, l2-assoc=     per-core private L2 slice (default 1024 KB
//                         16-way); the shared-L2 aggregate is always
//                         cores x slice
//   line-bytes=<n>        cache line size everywhere (default 64)
//   bus-bytes=, bus-ratio=   snoop-bus width / core:bus clock ratio
//   dram-latency=<cycles>
//   workload=paper        all 21 Table-8 combos (4-core only)
//   workload=class<1..6>  one Table-8 class (4-core only)
//   workload=<pattern>    generated mix, e.g. 2A+1B+1C (any core count
//                         the pattern total divides)
//   workload=<benches>    explicit combo, e.g. ammp+parser+bzip2+mcf
//                         (one benchmark per core)
//   variants=<n>          how many rotated instances of a pattern mix
//   warmup-mode=<m>       timing (default: full-timing warm-up) or
//                         functional (fast-forward: cache/scheme state
//                         only, timing machinery skipped; enables the
//                         warm-state bank — see sim/warm_state.hpp)
//   warmup-cycles=, measure-cycles=, phase-refs=   run scale overrides
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "trace/workloads.hpp"

namespace snug::sim {

/// How a scenario selects its workload combos.
struct WorkloadSpec {
  enum class Kind : std::uint8_t {
    kPaper,      ///< all Table-8 combos (requires 4 cores)
    kClass,      ///< one Table-8 class (requires 4 cores)
    kPattern,    ///< generated class-pattern mix, any fitting core count
    kBenchList,  ///< one explicit combo, one benchmark per core
    kExplicit,   ///< programmatic combo list (tests, custom campaigns)
  };
  Kind kind = Kind::kPaper;
  int combo_class = 0;                       ///< kClass
  trace::MixPattern pattern;                 ///< kPattern
  std::uint32_t variants = 1;                ///< kPattern
  std::vector<std::string> benchmarks;       ///< kBenchList
  std::vector<trace::WorkloadCombo> combos;  ///< kExplicit
};

struct ScenarioSpec {
  std::string name = "paper";

  // ---- topology --------------------------------------------------------
  std::uint32_t num_cores = 4;
  std::uint32_t l1_kb = 32;
  std::uint32_t l1_assoc = 4;
  std::uint32_t l2_slice_kb = 1024;  ///< per-core private slice
  std::uint32_t l2_assoc = 16;
  std::uint32_t line_bytes = 64;
  std::uint32_t bus_width_bytes = 16;
  std::uint32_t bus_speed_ratio = 4;
  Cycle dram_latency = 300;

  // ---- workload / scale ------------------------------------------------
  WorkloadSpec workload;
  RunScale scale;

  /// "" when the spec describes a buildable machine; otherwise one clear
  /// sentence naming the offending field.  Checked by system_config() and
  /// combos(), so misconfiguration fails at build time with a real
  /// message instead of tripping an assertion deep in a scheme.
  [[nodiscard]] std::string validate() const;

  /// The SystemConfig this scenario describes.  Derived pieces follow the
  /// topology: the shared-L2 aggregate is num_cores x slice, the SNUG
  /// monitor mirrors the slice geometry.  Aborts (with the validate()
  /// message) on an invalid spec.
  [[nodiscard]] SystemConfig system_config() const;

  /// The workload combos this scenario runs, expanded to num_cores.
  [[nodiscard]] std::vector<trace::WorkloadCombo> combos() const;

  /// Canonical spec string; parse_scenario() round-trips it.  The one
  /// exception is a kExplicit workload with more than one combo — that
  /// shape is programmatic-only and not representable in the grammar.
  [[nodiscard]] std::string spec_string() const;

  /// Human one-liner for bench headers, e.g.
  /// "8c: 8 x 1024KB/16w L2, L1 32KB/4w, 2 combos [1A+1C]".
  [[nodiscard]] std::string summary() const;

  /// The paper's Table 4 machine + Table 8 workload at default scale
  /// (honours SNUG_FULL_SCALE, like paper_system_config()).
  [[nodiscard]] static ScenarioSpec paper();

  /// `paper()` with the workload replaced by an explicit combo list.
  [[nodiscard]] static ScenarioSpec with_combos(
      std::vector<trace::WorkloadCombo> combos);
};

/// Parses a spec string on top of ScenarioSpec::paper() defaults.
/// Directives are key=value tokens separated by whitespace and/or commas.
/// Returns false and a diagnostic in `error` on any unknown key or
/// malformed value; `out` is untouched on failure.
[[nodiscard]] bool parse_scenario(const std::string& text, ScenarioSpec& out,
                                  std::string& error);

/// Like parse_scenario(), starting from `base` instead of paper defaults.
[[nodiscard]] bool parse_scenario(const std::string& text,
                                  const ScenarioSpec& base, ScenarioSpec& out,
                                  std::string& error);

/// Parses a spec file: one directive per line (a line may also hold
/// several tokens), '#' starts a comment, blank lines are ignored.
[[nodiscard]] bool parse_scenario_file(const std::string& path,
                                       ScenarioSpec& out, std::string& error);

/// Fingerprint of everything in the spec that can change simulated
/// numbers: the full topology, the run scale and the expanded workload
/// parameters.  Built on config_fingerprint(), so the eval cache keys on
/// it transitively.
[[nodiscard]] std::uint64_t scenario_fingerprint(const ScenarioSpec& spec);

}  // namespace snug::sim
