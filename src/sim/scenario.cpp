#include "sim/scenario.hpp"

#include <fstream>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/str.hpp"
#include "trace/profile.hpp"

namespace snug::sim {
namespace {

[[nodiscard]] bool is_power_of_two(std::uint64_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

/// Sets per cache: capacity / (assoc * line); "" on success.
std::string check_geometry(const char* what, std::uint64_t capacity_bytes,
                           std::uint32_t assoc, std::uint32_t line_bytes,
                           std::string& error) {
  if (assoc == 0) return error = strf("%s associativity must be >= 1", what);
  if (!is_power_of_two(line_bytes)) {
    return error = strf("%s line size %u is not a power of two", what,
                        line_bytes);
  }
  const std::uint64_t set_bytes =
      static_cast<std::uint64_t>(assoc) * line_bytes;
  if (capacity_bytes == 0 || capacity_bytes % set_bytes != 0 ||
      !is_power_of_two(capacity_bytes / set_bytes)) {
    return error = strf(
               "%s capacity %llu B does not give a power-of-two set count "
               "at %u ways x %u B lines",
               what, static_cast<unsigned long long>(capacity_bytes), assoc,
               line_bytes);
  }
  return error = "";
}

/// Splits a spec string into tokens on whitespace and commas.
std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (const char ch : text) {
    if (ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r' || ch == ',') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += ch;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

bool parse_u64(const std::string& value, std::uint64_t& out) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos ||
      value.size() > 18) {
    return false;
  }
  out = std::stoull(value);
  return true;
}

bool parse_u32(const std::string& value, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(value, v) || v > 0xFFFFFFFFULL) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

/// workload=<value>: paper | class<N> | mix pattern | bench list.
bool parse_workload_value(const std::string& value, WorkloadSpec& out,
                          std::string& error) {
  if (value == "paper") {
    out = WorkloadSpec{};
    return true;
  }
  if (value.rfind("class", 0) == 0) {
    const std::string digits = value.substr(5);
    std::uint32_t cls = 0;
    if (!parse_u32(digits, cls) || cls < 1 || cls > 6) {
      error = "workload class must be class1..class6, got '" + value + "'";
      return false;
    }
    out = WorkloadSpec{};
    out.kind = WorkloadSpec::Kind::kClass;
    out.combo_class = static_cast<int>(cls);
    return true;
  }
  // A '+'-joined value is a class pattern when every term parses as
  // <count><class letter>; otherwise it must be a benchmark list.
  trace::MixPattern pattern;
  std::string pattern_error;
  if (trace::parse_mix_pattern(value, pattern, pattern_error)) {
    out = WorkloadSpec{};
    out.kind = WorkloadSpec::Kind::kPattern;
    out.pattern = std::move(pattern);
    return true;
  }
  std::vector<std::string> benches = split(value, '+');
  for (const auto& b : benches) {
    if (b.empty()) {
      error = "empty benchmark name in workload '" + value + "'";
      return false;
    }
    bool known = false;
    for (const auto& prof : trace::all_profiles()) {
      if (prof.name == b) known = true;
    }
    if (!known) {
      error = strf("workload '%s' is neither a class pattern (%s) nor a "
                   "list of known benchmarks ('%s' is not in the registry)",
                   value.c_str(), pattern_error.c_str(), b.c_str());
      return false;
    }
  }
  out = WorkloadSpec{};
  out.kind = WorkloadSpec::Kind::kBenchList;
  out.benchmarks = std::move(benches);
  return true;
}

std::string workload_value_string(const WorkloadSpec& w) {
  switch (w.kind) {
    case WorkloadSpec::Kind::kPaper:
      return "paper";
    case WorkloadSpec::Kind::kClass:
      return strf("class%d", w.combo_class);
    case WorkloadSpec::Kind::kPattern:
      return w.pattern.to_string();
    case WorkloadSpec::Kind::kBenchList: {
      std::string out;
      for (const auto& b : w.benchmarks) {
        if (!out.empty()) out += '+';
        out += b;
      }
      return out;
    }
    case WorkloadSpec::Kind::kExplicit:
      // A single explicit combo is expressible as a bench list, so the
      // spec string stays parseable; larger programmatic lists are not
      // representable in the grammar.
      if (w.combos.size() == 1) {
        std::string out;
        for (const auto& b : w.combos[0].benchmarks) {
          if (!out.empty()) out += '+';
          out += b;
        }
        return out;
      }
      return strf("<%zu explicit combos>", w.combos.size());
  }
  return "?";
}

}  // namespace

std::string ScenarioSpec::validate() const {
  std::string error;
  if (num_cores < 2 || num_cores > 64) {
    return strf("cores=%u is out of range (the cooperative schemes need "
                "2..64 cores)",
                num_cores);
  }
  if (!check_geometry("L1", static_cast<std::uint64_t>(l1_kb) << 10,
                      l1_assoc, line_bytes, error)
           .empty()) {
    return error;
  }
  if (!check_geometry("L2 slice",
                      static_cast<std::uint64_t>(l2_slice_kb) << 10,
                      l2_assoc, line_bytes, error)
           .empty()) {
    return error;
  }
  const std::uint64_t slice_sets =
      (static_cast<std::uint64_t>(l2_slice_kb) << 10) /
      (static_cast<std::uint64_t>(l2_assoc) * line_bytes);
  // The SNUG grouper pairs each set with its last-index-bit buddy, so a
  // slice needs at least one buddy pair.
  if (slice_sets < 2) {
    return strf("L2 slice has %llu set(s); index-bit flipping needs >= 2",
                static_cast<unsigned long long>(slice_sets));
  }
  // The shared-L2 aggregate (cores x slice) keeps a power-of-two set
  // count only for power-of-two core counts.
  if (!is_power_of_two(num_cores)) {
    return strf("cores=%u: the shared-L2 aggregate (cores x slice) needs a "
                "power-of-two core count",
                num_cores);
  }
  if (bus_width_bytes == 0 || bus_speed_ratio == 0) {
    return "bus-bytes and bus-ratio must be >= 1";
  }
  if (dram_latency == 0) return "dram-latency must be >= 1";
  if (scale.warmup_cycles == 0 || scale.measure_cycles == 0 ||
      scale.phase_period_refs == 0) {
    return "warmup-cycles, measure-cycles and phase-refs must be >= 1";
  }

  switch (workload.kind) {
    case WorkloadSpec::Kind::kPaper:
    case WorkloadSpec::Kind::kClass:
      if (num_cores != 4) {
        return strf("workload=%s uses the quad-core Table 8 combos, but "
                    "the scenario has %u cores — use a class pattern "
                    "(e.g. workload=2A+1B+1C) instead",
                    workload_value_string(workload).c_str(), num_cores);
      }
      break;
    case WorkloadSpec::Kind::kPattern: {
      if (workload.variants == 0) return "variants must be >= 1";
      trace::WorkloadCombo probe;
      if (!trace::expand_mix_pattern(workload.pattern, num_cores, 0, probe,
                                     error)) {
        return error;
      }
      break;
    }
    case WorkloadSpec::Kind::kBenchList:
      if (workload.benchmarks.size() != num_cores) {
        return strf("workload lists %zu benchmarks but the scenario has "
                    "%u cores (one benchmark per core)",
                    workload.benchmarks.size(), num_cores);
      }
      break;
    case WorkloadSpec::Kind::kExplicit:
      for (const auto& combo : workload.combos) {
        if (combo.benchmarks.size() != num_cores) {
          return strf("combo '%s' provides %zu benchmarks but the scenario "
                      "machine has %u cores",
                      combo.name.c_str(), combo.benchmarks.size(),
                      num_cores);
        }
      }
      break;
  }
  return "";
}

SystemConfig ScenarioSpec::system_config() const {
  const std::string error = validate();
  SNUG_REQUIRE_MSG(error.empty(), "invalid scenario '%s': %s", name.c_str(),
                   error.c_str());

  // Start from the paper machine so every knob the spec does not expose
  // (core pipeline, WBB, SNUG counters/epochs, latencies) keeps its
  // Table 4 value — the default spec is field-for-field identical to
  // paper_system_config().
  SystemConfig cfg = paper_system_config();
  cfg.num_cores = num_cores;
  cfg.l1i = cache::CacheGeometry(static_cast<std::uint64_t>(l1_kb) << 10,
                                 l1_assoc, line_bytes);
  cfg.l1d = cfg.l1i;
  cfg.scheme_ctx.priv.num_cores = num_cores;
  cfg.scheme_ctx.priv.l2 = cache::CacheGeometry(
      static_cast<std::uint64_t>(l2_slice_kb) << 10, l2_assoc, line_bytes);
  cfg.scheme_ctx.shared.num_cores = num_cores;
  cfg.scheme_ctx.shared.l2 = cache::CacheGeometry(
      (static_cast<std::uint64_t>(l2_slice_kb) << 10) * num_cores, l2_assoc,
      line_bytes);
  cfg.scheme_ctx.snug.monitor.num_sets = cfg.scheme_ctx.priv.l2.num_sets();
  cfg.scheme_ctx.snug.monitor.assoc =
      cfg.scheme_ctx.priv.l2.associativity();
  cfg.bus.width_bytes = bus_width_bytes;
  cfg.bus.speed_ratio = bus_speed_ratio;
  cfg.bus.block_bytes = line_bytes;
  cfg.dram.latency = dram_latency;
  return cfg;
}

std::vector<trace::WorkloadCombo> ScenarioSpec::combos() const {
  const std::string error = validate();
  SNUG_REQUIRE_MSG(error.empty(), "invalid scenario '%s': %s", name.c_str(),
                   error.c_str());
  switch (workload.kind) {
    case WorkloadSpec::Kind::kPaper:
      return trace::all_combos();
    case WorkloadSpec::Kind::kClass:
      return trace::combos_in_class(workload.combo_class);
    case WorkloadSpec::Kind::kPattern:
      return trace::generate_mix_combos(workload.pattern, num_cores,
                                        workload.variants);
    case WorkloadSpec::Kind::kBenchList:
      return {trace::custom_combo(workload.benchmarks)};
    case WorkloadSpec::Kind::kExplicit:
      return workload.combos;
  }
  SNUG_ENSURE(false);
  return {};
}

std::string ScenarioSpec::spec_string() const {
  std::string out = strf(
      "name=%s cores=%u l1-kb=%u l1-assoc=%u l2-kb=%u l2-assoc=%u "
      "line-bytes=%u bus-bytes=%u bus-ratio=%u dram-latency=%llu "
      "workload=%s",
      name.c_str(), num_cores, l1_kb, l1_assoc, l2_slice_kb, l2_assoc,
      line_bytes, bus_width_bytes, bus_speed_ratio,
      static_cast<unsigned long long>(dram_latency),
      workload_value_string(workload).c_str());
  if (workload.kind == WorkloadSpec::Kind::kPattern) {
    out += strf(" variants=%u", workload.variants);
  }
  if (scale.warmup_mode == WarmupMode::kFunctional) {
    out += " warmup-mode=functional";
  }
  out += strf(" warmup-cycles=%llu measure-cycles=%llu phase-refs=%llu",
              static_cast<unsigned long long>(scale.warmup_cycles),
              static_cast<unsigned long long>(scale.measure_cycles),
              static_cast<unsigned long long>(scale.phase_period_refs));
  return out;
}

std::string ScenarioSpec::summary() const {
  const std::size_t n_combos = combos().size();
  return strf("%s: %u x %uKB/%uw private L2 (shared %uKB), L1 %uKB/%uw, "
              "%zu combo(s) [%s]",
              name.c_str(), num_cores, l2_slice_kb, l2_assoc,
              l2_slice_kb * num_cores, l1_kb, l1_assoc, n_combos,
              workload_value_string(workload).c_str());
}

ScenarioSpec ScenarioSpec::paper() {
  ScenarioSpec spec;
  spec.scale = default_run_scale();  // honours SNUG_FULL_SCALE
  return spec;
}

ScenarioSpec ScenarioSpec::with_combos(
    std::vector<trace::WorkloadCombo> combos) {
  ScenarioSpec spec = paper();
  spec.workload.kind = WorkloadSpec::Kind::kExplicit;
  spec.workload.combos = std::move(combos);
  return spec;
}

bool parse_scenario(const std::string& text, const ScenarioSpec& base,
                    ScenarioSpec& out, std::string& error) {
  ScenarioSpec spec = base;
  for (const auto& token : tokenize(text)) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      error = "directive '" + token + "' is not key=value";
      return false;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);

    const auto set_u32 = [&](std::uint32_t& field) {
      if (!parse_u32(value, field)) {
        error = key + " wants an unsigned integer, got '" + value + "'";
        return false;
      }
      return true;
    };
    const auto set_u64 = [&](std::uint64_t& field) {
      if (!parse_u64(value, field)) {
        error = key + " wants an unsigned integer, got '" + value + "'";
        return false;
      }
      return true;
    };

    if (key == "name") {
      spec.name = value;
    } else if (key == "cores") {
      if (!set_u32(spec.num_cores)) return false;
    } else if (key == "l1-kb") {
      if (!set_u32(spec.l1_kb)) return false;
    } else if (key == "l1-assoc") {
      if (!set_u32(spec.l1_assoc)) return false;
    } else if (key == "l2-kb") {
      if (!set_u32(spec.l2_slice_kb)) return false;
    } else if (key == "l2-assoc") {
      if (!set_u32(spec.l2_assoc)) return false;
    } else if (key == "line-bytes") {
      if (!set_u32(spec.line_bytes)) return false;
    } else if (key == "bus-bytes") {
      if (!set_u32(spec.bus_width_bytes)) return false;
    } else if (key == "bus-ratio") {
      if (!set_u32(spec.bus_speed_ratio)) return false;
    } else if (key == "dram-latency") {
      if (!set_u64(spec.dram_latency)) return false;
    } else if (key == "workload") {
      // Directives are order free: a variants= seen before workload=
      // must survive the workload reset.
      const std::uint32_t variants = spec.workload.variants;
      if (!parse_workload_value(value, spec.workload, error)) return false;
      spec.workload.variants = variants;
    } else if (key == "variants") {
      if (!set_u32(spec.workload.variants)) return false;
      if (spec.workload.variants == 0) {
        error = "variants must be >= 1";
        return false;
      }
    } else if (key == "warmup-mode") {
      if (value == "timing") {
        spec.scale.warmup_mode = WarmupMode::kTiming;
      } else if (value == "functional") {
        spec.scale.warmup_mode = WarmupMode::kFunctional;
      } else {
        error = "warmup-mode must be 'timing' or 'functional', got '" +
                value + "'";
        return false;
      }
    } else if (key == "warmup-cycles") {
      if (!set_u64(spec.scale.warmup_cycles)) return false;
    } else if (key == "measure-cycles") {
      if (!set_u64(spec.scale.measure_cycles)) return false;
    } else if (key == "phase-refs") {
      if (!set_u64(spec.scale.phase_period_refs)) return false;
    } else {
      error = "unknown scenario key '" + key +
              "' (see the grammar in sim/scenario.hpp)";
      return false;
    }
  }
  const std::string invalid = spec.validate();
  if (!invalid.empty()) {
    error = invalid;
    return false;
  }
  out = std::move(spec);
  return true;
}

bool parse_scenario(const std::string& text, ScenarioSpec& out,
                    std::string& error) {
  return parse_scenario(text, ScenarioSpec::paper(), out, error);
}

bool parse_scenario_file(const std::string& path, ScenarioSpec& out,
                         std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open scenario file '" + path + "'";
    return false;
  }
  std::string joined;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    joined += line;
    joined += '\n';
  }
  if (!parse_scenario(joined, out, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

std::uint64_t scenario_fingerprint(const ScenarioSpec& spec) {
  std::string tag = "scenario|" + workload_value_string(spec.workload);
  for (const auto& combo : spec.combos()) {
    tag += '|';
    tag += combo.name;
    for (const auto& b : combo.benchmarks) {
      tag += '+';
      tag += b;
    }
  }
  return Rng::derive_seed(
      tag, config_fingerprint(spec.system_config(), spec.scale));
}

}  // namespace snug::sim
