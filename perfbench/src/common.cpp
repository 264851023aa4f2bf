#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "bench.hpp"
#include "common/bitutil.hpp"
#include "common/str.hpp"
#include "schemes/snug_scheme.hpp"
#include "sim/journal.hpp"

namespace perfbench {

using namespace snug;

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    notes.push_back("FAILED: " + what);
  }
}

SetupRepeats::SetupRepeats(int count, std::function<double(int)> repeat)
    : count_(count), repeat_(std::move(repeat)) {}

void SetupRepeats::at(double progress) {
  while (static_cast<int>(seconds_.size()) < count_ &&
         static_cast<double>(seconds_.size()) <= progress * count_) {
    seconds_.push_back(repeat_(static_cast<int>(seconds_.size())));
  }
}

double SetupRepeats::fastest_s() const {
  return seconds_.empty()
             ? 0.0
             : *std::min_element(seconds_.begin(), seconds_.end());
}

std::string SetupRepeats::summary() const {
  std::string out = strf("%zu set-up repeats (s):", seconds_.size());
  for (const double v : seconds_) out += strf(" %.3f", v);
  return out;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double fold48(std::uint64_t h) {
  return static_cast<double>((h ^ (h >> 48)) & ((1ULL << 48) - 1));
}

// ------------------------------------------------------------- tracing

Tracer& tracer() {
  static Tracer t;
  return t;
}

Tracer::Scope::Scope(Tracer& t, const char* name) : t_(t), on_(t.enabled) {
  if (!on_) return;
  Span s;
  s.name = name;
  s.id = t_.next_id_++;
  s.parent = t_.current_;
  s.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t_.origin_)
          .count();
  index_ = t_.spans_.size();
  saved_parent_ = t_.current_;
  t_.current_ = s.id;
  t_.spans_.push_back(std::move(s));
}

Tracer::Scope::~Scope() {
  if (!on_) return;
  t_.spans_[index_].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t_.origin_)
          .count();
  t_.current_ = saved_parent_;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.start_us,
                 s.end_us);
  }
  return std::fclose(f) == 0;
}

// ------------------------------------------------------ window counters

namespace {

std::uint32_t cores_of(sim::CmpSystem& sys) {
  return static_cast<std::uint32_t>(sys.measured_ipc().size());
}

const schemes::SnugScheme* as_snug(const sim::CmpSystem& sys) {
  return dynamic_cast<const schemes::SnugScheme*>(&sys.scheme());
}

/// Keeps a replay loop's results observable to the optimiser.
void keep(std::uint64_t v) {
  static volatile std::uint64_t sink = 0;
  sink = sink + v;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

// ------------------------------------------------------------ host probe

namespace {

/// One pass of the probe loop: 500k lookups of pseudo-random lines in
/// 16 tag arrays of 4096 sets x 8 ways, refilling the LRU way on a miss.
double probe_loop_ms() {
  constexpr std::size_t kSlices = 16;
  constexpr std::size_t kSets = 4096;
  constexpr std::size_t kWays = 8;
  static std::vector<std::uint64_t> tags(kSlices * kSets * kWays, 0);
  static std::vector<std::uint32_t> stamps(kSlices * kSets * kWays, 0);
  static std::uint64_t x = 0x9E3779B97F4A7C15ULL;  // xorshift64 state
  static std::uint32_t clock = 0;
  std::uint64_t hits = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < 500'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t line = (x & 0xFFFFF) | ((x >> 40) & 0x3) << 20;
    const std::size_t base =
        (((x >> 50) & (kSlices - 1)) * kSets + (line & (kSets - 1))) * kWays;
    const std::uint64_t tag = line >> 12;
    std::size_t victim = base;
    bool hit = false;
    for (std::size_t w = base; w < base + kWays; ++w) {
      if (tags[w] == tag) {
        stamps[w] = ++clock;
        hit = true;
        break;
      }
      if (stamps[w] < stamps[victim]) victim = w;
    }
    if (hit) {
      ++hits;
    } else {
      tags[victim] = tag;
      stamps[victim] = ++clock;
    }
  }
  const double ms = seconds_since(t0) * 1e3;
  keep(hits);
  return ms;
}

}  // namespace

void HostProbe::maybe_sample(double every_s) {
  if (!ms_.empty() && seconds_since(last_) < every_s) return;
  ms_.push_back(probe_loop_ms());
  last_ = Clock::now();
}

double HostProbe::speed() const {
  return ms_.empty() ? 1.0 : kReferenceMs / median(ms_);
}

std::string HostProbe::summary() const {
  return strf("%zu host probes (ms): median %.2f, speed %.3f", ms_.size(),
              median(ms_), speed());
}

MonitorBase monitor_base(sim::CmpSystem& sys) {
  MonitorBase b;
  if (const auto* snug = as_snug(sys)) {
    for (CoreId c = 0; c < cores_of(sys); ++c) {
      b.shadow_hits += snug->monitor(c).stats().shadow_hits();
      b.shadow_inserts += snug->monitor(c).stats().shadow_inserts();
    }
  }
  return b;
}

WindowCounts window_counts(sim::CmpSystem& sys, const MonitorBase& base) {
  WindowCounts w;
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const std::vector<double> ipc = sys.measured_ipc();
  for (CoreId c = 0; c < ipc.size(); ++c) {
    const auto& cs = sys.core(c).stats();
    const auto& l1 = sys.l1d(c).stats();
    w.retired += cs.retired;
    w.l1_accesses += l1.hits() + l1.misses();
    w.ipc_sum += ipc[c];
    h = mix(h, cs.retired);
    h = mix(h, l1.hits());
    h = mix(h, l1.misses());
    std::uint64_t bits = 0;
    std::memcpy(&bits, &ipc[c], sizeof bits);
    h = mix(h, bits);
  }
  const auto& s = sys.scheme().stats();
  w.l2_hits = s.l2_hits();
  w.l2_misses = s.l2_misses();
  w.remote_hits = s.remote_hits();
  w.spills = s.spills();
  w.evict_guest = s.evict_guest();
  for (const std::uint64_t word : s.words()) h = mix(h, word);
  const MonitorBase now = monitor_base(sys);
  w.shadow_hits = now.shadow_hits - base.shadow_hits;
  w.shadow_inserts = now.shadow_inserts - base.shadow_inserts;
  h = mix(h, w.shadow_hits);
  h = mix(h, w.shadow_inserts);
  const auto& b = sys.snoop_bus().stats();
  w.bus_requests = b.requests();
  w.bus_data_blocks = b.data_blocks();
  w.bus_spills = b.spills();
  w.bus_transactions = w.bus_requests + w.bus_data_blocks + w.bus_spills;
  w.bus_wait_cycles = b.wait_core_cycles();
  for (const std::uint64_t word : b.words()) h = mix(h, word);
  const auto& d = sys.dram().stats();
  w.dram_reads = d.reads();
  w.dram_queue_cycles = d.queue_cycles();
  for (const std::uint64_t word : d.words()) h = mix(h, word);
  w.digest = mix(h, sys.now());
  return w;
}

// ------------------------------------------------------ machine replay

MachineLayers replay_machine(const MachineFactory& prepare, Cycle window,
                             std::uint64_t max_instr_per_core,
                             WindowCounts* counts) {
  MachineLayers out;

  // The window itself, timed, on its own machine.
  std::vector<std::uint64_t> retired;
  WindowCounts wc;
  {
    const auto m = prepare();
    const MonitorBase base = monitor_base(*m);
    m->begin_measurement();
    const auto t0 = Clock::now();
    m->run(window);
    out.run_s = seconds_since(t0);
    wc = window_counts(*m, base);
    for (CoreId c = 0; c < cores_of(*m); ++c) {
      retired.push_back(m->core(c).stats().retired);
    }
  }
  if (counts != nullptr) *counts = wc;
  const auto cores = static_cast<std::uint32_t>(retired.size());

  // trace: SyntheticStream::fill_batch regenerates the window's
  // instruction stream from the restored cursors.
  struct Ref {
    CoreId core;
    bool write;
    Addr addr;
  };
  std::vector<Ref> refs;
  {
    const auto m = prepare();
    std::vector<std::vector<std::uint8_t>> code(cores);
    std::vector<std::vector<Addr>> addr(cores);
    std::uint64_t total = 0;
    for (CoreId c = 0; c < cores; ++c) {
      const std::uint64_t n =
          std::max<std::uint64_t>(1, std::min(retired[c], max_instr_per_core));
      code[c].resize(n);
      addr[c].resize(n);
      total += n;
    }
    const auto t0 = Clock::now();
    for (CoreId c = 0; c < cores; ++c) {
      m->stream(c).fill_batch(code[c].data(), addr[c].data(),
                              code[c].size());
    }
    out.synth_ns_per_instr =
        seconds_since(t0) * 1e9 / static_cast<double>(total);
    // Interleave the cores' data references round-robin, as the
    // machine's (cycle, core) order roughly does.
    std::vector<std::size_t> pos(cores, 0);
    for (bool more = true; more;) {
      more = false;
      for (CoreId c = 0; c < cores; ++c) {
        std::size_t& i = pos[c];
        while (i < code[c].size() && (code[c][i] >> 1) != 1) ++i;
        if (i == code[c].size()) continue;
        refs.push_back({c, (code[c][i] & 1) != 0, addr[c][i]});
        ++i;
        more = true;
      }
    }
  }

  // cache: the L1D probe (with the fills of its misses, so later
  // references see the contents the machine would have).
  std::vector<Ref> misses;
  {
    const auto m = prepare();
    const auto t0 = Clock::now();
    for (const Ref& r : refs) {
      if (!m->probe_data(r.core, r.addr, r.write)) {
        misses.push_back(r);
        cache::SetAssocCache& l1 = m->l1d(r.core);
        l1.fill_local(l1.geometry().block_of(r.addr), r.write, r.core);
      }
    }
    out.l1_probe_ns = refs.empty() ? 0.0
                                   : seconds_since(t0) * 1e9 /
                                         static_cast<double>(refs.size());
  }

  // The i-th of n events spread evenly over the window.
  const auto at = [window](Cycle start, std::uint64_t i, std::uint64_t n) {
    return start + static_cast<Cycle>(static_cast<double>(window) *
                                      static_cast<double>(i) /
                                      static_cast<double>(n));
  };

  // schemes: L2Scheme::access for the L1 misses, time spread over the
  // window so epoch and bus state advance as in the run.
  {
    const auto m = prepare();
    const Cycle start = m->now();
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < misses.size(); ++i) {
      sink += m->scheme().access(misses[i].core, misses[i].addr,
                                 misses[i].write,
                                 at(start, i, misses.size()));
    }
    out.l2_access_ns = misses.empty() ? 0.0
                                      : seconds_since(t0) * 1e9 /
                                            static_cast<double>(misses.size());
    keep(sink);
  }

  // bus / dram: the window's transaction mix at its own density.
  {
    const auto m = prepare();
    const std::uint64_t n_bus =
        std::min<std::uint64_t>(wc.bus_transactions, 1'000'000);
    const std::uint64_t n_dram =
        std::min<std::uint64_t>(wc.dram_reads, 1'000'000);
    const Cycle start = m->now();
    std::uint64_t sink = 0;
    if (n_bus > 0) {
      const std::uint64_t t = wc.bus_transactions;
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < n_bus; ++i) {
        // Deterministic interleave in the window's op proportions.
        const std::uint64_t k = (i * 2654435761ULL) % t;
        const bus::BusOp op =
            k < wc.bus_requests
                ? bus::BusOp::kRequest
                : (k < wc.bus_requests + wc.bus_data_blocks
                       ? bus::BusOp::kDataBlock
                       : bus::BusOp::kSpill);
        sink += m->snoop_bus().transact(at(start, i, t), op).finished;
      }
      out.bus_transact_ns =
          seconds_since(t0) * 1e9 / static_cast<double>(n_bus);
    }
    if (n_dram > 0) {
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < n_dram; ++i) {
        sink += m->dram().read(at(start, i, wc.dram_reads));
      }
      out.dram_read_ns =
          seconds_since(t0) * 1e9 / static_cast<double>(n_dram);
    }
    keep(sink);
  }

  // The scheme replay already contains its bus and DRAM calls, so the
  // attributed sum counts them once, inside schemes.
  const double attributed =
      out.synth_ns_per_instr * static_cast<double>(wc.retired) +
      out.l1_probe_ns * static_cast<double>(wc.l1_accesses) +
      out.l2_access_ns * static_cast<double>(wc.l2_hits + wc.l2_misses);
  out.attributed_share = attributed * 1e-9 / out.run_s;
  out.residual_share = 1.0 - out.attributed_share;
  return out;
}

// ------------------------------------------------------ campaign tier

StoreLayers replay_stores(const std::string& dir,
                          const sim::SystemConfig& cfg,
                          const sim::RunScale& scale,
                          const std::vector<CellResult>& cells,
                          bool* all_loaded_exact) {
  namespace fs = std::filesystem;
  StoreLayers out;
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::uint64_t> fps;
  std::vector<std::string> keys;
  for (const CellResult& c : cells) {
    fps.push_back(sim::run_fingerprint(cfg, scale, c.combo, c.scheme));
    keys.push_back(c.combo.name + "__" + c.scheme.id());
  }
  std::vector<double> store_us;
  std::vector<double> load_us;
  std::vector<double> append_us;
  bool exact = true;
  {
    const sim::EvalCache cache((fs::path(dir) / "cache").string());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto t0 = Clock::now();
      cache.store(keys[i], fps[i], cells[i].ipc);
      store_us.push_back(seconds_since(t0) * 1e6);
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      std::vector<double> ipc;
      const auto t0 = Clock::now();
      const bool ok = cache.load(keys[i], fps[i], ipc);
      load_us.push_back(seconds_since(t0) * 1e6);
      exact = exact && ok && ipc == cells[i].ipc;
    }
  }
  {
    sim::CampaignJournal journal((fs::path(dir) / "replay.journal").string(),
                                 0x5045524642454E43ULL);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto t0 = Clock::now();
      journal.append(fps[i], cells[i].ipc);
      append_us.push_back(seconds_since(t0) * 1e6);
    }
    exact = exact && journal.append_failures() == 0;
  }
  fs::remove_all(dir);
  out.evalcache_store_us = median(store_us);
  out.evalcache_load_us = median(load_us);
  out.journal_append_us = median(append_us);
  if (all_loaded_exact != nullptr) *all_loaded_exact = exact;
  return out;
}

CellPhases simulate_cell_phases(const sim::ScenarioSpec& scenario,
                                const schemes::SchemeSpec& scheme,
                                const trace::WorkloadCombo& combo) {
  CellPhases p;
  auto t0 = Clock::now();
  sim::CmpSystem sys(scenario.system_config(), scheme, combo, scenario.scale);
  p.build_ms = seconds_since(t0) * 1e3;
  t0 = Clock::now();
  if (scenario.scale.warmup_mode == sim::WarmupMode::kFunctional) {
    sys.warm_functional(scenario.scale.warmup_cycles);
  } else {
    sys.run(scenario.scale.warmup_cycles);
  }
  p.warmup_ms = seconds_since(t0) * 1e3;
  t0 = Clock::now();
  sys.begin_measurement();
  sys.run(scenario.scale.measure_cycles);
  p.measure_ms = seconds_since(t0) * 1e3;
  p.ipc = sys.measured_ipc();
  return p;
}

// ------------------------------------------------------ per-layer sheet

namespace {

struct LayerName {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in print order.  BENCHMARK.json's per_layer
// list must name exactly these (tests/test_perfbench.py checks it).
constexpr LayerName kLayers[] = {
    {"work_per_s_raw", "1/s"},
    {"op_p50_ms", "ms"},
    {"cell_p50_ms", "ms"},
    {"cell_p90_ms", "ms"},
    {"sweep_p50_us", "us"},
    {"miss_p50_ms", "ms"},
    {"file_p50_ms", "ms"},
    {"trace.synth_ns_per_instr", "ns"},
    {"cache.l1_probe_ns", "ns"},
    {"schemes.l2_access_ns", "ns"},
    {"bus.transact_ns", "ns"},
    {"dram.read_ns", "ns"},
    {"sim.run_attributed_share", "ratio"},
    {"cpu.step_residual_share", "ratio"},
    {"schemes.l2_hits", "count"},
    {"schemes.l2_misses", "count"},
    {"schemes.remote_hits", "count"},
    {"schemes.spills", "count"},
    {"schemes.evict_guest", "count"},
    {"schemes.retrieve_per_spill", "ratio"},
    {"core.shadow_hits", "count"},
    {"core.shadow_inserts", "count"},
    {"bus.wait_cycles_per_miss", "cycles"},
    {"dram.queue_cycles", "cycles"},
    {"sim.ipc_sum", "ipc"},
    {"sim.digest", "hash48"},
    {"sim.build_ms", "ms"},
    {"sim.warm_functional_s", "s"},
    {"sim.warm_save_ms", "ms"},
    {"sim.warm_restore_ms", "ms"},
    {"sim.cell_build_ms", "ms"},
    {"sim.cell_warmup_ms", "ms"},
    {"sim.cell_measure_ms", "ms"},
    {"sim.evalcache_store_us", "us"},
    {"sim.evalcache_load_us", "us"},
    {"sim.journal_append_us", "us"},
    {"sim.campaign_residual_share", "ratio"},
    {"sim.worker_busy_share", "ratio"},
    {"fig9.cell_digest", "hash48"},
    {"fig9.csv_digest", "hash48"},
    {"fig9.second_pass_cached", "count"},
    {"service.index_lookup_ns", "ns"},
    {"service.encode_batch_answer_us", "us"},
    {"service.parse_batch_answer_us", "us"},
    {"service.miss_simulate_ms", "ms"},
    {"service.cells_from_cache", "count"},
    {"service.ring_inline_answers", "count"},
    {"service.ring_backlogged", "count"},
    {"service.submit_scans_skipped", "count"},
    {"service.queries_shed", "count"},
    {"service.publish_failures", "count"},
    {"service.sweep_p90_us", "us"},
    {"service.sweep_p99_us", "us"},
    {"service.sweep_samples", "count"},
    {"service.hit1_p50_us", "us"},
    {"service.hit1_samples", "count"},
    {"service.miss_samples", "count"},
    {"service.file_samples", "count"},
    {"bench.trace_overhead_share", "ratio"},
    {"bench.spans", "count"},
    {"bench.host_speed", "ratio"},
};

}  // namespace

LayerSheet::LayerSheet() {
  for (const LayerName& l : kLayers) rows_.push_back({l.name, l.unit, 0.0});
}

void LayerSheet::set(const std::string& name, double value) {
  for (Metric& m : rows_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
               name.c_str());
  std::abort();
}

void LayerSheet::set_machine(const MachineLayers& m, const WindowCounts& c) {
  set("trace.synth_ns_per_instr", m.synth_ns_per_instr);
  set("cache.l1_probe_ns", m.l1_probe_ns);
  set("schemes.l2_access_ns", m.l2_access_ns);
  set("bus.transact_ns", m.bus_transact_ns);
  set("dram.read_ns", m.dram_read_ns);
  set("sim.run_attributed_share", m.attributed_share);
  set("cpu.step_residual_share", m.residual_share);
  set("schemes.l2_hits", static_cast<double>(c.l2_hits));
  set("schemes.l2_misses", static_cast<double>(c.l2_misses));
  set("schemes.remote_hits", static_cast<double>(c.remote_hits));
  set("schemes.spills", static_cast<double>(c.spills));
  set("schemes.evict_guest", static_cast<double>(c.evict_guest));
  set("schemes.retrieve_per_spill",
      c.spills == 0 ? 0.0
                    : static_cast<double>(c.remote_hits) /
                          static_cast<double>(c.spills));
  set("core.shadow_hits", static_cast<double>(c.shadow_hits));
  set("core.shadow_inserts", static_cast<double>(c.shadow_inserts));
  set("bus.wait_cycles_per_miss",
      c.l2_misses == 0 ? 0.0
                       : static_cast<double>(c.bus_wait_cycles) /
                             static_cast<double>(c.l2_misses));
  set("dram.queue_cycles", static_cast<double>(c.dram_queue_cycles));
  set("sim.ipc_sum", c.ipc_sum);
  set("sim.digest", fold48(c.digest));
}

}  // namespace perfbench
