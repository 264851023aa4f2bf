// perfbench — shared declarations of the single-process benchmark
// program: options, the metric sink, span tracing, and the replay
// helpers that time one layer's public calls at a time.
//
// The program links snug_core and calls the simulator's public API
// directly; every workload lives in its own source file and returns a
// Result.  main.cpp prints the host header and the final JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "schemes/factory.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "sim/system.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command line of one run.  `tiny` shrinks every workload for the
/// benchmark's own tests; `corrupt` deliberately breaks one output so
/// the tests can prove a gate fails.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string corrupt;   ///< "", "digest" or "answer"
  std::string work_dir;  ///< scratch root inside the checkout
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one run reports: the correctness gate (failed ops counted
/// against ops attempted) and the metrics of the selected mode.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  ///< printed before the JSON line

  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return failed == 0 && attempted > 0; }
};

/// A workload's set-up, repeated through its run.  Repeat 0 runs before
/// the timed phase; repeat k of `count` runs once the phase is k/count
/// done.  setup_s is the fastest repeat: host interference only ever adds
/// time and comes in periods of seconds to minutes, so repeats spread
/// over the run reach its quiet stretches, where back-to-back repeats
/// would all land in the same period.
class SetupRepeats {
 public:
  /// `repeat(k)` performs set-up repeat k and returns its host seconds.
  SetupRepeats(int count, std::function<double(int)> repeat);
  /// Runs every repeat that is due at `progress` (0 before the timed
  /// phase, 1 after it).
  void at(double progress);
  [[nodiscard]] double fastest_s() const;
  /// "<n> set-up repeats (s): <each>", for the run's notes.
  [[nodiscard]] std::string summary() const;

 private:
  int count_;
  std::function<double(int)> repeat_;
  std::vector<double> seconds_;
};

/// How fast the shared host runs right now, from a fixed reference loop
/// timed between a workload's ops.  Other tenants of the host slow this
/// program by up to 1.6x for periods of seconds to minutes, longer than
/// a run, and no in-run statistic of the program's own times removes
/// that; dividing a rate by speed() does, where the loop and the program
/// slow down together.  The loop walks set-associative tag arrays shaped
/// like the simulated L2 slices (16 x 4096 sets x 8 ways with LRU
/// stamps, 6 MB), so it meets the same interference as the simulator.
/// It is the benchmark's own code, so it runs the same on every commit.
class HostProbe {
 public:
  /// Times the loop once if `every_s` seconds have passed since the
  /// last sample (or there is none yet).
  void maybe_sample(double every_s);
  /// kReferenceMs over the median loop time: about 1 in this host's
  /// quiet periods, below 1 in a slow one.  1 with no samples.
  [[nodiscard]] double speed() const;
  /// "<n> host probes (ms): median <m>, speed <s>", for the run's notes.
  [[nodiscard]] std::string summary() const;

  /// Median loop time on the reference host (Sapphire Rapids KVM guest,
  /// 4 vCPUs) in its quiet periods.  Only a scale: both sides of any
  /// comparison divide by the same constant.
  static constexpr double kReferenceMs = 22.0;

 private:
  std::vector<double> ms_;
  Clock::time_point last_{};
};

[[nodiscard]] double seconds_since(Clock::time_point t0);
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double peak_rss_mb();
/// A 64-bit hash folded to 48 bits so it survives a JSON double exactly.
[[nodiscard]] double fold48(std::uint64_t h);

/// In-memory span recorder.  Spans are appended only while enabled and
/// written out once, at exit; a disabled tracer costs one branch per
/// span.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t index_ = 0;
    std::uint64_t saved_parent_ = 0;
    bool on_ = false;
  };

  bool enabled = false;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Writes the spans as JSON lines; false on an I/O failure.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t current_ = 0;
};

Tracer& tracer();

/// Per-layer replay of one machine's measurement window.  `prepare`
/// returns a fresh machine positioned at the start of the window (built
/// and warmed, or restored); every replay starts from its own copy so
/// they all see the same state the timed op saw.
struct MachineLayers {
  double run_s = 0.0;
  double synth_ns_per_instr = 0.0;
  double l1_probe_ns = 0.0;
  double l2_access_ns = 0.0;
  double bus_transact_ns = 0.0;
  double dram_read_ns = 0.0;
  double attributed_share = 0.0;
  double residual_share = 0.0;
};

using MachineFactory =
    std::function<std::unique_ptr<snug::sim::CmpSystem>()>;

/// Exact simulated counters of one measurement window; `digest` hashes
/// all of them so a performance-only change must leave it identical.
struct WindowCounts {
  std::uint64_t retired = 0;
  std::uint64_t l1_accesses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t remote_hits = 0;
  std::uint64_t spills = 0;
  std::uint64_t evict_guest = 0;
  std::uint64_t shadow_hits = 0;
  std::uint64_t shadow_inserts = 0;
  std::uint64_t bus_transactions = 0;
  std::uint64_t bus_requests = 0;
  std::uint64_t bus_data_blocks = 0;
  std::uint64_t bus_spills = 0;
  std::uint64_t bus_wait_cycles = 0;
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_queue_cycles = 0;
  double ipc_sum = 0.0;
  std::uint64_t digest = 0;
};

/// Snapshot of the monitor counters, which survive begin_measurement():
/// window counts are taken as deltas against it.
struct MonitorBase {
  std::uint64_t shadow_hits = 0;
  std::uint64_t shadow_inserts = 0;
};
[[nodiscard]] MonitorBase monitor_base(snug::sim::CmpSystem& sys);
[[nodiscard]] WindowCounts window_counts(snug::sim::CmpSystem& sys,
                                         const MonitorBase& base);

/// Runs the window once more (timed) and replays its references through
/// trace / cache / schemes / bus / dram public calls.
[[nodiscard]] MachineLayers replay_machine(const MachineFactory& prepare,
                                           snug::Cycle window,
                                           std::uint64_t max_instr_per_core,
                                           WindowCounts* counts);

/// Campaign-tier store timings, replayed on a workload's own results.
struct StoreLayers {
  double evalcache_store_us = 0.0;
  double evalcache_load_us = 0.0;
  double journal_append_us = 0.0;
};

struct CellResult {
  snug::trace::WorkloadCombo combo;
  snug::schemes::SchemeSpec scheme;
  std::vector<double> ipc;
};

[[nodiscard]] StoreLayers replay_stores(
    const std::string& dir, const snug::sim::SystemConfig& cfg,
    const snug::sim::RunScale& scale, const std::vector<CellResult>& cells,
    bool* all_loaded_exact);

/// build / warm-up / measure phases of one cell, simulated directly.
struct CellPhases {
  double build_ms = 0.0;
  double warmup_ms = 0.0;
  double measure_ms = 0.0;
  std::vector<double> ipc;
};
[[nodiscard]] CellPhases simulate_cell_phases(
    const snug::sim::ScenarioSpec& scenario,
    const snug::schemes::SchemeSpec& scheme,
    const snug::trace::WorkloadCombo& combo);

/// The full per-layer list, zero-filled: every traced run prints every
/// name; a workload that does not exercise a layer leaves it 0.
class LayerSheet {
 public:
  LayerSheet();
  void set(const std::string& name, double value);
  void set_machine(const MachineLayers& m, const WindowCounts& c);
  [[nodiscard]] std::vector<Metric> metrics() const { return rows_; }

 private:
  std::vector<Metric> rows_;
};

Result run16_snug(const Options& opt);
Result fig9_cold(const Options& opt);
Result serve_mixed(const Options& opt);

}  // namespace perfbench
