// run16_snug — one thread simulating a warm 16-core SNUG machine.
//
// Why: the core loop does nearly all the work here, on warm caches where
// SNUG really spills and retrieves; store and service code does none.
// 256 KB slices fill with 2M functional warm-up cycles, after which a
// 500k-cycle window already sees thousands of spills, remote hits and
// guest evictions (1 MB slices need 20M warm-up cycles for the same).
// Short ops, many of them, each preceded by a host probe: the rate is
// the median op's, divided by the host's speed over the run.
//
// Set-up builds the machine, warms it functionally and saves the
// warm-state blob.  Each op builds a machine, restores the blob and
// simulates the same window, so every op does identical simulated work
// and must produce the identical counter digest.
#include <cstdio>

#include "bench.hpp"
#include "common/str.hpp"

namespace perfbench {

using namespace snug;

namespace {

constexpr int kSetupRepeats = 6;

struct Setup {
  sim::ScenarioSpec scenario;
  schemes::SchemeSpec scheme;
  trace::WorkloadCombo combo;
  Cycle window = 0;
  std::vector<std::byte> blob;
};

struct PhaseStats {
  std::vector<double> op_ms;
  std::vector<double> instr_per_s;
  std::vector<double> build_ms;
  std::vector<double> restore_ms;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The timed phase: identical ops for `seconds`, with the set-up repeats
/// interleaved.  With `alternate`, every other op runs traced and lands
/// in `traced`, so both sides see the same host periods.
void timed_ops(const Setup& s, const WindowCounts& reference, double seconds,
               bool alternate, SetupRepeats& setups, HostProbe& probe,
               const Options& opt, Result& r, PhaseStats& plain,
               PhaseStats& traced) {
  const auto t_phase = Clock::now();
  std::size_t n = 0;
  const std::size_t min_ops = alternate ? 6 : 3;
  while (n < min_ops || seconds_since(t_phase) < seconds) {
    const bool traced_op = alternate && n % 2 == 1;
    PhaseStats& p = traced_op ? traced : plain;
    probe.maybe_sample(0.0);
    tracer().enabled = traced_op;
    const Tracer::Scope op_span(tracer(), "run16.op");
    const auto t0 = Clock::now();
    std::unique_ptr<sim::CmpSystem> sys;
    {
      const Tracer::Scope span(tracer(), "sim.build");
      sys = std::make_unique<sim::CmpSystem>(s.scenario, s.scheme, s.combo);
    }
    const auto t1 = Clock::now();
    {
      const Tracer::Scope span(tracer(), "sim.load_warm_state");
      sys->load_warm_state(s.blob);
    }
    const auto t2 = Clock::now();
    const MonitorBase base = monitor_base(*sys);
    sys->begin_measurement();
    const auto t3 = Clock::now();
    {
      const Tracer::Scope span(tracer(), "sim.run");
      sys->run(s.window);
    }
    const double run_s = seconds_since(t3);
    p.op_ms.push_back(seconds_since(t0) * 1e3);
    p.build_ms.push_back(ms_between(t0, t1));
    p.restore_ms.push_back(ms_between(t1, t2));
    ++n;

    WindowCounts wc = window_counts(*sys, base);
    p.instr_per_s.push_back(static_cast<double>(wc.retired) / run_s);
    if (opt.corrupt == "digest" && n == 2) wc.digest ^= 1;
    r.check(wc.digest == reference.digest,
            strf("op %zu digest %016llx differs from the warmed-without-"
                 "restore reference %016llx",
                 n, static_cast<unsigned long long>(wc.digest),
                 static_cast<unsigned long long>(reference.digest)));
    r.check(wc.spills > 0 && wc.remote_hits > 0 && wc.evict_guest > 0,
            "op window saw no spills, remote hits or guest evictions "
            "(cold caches)");
    tracer().enabled = false;
    setups.at(seconds_since(t_phase) / seconds);
  }
  probe.maybe_sample(0.0);
  setups.at(1.0);
}

}  // namespace

Result run16_snug(const Options& opt) {
  Result r;
  const Cycle warm = 2'000'000;
  Setup s;
  s.window = opt.tiny ? 100'000 : 500'000;
  // Pattern variant v rotates each class roster (A: 3 applications,
  // B: 2, D: 3) by v across the cores; the seed picks one of three.
  // Interleaved in one process the variants run within host noise of
  // each other (medians 22.3-24.2 M instr/s over 8 ops each).
  const std::string text = strf(
      "name=run16 cores=16 workload=2A+1B+1D variants=3 l2-kb=256 "
      "warmup-mode=functional warmup-cycles=%llu measure-cycles=%llu",
      static_cast<unsigned long long>(warm),
      static_cast<unsigned long long>(s.window));
  std::string err;
  if (!sim::parse_scenario(text, s.scenario, err) ||
      !schemes::parse_scheme_id("SNUG", s.scheme)) {
    std::fprintf(stderr, "perfbench: bad run16 scenario: %s\n", err.c_str());
    std::exit(2);
  }
  const std::vector<trace::WorkloadCombo> combos = s.scenario.combos();
  s.combo = combos[opt.seed % combos.size()];
  r.notes.push_back("run16_snug: " + s.scenario.summary() + ", combo " +
                    s.combo.name);

  // Set-up, repeated through the run: build, functional warm-up, save.
  // The first machine also runs the window without a restore — the
  // reference every op's digest must equal.
  std::vector<double> warm_s;
  std::vector<double> save_ms;
  WindowCounts reference;
  SetupRepeats setups(opt.tiny ? 2 : kSetupRepeats, [&](int k) {
    const auto t0 = Clock::now();
    sim::CmpSystem sys(s.scenario, s.scheme, s.combo);
    const auto t1 = Clock::now();
    sys.warm_functional(warm);
    const auto t2 = Clock::now();
    std::vector<std::byte> blob = sys.save_warm_state();
    const auto t3 = Clock::now();
    warm_s.push_back(ms_between(t1, t2) * 1e-3);
    save_ms.push_back(ms_between(t2, t3));
    if (k == 0) {
      s.blob = std::move(blob);
      const MonitorBase base = monitor_base(sys);
      sys.begin_measurement();
      sys.run(s.window);
      reference = window_counts(sys, base);
    } else {
      r.check(blob == s.blob, "set-up warm-state blob differs between repeats");
    }
    return ms_between(t0, t3) * 1e-3;
  });
  setups.at(0.0);

  PhaseStats plain;
  PhaseStats traced;
  HostProbe probe;
  timed_ops(s, reference, opt.seconds, /*alternate=*/opt.trace, setups, probe,
            opt, r, plain, traced);
  r.notes.push_back("run16_snug: " + probe.summary());
  if (!opt.trace) {
    std::string per_op;
    for (const double v : plain.instr_per_s) per_op += strf(" %.2fM", v / 1e6);
    r.notes.push_back("run16_snug: " + setups.summary());
    r.notes.push_back("run16_snug: instr/s per op:" + per_op);
    // The median op's rate drifts with the host by up to +-30% from run
    // to run; divided by the host's speed over the same run it does not.
    r.end_to_end = {
        {"setup_s", "s", setups.fastest_s()},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        {"work_per_s", "1/s", median(plain.instr_per_s) / probe.speed()},
    };
    return r;
  }

  // Traced run: alternate ops ran traced; their median against the
  // untraced ops' is the tracing overhead.  Then the per-layer replays
  // of one op.
  LayerSheet sheet;
  sheet.set("bench.trace_overhead_share",
            median(traced.op_ms) / median(plain.op_ms) - 1.0);
  sheet.set("bench.spans", static_cast<double>(tracer().size()));
  sheet.set("bench.host_speed", probe.speed());
  sheet.set("work_per_s_raw", median(plain.instr_per_s));

  const MachineFactory restored = [&s] {
    auto m = std::make_unique<sim::CmpSystem>(s.scenario, s.scheme, s.combo);
    m->load_warm_state(s.blob);
    return m;
  };
  WindowCounts counts;
  const MachineLayers layers = replay_machine(
      restored, s.window, opt.tiny ? 20'000 : 200'000, &counts);
  r.check(counts.digest == reference.digest,
          "replayed window digest differs from the reference");
  sheet.set_machine(layers, counts);
  sheet.set("op_p50_ms", median(plain.op_ms));
  sheet.set("sim.build_ms", median(plain.build_ms));
  sheet.set("sim.warm_functional_s", median(warm_s));
  sheet.set("sim.warm_save_ms", median(save_ms));
  sheet.set("sim.warm_restore_ms", median(plain.restore_ms));
  r.per_layer = sheet.metrics();
  return r;
}

}  // namespace perfbench
