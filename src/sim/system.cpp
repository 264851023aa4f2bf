#include "sim/system.hpp"

#include <array>
#include <type_traits>

#include "common/require.hpp"
#include "common/state_io.hpp"
#include "common/str.hpp"
#include "trace/profile.hpp"

namespace snug::sim {

static_assert(Lookahead::kBatch == cpu::Core<CmpSystem>::kFetchBatch,
              "a ring batch is one core fetch batch");

CmpSystem::CmpSystem(const SystemConfig& cfg,
                     const schemes::SchemeSpec& spec,
                     const trace::WorkloadCombo& combo,
                     const RunScale& scale)
    : cfg_(cfg) {
  SNUG_REQUIRE_MSG(
      combo.benchmarks.size() == cfg.num_cores,
      "workload combo '%s' provides %zu benchmark(s) but the machine has "
      "%u cores — pick a combo matching the scenario's core count, or "
      "generate one with a class pattern (e.g. workload=2A+1B+1C)",
      combo.name.c_str(), combo.benchmarks.size(), cfg.num_cores);
  build(spec, combo, scale);
}

CmpSystem::CmpSystem(const ScenarioSpec& scenario,
                     const schemes::SchemeSpec& spec,
                     const trace::WorkloadCombo& combo)
    : CmpSystem(scenario.system_config(), spec, combo, scenario.scale) {}

void CmpSystem::build(const schemes::SchemeSpec& spec,
                      const trace::WorkloadCombo& combo,
                      const RunScale& scale) {
  const SystemConfig& cfg = cfg_;
  bus_ = std::make_unique<bus::SnoopBus>(cfg.bus);
  dram_ = std::make_unique<dram::DramModel>(cfg.dram);
  scheme_ = schemes::make_scheme(spec, cfg.scheme_ctx, *bus_, *dram_);

  l1i_.reserve(cfg.num_cores);
  l1d_.reserve(cfg.num_cores);
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    const trace::BenchmarkProfile& prof =
        trace::profile_for(combo.benchmarks[c]);

    l1i_.emplace_back(strf("l1i[%u]", c), cfg.l1i);
    l1d_.emplace_back(strf("l1d[%u]", c), cfg.l1d);

    trace::StreamConfig scfg;
    scfg.num_sets = cfg.scheme_ctx.priv.l2.num_sets();
    scfg.line_bytes = cfg.scheme_ctx.priv.l2.line_bytes();
    scfg.addr_base = static_cast<Addr>(c) << 40;  // disjoint address spaces
    scfg.phase_period_refs = scale.phase_period_refs;
    scfg.stream_seed = c;
    streams_.push_back(
        std::make_unique<trace::SyntheticStream>(prof, scfg));
  }
  front_end_ = std::make_unique<FrontEnd>(streams_);
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    cpu::CoreConfig core_cfg = cfg.core;
    core_cfg.code_blocks = streams_[c]->profile().code_blocks;
    core_cfg.line_bytes = cfg.l1i.line_bytes();
    cores_.push_back(std::make_unique<cpu::Core<CmpSystem>>(
        c, core_cfg, front_end_->lane(c), *this));
  }
  core_wake_.assign(cfg.num_cores, 0);
}

void CmpSystem::run(Cycle cycles) {
  // Event-skipping loop: a core is stepped only at cycles where it can
  // change state (Core::step returns the next such cycle), the scheme's
  // tick is consulted only when it declares periodic work, and the
  // write-back buffers drain at their own deadlines — the whole timing
  // back-end follows one event-horizon discipline.  Time jumps straight
  // to the earliest pending event, clamped to the next scheme epoch
  // boundary and the next WBB drain so boundary callbacks and drains
  // fire at exactly the same cycles as under per-cycle stepping — the
  // simulated behaviour is identical to a for(;;++now_) loop that steps
  // every core every cycle, cycle for cycle.  Each core free-runs up to
  // `end` (see Core::step); a core parked at a shared-state event wakes
  // at that event's cycle like any other, so no park outlives the
  // window.
  ran_ = true;
  const FrontEnd::Attached pipelined(*front_end_);
  const Cycle end = now_ + cycles;
  schemes::L2Scheme* const scheme = scheme_.get();
  Cycle boundary = scheme->has_periodic_work()
                       ? scheme->next_tick_cycle()
                       : schemes::L2Scheme::kNoPeriodicWork;
  // Hoisted bases: the loop below runs once per event cycle, and the
  // opaque step() call in the middle would otherwise force the member
  // vectors' data pointers to be reloaded on every pass (step() can
  // reach back into this object as far as the optimiser can tell).
  const std::size_t num_cores = cores_.size();
  std::vector<cpu::Core<CmpSystem>*> core_ptrs;
  core_ptrs.reserve(num_cores);
  for (const auto& c : cores_) core_ptrs.push_back(c.get());
  cpu::Core<CmpSystem>* const* const cores = core_ptrs.data();
  Cycle* const wake = core_wake_.data();
  // `count` is a std::integral_constant for the common power-of-two
  // core counts and a plain std::size_t otherwise.  The per-core "due?"
  // test is taken with each core's own sleep/burst pattern; a
  // compile-time count lets the scan unroll fully, giving every core a
  // distinct branch site (predicted on its own history) instead of one
  // shared, constantly-mispredicting slot.
  const auto sweep = [&](auto count) {
    const std::size_t n = count;
    while (now_ < end) {
      // Retire due write-back-buffer entries before any core observes
      // the buffers at this cycle.
      if (now_ >= scheme->next_drain_cycle()) scheme->drain(now_);
      Cycle next = end;
#pragma GCC unroll 16
      for (std::size_t c = 0; c < n; ++c) {
        if (wake[c] <= now_) wake[c] = cores[c]->step(now_, end);
        next = wake[c] < next ? wake[c] : next;
      }
      if (now_ >= boundary) {
        scheme->tick(now_);
        boundary = scheme->next_tick_cycle();
      }
      if (boundary < next) next = boundary;
      const Cycle drain = scheme->next_drain_cycle();
      if (drain < next) next = drain;
      now_ = next > now_ ? next : now_ + 1;
    }
  };
  switch (num_cores) {
    case 2:
      sweep(std::integral_constant<std::size_t, 2>{});
      break;
    case 4:
      sweep(std::integral_constant<std::size_t, 4>{});
      break;
    case 8:
      sweep(std::integral_constant<std::size_t, 8>{});
      break;
    case 16:
      sweep(std::integral_constant<std::size_t, 16>{});
      break;
    default:
      sweep(num_cores);
      break;
  }
  // Close the window for the stall statistics: cores that slept through
  // the tail still get their in-window stall cycles charged.
  for (auto& core : cores_) core->settle_stall(end);
}

void CmpSystem::warm_functional(Cycle cycles) {
  // Functional fast-forward (see the header comment): per-core cursors
  // mimic Core::dispatch_one's cadence — one I-fetch per
  // line_bytes/instr_bytes instructions over the cyclic code footprint,
  // batch-filled SoA instruction decode, issue_width instructions per
  // base cycle — against an *estimated* clock: I-miss latency blocks
  // dispatch outright (as fetch_stall_until_ does), mispredicts charge
  // branch_penalty, and load misses replay the core's ROB back-pressure
  // in aggregate: a miss opens a rob_entries-instruction window, misses
  // inside one window overlap (the ROB issues them in the same dispatch
  // burst), and when the window fills the clock jumps to the latest
  // outstanding completion — so an isolated miss costs its full latency
  // and clustered misses share it, the same two mechanisms cpu::Core
  // models exactly.  Miss completions book on *shadow* bus/DRAM models
  // (same configs and arithmetic as the real ones, discarded after the
  // warm-up), so the estimated clock slows under cold-phase contention
  // the way the real machine's does while the real schedules and stats
  // stay untouched.  The clock only paces epoch boundaries and the
  // warm-up length; no real timing structure observes it.  Cores
  // advance in global virtual-time order — always the cursor furthest
  // behind, in bounded bursts — so arrivals at the shadow models stay
  // approximately time-ordered and contention is shared fairly instead
  // of the first core monopolising each slice.  Slices are clamped to
  // the scheme's next epoch boundary so boundary work fires between the
  // same references as an exact-boundary driver would, up to the
  // quantum.
  constexpr Cycle kQuantum = 8192;
  constexpr Cycle kBurst = 256;
  constexpr std::size_t kBatch = 64;
  struct FunctionalCursor {
    Cycle now = 0;
    std::uint32_t instr = 0;  ///< instructions since the last base cycle
    std::uint32_t ifetch_countdown = 1;
    std::uint64_t code_cursor = 0;
    Cycle miss_until = 0;      ///< latest outstanding load-miss completion
    std::uint32_t rob_room = 0;  ///< instrs left in the window (0 = none)
    std::array<std::uint8_t, kBatch> code;
    std::array<Addr, kBatch> addr;
    std::uint32_t pos = 0;
    std::uint32_t len = 0;
  };

  const Cycle end = now_ + cycles;
  schemes::L2Scheme* const scheme = scheme_.get();
  bus::SnoopBus shadow_bus(cfg_.bus);
  dram::DramModel shadow_dram(cfg_.dram);
  shadow_bus.reset(now_);
  shadow_dram.reset(now_);
  scheme->begin_functional_warmup(shadow_bus, shadow_dram);
  Cycle boundary = scheme->has_periodic_work()
                       ? scheme->next_tick_cycle()
                       : schemes::L2Scheme::kNoPeriodicWork;
  const std::uint32_t issue = cfg_.core.issue_width;
  const std::uint32_t ifetch_period =
      cfg_.l1i.line_bytes() / cfg_.core.instr_bytes;
  std::vector<FunctionalCursor> cursors(cfg_.num_cores);
  for (auto& f : cursors) f.now = now_;

  while (now_ < end) {
    Cycle slice_end = now_ + kQuantum < end ? now_ + kQuantum : end;
    if (boundary < slice_end) slice_end = boundary;
    for (;;) {
      // Pick the cursor furthest behind in virtual time.
      CoreId c = cfg_.num_cores;
      Cycle c_now = slice_end;
      for (CoreId i = 0; i < cfg_.num_cores; ++i) {
        if (cursors[i].now < c_now) {
          c = i;
          c_now = cursors[i].now;
        }
      }
      if (c == cfg_.num_cores) break;  // every cursor reached slice_end
      FunctionalCursor& f = cursors[c];
      Lookahead& stream = front_end_->lane(c);
      const std::uint64_t code_blocks = streams_[c]->profile().code_blocks;
      const Cycle burst_end =
          f.now + kBurst < slice_end ? f.now + kBurst : slice_end;
      while (f.now < burst_end) {
        if (--f.ifetch_countdown == 0) {
          f.ifetch_countdown = ifetch_period;
          const Addr ifetch_addr =
              cpu::code_base(c) + f.code_cursor * cfg_.l1i.line_bytes();
          if (++f.code_cursor == code_blocks) f.code_cursor = 0;
          const Cycle done = inst_fetch(c, ifetch_addr, f.now);
          if (done > f.now + 1) f.now = done;  // I-miss blocks dispatch
        }
        if (f.pos == f.len) {
          f.len = static_cast<std::uint32_t>(
              stream.fill_batch(f.code.data(), f.addr.data(), kBatch));
          f.pos = 0;
        }
        const std::uint8_t code = f.code[f.pos];
        if ((code >> 1) == 1) {  // kLoad or kStore
          const bool is_write = code & 1;
          const Cycle done = data_access(c, f.addr[f.pos], is_write, f.now);
          // Stores commit without waiting (store-buffer semantics); a
          // load miss joins the current ROB window, or opens one.
          if (!is_write && done > f.now + 1) {
            if (f.rob_room == 0) f.rob_room = cfg_.core.rob_entries;
            if (done > f.miss_until) f.miss_until = done;
          }
        } else if (code & trace::kInstrMispredictBit) {
          f.now += cfg_.core.branch_penalty;
        }
        ++f.pos;
        if (f.rob_room != 0 && --f.rob_room == 0) {
          // The ROB filled behind the oldest outstanding miss: dispatch
          // resumes once every overlapped miss in the window completed.
          if (f.miss_until > f.now) f.now = f.miss_until;
          f.miss_until = 0;
        }
        if (++f.instr == issue) {
          f.instr = 0;
          ++f.now;
        }
      }
    }
    now_ = slice_end;
    // Mirrors run(): a boundary landing exactly on the window end is NOT
    // ticked here — it fires at the top of the next window (the
    // measurement run), the same deferral the event-skipping loop makes.
    if (now_ >= boundary && now_ < end) {
      scheme->tick(now_);
      boundary = scheme->next_tick_cycle();
    }
  }
  scheme->end_functional_warmup();
}

std::vector<std::byte> CmpSystem::save_warm_state() const {
  SNUG_ENSURE_MSG(!ran_,
                  "save_warm_state() after run(): only a built, warmed or "
                  "restored machine has a warm state");
  StateWriter w;
  w.pod(now_);
  std::vector<std::byte> arena;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    arena.resize(l1i_[c].state_bytes());
    l1i_[c].export_state(arena.data());
    w.vec(arena);
    arena.resize(l1d_[c].state_bytes());
    l1d_[c].export_state(arena.data());
    w.vec(arena);
    streams_[c]->save_state(w);
  }
  scheme_->save_warm_state(w);
  return w.take();
}

void CmpSystem::load_warm_state(const std::vector<std::byte>& blob) {
  SNUG_ENSURE_MSG(!ran_,
                  "load_warm_state() after run(): restore into a freshly "
                  "built machine");
  StateReader r(blob);
  now_ = r.pod<Cycle>();
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    auto arena = r.vec<std::byte>();
    SNUG_ENSURE(arena.size() == l1i_[c].state_bytes());
    l1i_[c].import_state(arena.data());
    arena = r.vec<std::byte>();
    SNUG_ENSURE(arena.size() == l1d_[c].state_bytes());
    l1d_[c].import_state(arena.data());
    streams_[c]->load_state(r);
  }
  scheme_->load_warm_state(r);
  SNUG_ENSURE(r.remaining() == 0);
}

void CmpSystem::begin_measurement() {
  for (auto& core : cores_) core->reset_stats(now_);
  for (auto& l1 : l1i_) l1.reset_stats();
  for (auto& l1 : l1d_) l1.reset_stats();
  scheme_->reset_stats();
  for (CoreId c = 0; c < scheme_->num_slices(); ++c) {
    scheme_->slice(c).reset_stats();
  }
  bus_->reset_stats();
  dram_->reset_stats();
  window_start_ = now_;
}

stats::CounterReport CmpSystem::counter_report() const {
  stats::CounterReport report;
  report.push_back({"bus", bus_->stats().snapshot()});
  report.push_back({"dram", dram_->stats().snapshot()});
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    report.push_back({l1i_[c].name(), l1i_[c].stats().snapshot()});
    report.push_back({l1d_[c].name(), l1d_[c].stats().snapshot()});
  }
  report.push_back({scheme_->name(), scheme_->stats().snapshot()});
  for (CoreId c = 0; c < scheme_->num_slices(); ++c) {
    const cache::SetAssocCache& s = scheme_->slice(c);
    report.push_back({s.name(), s.stats().snapshot()});
  }
  return report;
}

std::vector<double> CmpSystem::measured_ipc() const {
  const Cycle window = now_ - window_start_;
  std::vector<double> out;
  out.reserve(cores_.size());
  for (const auto& core : cores_) out.push_back(core->ipc(window));
  return out;
}

cpu::Core<CmpSystem>& CmpSystem::core(CoreId c) {
  SNUG_REQUIRE(c < cores_.size());
  return *cores_[c];
}

cache::SetAssocCache& CmpSystem::l1d(CoreId c) {
  SNUG_REQUIRE(c < l1d_.size());
  return l1d_[c];
}

trace::SyntheticStream& CmpSystem::stream(CoreId c) {
  SNUG_REQUIRE(c < streams_.size());
  return *streams_[c];
}

}  // namespace snug::sim
