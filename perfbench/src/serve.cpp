// serve_mixed — an in-process CampaignServer (one worker: with the
// serving, ring-drain and client threads, four threads in all) driven by
// one closed-loop client.
//
// Why: writes sit beside reads and the file wire beside the ring, and
// almost no simulation time is spent.  Set-up answers the 189-cell fig9
// grid at service scale once, through the ring.  The timed phase is a
// seeded mix in blocks of 20 queries (positions shuffled per block):
//   18  9-part sweeps over that grid through RingClient (index hits);
//    1  single-cell query for a never-seen combo over the ring — the
//       miss path: backlog, simulate, store, journal, publish pass;
//    1  9-part sweep over the file wire (submit_batch / wait_batch).
// Fixed proportions keep the work per block steady from seed to seed;
// the seed picks the miss combos and the order.  work_per_s (queries
// per second) is 20 over the median block time, divided by the host's
// speed: a host probe runs between blocks every quarter second.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/str.hpp"
#include "sim/service/client.hpp"
#include "sim/service/index.hpp"
#include "sim/service/server.hpp"
#include "sim/service/wire.hpp"

namespace perfbench {

using namespace snug;
using namespace snug::sim::service;
namespace fs = std::filesystem;

namespace {

constexpr int kSetupRepeats = 12;

/// A running server with its serving thread; stopping joins it.
class LiveServer {
 public:
  explicit LiveServer(const ServiceConfig& cfg)
      : server_(cfg), serving_([this] { server_.serve(0, 1); }) {}
  ~LiveServer() {
    server_.request_stop();
    serving_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  CampaignServer& server() { return server_; }

 private:
  CampaignServer server_;
  std::thread serving_;
};

bool same_cells(const std::vector<AnswerCell>& a,
                const std::vector<AnswerCell>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].combo != b[i].combo || a[i].ipc != b[i].ipc) return false;
  }
  return true;
}

/// An ok answer whose parts equal `expect` bit for bit.
bool answer_matches(const ServiceBatchAnswer& got,
                    const ServiceBatchAnswer& expect) {
  if (got.parts.size() != expect.parts.size()) return false;
  for (std::size_t p = 0; p < got.parts.size(); ++p) {
    if (got.parts[p].status != AnswerStatus::kOk ||
        !same_cells(got.parts[p].cells, expect.parts[p].cells)) {
      return false;
    }
  }
  return true;
}

bool all_ok(const ServiceBatchAnswer& a) {
  if (a.parts.empty()) return false;
  for (const BatchPart& p : a.parts) {
    if (p.status != AnswerStatus::kOk || p.cells.empty()) return false;
  }
  return true;
}

struct Miss {
  BatchItem item;
  std::vector<double> ipc;
};

struct Phase {
  std::uint64_t queries = 0;
  std::vector<double> block_s;  ///< wall time of each 20-query block
  std::vector<double> sweep_us;
  std::vector<double> miss_ms;
  std::vector<double> file_ms;
  std::vector<Miss> misses;
};

enum class Kind { kSweep, kMiss, kFile };

}  // namespace

Result serve_mixed(const Options& opt) {
  Result r;
  const long long warm = opt.tiny ? 2'000 : 10'000;
  const long long measure = opt.tiny ? 5'000 : 40'000;
  const std::string scale_text =
      strf("warmup-cycles=%lld measure-cycles=%lld", warm, measure);
  const std::string grid_text =
      "name=svcgrid cores=4 workload=paper " + scale_text;
  ServiceBatchQuery sweep;
  for (const schemes::SchemeSpec& s : schemes::paper_scheme_grid()) {
    sweep.items.push_back({grid_text, s.id()});
  }
  const std::string base = (fs::path(opt.work_dir) /
                            strf("serve-%d", static_cast<int>(::getpid())))
                               .string();
  fs::remove_all(base);
  const auto config_in = [](const std::string& dir) {
    ServiceConfig cfg;
    cfg.root = dir + "/svc";
    cfg.cache_dir = dir + "/cache";
    cfg.workers = 1;
    return cfg;
  };

  // Set-up, repeated through the run: a fresh server answers the grid
  // cold through the ring.  The first server stays up for the timed
  // phase; each later one is stopped once it has answered.
  ServiceBatchAnswer grid;
  std::unique_ptr<LiveServer> live;
  const ServiceConfig cfg = config_in(base + "/setup0");
  SetupRepeats setups(opt.tiny ? 2 : kSetupRepeats, [&](int k) {
    const auto t0 = Clock::now();
    auto server = std::make_unique<LiveServer>(
        k == 0 ? cfg : config_in(base + strf("/setup%d", k)));
    ServiceBatchQuery q = sweep;
    q.id = strf("setup%d", k);
    ServiceBatchAnswer a;
    std::string err;
    const bool ok = RingClient(server->server()).query(q, a, false, &err);
    const double took = seconds_since(t0);
    r.check(ok && all_ok(a) && a.parts.size() == sweep.items.size(),
            "set-up grid query failed: " + err);
    if (k == 0) {
      grid = a;
      live = std::move(server);
    } else {
      r.check(answer_matches(a, grid),
              "set-up grid answer differs between repeats");
    }
    return took;
  });
  setups.at(0.0);
  std::size_t grid_cells = 0;
  for (const BatchPart& p : grid.parts) grid_cells += p.cells.size();
  CampaignServer& server = live->server();
  RingClient ring(server);
  const ServiceClient wire(cfg.root);

  // Never-seen single-cell queries: explicit 4-benchmark lists.
  std::vector<std::string> benches;
  for (const char cls : {'A', 'B', 'C', 'D'}) {
    for (const std::string& b : trace::benchmarks_in_class(cls)) {
      benches.push_back(b);
    }
  }
  const std::vector<schemes::SchemeSpec> grid_schemes =
      schemes::paper_scheme_grid();
  Rng rng(Rng::derive_seed("perfbench-serve", opt.seed));
  std::set<std::string> used;
  const auto fresh_miss = [&] {
    for (;;) {
      std::string list;
      for (int c = 0; c < 4; ++c) {
        if (c > 0) list += '+';
        list += benches[rng.below(benches.size())];
      }
      BatchItem item{"name=svcmiss cores=4 workload=" + list + " " + scale_text,
                     grid_schemes[rng.below(grid_schemes.size())].id()};
      if (used.insert(item.scheme_id + "|" + item.scenario_text).second) {
        return item;
      }
    }
  };

  std::uint64_t query_seq = 0;
  std::vector<Kind> block(20, Kind::kSweep);
  block[0] = Kind::kMiss;
  block[1] = Kind::kFile;
  HostProbe probe;
  // The timed phase, with the set-up repeats interleaved between blocks.
  // With `alternate`, every other block runs traced and lands in
  // `traced`, so both sides see the same host periods.
  const auto timed = [&](double seconds, bool alternate, Phase& plain,
                         Phase& traced) {
    const auto t_phase = Clock::now();
    std::size_t blocks = 0;
    while (blocks < (alternate ? 4u : 2u) ||
           seconds_since(t_phase) < seconds) {
      const bool traced_block = alternate && blocks % 2 == 1;
      Phase& ph = traced_block ? traced : plain;
      probe.maybe_sample(0.25);
      tracer().enabled = traced_block;
      std::vector<Kind> order = block;
      rng.shuffle(order);
      const auto t_block = Clock::now();
      for (const Kind kind : order) {
        ServiceBatchQuery q;
        q.id = strf("q%llu", static_cast<unsigned long long>(query_seq++));
        ServiceBatchAnswer a;
        std::string err;
        bool ok = false;
        if (kind == Kind::kSweep) {
          q.items = sweep.items;
          const Tracer::Scope span(tracer(), "service.ring_sweep");
          const auto t0 = Clock::now();
          ok = ring.query(q, a, false, &err);
          ph.sweep_us.push_back(seconds_since(t0) * 1e6);
          if (opt.corrupt == "answer" && ph.sweep_us.size() == 3 &&
              !a.parts.empty() && !a.parts[0].cells.empty()) {
            a.parts[0].cells[0].ipc[0] += 1e-9;
          }
          r.check(ok && answer_matches(a, grid),
                  "ring sweep " + q.id + " is not bit-equal to the set-up "
                  "answer " + err);
        } else if (kind == Kind::kMiss) {
          Miss m{fresh_miss(), {}};
          q.items = {m.item};
          const Tracer::Scope span(tracer(), "service.ring_miss");
          const auto t0 = Clock::now();
          ok = ring.query(q, a, false, &err);
          ph.miss_ms.push_back(seconds_since(t0) * 1e3);
          ok = ok && all_ok(a) && a.parts[0].cells.size() == 1;
          r.check(ok, "miss query " + q.id + " failed " + err);
          if (ok) {
            m.ipc = a.parts[0].cells[0].ipc;
            ph.misses.push_back(std::move(m));
          }
        } else {
          q.items = sweep.items;
          const Tracer::Scope span(tracer(), "service.file_sweep");
          const auto t0 = Clock::now();
          ok = wire.submit_batch(q, &err) &&
               wire.wait_batch(q.id, a, /*timeout_ms=*/60'000, /*poll_ms=*/1);
          ph.file_ms.push_back(seconds_since(t0) * 1e3);
          r.check(ok && answer_matches(a, grid),
                  "file sweep " + q.id + " is not bit-equal to the set-up "
                  "answer " + err);
        }
        ++ph.queries;
      }
      ph.block_s.push_back(seconds_since(t_block));
      tracer().enabled = false;
      ++blocks;
      setups.at(seconds_since(t_phase) / seconds);
    }
    setups.at(1.0);
  };

  const CampaignServer::Stats before = server.stats();
  Phase plain;
  Phase traced;
  timed(opt.seconds, /*alternate=*/opt.trace, plain, traced);
  const CampaignServer::Stats after = server.stats();
  r.check(ring.wire_fallbacks() == 0,
          "ring queries fell back to the file wire");
  r.check(after.queries_shed == before.queries_shed &&
              after.parts_shed == before.parts_shed,
          "queries were shed (retry-after)");

  // Sampled misses must equal direct simulation, bit for bit.
  std::vector<Miss> all_misses = plain.misses;
  all_misses.insert(all_misses.end(), traced.misses.begin(),
                    traced.misses.end());
  std::vector<double> simulate_ms;
  const std::size_t n_verify =
      std::min<std::size_t>(all_misses.size(), opt.trace ? 8 : 3);
  for (std::size_t i = 0; i < n_verify; ++i) {
    const Miss& m = all_misses[(i * 7919 + opt.seed) % all_misses.size()];
    sim::ScenarioSpec spec;
    schemes::SchemeSpec scheme;
    std::string err;
    if (!sim::parse_scenario(m.item.scenario_text, spec, err) ||
        !schemes::parse_scheme_id(m.item.scheme_id, scheme)) {
      r.check(false, "miss query does not parse: " + err);
      continue;
    }
    const auto t0 = Clock::now();
    sim::ExperimentRunner isolated(spec, "", "");
    const sim::RunResult direct = isolated.run(spec.combos().front(), scheme);
    simulate_ms.push_back(seconds_since(t0) * 1e3);
    r.check(direct.ipc == m.ipc, "miss answer differs from direct simulation");
  }
  r.notes.push_back("serve_mixed: " + setups.summary());
  r.notes.push_back("serve_mixed: " + probe.summary());
  r.notes.push_back(strf(
      "serve_mixed: %llu queries (%zu ring sweeps, %zu misses, %zu file "
      "sweeps) over a %zu-cell grid",
      static_cast<unsigned long long>(plain.queries), plain.sweep_us.size(),
      plain.miss_ms.size(), plain.file_ms.size(), grid_cells));

  if (!opt.trace) {
    r.end_to_end = {
        {"setup_s", "s", setups.fastest_s()},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        {"work_per_s", "1/s",
         static_cast<double>(block.size()) / median(plain.block_s) /
             probe.speed()},
    };
    live.reset();
    fs::remove_all(base);
    return r;
  }

  LayerSheet sheet;
  sheet.set("bench.trace_overhead_share",
            median(traced.block_s) / median(plain.block_s) - 1.0);
  sheet.set("bench.spans", static_cast<double>(tracer().size()));
  sheet.set("bench.host_speed", probe.speed());
  sheet.set("work_per_s_raw",
            static_cast<double>(block.size()) / median(plain.block_s));
  sheet.set("sweep_p50_us", median(plain.sweep_us));
  sheet.set("miss_p50_ms", median(plain.miss_ms));
  sheet.set("file_p50_ms", median(plain.file_ms));
  sheet.set("service.sweep_p90_us", percentile(plain.sweep_us, 0.90));
  sheet.set("service.sweep_p99_us", percentile(plain.sweep_us, 0.99));
  const auto count = [](const std::vector<double>& v) {
    return static_cast<double>(v.size());
  };
  sheet.set("service.sweep_samples", count(plain.sweep_us));
  sheet.set("service.miss_samples", count(plain.miss_ms));
  sheet.set("service.file_samples", count(plain.file_ms));
  sheet.set("service.miss_simulate_ms", median(simulate_ms));
  const auto delta = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  sheet.set("service.cells_from_cache",
            delta(after.cells_from_cache, before.cells_from_cache));
  sheet.set("service.ring_inline_answers",
            delta(after.ring_inline_answers, before.ring_inline_answers));
  sheet.set("service.ring_backlogged",
            delta(after.ring_backlogged, before.ring_backlogged));
  sheet.set("service.submit_scans_skipped",
            delta(after.submit_scans_skipped, before.submit_scans_skipped));
  sheet.set("service.queries_shed",
            delta(after.queries_shed, before.queries_shed));
  sheet.set("service.publish_failures",
            delta(after.publish_failures, before.publish_failures));

  // Single-cell ring hits: the misses answered above are now indexed.
  std::vector<double> hit1_us;
  for (int round = 0; round < 20 && !all_misses.empty(); ++round) {
    for (const Miss& m : all_misses) {
      ServiceBatchQuery q;
      q.id = strf("h%llu", static_cast<unsigned long long>(query_seq++));
      q.items = {m.item};
      ServiceBatchAnswer a;
      const auto t0 = Clock::now();
      const bool ok = ring.query(q, a);
      hit1_us.push_back(seconds_since(t0) * 1e6);
      r.check(ok && all_ok(a) && a.parts[0].cells[0].ipc == m.ipc,
              "single-cell ring hit differs from its miss answer");
    }
  }
  sheet.set("service.hit1_p50_us", median(hit1_us));
  sheet.set("service.hit1_samples", count(hit1_us));
  live.reset();

  // Wire codec, replayed on the set-up grid answer.
  {
    grid.id = "codec";
    std::string text;
    std::vector<double> enc_us;
    std::vector<double> dec_us;
    bool round_trip = true;
    for (int i = 0; i < 200; ++i) {
      auto t0 = Clock::now();
      text = encode_batch_answer(grid);
      enc_us.push_back(seconds_since(t0) * 1e6);
      ServiceBatchAnswer back;
      std::string err;
      t0 = Clock::now();
      const bool ok = parse_batch_answer(text, back, err);
      dec_us.push_back(seconds_since(t0) * 1e6);
      round_trip = round_trip && ok && answer_matches(back, grid);
    }
    r.check(round_trip, "grid answer does not round-trip the wire codec");
    sheet.set("service.encode_batch_answer_us", median(enc_us));
    sheet.set("service.parse_batch_answer_us", median(dec_us));
  }

  // AnswerIndex::lookup over the grid's fingerprints.
  sim::ScenarioSpec grid_spec;
  {
    std::string err;
    if (!sim::parse_scenario(grid_text, grid_spec, err)) {
      r.check(false, "grid scenario does not parse: " + err);
    }
  }
  const sim::SystemConfig grid_cfg = grid_spec.system_config();
  const std::vector<trace::WorkloadCombo> grid_combos = grid_spec.combos();
  std::vector<CellResult> own;
  std::vector<std::uint64_t> fps;
  for (std::size_t p = 0; p < grid.parts.size(); ++p) {
    schemes::SchemeSpec scheme;
    if (!schemes::parse_scheme_id(sweep.items[p].scheme_id, scheme)) continue;
    const std::size_t n =
        std::min(grid.parts[p].cells.size(), grid_combos.size());
    for (std::size_t c = 0; c < n; ++c) {
      own.push_back({grid_combos[c], scheme, grid.parts[p].cells[c].ipc});
      fps.push_back(sim::run_fingerprint(grid_cfg, grid_spec.scale,
                                         grid_combos[c], scheme));
    }
  }
  {
    AnswerIndex index(cfg.cache_dir);
    std::vector<double> ipc;
    bool found = true;
    const int rounds = 2000;
    const auto t0 = Clock::now();
    for (int i = 0; i < rounds; ++i) {
      for (const std::uint64_t fp : fps) found = index.lookup(fp, ipc) && found;
    }
    const double ns = seconds_since(t0) * 1e9 /
                      static_cast<double>(rounds * fps.size());
    r.check(found && own.size() == grid_cells,
            "a grid cell is missing from the answer index");
    sheet.set("service.index_lookup_ns", ns);
  }

  // Stores, replayed on the grid's own results.
  bool stores_exact = false;
  const StoreLayers st = replay_stores(base + "/store-replay", grid_cfg,
                                       grid_spec.scale, own, &stores_exact);
  r.check(stores_exact, "store replay did not round-trip every cell");
  sheet.set("sim.evalcache_store_us", st.evalcache_store_us);
  sheet.set("sim.evalcache_load_us", st.evalcache_load_us);
  sheet.set("sim.journal_append_us", st.journal_append_us);

  // Cell phases and the layer replay on one miss cell.
  if (!all_misses.empty()) {
    const Miss& m = all_misses.front();
    sim::ScenarioSpec spec;
    schemes::SchemeSpec scheme;
    std::string err;
    if (sim::parse_scenario(m.item.scenario_text, spec, err) &&
        schemes::parse_scheme_id(m.item.scheme_id, scheme)) {
      const trace::WorkloadCombo combo = spec.combos().front();
      const CellPhases ph = simulate_cell_phases(spec, scheme, combo);
      r.check(ph.ipc == m.ipc,
              "direct cell phases differ from the miss answer");
      sheet.set("sim.cell_build_ms", ph.build_ms);
      sheet.set("sim.cell_warmup_ms", ph.warmup_ms);
      sheet.set("sim.cell_measure_ms", ph.measure_ms);
      const MachineFactory warmed = [&spec, &scheme, &combo] {
        auto sys = std::make_unique<sim::CmpSystem>(spec, scheme, combo);
        sys->run(spec.scale.warmup_cycles);
        return sys;
      };
      WindowCounts counts;
      const MachineLayers layers = replay_machine(
          warmed, spec.scale.measure_cycles, 1'000'000, &counts);
      sheet.set_machine(layers, counts);
    }
  }
  r.per_layer = sheet.metrics();
  fs::remove_all(base);
  return r;
}

}  // namespace perfbench
