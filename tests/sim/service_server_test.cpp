// CampaignServer end-to-end tests: the
// file-based submit/answer round trip produces exactly the IPCs a
// direct ExperimentRunner computes; a second server instance answers
// from the shared EvalCache without simulating; admission control sheds
// with an explicit retry-after; a cell that fails past the retry budget
// poisons into a status=error answer instead of hanging; a slow cell
// runs once, however long it takes, and its answer is exact; a server
// destroyed mid-backlog resumes — cache entries + surviving submit
// files — into byte-identical answers, even when one of its entries is
// lost; a server without a cache dir is refused; a corrupt cache entry
// degrades to recompute-and-heal, never a wrong answer; an entry
// another writer publishes after open is found by the by-name probe,
// over the ring and the file wire, without simulating; a finished cell
// wakes the publish pass, and a query or answer file wakes its reader,
// instead of waiting out the poll interval; a part whose cells all
// answered from the index is memoised, bit-identical to the per-cell
// path, and one with a pending or poisoned cell never is; finished
// misses leave no per-miss state behind; a query renamed into submit/
// within the tick of the last listing is still found; and opening reaps the
// temps dead clients left in submit/, and a serving one keeps
// answers/ bounded.  Every file-wire query here is a
// one-part query; a leftover file in the retired single-query format
// answers a v2 error, and a submit whose answer already exists is
// retired without re-answering.
#include "sim/service/server.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/fsepoch.hpp"
#include "service_test_util.hpp"
#include "sim/service/client.hpp"
#include "sim/service/wire.hpp"
#include "trace/profile.hpp"

namespace snug::sim::service {
namespace {

namespace fs = std::filesystem;
using testutil::direct_cells;
using testutil::expect_cells_equal;

constexpr const char* kScenarioA =
    "cores=4 workload=gzip+mesa+gzip+mesa warmup-cycles=10000 "
    "measure-cycles=40000";
constexpr const char* kScenarioB =
    "cores=4 workload=ammp+gzip+mesa+ammp warmup-cycles=10000 "
    "measure-cycles=40000";

struct TempDir {
  explicit TempDir(const char* name) {
    dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~TempDir() { fs::remove_all(dir); }
  [[nodiscard]] std::string path(const char* sub) const {
    return (dir / sub).string();
  }
  fs::path dir;
};

ServiceConfig small_config(const TempDir& tmp) {
  ServiceConfig cfg;
  cfg.root = tmp.path("svc");
  cfg.cache_dir = tmp.path("cache");
  cfg.workers = 2;
  return cfg;
}

bool submit_batch(const std::string& root, const std::string& id,
                  const std::vector<BatchItem>& items) {
  ServiceClient client(root);
  ServiceBatchQuery q;
  q.id = id;
  q.items = items;
  std::string error;
  const bool ok = client.submit_batch(q, &error);
  EXPECT_TRUE(ok) << error;
  return ok;
}

/// Submits the one-part query (`scenario`, `scheme`) as `id`.
bool submit(const std::string& root, const std::string& id,
            const std::string& scenario, const std::string& scheme) {
  return submit_batch(root, id, {{scenario, scheme}});
}

/// The only part of a one-part answer (fails the test on any other
/// part count).
BatchPart only_part(const ServiceBatchAnswer& a) {
  if (a.parts.size() != 1) {
    ADD_FAILURE() << a.id << ": " << a.parts.size() << " parts, want 1";
    return {};
  }
  return a.parts[0];
}

/// Waits for the one-part answer to `id`; fails the test on a timeout.
/// Takes a client that outlives the wait: a client that has waited
/// holds an answers/ watch, and closing one blocks for 15-20 ms, so a
/// test keeps one client per service root.
BatchPart wait_part(const ServiceClient& client, const std::string& id,
                    std::uint64_t timeout_ms) {
  ServiceBatchAnswer a;
  if (!client.wait_batch(id, a, timeout_ms)) {
    ADD_FAILURE() << "no answer for " << id << " within " << timeout_ms
                  << " ms";
    return {};
  }
  return only_part(a);
}

/// Serves until the answer for `id` lands (or 30 s pass — fails the
/// test).
ServiceBatchAnswer serve_until_batch_answered(CampaignServer& server,
                                              const std::string& root,
                                              const std::string& id) {
  ServiceClient client(root);
  std::jthread serving(
      [&server] { server.serve(/*idle_exit_polls=*/0, /*poll_ms=*/1); });
  ServiceBatchAnswer answer;
  const bool got = client.wait_batch(id, answer, /*timeout_ms=*/30'000);
  server.request_stop();
  serving.join();
  EXPECT_TRUE(got) << "no answer for " << id << " within 30 s";
  return answer;
}

/// serve_until_batch_answered for a one-part query: its only part.
BatchPart serve_until_answered(CampaignServer& server,
                               const std::string& root,
                               const std::string& id) {
  return only_part(serve_until_batch_answered(server, root, id));
}

/// The bytes of a published file ("" when missing).
std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(CampaignServerTest, AnswersMatchDirectSimulationBitExactly) {
  TempDir tmp("snug_service_e2e");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  ASSERT_TRUE(submit(cfg.root, "q1", kScenarioA, "SNUG"));
  const BatchPart a = serve_until_answered(server, cfg.root, "q1");
  ASSERT_EQ(a.status, AnswerStatus::kOk) << a.error;
  expect_cells_equal(a.cells, direct_cells(kScenarioA, "SNUG"));
  // The submit file is retired only after the answer is published.
  EXPECT_FALSE(fs::exists(query_path(cfg.root, "q1")));
  EXPECT_TRUE(fs::exists(answer_path(cfg.root, "q1")));
  const CampaignServer::Stats s = server.stats();
  EXPECT_EQ(s.queries_answered, 1u);
  EXPECT_EQ(s.cells_simulated, 1u);
  EXPECT_GE(s.index.entries, 1u);
}

TEST(CampaignServerTest, MalformedQueriesAnswerStatusError) {
  TempDir tmp("snug_service_reject");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  ASSERT_TRUE(submit(cfg.root, "bad-scheme", kScenarioA, "NOPE"));
  const BatchPart a = serve_until_answered(server, cfg.root, "bad-scheme");
  EXPECT_EQ(a.status, AnswerStatus::kError);
  EXPECT_NE(a.error.find("NOPE"), std::string::npos) << a.error;
  EXPECT_EQ(server.stats().queries_rejected, 1u);
}

TEST(CampaignServerTest, SecondServerAnswersFromSharedCache) {
  TempDir tmp("snug_service_shared_cache");
  const ServiceConfig cfg = small_config(tmp);
  BatchPart first;
  {
    CampaignServer server(cfg);
    ASSERT_TRUE(submit(cfg.root, "q1", kScenarioA, "L2P"));
    first = serve_until_answered(server, cfg.root, "q1");
    ASSERT_EQ(first.status, AnswerStatus::kOk) << first.error;
  }
  // A different server instance — fresh root, no shared memory — sees
  // the first server's cache entries (multi-process EvalCache
  // read-sharing) and answers without simulating.
  ServiceConfig cfg2 = cfg;
  cfg2.root = tmp.path("svc2");
  CampaignServer server2(cfg2);
  ASSERT_TRUE(submit(cfg2.root, "q2", kScenarioA, "L2P"));
  const BatchPart second = serve_until_answered(server2, cfg2.root, "q2");
  ASSERT_EQ(second.status, AnswerStatus::kOk) << second.error;
  expect_cells_equal(second.cells, first.cells);
  const CampaignServer::Stats s = server2.stats();
  EXPECT_EQ(s.cells_from_cache, 1u);
  EXPECT_EQ(s.cells_simulated, 0u);
}

TEST(CampaignServerTest, FullBacklogShedsWithRetryAfter) {
  TempDir tmp("snug_service_shed");
  // One worker wedged by a stall holds the only backlog slot.
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(
      fault::FaultPlan::parse("seed=2; stall@task:ms=400", plan, error))
      << error;
  fault::ScopedFaultPlan scoped(plan);

  ServiceConfig cfg = small_config(tmp);
  cfg.workers = 1;
  cfg.max_backlog = 1;
  cfg.retry_after_ms = 123;
  CampaignServer server(cfg);
  // The test runs the first two poller passes itself, so the slow query
  // is admitted strictly before the burst is ingested; the stall keeps
  // its cell in the backlog far longer than the two statements between.
  ASSERT_TRUE(submit(cfg.root, "slow", kScenarioA, "SNUG"));
  ASSERT_GT(server.poll_once(), 0u);
  ASSERT_TRUE(submit(cfg.root, "burst", kScenarioB, "SNUG"));
  ASSERT_GT(server.poll_once(), 0u);
  std::jthread serving(
      [&server] { server.serve(/*idle_exit_polls=*/0, /*poll_ms=*/1); });

  const ServiceClient client(cfg.root);
  const BatchPart shed = wait_part(client, "burst", /*timeout_ms=*/10'000);
  EXPECT_EQ(shed.status, AnswerStatus::kRetryAfter);
  EXPECT_EQ(shed.retry_after_ms, 123u);
  EXPECT_TRUE(shed.cells.empty());

  // The wedged query still completes; shedding degraded, it didn't drop.
  const BatchPart slow = wait_part(client, "slow", /*timeout_ms=*/30'000);
  EXPECT_EQ(slow.status, AnswerStatus::kOk) << slow.error;
  EXPECT_EQ(server.stats().queries_shed, 1u);

  // The backlog has drained: resubmitting the shed query now succeeds.
  ASSERT_TRUE(submit(cfg.root, "burst2", kScenarioB, "SNUG"));
  const BatchPart retry =
      wait_part(client, "burst2", /*timeout_ms=*/30'000);
  EXPECT_EQ(retry.status, AnswerStatus::kOk) << retry.error;
  server.request_stop();
  serving.join();
}

TEST(CampaignServerTest, RetryExhaustionPoisonsIntoAnErrorAnswer) {
  TempDir tmp("snug_service_poison");
  fault::FaultPlan plan;
  std::string error;
  // Every attempt at this cell throws: the retry budget exhausts and
  // the cell poisons — graceful degradation to an explicit error.
  ASSERT_TRUE(fault::FaultPlan::parse("seed=5; fail@task", plan, error))
      << error;
  fault::ScopedFaultPlan scoped(plan);

  ServiceConfig cfg = small_config(tmp);
  cfg.retry.max_attempts = 2;
  cfg.retry.backoff_ms = 1;
  CampaignServer server(cfg);
  ASSERT_TRUE(submit(cfg.root, "doomed", kScenarioA, "SNUG"));
  const BatchPart a = serve_until_answered(server, cfg.root, "doomed");
  EXPECT_EQ(a.status, AnswerStatus::kError);
  EXPECT_NE(a.error.find("gave up after 2 attempts"), std::string::npos)
      << a.error;
  EXPECT_NE(a.error.find("/SNUG"), std::string::npos)
      << "the error names the poisoned cell: " << a.error;
  const CampaignServer::Stats s = server.stats();
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.backlog.poisoned, 1u);
}

TEST(CampaignServerTest, SlowCellRunsOnceAndAnswersExactly) {
  TempDir tmp("snug_service_slow_cell");
  fault::FaultPlan plan;
  std::string error;
  // EVERY start of the cell stalls, so a second start would show in
  // the stall count: three idle workers must still run it just once.
  ASSERT_TRUE(fault::FaultPlan::parse("seed=9; stall@task:ms=400", plan,
                                      error))
      << error;
  fault::ScopedFaultPlan scoped(plan);

  ServiceConfig cfg = small_config(tmp);
  cfg.workers = 3;
  CampaignServer server(cfg);
  ASSERT_TRUE(submit(cfg.root, "q1", kScenarioA, "SNUG"));
  const BatchPart a = serve_until_answered(server, cfg.root, "q1");
  ASSERT_EQ(a.status, AnswerStatus::kOk) << a.error;
  EXPECT_EQ(server.stats().cells_simulated, 1u);
  // Read before direct_cells, whose own run stalls under the plan too.
  EXPECT_EQ(scoped.stats().stalls, 1u) << "the cell started once";
  expect_cells_equal(a.cells, direct_cells(kScenarioA, "SNUG"));
}

constexpr const char* kFourCells =
    "cores=4 workload=1A+1C variants=4 warmup-cycles=10000 "
    "measure-cycles=40000";

/// The answer file bytes of one uninterrupted server answering
/// kFourCells as "big", in its own root and cache.
std::string clean_four_cell_answer(const TempDir& tmp) {
  ServiceConfig cfg = small_config(tmp);
  cfg.root = tmp.path("clean_svc");
  cfg.cache_dir = tmp.path("clean_cache");
  CampaignServer clean(cfg);
  EXPECT_TRUE(submit(cfg.root, "big", kFourCells, "SNUG"));
  const BatchPart a = serve_until_answered(clean, cfg.root, "big");
  EXPECT_EQ(a.status, AnswerStatus::kOk) << a.error;
  EXPECT_EQ(a.cells.size(), 4u);
  return file_bytes(answer_path(cfg.root, "big"));
}

/// The one-worker victim config of the kill-resume tests.
ServiceConfig victim_config(const TempDir& tmp) {
  ServiceConfig c = small_config(tmp);
  c.workers = 1;
  return c;
}

/// Submits kFourCells as "big" and destroys the server after the first
/// cells complete but before the answer exists — the in-process
/// equivalent of kill -9 mid-backlog (finished cells have their cache
/// entries, the answer is not published, the submit file survives).
/// The test drives the victim's poller itself: one pass ingests the
/// query, and no later pass runs, so the answer can never be published
/// however fast the worker is.  The stop point is the worker's second
/// completion.
void kill_after_two_completions(const ServiceConfig& cfg) {
  std::promise<void> two_done;
  std::atomic<int> done{0};
  ServiceConfig c = cfg;
  c.on_cell_completed = [&] {
    if (done.fetch_add(1) + 1 == 2) two_done.set_value();
  };
  CampaignServer victim(c);
  ASSERT_TRUE(submit(c.root, "big", kFourCells, "SNUG"));
  ASSERT_GT(victim.poll_once(), 0u) << "the query must be ingested";
  two_done.get_future().wait();
  ASSERT_GE(victim.stats().backlog.completed, 2u);
  ASSERT_FALSE(fs::exists(answer_path(c.root, "big")))
      << "the victim must die before publishing";
  ASSERT_TRUE(fs::exists(query_path(c.root, "big")))
      << "the submit file is the durable record of the query";
}  // ~CampaignServer: the worker stops at its next claim

/// The `.snugc` entries in `cache_dir`.
std::vector<fs::path> cache_entries(const std::string& cache_dir) {
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(cache_dir)) {
    if (e.path().extension() == ".snugc") out.push_back(e.path());
  }
  return out;
}

TEST(CampaignServerTest, KilledMidBacklogResumesByteIdentically) {
  TempDir tmp("snug_service_resume");
  const std::string clean_bytes = clean_four_cell_answer(tmp);
  const ServiceConfig victim_cfg = victim_config(tmp);
  ASSERT_NO_FATAL_FAILURE(kill_after_two_completions(victim_cfg));

  // Restart: same directories.  The submit file re-supplies the query,
  // the finished cells answer from their cache entries, only the
  // missing cells simulate — and the answer is byte-identical to the
  // clean run's.
  CampaignServer resumed(victim_cfg);
  const BatchPart a = serve_until_answered(resumed, victim_cfg.root, "big");
  ASSERT_EQ(a.status, AnswerStatus::kOk) << a.error;
  EXPECT_EQ(file_bytes(answer_path(victim_cfg.root, "big")), clean_bytes);
  const CampaignServer::Stats s = resumed.stats();
  EXPECT_GE(s.cells_from_cache, 2u)
      << "completed cells must come back from the cache, not "
         "re-simulation";
  EXPECT_LE(s.cells_simulated, 2u);
  EXPECT_FALSE(fs::exists(fs::path(victim_cfg.root) / "backlog.journal"))
      << "the cache entry is the only durable record of a finished cell";
}

TEST(CampaignServerTest, LostCacheEntryAfterKillResimulatesToTheSameBytes) {
  TempDir tmp("snug_service_lost_entry");
  const std::string clean_bytes = clean_four_cell_answer(tmp);
  const ServiceConfig victim_cfg = victim_config(tmp);
  ASSERT_NO_FATAL_FAILURE(kill_after_two_completions(victim_cfg));

  // One finished cell loses its record: simulation is deterministic, so
  // it re-simulates to the bytes it had.
  std::vector<fs::path> entries = cache_entries(victim_cfg.cache_dir);
  ASSERT_GE(entries.size(), 2u);
  ASSERT_TRUE(fs::remove(entries.front()));
  const std::size_t surviving = entries.size() - 1;

  CampaignServer resumed(victim_cfg);
  const BatchPart a = serve_until_answered(resumed, victim_cfg.root, "big");
  ASSERT_EQ(a.status, AnswerStatus::kOk) << a.error;
  EXPECT_EQ(file_bytes(answer_path(victim_cfg.root, "big")), clean_bytes);
  const CampaignServer::Stats s = resumed.stats();
  EXPECT_EQ(s.cells_simulated, 4u - surviving)
      << "exactly the cells with no surviving entry simulate";
  EXPECT_EQ(s.cells_from_cache, surviving);
}

TEST(CampaignServerDeathTest, EmptyCacheDirAbortsInTheConstructor) {
  TempDir tmp("snug_service_no_cache");
  ServiceConfig cfg = small_config(tmp);
  cfg.cache_dir.clear();
  EXPECT_DEATH({ CampaignServer server(cfg); }, "needs a cache dir");
}

/// Flips one payload byte of the only entry in `cache_dir`; returns its
/// path (empty when there is not exactly one entry).
fs::path rot_only_cache_entry(const std::string& cache_dir) {
  const std::vector<fs::path> entries = cache_entries(cache_dir);
  if (entries.size() != 1) return {};
  const fs::path& entry = entries.front();
  std::fstream f(entry, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(30);  // past the 24-byte header, into the payload
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(30);
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
  return entry;
}

/// Another writer: a runner of its own over the shared cache directory
/// simulates every cell of the item and publishes its entries.
std::vector<AnswerCell> publish_from_another_writer(
    const std::string& cache_dir, const std::string& scenario_text,
    const std::string& scheme_id) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_TRUE(parse_scenario(scenario_text, spec, error)) << error;
  schemes::SchemeSpec scheme;
  EXPECT_TRUE(schemes::parse_scheme_id(scheme_id, scheme));
  ExperimentRunner writer(spec, cache_dir, /*warm_bank_dir=*/"");
  std::vector<AnswerCell> cells;
  for (const trace::WorkloadCombo& combo : spec.combos()) {
    const RunResult r = writer.run(combo, scheme);
    EXPECT_FALSE(r.cached);
    cells.push_back({combo.name, r.ipc});
  }
  return cells;
}

/// Runs serve() on its own thread for the object's lifetime.
class ServingThread {
 public:
  ServingThread(CampaignServer& server, std::uint64_t poll_ms)
      : server_(server),
        thread_([this, poll_ms] {
          server_.serve(/*idle_exit_polls=*/0, poll_ms);
        }) {}
  ~ServingThread() {
    server_.request_stop();  // also wakes serve() out of its wait
    thread_.join();
  }
  ServingThread(const ServingThread&) = delete;
  ServingThread& operator=(const ServingThread&) = delete;

 private:
  CampaignServer& server_;
  std::thread thread_;
};

/// One ring query of `items` as `id`; fails the test unless it answers
/// over the ring with one part per item.
ServiceBatchAnswer ring_batch(CampaignServer& server, const std::string& id,
                              const std::vector<BatchItem>& items) {
  ServiceBatchQuery q;
  q.id = id;
  q.items = items;
  ServiceBatchAnswer a;
  std::string error;
  RingClient ring(server);
  EXPECT_TRUE(ring.query(q, a, /*publish=*/false, &error)) << error;
  EXPECT_EQ(ring.wire_fallbacks(), 0u);
  EXPECT_EQ(a.parts.size(), items.size()) << id;
  return a;
}

/// One single-item query over the ring; fails the test unless it
/// answers one ok part.
std::vector<AnswerCell> ring_query(CampaignServer& server,
                                   const std::string& id,
                                   const std::string& scenario,
                                   const std::string& scheme) {
  const ServiceBatchAnswer a = ring_batch(server, id, {{scenario, scheme}});
  if (a.parts.size() != 1) return {};
  EXPECT_EQ(a.parts[0].status, AnswerStatus::kOk) << a.parts[0].error;
  return a.parts[0].cells;
}

TEST(CampaignServerTest, EntriesPublishedAfterOpenAnswerOverRingAndFileWire) {
  TempDir tmp("snug_service_foreign_entry");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  const ServingThread serving(server, /*poll_ms=*/1);
  const ServiceClient client(cfg.root);
  // Both entries land after the server's one directory scan.
  const std::vector<AnswerCell> ring_cells =
      publish_from_another_writer(cfg.cache_dir, kScenarioA, "L2P");
  const std::vector<AnswerCell> file_cells =
      publish_from_another_writer(cfg.cache_dir, kScenarioB, "L2P");

  expect_cells_equal(ring_query(server, "ring", kScenarioA, "L2P"),
                     ring_cells);
  ASSERT_TRUE(submit(cfg.root, "file", kScenarioB, "L2P"));
  const BatchPart f = wait_part(client, "file", /*timeout_ms=*/30'000);
  ASSERT_EQ(f.status, AnswerStatus::kOk) << f.error;
  expect_cells_equal(f.cells, file_cells);

  CampaignServer::Stats s = server.stats();
  EXPECT_EQ(s.cells_simulated, 0u) << "a published entry never re-simulates";
  EXPECT_EQ(s.cells_from_cache, 2u);
  EXPECT_EQ(s.cache_probes, 2u);
  EXPECT_EQ(s.cache_probe_hits, 2u);
  EXPECT_EQ(s.ring_inline_answers, 1u);
  EXPECT_EQ(s.ring_backlogged, 0u);

  // The probe indexed what it found: a repeat is an index hit.
  expect_cells_equal(ring_query(server, "again", kScenarioA, "L2P"),
                     ring_cells);
  s = server.stats();
  EXPECT_EQ(s.cache_probes, 2u);
  EXPECT_EQ(s.cells_simulated, 0u);
}

TEST(CampaignServerTest, CorruptEntryQuarantinedAtOpenServesTheHealedFile) {
  TempDir tmp("snug_service_heal_probe");
  const ServiceConfig cfg = small_config(tmp);
  (void)publish_from_another_writer(cfg.cache_dir, kScenarioA, "DSR");
  const fs::path entry = rot_only_cache_entry(cfg.cache_dir);
  ASSERT_FALSE(entry.empty());

  CampaignServer server(cfg);
  const ServingThread serving(server, /*poll_ms=*/1);
  ASSERT_EQ(server.stats().index.quarantined, 1u);
  ASSERT_FALSE(fs::exists(entry)) << "the open scan moves the entry aside";
  // Another writer finds no entry, simulates and re-publishes it good.
  const std::vector<AnswerCell> healed =
      publish_from_another_writer(cfg.cache_dir, kScenarioA, "DSR");
  ASSERT_TRUE(fs::exists(entry));

  const std::vector<AnswerCell> got =
      ring_query(server, "healed", kScenarioA, "DSR");
  expect_cells_equal(got, healed);
  expect_cells_equal(got, direct_cells(kScenarioA, "DSR"));
  const CampaignServer::Stats s = server.stats();
  EXPECT_EQ(s.cells_simulated, 0u) << "served from the healed file";
  EXPECT_EQ(s.cache_probe_hits, 1u);
  EXPECT_EQ(s.cells_from_cache, 1u);
}

TEST(CampaignServerTest, FinishedCellWakesThePublishPass) {
  TempDir tmp("snug_service_wake");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  // A poll interval no test run waits out: the answer can only come
  // from a wake-up by the worker or the ring thread.
  constexpr std::uint64_t kPollMs = 60'000;
  const ServingThread serving(server, kPollMs);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<AnswerCell> got =
      ring_query(server, "miss", kScenarioA, "SNUG");
  const auto took = std::chrono::steady_clock::now() - t0;
  expect_cells_equal(got, direct_cells(kScenarioA, "SNUG"));
  EXPECT_EQ(server.stats().ring_backlogged, 1u)
      << "the cell was simulated, so the publish pass answered it";
  EXPECT_LT(took, std::chrono::milliseconds(kPollMs / 4));
}

// Both waits of the file wire are event-driven: under a poll interval
// no test run waits out, a query file wakes the server (its rename
// into submit/) and the answer wakes the client (its rename into
// answers/).  A lost wake shows as a 60-s stall, never as a flake.
TEST(CampaignServerTest, FileWireWakesBothSidesOnPublishes) {
  TempDir tmp("snug_service_file_wake");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  constexpr std::uint64_t kPollMs = 60'000;
  const ServingThread serving(server, kPollMs);
  const ServiceClient client(cfg.root);
  const std::vector<AnswerCell> want = direct_cells(kScenarioA, "SNUG");
  const auto t0 = std::chrono::steady_clock::now();
  // The cold query's answer comes from a worker's wake; the warm one is
  // submitted while serve() waits, so only its submit event wakes it.
  for (const char* id : {"cold", "warm"}) {
    ASSERT_TRUE(submit(cfg.root, id, kScenarioA, "SNUG"));
    ServiceBatchAnswer a;
    ASSERT_TRUE(client.wait_batch(id, a, /*timeout_ms=*/kPollMs,
                                  /*poll_ms=*/kPollMs))
        << id;
    const BatchPart part = only_part(a);
    ASSERT_EQ(part.status, AnswerStatus::kOk) << part.error;
    expect_cells_equal(part.cells, want);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(kPollMs / 4));
  const CampaignServer::Stats s = server.stats();
  EXPECT_EQ(s.cells_simulated, 1u);
  EXPECT_EQ(s.cells_from_cache, 1u);
}

/// Four-core class-1 combos: one part of several cells per scheme.
constexpr const char* kScenarioClass =
    "cores=4 workload=class1 warmup-cycles=10000 measure-cycles=40000";

std::size_t combos_of(const std::string& scenario) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_TRUE(parse_scenario(scenario, spec, error)) << error;
  return spec.combos().size();
}

TEST(CampaignServerTest, MemoisedPartsAreBitIdenticalToThePerCellPath) {
  TempDir tmp("snug_service_part_memo");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  const ServingThread serving(server, /*poll_ms=*/1);
  const std::vector<BatchItem> items = {{kScenarioClass, "SNUG"},
                                        {kScenarioClass, "L2P"}};
  const std::size_t cells = items.size() * combos_of(kScenarioClass);
  ASSERT_GT(cells, items.size()) << "parts of several cells";

  // Cold: the cells were pending when the parts were built, so they
  // resolve through the backlog and nothing is memoised.
  const ServiceBatchAnswer cold = ring_batch(server, "cold", items);
  const CampaignServer::Stats s0 = server.stats();
  EXPECT_EQ(s0.cells_simulated, cells);
  EXPECT_EQ(s0.parts_from_memo, 0u);
  // First warm query: every cell is an index hit, answered cell by
  // cell; the parts are memoised on the way.
  const ServiceBatchAnswer warm = ring_batch(server, "warm", items);
  const CampaignServer::Stats s1 = server.stats();
  EXPECT_EQ(s1.parts_from_memo, 0u);
  EXPECT_EQ(s1.cells_from_cache - s0.cells_from_cache, cells);
  EXPECT_EQ(s1.index.hits - s0.index.hits, cells);
  // Second warm query: whole parts from the memo, no index lookups, the
  // same cells_from_cache count.
  const ServiceBatchAnswer memo = ring_batch(server, "memo", items);
  const CampaignServer::Stats s2 = server.stats();
  EXPECT_EQ(s2.parts_from_memo, items.size());
  EXPECT_EQ(s2.cells_from_cache - s1.cells_from_cache, cells);
  EXPECT_EQ(s2.index.hits, s1.index.hits);
  EXPECT_EQ(s2.cells_simulated, cells);
  EXPECT_EQ(s2.ring_inline_answers, 2u);

  for (std::size_t p = 0; p < items.size(); ++p) {
    ASSERT_EQ(cold.parts[p].status, AnswerStatus::kOk) << cold.parts[p].error;
    ASSERT_EQ(memo.parts[p].status, AnswerStatus::kOk) << memo.parts[p].error;
    expect_cells_equal(warm.parts[p].cells, cold.parts[p].cells);
    expect_cells_equal(memo.parts[p].cells, cold.parts[p].cells);
  }
  // The file wire serves the memo too, to the same bytes.
  ASSERT_TRUE(submit_batch(cfg.root, "file", items));
  ServiceBatchAnswer file;
  const ServiceClient client(cfg.root);
  ASSERT_TRUE(client.wait_batch("file", file, 30'000));
  ServiceBatchAnswer expect = cold;
  expect.id = "file";
  EXPECT_EQ(file_bytes(answer_path(cfg.root, "file")),
            encode_batch_answer(expect));
  EXPECT_EQ(server.stats().parts_from_memo, 2 * items.size());
}

TEST(CampaignServerTest, PartsWithAPendingCellAreNeverMemoised) {
  TempDir tmp("snug_service_memo_pending");
  // The stall keeps the cell in the backlog far longer than the two
  // passes the test runs itself, so the second query's part is built
  // while its only cell is pending.
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(
      fault::FaultPlan::parse("seed=2; stall@task:ms=400", plan, error))
      << error;
  const fault::ScopedFaultPlan scoped(plan);
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  ASSERT_TRUE(submit(cfg.root, "first", kScenarioA, "SNUG"));
  ASSERT_GT(server.poll_once(), 0u);
  ASSERT_TRUE(submit(cfg.root, "pending", kScenarioA, "SNUG"));
  ASSERT_GT(server.poll_once(), 0u);
  EXPECT_FALSE(fs::exists(answer_path(cfg.root, "pending")))
      << "a part with a pending cell waits for it";
  EXPECT_EQ(server.stats().parts_from_memo, 0u);

  const ServingThread serving(server, /*poll_ms=*/1);
  const ServiceClient client(cfg.root);
  const std::vector<AnswerCell> want = direct_cells(kScenarioA, "SNUG");
  for (const char* id : {"first", "pending"}) {
    const BatchPart part = wait_part(client, id, /*timeout_ms=*/30'000);
    ASSERT_EQ(part.status, AnswerStatus::kOk) << part.error;
    expect_cells_equal(part.cells, want);
  }
  EXPECT_EQ(server.stats().parts_from_memo, 0u);
  // Once the cell is indexed, the next build memoises the part and the
  // one after answers from it.
  expect_cells_equal(ring_query(server, "indexed", kScenarioA, "SNUG"), want);
  expect_cells_equal(ring_query(server, "memo", kScenarioA, "SNUG"), want);
  EXPECT_EQ(server.stats().parts_from_memo, 1u);
}

TEST(CampaignServerTest, PartsWithAPoisonedCellAreNeverMemoised) {
  TempDir tmp("snug_service_memo_poison");
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(parse_scenario(kScenarioClass, spec, error)) << error;
  const std::vector<trace::WorkloadCombo> combos = spec.combos();
  ASSERT_GT(combos.size(), 1u);
  // Every run of the first combo fails: its cell poisons, the rest of
  // the part stays healthy.
  fault::FaultPlan plan;
  ASSERT_TRUE(fault::FaultPlan::parse(
      "seed=5; fail@task:match=" + combos[0].name + "/SNUG", plan, error))
      << error;
  const fault::ScopedFaultPlan scoped(plan);
  ServiceConfig cfg = small_config(tmp);
  cfg.retry.max_attempts = 2;
  cfg.retry.backoff_ms = 1;
  CampaignServer server(cfg);
  const ServingThread serving(server, /*poll_ms=*/1);

  std::vector<ServiceBatchAnswer> answers;
  for (const char* id : {"first", "second", "third"}) {
    answers.push_back(ring_batch(server, id, {{kScenarioClass, "SNUG"}}));
    const BatchPart& part = answers.back().parts.at(0);
    EXPECT_EQ(part.status, AnswerStatus::kError) << id;
    EXPECT_NE(part.error.find(combos[0].name), std::string::npos)
        << part.error;
    EXPECT_EQ(part.cells.size(), combos.size() - 1)
        << "the healthy cells still answer";
    expect_cells_equal(part.cells, answers.front().parts.at(0).cells);
  }
  const CampaignServer::Stats s = server.stats();
  EXPECT_EQ(s.parts_from_memo, 0u);
  EXPECT_EQ(s.backlog.poisoned, 1u);
  EXPECT_EQ(s.cells_simulated, combos.size() - 1);
}

TEST(CampaignServerTest, CorruptCacheEntryRecomputesAndHeals) {
  TempDir tmp("snug_service_corrupt_cache");
  const ServiceConfig cfg = small_config(tmp);
  std::string good_bytes;
  {
    CampaignServer server(cfg);
    ASSERT_TRUE(submit(cfg.root, "q1", kScenarioA, "DSR"));
    const BatchPart a = serve_until_answered(server, cfg.root, "q1");
    ASSERT_EQ(a.status, AnswerStatus::kOk) << a.error;
    good_bytes = file_bytes(answer_path(cfg.root, "q1"));
  }
  // Rot one payload byte of the (only) published cache entry.
  ASSERT_FALSE(rot_only_cache_entry(cfg.cache_dir).empty());
  // A fresh server probes the entry, rejects it on CRC (quarantining
  // it), recomputes, and re-publishes — the answer never changes.
  ServiceConfig cfg2 = cfg;
  cfg2.root = tmp.path("svc2");
  CampaignServer server2(cfg2);
  ASSERT_TRUE(submit(cfg2.root, "q1", kScenarioA, "DSR"));
  const BatchPart healed = serve_until_answered(server2, cfg2.root, "q1");
  ASSERT_EQ(healed.status, AnswerStatus::kOk) << healed.error;
  EXPECT_EQ(file_bytes(answer_path(cfg2.root, "q1")), good_bytes);
  const CampaignServer::Stats s = server2.stats();
  EXPECT_EQ(s.cells_from_cache, 0u) << "the rotten entry must not serve";
  EXPECT_EQ(s.cells_simulated, 1u);
  EXPECT_TRUE(fs::exists(fs::path(cfg.cache_dir) / "quarantine"))
      << "the corrupt entry is quarantined, not deleted";
}

TEST(CampaignServerBatchTest, MixedPartsAnswerPerPartStatuses) {
  TempDir tmp("snug_service_batch_mixed");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  // Part 1 is malformed (unknown scheme): it must answer status=error
  // WITHOUT dragging the healthy parts down with it.
  ASSERT_TRUE(submit_batch(cfg.root, "sweep",
                           {{kScenarioA, "SNUG"},
                            {kScenarioA, "NOPE"},
                            {kScenarioB, "SNUG"}}));
  const ServiceBatchAnswer a =
      serve_until_batch_answered(server, cfg.root, "sweep");
  ASSERT_EQ(a.parts.size(), 3u);
  ASSERT_EQ(a.parts[0].status, AnswerStatus::kOk) << a.parts[0].error;
  expect_cells_equal(a.parts[0].cells, direct_cells(kScenarioA, "SNUG"));
  EXPECT_EQ(a.parts[1].status, AnswerStatus::kError);
  EXPECT_NE(a.parts[1].error.find("NOPE"), std::string::npos)
      << a.parts[1].error;
  EXPECT_TRUE(a.parts[1].cells.empty());
  ASSERT_EQ(a.parts[2].status, AnswerStatus::kOk) << a.parts[2].error;
  expect_cells_equal(a.parts[2].cells, direct_cells(kScenarioB, "SNUG"));
  EXPECT_FALSE(fs::exists(query_path(cfg.root, "sweep")));
  const CampaignServer::Stats s = server.stats();
  EXPECT_EQ(s.queries_ingested, 1u);
  EXPECT_EQ(s.queries_rejected, 0u) << "one bad part does not reject all";
  EXPECT_EQ(s.parts_total, 3u);
  EXPECT_EQ(s.parts_rejected, 1u);
  EXPECT_EQ(s.parts_shed, 0u);
}

TEST(CampaignServerBatchTest, AdmissionShedsWholePartsNotCells) {
  TempDir tmp("snug_service_batch_shed");
  // Every cell stalls 400 ms, so part 0's admission still holds the
  // only backlog slot when part 1 asks.
  fault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(
      fault::FaultPlan::parse("seed=2; stall@task:ms=400", plan, error))
      << error;
  fault::ScopedFaultPlan scoped(plan);

  ServiceConfig cfg = small_config(tmp);
  cfg.workers = 1;
  cfg.max_backlog = 1;
  cfg.retry_after_ms = 123;
  CampaignServer server(cfg);
  ASSERT_TRUE(submit_batch(cfg.root, "burst",
                           {{kScenarioA, "SNUG"}, {kScenarioB, "SNUG"}}));
  const ServiceBatchAnswer a =
      serve_until_batch_answered(server, cfg.root, "burst");
  ASSERT_EQ(a.parts.size(), 2u);
  ASSERT_EQ(a.parts[0].status, AnswerStatus::kOk) << a.parts[0].error;
  expect_cells_equal(a.parts[0].cells, direct_cells(kScenarioA, "SNUG"));
  EXPECT_EQ(a.parts[1].status, AnswerStatus::kRetryAfter);
  EXPECT_EQ(a.parts[1].retry_after_ms, 123u);
  EXPECT_TRUE(a.parts[1].cells.empty())
      << "a shed part is whole-part: no cells, not even warm hits";
  EXPECT_EQ(server.stats().parts_shed, 1u);
}

TEST(CampaignServerTest, V1QueryFileIsRejectedWithAV2Error) {
  TempDir tmp("snug_service_v1_rejected");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  // A file in the retired single-query format, as an old client wrote
  // it: answered with one v2 error part naming the format it wants.
  std::ofstream(query_path(cfg.root, "old"), std::ios::binary)
      << "query-v1\nid=old\nscenario=" << kScenarioA << "\nscheme=SNUG\n";
  const BatchPart a = serve_until_answered(server, cfg.root, "old");
  EXPECT_EQ(a.status, AnswerStatus::kError);
  EXPECT_NE(a.error.find("query-v2"), std::string::npos) << a.error;
  EXPECT_TRUE(a.cells.empty());
  EXPECT_EQ(file_bytes(answer_path(cfg.root, "old")).rfind("answer-v2\n", 0),
            0u);
  EXPECT_FALSE(fs::exists(query_path(cfg.root, "old")))
      << "the rejected submit file is retired";
  const CampaignServer::Stats s = server.stats();
  EXPECT_EQ(s.queries_rejected, 1u);
  EXPECT_EQ(s.queries_answered, 1u);
  EXPECT_EQ(s.cells_simulated, 0u);
}

// The submit poller skips its listing only on a directory signature
// that had settled when it was last listed.  A query renamed in within
// the same timestamp tick as the listed signature leaves it unchanged;
// the poller must still find it once that signature settles.  The tick
// is forced here by setting submit/'s mtime.
TEST(CampaignServerTest, SameTickSubmitIsIngestedAfterTheEpochSettles) {
  TempDir tmp("snug_service_same_tick");
  const ServiceConfig cfg = small_config(tmp);
  CampaignServer server(cfg);
  const std::string sdir = submit_dir(cfg.root);
  // A signature 300 ms in the future stays unsettled for the first pass.
  const auto set_mtime = [&sdir](const struct timespec& t) {
    const struct timespec times[2] = {{0, UTIME_OMIT}, t};
    ASSERT_EQ(::utimensat(AT_FDCWD, sdir.c_str(), times, 0), 0);
  };
  struct timespec tick{};
  ASSERT_EQ(::clock_gettime(CLOCK_REALTIME, &tick), 0);
  tick.tv_nsec += 300'000'000;
  if (tick.tv_nsec >= 1'000'000'000) {
    ++tick.tv_sec;
    tick.tv_nsec -= 1'000'000'000;
  }

  ASSERT_TRUE(submit(cfg.root, "first", kScenarioA, "NOPE"));
  set_mtime(tick);
  const DirEpoch listed = dir_epoch(sdir);
  ASSERT_FALSE(epoch_settled(listed));
  ASSERT_GT(server.poll_once(), 0u) << "the first query is ingested";
  ASSERT_TRUE(fs::exists(answer_path(cfg.root, "first")));

  // The second query lands in the listed tick: same mtime, same size.
  ASSERT_TRUE(submit(cfg.root, "second", kScenarioA, "NOPE"));
  set_mtime(tick);
  ASSERT_EQ(dir_epoch(sdir), listed);
  while (!epoch_settled(dir_epoch(sdir))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(dir_epoch(sdir), listed);
  EXPECT_GT(server.poll_once(), 0u) << "the same-tick query is ingested";
  EXPECT_TRUE(fs::exists(answer_path(cfg.root, "second")));
}

TEST(CampaignServerTest, SubmitWhoseAnswerExistsIsRetiredWithoutReanswering) {
  TempDir tmp("snug_service_answered_submit");
  const ServiceConfig cfg = small_config(tmp);
  // What a server killed between publishing an answer and retiring its
  // submit file leaves behind: both files for one id.
  ASSERT_TRUE(submit(cfg.root, "done", kScenarioA, "SNUG"));
  ServiceBatchAnswer planted;
  planted.id = "done";
  planted.parts.resize(1);
  planted.parts[0].cells.push_back({"planted", {1.25}});
  const std::string planted_bytes = encode_batch_answer(planted);
  std::ofstream(answer_path(cfg.root, "done"), std::ios::binary)
      << planted_bytes;

  CampaignServer server(cfg);
  (void)server.poll_once();
  EXPECT_FALSE(fs::exists(query_path(cfg.root, "done")))
      << "the answered submit file is retired";
  EXPECT_EQ(file_bytes(answer_path(cfg.root, "done")), planted_bytes)
      << "the published answer is never rewritten";
  const CampaignServer::Stats s = server.stats();
  EXPECT_EQ(s.cells_simulated, 0u);
  EXPECT_EQ(s.queries_ingested, 0u);
  EXPECT_EQ(s.queries_answered, 0u);
}

// A long-lived server must not keep per-miss state: once every cell
// of 300 never-seen single-cell queries has finished, no work item is
// left and the resolve memo sits at or below its cap.
TEST(CampaignServerTest, DistinctMissesLeaveNoPerMissState) {
  TempDir tmp("snug_service_miss_state");
  ServiceConfig cfg = small_config(tmp);
  std::atomic<int> finished{0};
  cfg.on_cell_completed = [&finished] {
    finished.fetch_add(1);
    finished.notify_all();
  };
  CampaignServer server(cfg);
  std::jthread serving(
      [&server] { server.serve(/*idle_exit_polls=*/0, /*poll_ms=*/1); });

  // 300 distinct four-benchmark workloads, three 100-part batches.
  std::vector<std::string> benches;
  for (const char cls : {'A', 'B', 'C', 'D'}) {
    for (const std::string& b : trace::benchmarks_in_class(cls)) {
      benches.push_back(b);
    }
  }
  ASSERT_GE(benches.size(), 5u);
  constexpr int kMisses = 300;
  RingClient client(server);
  for (int batch = 0; batch < 3; ++batch) {
    ServiceBatchQuery q;
    q.id = "misses-" + std::to_string(batch);
    for (int i = batch * 100; i < (batch + 1) * 100; ++i) {
      std::string list;
      for (int c = 0, n = i; c < 4; ++c, n /= 5) {
        if (c > 0) list += '+';
        list += benches[static_cast<std::size_t>(n % 5)];
      }
      q.items.push_back(BatchItem{"cores=4 workload=" + list +
                                      " warmup-cycles=1000 "
                                      "measure-cycles=2000",
                                  "SNUG"});
    }
    ServiceBatchAnswer a;
    std::string error;
    ASSERT_TRUE(client.query(q, a, /*publish=*/false, &error)) << error;
    for (const BatchPart& part : a.parts) {
      ASSERT_EQ(part.status, AnswerStatus::kOk) << part.error;
      ASSERT_EQ(part.cells.size(), 1u);
    }
  }
  // The completion hook runs after the worker has dropped its item.
  for (int n = finished.load(); n < kMisses; n = finished.load()) {
    finished.wait(n);
  }
  server.request_stop();
  serving.join();
  const CampaignServer::Stats s = server.stats();
  EXPECT_EQ(s.cells_simulated, static_cast<std::uint64_t>(kMisses));
  EXPECT_EQ(s.work_items, 0u);
  EXPECT_LE(s.resolve_memo_entries, kResolveMemoCap);
}

TEST(CampaignServerTest, OpenReapsAckedAnswersOverTheRetentionCap) {
  TempDir tmp("snug_service_answer_gc");
  const ServiceConfig cfg = small_config(tmp);
  ServiceClient client(cfg.root);  // creates submit/ and answers/
  // 260 acked answers (no submit file) + one still-awaiting-pickup
  // answer whose submit file is live; the cap is kAnswerKeepCap (256).
  for (int i = 0; i < 260; ++i) {
    char id[16];
    std::snprintf(id, sizeof id, "g%03d", i);
    std::ofstream(answer_path(cfg.root, id), std::ios::binary)
        << "answer-v2\nid=" << id << "\nparts=1\npart=0 status=ok\n";
  }
  std::ofstream(query_path(cfg.root, "g000"), std::ios::binary)
      << "query-v2\nid=g000\nquery=SNUG|cores=4\n";

  CampaignServer server(cfg);
  std::size_t kept = 0;
  for (const auto& e : fs::directory_iterator(answer_dir(cfg.root))) {
    if (e.path().extension() == ".answer") ++kept;
  }
  EXPECT_EQ(kept, kAnswerKeepCap);
  EXPECT_EQ(server.stats().answers_reaped, 4u);
  // The oldest names go first — but never one a client still awaits.
  EXPECT_TRUE(fs::exists(answer_path(cfg.root, "g000")))
      << "a live submit file pins its answer";
  EXPECT_FALSE(fs::exists(answer_path(cfg.root, "g001")));
  EXPECT_FALSE(fs::exists(answer_path(cfg.root, "g004")));
  EXPECT_TRUE(fs::exists(answer_path(cfg.root, "g005")));
  EXPECT_TRUE(fs::exists(answer_path(cfg.root, "g259")));
}

TEST(CampaignServerTest, OpenReapsDeadClientsQueryTemps) {
  TempDir tmp("snug_service_submit_reap");
  const ServiceConfig cfg = small_config(tmp);
  ServiceClient client(cfg.root);  // creates submit/ and answers/
  // What a client killed mid-publish leaves in submit/, beside one a
  // live client (this process) is still about to rename.
  const fs::path dead =
      fs::path(submit_dir(cfg.root)) / "q1.query.tmp.999999999.3";
  const fs::path live = fs::path(submit_dir(cfg.root)) /
                        ("q2.query.tmp." + std::to_string(::getpid()) + ".1");
  std::ofstream(dead, std::ios::binary) << "query-v2\nid=q1\n";
  std::ofstream(live, std::ios::binary) << "query-v2\nid=q2\n";

  CampaignServer server(cfg);
  EXPECT_FALSE(fs::exists(dead)) << "a dead client's temp is reaped";
  EXPECT_TRUE(fs::exists(live)) << "a live client's temp is its own";
  EXPECT_EQ(server.stats().answer_temps_reaped, 1u);
}

// A long-lived server keeps answers/ bounded while it serves: every
// kAnswerKeepCap file-wire answers it reaps the acked ones beyond the
// cap, sparing those published since the previous reap, so 3 x
// kAnswerKeepCap sweeps leave kAnswerKeepCap answers behind.  An answer
// whose submit file is still live is never reaped.
TEST(CampaignServerTest, ServingReapsAckedAnswersOncePerRetentionCap) {
  TempDir tmp("snug_service_serving_reap");
  const ServiceConfig cfg = small_config(tmp);
  // Every sweep answers from the index: no simulation.
  publish_from_another_writer(cfg.cache_dir, kScenarioA, "L2P");
  const ServiceClient client(cfg.root);  // creates submit/ and answers/
  // A submit the server never retires (its id is not one it answers)
  // stays live for the whole run, beside its answer — the oldest name.
  const std::string pinned = "pinned answer";
  std::ofstream(answer_path(cfg.root, pinned), std::ios::binary)
      << "answer-v2\nid=pinned\nparts=1\npart=0 status=ok\n";
  std::ofstream(query_path(cfg.root, pinned), std::ios::binary)
      << "query-v2\nid=pinned\nquery=L2P|cores=4\n";

  CampaignServer server(cfg);
  {
    const ServingThread serving(server, /*poll_ms=*/50);
    constexpr std::size_t kSweeps = 3 * kAnswerKeepCap;
    for (std::size_t i = 0; i < kSweeps; ++i) {
      char id[16];
      std::snprintf(id, sizeof id, "s%04zu", i);
      ASSERT_TRUE(submit(cfg.root, id, kScenarioA, "L2P"));
      ServiceBatchAnswer a;
      ASSERT_TRUE(client.wait_batch(id, a, /*timeout_ms=*/30'000)) << id;
      ASSERT_EQ(only_part(a).status, AnswerStatus::kOk) << id;
    }
  }  // serve() returns after the pass that published the last answer
  std::size_t kept = 0;
  for (const auto& e : fs::directory_iterator(answer_dir(cfg.root))) {
    if (e.path().extension() == ".answer") ++kept;
  }
  // The third reap ran on the last sweep's publish and spared exactly
  // the answers published since the second: nothing else is in flight.
  EXPECT_EQ(kept, kAnswerKeepCap + 1) << "the cap, plus the pinned answer";
  EXPECT_EQ(server.stats().answers_reaped, 2 * kAnswerKeepCap);
  EXPECT_TRUE(fs::exists(answer_path(cfg.root, pinned)))
      << "a live submit file pins its answer";
  EXPECT_FALSE(fs::exists(answer_path(cfg.root, "s0000")));
  EXPECT_FALSE(fs::exists(answer_path(cfg.root, "s0511")));
  EXPECT_TRUE(fs::exists(answer_path(cfg.root, "s0512")));
  EXPECT_TRUE(fs::exists(answer_path(cfg.root, "s0767")));
  EXPECT_EQ(server.stats().cells_simulated, 0u);
}

}  // namespace
}  // namespace snug::sim::service
