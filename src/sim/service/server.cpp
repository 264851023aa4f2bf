#include "sim/service/server.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <utility>

#include "common/require.hpp"
#include "common/str.hpp"
#include "sim/blob_store.hpp"

namespace snug::sim::service {
namespace {

ServiceConfig normalize(ServiceConfig cfg) {
  SNUG_REQUIRE_MSG(!cfg.cache_dir.empty(),
                   "campaignd needs a cache dir: a finished cell's cache "
                   "entry is its only durable record");
  if (cfg.workers == 0) cfg.workers = 1;
  if (cfg.ring_capacity < 2) cfg.ring_capacity = 2;
  return cfg;
}

/// Fills a ring op's answer with one status=error part per item and
/// completes it — the op never blocks its client, whatever went wrong.
void fail_ring_op(RingOp* op, const std::string& why) {
  op->answer.id = op->query.id;
  op->answer.parts.clear();
  op->answer.parts.resize(op->query.items.empty() ? 1
                                                  : op->query.items.size());
  for (BatchPart& part : op->answer.parts) {
    part.status = AnswerStatus::kError;
    part.error = why;
  }
  op->complete();
}

/// Resets the eventfd counter (non-blocking: a no-op when unset).
void drain_eventfd(int fd) {
  std::uint64_t count = 0;
  while (::read(fd, &count, sizeof count) > 0) {
  }
}

}  // namespace

CampaignServer::CampaignServer(ServiceConfig cfg)
    : cfg_(normalize(std::move(cfg))),
      env_(&fault::env()),
      backlog_(cfg_.max_backlog),
      index_(cfg_.cache_dir),
      ring_(cfg_.ring_capacity),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  SNUG_ENSURE_MSG(wake_fd_ >= 0, "campaignd: eventfd failed (errno %d)",
                  errno);
  env_->create_directories(submit_dir(cfg_.root));
  env_->create_directories(answer_dir(cfg_.root));
  gc_answers();
  workers_.reserve(cfg_.workers);
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back(
        [this](const std::stop_token& stop) { worker_loop(stop); });
  }
  ring_thread_ = std::jthread(
      [this](const std::stop_token& stop) { ring_loop(stop); });
}

CampaignServer::~CampaignServer() {
  for (auto& w : workers_) w.request_stop();
  ring_thread_.request_stop();
  wake_cv_.notify_all();
  // Unpark the ring drain (it may be in an atomic wait).
  ring_pushes_.fetch_add(1, std::memory_order_seq_cst);
  ring_pushes_.notify_all();
  // Join before any member the workers touch is destroyed.
  for (auto& w : workers_) w.join();
  ring_thread_.join();
  // No client may block past our lifetime: ops still queued in the
  // ring, or tracked but unfinished, drain with status=error.
  while (RingOp* op = ring_.try_pop()) {
    fail_ring_op(op, "server shut down before the answer resolved");
  }
  for (auto& [id, tq] : tracked_) {
    if (tq.ring != nullptr && tq.ring->state() == RingOp::kPending) {
      fail_ring_op(tq.ring, "server shut down before the answer resolved");
    }
  }
  ::close(wake_fd_);
}

void CampaignServer::gc_answers() {
  // Dead writers' temps: the server's own answer publishes, and
  // clients' query publishes in submit/.
  const std::string adir = answer_dir(cfg_.root);
  answer_temps_reaped_.store(
      reap_orphaned_temps(*env_, adir) +
          reap_orphaned_temps(*env_, submit_dir(cfg_.root)),
      std::memory_order_relaxed);
  const std::uint64_t reaped = reap_acked_answers();
  if (reaped > 0) {
    std::fprintf(stderr,
                 "snug: campaignd: reaped %llu acked answers over the "
                 "%zu-entry retention cap\n",
                 static_cast<unsigned long long>(reaped), kAnswerKeepCap);
  }
}

std::uint64_t CampaignServer::reap_acked_answers() {
  // Reap acked answers (no matching submit file — the client saw them
  // or abandoned them) beyond the retention cap, oldest name first:
  // the same bounded-evidence pattern as the stores' quarantine cap.
  // An answer published since the last reap is in flight: its client
  // may not have read it yet.
  std::vector<std::string> fresh;
  fresh.swap(fresh_answers_);
  std::sort(fresh.begin(), fresh.end());
  const std::string adir = answer_dir(cfg_.root);
  std::vector<std::string> acked;
  std::size_t remaining = 0;
  for (const std::string& name : env_->list_dir(adir)) {
    if (name.size() <= 7 || name.rfind(".answer") != name.size() - 7) {
      continue;
    }
    ++remaining;
    if (!std::binary_search(fresh.begin(), fresh.end(),
                            name.substr(0, name.size() - 7))) {
      acked.push_back(name);
    }
  }
  if (remaining <= kAnswerKeepCap) return 0;
  std::sort(acked.begin(), acked.end());
  std::uint64_t reaped = 0;
  for (const std::string& name : acked) {
    if (remaining <= kAnswerKeepCap) break;
    const std::string id = name.substr(0, name.size() - 7);
    std::vector<std::byte> probe;
    if (env_->read_file(query_path(cfg_.root, id), probe, 1)) {
      continue;  // still awaiting pickup — the submit file is live
    }
    env_->remove(adir + "/" + name);
    ++reaped;
    --remaining;
  }
  answers_reaped_.fetch_add(reaped, std::memory_order_relaxed);
  return reaped;
}

ExperimentRunner& CampaignServer::runner_for(const ScenarioSpec& spec,
                                             std::uint64_t runner_key) {
  const std::lock_guard<std::mutex> lock(runners_mu_);
  auto it = runners_.find(runner_key);
  if (it == runners_.end()) {
    it = runners_
             .emplace(runner_key,
                      std::make_unique<ExperimentRunner>(
                          spec, cfg_.cache_dir, cfg_.root + "/warm_bank"))
             .first;
  }
  return *it->second;
}

std::shared_ptr<const CampaignServer::ResolvedItem>
CampaignServer::resolve_item(const BatchItem& item) {
  const std::string key = item.scheme_id + '\x1f' + item.scenario_text;
  {
    const std::lock_guard<std::mutex> lock(resolve_mu_);
    const auto it = resolve_memo_.find(key);
    if (it != resolve_memo_.end()) return it->second;
  }
  auto r = std::make_shared<ResolvedItem>();
  std::string error;
  ScenarioSpec spec;
  if (!parse_scenario(item.scenario_text, spec, error)) {
    r->error = "bad scenario: " + error;
  } else if (const std::string invalid = spec.validate(); !invalid.empty()) {
    r->error = "bad scenario: " + invalid;
  } else if (!schemes::parse_scheme_id(item.scheme_id, r->scheme)) {
    r->error = "unknown scheme '" + item.scheme_id + "'";
  } else {
    r->ok = true;
    r->spec = spec;
    r->runner_key = config_fingerprint(spec.system_config(), spec.scale);
    r->combos = spec.combos();
    r->fps.reserve(r->combos.size());
    for (const trace::WorkloadCombo& combo : r->combos) {
      r->fps.push_back(run_fingerprint(r->runner_key, combo, r->scheme));
    }
  }
  const std::lock_guard<std::mutex> lock(resolve_mu_);
  if (resolve_memo_.size() >= kResolveMemoCap) resolve_memo_.clear();
  return resolve_memo_.emplace(key, std::move(r)).first->second;
}

CampaignServer::TrackedPart CampaignServer::build_part(const BatchItem& item) {
  TrackedPart part;
  const std::shared_ptr<const ResolvedItem> r = resolve_item(item);
  if (!r->ok) {
    part.status = AnswerStatus::kError;
    part.error = r->error;
    return part;
  }
  if (std::shared_ptr<const BatchPart> memo = r->part.load()) {
    // Every cell answered from the index before, and an indexed cell
    // never changes: the whole part is the memo.
    cells_from_cache_.fetch_add(memo->cells.size(),
                                std::memory_order_relaxed);
    parts_from_memo_.fetch_add(1, std::memory_order_relaxed);
    part.memo = std::move(memo);
    return part;
  }
  std::vector<std::size_t> missing;
  bool all_resolved = true;
  ExperimentRunner* runner = nullptr;
  part.cells.reserve(r->combos.size());
  for (std::size_t i = 0; i < r->combos.size(); ++i) {
    TrackedCell cell;
    cell.combo = r->combos[i].name;
    cell.fp = r->fps[i];
    bool hit = index_.lookup(cell.fp, cell.ipc);
    if (!hit && backlog_.state(cell.fp) == BacklogScheduler::State::kUnknown) {
      // Neither indexed nor queued, but another process may have
      // published the cell since open: probe its own cache file by name
      // (one open(), never a directory listing).
      if (runner == nullptr) runner = &runner_for(r->spec, r->runner_key);
      cache_probes_.fetch_add(1, std::memory_order_relaxed);
      hit = runner->cached_ipc(r->combos[i], r->scheme, cell.ipc);
      if (hit) {
        cache_probe_hits_.fetch_add(1, std::memory_order_relaxed);
        index_.insert(cell.fp, cell.ipc);
      } else {
        missing.push_back(i);
      }
    }
    if (hit) {
      // Hit path: answered from the in-memory index (or the probe).  The
      // cache entry is the durable record: a crash before the answer
      // publishes re-ingests the query, which hits the index again and
      // reproduces the identical bytes.
      cell.resolved = true;
      cells_from_cache_.fetch_add(1, std::memory_order_relaxed);
    }
    all_resolved &= hit;
    part.cells.push_back(std::move(cell));
  }
  if (all_resolved) {
    // No pending, running or poisoned cell: memoise the answer part for
    // the item's later queries.  Racing callers store equal parts.
    auto memo = std::make_shared<BatchPart>();
    memo->cells.reserve(part.cells.size());
    for (TrackedCell& cell : part.cells) {
      memo->cells.push_back(
          AnswerCell{std::move(cell.combo), std::move(cell.ipc)});
    }
    part.cells.clear();
    r->part.store(memo);
    part.memo = std::move(memo);
    return part;
  }
  if (!missing.empty()) {
    const std::string scheme_id = r->scheme.id();
    std::vector<BacklogCell> fresh;
    fresh.reserve(missing.size());
    for (const std::size_t i : missing) {
      BacklogCell cell;
      cell.fp = r->fps[i];
      cell.combo = r->combos[i].name;
      cell.scheme = scheme_id;
      cell.label = cell.combo + "/" + scheme_id;
      cell.runner_key = r->runner_key;
      fresh.push_back(std::move(cell));
    }
    std::vector<std::uint64_t> admitted;
    {
      // Workers resolve cells through work_.  Admitting under state_mu_
      // means a worker that claims a fresh cell waits here for its
      // entry, and only cells this call really enqueued get one — each
      // entry is added once and erased once, when its cell finishes.
      const std::lock_guard<std::mutex> lock(state_mu_);
      if (!backlog_.admit(fresh, &admitted)) {
        // Admission control, part-granular: nothing was enqueued and
        // the part keeps NO cells (not even its hits) — a shed part is
        // whole.
        TrackedPart shed;
        shed.status = AnswerStatus::kRetryAfter;
        shed.retry_after_ms = cfg_.retry_after_ms;
        return shed;
      }
      // `admitted` lists the enqueued fps in `missing` order.
      std::size_t k = 0;
      for (const std::size_t i : missing) {
        if (k < admitted.size() && admitted[k] == r->fps[i]) {
          work_.emplace(r->fps[i], WorkItem{r->combos[i], r->scheme, runner});
          ++k;
        }
      }
    }
    wake_workers();
  }
  return part;
}

bool CampaignServer::collect_answer(const TrackedQuery& tq,
                                    ServiceBatchAnswer& out) {
  out.id = tq.id;
  out.parts.clear();
  out.parts.reserve(tq.parts.size());
  for (const TrackedPart& part : tq.parts) {
    if (part.memo != nullptr) {
      out.parts.push_back(*part.memo);
      continue;
    }
    BatchPart bp;
    bp.status = part.status;
    bp.error = part.error;
    bp.retry_after_ms = part.retry_after_ms;
    if (part.status == AnswerStatus::kOk) {
      for (const TrackedCell& cell : part.cells) {
        if (cell.resolved) {
          bp.cells.push_back(AnswerCell{cell.combo, cell.ipc});
          continue;
        }
        switch (backlog_.state(cell.fp)) {
          case BacklogScheduler::State::kPoisoned:
            // Graceful degradation: the part still answers — healthy
            // cells are included, the poisoned ones are named.
            bp.status = AnswerStatus::kError;
            if (!bp.error.empty()) bp.error += "; ";
            bp.error += backlog_.poison_error(cell.fp);
            break;
          case BacklogScheduler::State::kUnknown: {
            // Finished: the index holds it, or will once the worker that
            // just completed it inserts — its wake_publish() re-runs us.
            AnswerCell ac;
            ac.combo = cell.combo;
            if (!index_.lookup(cell.fp, ac.ipc)) return false;
            bp.cells.push_back(std::move(ac));
            break;
          }
          default:
            return false;  // still pending or running
        }
      }
    }
    out.parts.push_back(std::move(bp));
  }
  return true;
}

bool CampaignServer::finish_tracked(const TrackedQuery& tq,
                                    ServiceBatchAnswer&& answer) {
  // Text is built only for a file: a ring op without publish completes
  // with the in-memory answer and never touches the codec.  The publish
  // is verified, because a torn answer renamed into place (and the
  // submit file then retired) would be a permanently corrupt result; on
  // failure the submit file stays and a later pass retries.
  if (tq.ring == nullptr || tq.ring->publish) {
    const std::string text = encode_batch_answer(answer);
    if (!publish_verified(*env_, answer_path(cfg_.root, tq.id),
                          reinterpret_cast<const std::byte*>(text.data()),
                          text.size())) {
      publish_failures_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  if (tq.ring != nullptr) {
    tq.ring->answer = std::move(answer);
    tq.ring->complete();
  } else {
    // Only AFTER a successful publish is the submit file removed — the
    // crash contract.
    env_->remove(query_path(cfg_.root, tq.id));
    fresh_answers_.push_back(tq.id);
  }
  return true;
}

std::size_t CampaignServer::ingest() {
  const std::string sdir = submit_dir(cfg_.root);
  // Epoch-gated poller (ISSUE 10): every submit publish renames into
  // the directory, so an unchanged-and-settled signature means no new
  // queries — the pass costs one stat, not a listing (the racy-mtime
  // rule in common/fsepoch.hpp keeps same-tick publishes safe).  A
  // failed publish or read forces the next pass through (the retry
  // does not change the directory).
  const DirEpoch now = dir_epoch(sdir);
  if (!submit_force_rescan_ && epoch_unchanged(now, submit_epoch_)) {
    submit_scans_skipped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  submit_force_rescan_ = false;
  // Remember the signature only if it had settled before this listing.
  // An unsettled one can stay identical across a same-tick rename that
  // lands just after the listing, and the gate must not trust it once
  // it settles: the pass that event wakes may run after the settle
  // margin.
  submit_epoch_ = epoch_settled(now) ? now : DirEpoch{};

  std::size_t progress = 0;
  for (const std::string& name : env_->list_dir(sdir)) {
    if (name.size() <= 6 || name.rfind(".query") != name.size() - 6) {
      continue;  // temp files mid-publish, strays
    }
    const std::string id = name.substr(0, name.size() - 6);
    if (!valid_query_id(id)) continue;  // not ours to answer
    {
      const std::lock_guard<std::mutex> lock(state_mu_);
      if (tracked_.count(id) != 0) continue;
    }
    {
      // Already answered — by a previous server life that crashed before
      // retiring the submit file, or by this one when the removal was
      // lost: retire it without answering again.
      std::vector<std::byte> probe;
      if (env_->read_file(answer_path(cfg_.root, id), probe, 1)) {
        env_->remove(query_path(cfg_.root, id));
        continue;
      }
    }

    std::vector<std::byte> raw;
    if (!env_->read_file(query_path(cfg_.root, id), raw)) {
      submit_force_rescan_ = true;  // transient read fault — retry
      continue;
    }
    const std::string text(reinterpret_cast<const char*>(raw.data()),
                           raw.size());
    TrackedQuery tq;
    tq.id = id;
    ServiceBatchQuery query;
    std::string error;
    if (parse_batch_query(text, query, error) && query.id != id) {
      error = strf("query id '%s' does not match file name '%s'",
                   query.id.c_str(), id.c_str());
    }
    if (!error.empty()) {
      // A malformed file is answered whole: one status=error part.
      TrackedPart& part = tq.parts.emplace_back();
      part.status = AnswerStatus::kError;
      part.error = std::move(error);
    } else {
      tq.parts.reserve(query.items.size());
      for (const BatchItem& item : query.items) {
        tq.parts.push_back(build_part(item));
      }
    }
    parts_total_.fetch_add(tq.parts.size(), std::memory_order_relaxed);
    bool all_error = true;
    bool all_shed = true;
    for (const TrackedPart& part : tq.parts) {
      all_error &= part.status == AnswerStatus::kError;
      all_shed &= part.status == AnswerStatus::kRetryAfter;
      if (part.status == AnswerStatus::kError) {
        parts_rejected_.fetch_add(1, std::memory_order_relaxed);
      } else if (part.status == AnswerStatus::kRetryAfter) {
        parts_shed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Per whole query: rejected when every part is an error, shed when
    // every part was refused admission, else ingested.
    std::atomic<std::uint64_t>& verdict =
        all_error ? queries_rejected_
                  : (all_shed ? queries_shed_ : queries_ingested_);

    // Warm queries (and fully rejected/shed ones) answer right here at
    // ingest — no tracking pass, no extra poll of latency.
    ServiceBatchAnswer a;
    if (collect_answer(tq, a)) {
      if (!finish_tracked(tq, std::move(a))) {
        submit_force_rescan_ = true;  // publish failed; retry next pass
        continue;
      }
      verdict.fetch_add(1, std::memory_order_relaxed);
      queries_answered_.fetch_add(1, std::memory_order_relaxed);
      ++progress;
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(state_mu_);
      tracked_[id] = std::move(tq);
    }
    verdict.fetch_add(1, std::memory_order_relaxed);
    ++progress;
  }
  return progress;
}

std::size_t CampaignServer::publish() {
  std::vector<TrackedQuery> snapshot;
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    snapshot.reserve(tracked_.size());
    for (const auto& [id, tq] : tracked_) snapshot.push_back(tq);
  }
  std::size_t progress = 0;
  for (const TrackedQuery& tq : snapshot) {
    ServiceBatchAnswer a;
    if (!collect_answer(tq, a)) continue;
    if (!finish_tracked(tq, std::move(a))) continue;  // retried next pass
    {
      const std::lock_guard<std::mutex> lock(state_mu_);
      tracked_.erase(tq.id);
    }
    queries_answered_.fetch_add(1, std::memory_order_relaxed);
    ++progress;
  }
  return progress;
}

std::size_t CampaignServer::poll_once() {
  std::size_t progress = 0;
  progress += ingest();
  progress += publish();
  // A long-lived server keeps answers/ bounded as it serves, at one
  // directory listing per kAnswerKeepCap file-wire answers.
  if (fresh_answers_.size() >= kAnswerKeepCap) reap_acked_answers();
  return progress;
}

std::size_t CampaignServer::serve(std::size_t idle_exit_polls,
                                  std::uint64_t poll_ms) {
  // A query publish renames into submit/: its event wakes the wait
  // below at once.  The watch lives as long as this call.
  const RenameWatch submits(submit_dir(cfg_.root));
  struct pollfd fds[2] = {{wake_fd_, POLLIN, 0}, {submits.fd(), POLLIN, 0}};
  const nfds_t nfds = submits.fd() >= 0 ? 2 : 1;
  const int timeout_ms = static_cast<int>(
      std::clamp<std::uint64_t>(poll_ms, 1, INT_MAX));
  std::size_t passes = 0;
  std::size_t idle = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    // Consume the wake-ups this pass answers.  One raised during the
    // pass stays raised, so the wait below returns at once: the pass
    // may have collected its query before the cell finished, or listed
    // submit/ just before the query landed.
    drain_eventfd(wake_fd_);
    submits.drain();
    const std::size_t progress = poll_once();
    ++passes;
    bool is_idle = progress == 0 && backlog_.backlog() == 0 &&
                   ring_.size_approx() == 0;
    if (is_idle) {
      const std::lock_guard<std::mutex> lock(state_mu_);
      is_idle = tracked_.empty();
    }
    if (is_idle) {
      if (idle_exit_polls > 0 && ++idle >= idle_exit_polls) break;
    } else {
      idle = 0;
    }
    while (::poll(fds, nfds, timeout_ms) < 0 && errno == EINTR) {
    }
  }
  return passes;
}

void CampaignServer::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  wake_publish();
}

void CampaignServer::wake_publish() {
  const std::uint64_t one = 1;
  // Cannot fail short of a counter overflow, and then it is set anyway.
  const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  (void)n;
}

void CampaignServer::wake_workers() {
  // Taking wake_mu_ orders this wake after any worker's predicate
  // check: a worker is either yet to test pending() (and sees the new
  // cell) or already blocked (and gets the notify).
  { const std::lock_guard<std::mutex> lock(wake_mu_); }
  wake_cv_.notify_all();
}

bool CampaignServer::ring_submit(RingOp* op) {
  if (!ring_.try_push(op)) return false;
  ring_pushes_.fetch_add(1, std::memory_order_seq_cst);
  // Dekker pairing with ring_loop, via the seq_cst total order (no
  // standalone fences: TSan cannot model atomic_thread_fence): either
  // this load sees the drain parked (and wakes it), or the drain's
  // pre-wait seq_cst load of ring_pushes_ sees our increment and the
  // wait returns immediately.
  if (drain_parked_.load(std::memory_order_seq_cst)) {
    ring_pushes_.notify_one();
  }
  return true;
}

void CampaignServer::ring_loop(const std::stop_token& stop) {
  unsigned idle = 0;
  while (!stop.stop_requested()) {
    if (RingOp* op = ring_.try_pop()) {
      idle = 0;
      handle_ring_op(op);
      continue;
    }
    // Graduated backoff: a short yield-spin keeps back-to-back ops in
    // the microsecond regime; a quiet ring parks on a futex so an idle
    // server burns no CPU.
    if (++idle < 64) {
      std::this_thread::yield();
      continue;
    }
    const std::uint64_t seen = ring_pushes_.load(std::memory_order_seq_cst);
    drain_parked_.store(true, std::memory_order_seq_cst);
    RingOp* op = ring_.try_pop();
    if (op != nullptr || stop.stop_requested()) {
      drain_parked_.store(false, std::memory_order_relaxed);
      idle = 0;
      if (op != nullptr) handle_ring_op(op);
      continue;
    }
    // seq_cst wait load closes the Dekker race: a producer that read
    // drain_parked_==false ordered its push-count increment before our
    // parked store, so this load observes it and returns without
    // blocking.  Reading the increment also acquires the pushed op.
    ring_pushes_.wait(seen, std::memory_order_seq_cst);
    drain_parked_.store(false, std::memory_order_relaxed);
    idle = 0;
  }
}

void CampaignServer::handle_ring_op(RingOp* op) {
  ring_submits_.fetch_add(1, std::memory_order_relaxed);
  if (op->query.items.empty() || op->query.items.size() > kMaxBatchItems) {
    fail_ring_op(op, strf("batch must carry 1..%zu items",
                          kMaxBatchItems));
    return;
  }
  if (op->publish && !valid_query_id(op->query.id)) {
    fail_ring_op(op, "bad id: publish requires a file-name-safe query id");
    return;
  }
  TrackedQuery tq;
  tq.id = op->query.id;
  tq.ring = op;
  tq.parts.reserve(op->query.items.size());
  for (const BatchItem& item : op->query.items) {
    tq.parts.push_back(build_part(item));
  }
  parts_total_.fetch_add(op->query.items.size(), std::memory_order_relaxed);
  // The op needs the backlog when a cell of an answerable part missed
  // the index — even if a worker finishes that cell before the collect
  // below, so the ring counters never depend on thread timing.
  bool needs_backlog = false;
  for (const TrackedPart& part : tq.parts) {
    if (part.status == AnswerStatus::kError) {
      parts_rejected_.fetch_add(1, std::memory_order_relaxed);
    } else if (part.status == AnswerStatus::kRetryAfter) {
      parts_shed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      for (const TrackedCell& cell : part.cells) {
        needs_backlog |= !cell.resolved;
      }
    }
  }
  // The warm path: everything resolved from the index — complete in
  // memory right here, microseconds after the push.  Ring counters are
  // bumped before the op can complete: its client may read stats() the
  // moment it wakes, and this thread is never joined by request_stop().
  std::atomic<std::uint64_t>& tier =
      needs_backlog ? ring_backlogged_ : ring_inline_answers_;
  ServiceBatchAnswer a;
  if (collect_answer(tq, a)) {
    tier.fetch_add(1, std::memory_order_relaxed);
    if (finish_tracked(tq, std::move(a))) return;
    tier.fetch_sub(1, std::memory_order_relaxed);
    // op->publish answer file failed (fault plan): fall through to
    // tracking — the publish() pass retries under a fresh temp.
  }
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    if (tracked_.count(tq.id) != 0) {
      fail_ring_op(op, "duplicate query id already in flight");
      return;
    }
    ring_backlogged_.fetch_add(1, std::memory_order_relaxed);
    tracked_[tq.id] = std::move(tq);
  }
  // A worker may have finished this op's cells between the collect
  // above and the insert; its wake-up found nothing to publish.
  wake_publish();
}

void CampaignServer::worker_loop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    {
      // Every admission notifies under wake_mu_ (wake_workers).
      std::unique_lock<std::mutex> lock(wake_mu_);
      (void)wake_cv_.wait(lock, stop,
                          [&] { return backlog_.pending() > 0; });
    }
    if (stop.stop_requested()) return;
    BacklogCell cell;
    if (!backlog_.next_pending(cell)) continue;
    run_cell(cell);
    // Every run_cell exit leaves the cell finished or poisoned.
    wake_publish();
  }
}

void CampaignServer::run_cell(const BacklogCell& cell) {
  WorkItem item;
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    const auto it = work_.find(cell.fp);
    if (it == work_.end()) {
      backlog_.poison(cell.fp, cell.label + ": internal: no work item");
      return;
    }
    item = it->second;
  }
  try {
    RunResult r;
    run_with_retry(
        cfg_.retry, [&] { r = item.runner->run(item.combo, item.scheme); },
        [&] { retries_.fetch_add(1, std::memory_order_relaxed); });
    // complete() runs before the insert makes the cell answerable, so
    // cells_simulated never lags a client's answer.
    backlog_.complete(cell.fp);
    index_.insert(cell.fp, r.ipc);
    forget_work(cell.fp);
    if (cfg_.on_cell_completed) cfg_.on_cell_completed();
  } catch (const fault::TransientError& e) {
    backlog_.poison(cell.fp, strf("%s: %s (gave up after %u attempts)",
                                  cell.label.c_str(), e.what(),
                                  cfg_.retry.attempts()));
    forget_work(cell.fp);
  } catch (const std::exception& e) {
    backlog_.poison(cell.fp, cell.label + ": " + e.what());
    forget_work(cell.fp);
  }
}

void CampaignServer::forget_work(std::uint64_t fp) {
  // Erased only once the cell is terminal (done or poisoned), so no
  // worker can claim it again.
  const std::lock_guard<std::mutex> lock(state_mu_);
  work_.erase(fp);
}

CampaignServer::Stats CampaignServer::stats() const {
  Stats s;
  s.queries_ingested = queries_ingested_.load(std::memory_order_relaxed);
  s.queries_answered = queries_answered_.load(std::memory_order_relaxed);
  s.queries_rejected = queries_rejected_.load(std::memory_order_relaxed);
  s.queries_shed = queries_shed_.load(std::memory_order_relaxed);
  s.cells_from_cache = cells_from_cache_.load(std::memory_order_relaxed);
  s.parts_from_memo = parts_from_memo_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.publish_failures = publish_failures_.load(std::memory_order_relaxed);
  s.backlog = backlog_.counters();
  // Workers complete cells only after simulating them, and before the
  // index insert that makes a cell answerable — so a client holding an
  // answer always sees its cell counted.
  s.cells_simulated = s.backlog.completed;
  s.parts_total = parts_total_.load(std::memory_order_relaxed);
  s.parts_rejected = parts_rejected_.load(std::memory_order_relaxed);
  s.parts_shed = parts_shed_.load(std::memory_order_relaxed);
  s.ring_submits = ring_submits_.load(std::memory_order_relaxed);
  s.ring_inline_answers =
      ring_inline_answers_.load(std::memory_order_relaxed);
  s.ring_backlogged = ring_backlogged_.load(std::memory_order_relaxed);
  s.answers_reaped = answers_reaped_.load(std::memory_order_relaxed);
  s.answer_temps_reaped =
      answer_temps_reaped_.load(std::memory_order_relaxed);
  s.submit_scans_skipped =
      submit_scans_skipped_.load(std::memory_order_relaxed);
  s.index = index_.counters();
  s.cache_probes = cache_probes_.load(std::memory_order_relaxed);
  s.cache_probe_hits = cache_probe_hits_.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(resolve_mu_);
    s.resolve_memo_entries = resolve_memo_.size();
  }
  {
    const std::lock_guard<std::mutex> lock(state_mu_);
    s.work_items = work_.size();
  }
  return s;
}

}  // namespace snug::sim::service
