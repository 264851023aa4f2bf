#include "sim/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace snug::sim {
namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

unsigned resolve_jobs(std::int64_t requested) noexcept {
  if (requested > 0) return static_cast<unsigned>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ParallelExecutor::ParallelExecutor(unsigned jobs)
    : jobs_(resolve_jobs(static_cast<std::int64_t>(jobs))) {
  if (jobs_ < 2) return;  // serial mode: no pool at all
  claims_ = std::vector<WorkerClaim>(jobs_);
  flagged_start_.assign(jobs_, 0);
  workers_.reserve(jobs_);
  for (unsigned i = 0; i < jobs_; ++i) {
    workers_.emplace_back(
        [this, i](const std::stop_token& stop) { worker_loop(stop, i); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  for (auto& w : workers_) w.request_stop();
  work_cv_.notify_all();  // wake everyone so stop tokens are observed
  // Join here, not via ~jthread: the mutex and condition variables are
  // members too and must outlive every worker that might touch them.
  for (auto& w : workers_) w.join();
}

void ParallelExecutor::worker_loop(const std::stop_token& stop,
                                   unsigned wid) {
  std::uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, stop,
                    [&] { return generation_ != seen_generation; });
      if (stop.stop_requested()) return;
      seen_generation = generation_;
    }
    work_off_batch(wid);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (++workers_done_ == jobs_) done_cv_.notify_all();
    }
  }
}

void ParallelExecutor::work_off_batch(unsigned wid) {
  WorkerClaim& claim = claims_[wid];
  while (true) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch_size_) return;
    claim.start_ns.store(steady_now_ns(), std::memory_order_relaxed);
    claim.index.store(i, std::memory_order_release);
    try {
      (*fn_)(i);
    } catch (...) {
      claim.index.store(WorkerClaim::kIdle, std::memory_order_release);
      const std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
      // Abandon the rest of the batch: claim everything that is left.
      next_.store(batch_size_, std::memory_order_relaxed);
      return;
    }
    claim.index.store(WorkerClaim::kIdle, std::memory_order_release);
  }
}

void ParallelExecutor::watchdog_scan() {
  const std::uint64_t deadline_ns = watchdog_ms * 1'000'000ULL;
  const std::uint64_t now = steady_now_ns();
  for (unsigned w = 0; w < jobs_; ++w) {
    const std::size_t i = claims_[w].index.load(std::memory_order_acquire);
    if (i == WorkerClaim::kIdle) continue;
    const std::uint64_t start =
        claims_[w].start_ns.load(std::memory_order_relaxed);
    // A claim made after `now` was read is fresh, not wedged (and would
    // underflow the age below).
    if (start > now || now - start < deadline_ns) continue;
    if (flagged_start_[w] == start) continue;  // already dumped this claim
    flagged_start_[w] = start;
    watchdog_flagged_.fetch_add(1, std::memory_order_relaxed);
    // Flag, never kill: the dump is the diagnostic, the operator (or a
    // bench summary reading watchdog_flagged()) decides what to do.
    const std::string label =
        task_label ? task_label(i) : std::string();
    std::fprintf(stderr,
                 "snug: watchdog: worker %u has held task %zu%s%s for "
                 "%llu ms (deadline %llu ms, batch %zu/%zu claimed) — "
                 "flagging, not killing\n",
                 w, i, label.empty() ? "" : " ", label.c_str(),
                 static_cast<unsigned long long>((now - start) / 1'000'000),
                 static_cast<unsigned long long>(watchdog_ms),
                 std::min(next_.load(std::memory_order_relaxed),
                          batch_size_),
                 batch_size_);
  }
}

void ParallelExecutor::run_indexed(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::lock_guard<std::mutex> batch_lock(batch_mu_);

  if (workers_.empty()) {
    // Serial reference path: index order, calling thread, no pool.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  {
    const std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    batch_size_ = n;
    next_.store(0, std::memory_order_relaxed);
    workers_done_ = 0;
    first_error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();

  // The watchdog monitor lives exactly as long as the batch.  It only
  // reads the claim slots and writes flags/dumps, so it never perturbs
  // results — determinism is untouched whether it runs or not.
  std::jthread monitor;
  if (watchdog_ms > 0) {
    std::fill(flagged_start_.begin(), flagged_start_.end(), 0);
    monitor = std::jthread([this](const std::stop_token& stop) {
      const auto tick = std::chrono::milliseconds(
          std::max<std::uint64_t>(1, std::min<std::uint64_t>(
                                         watchdog_ms / 4, 50)));
      while (!stop.stop_requested()) {
        watchdog_scan();
        std::this_thread::sleep_for(tick);
      }
    });
  }

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return workers_done_ == jobs_; });
    error = first_error_;
  }
  // Stop the monitor before clearing batch state: it reads batch_size_
  // and the claim slots without the batch mutex.
  if (monitor.joinable()) {
    monitor.request_stop();
    monitor.join();
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    fn_ = nullptr;
    batch_size_ = 0;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace snug::sim
