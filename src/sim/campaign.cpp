#include "sim/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/str.hpp"
#include "sim/journal.hpp"

namespace snug::sim {
namespace {

/// Runs fn(t) for every t in [0, n), with the ordering, threading and
/// exception contract CampaignEngine::run documents.
template <typename Fn>
void for_each_index(unsigned jobs, std::size_t n, const Fn& fn) {
  if (jobs == 1) {
    for (std::size_t t = 0; t < n; ++t) fn(t);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  {
    const std::size_t n_workers = std::min<std::size_t>(jobs, n);
    std::vector<std::jthread> workers;
    workers.reserve(n_workers);
    while (workers.size() < n_workers) {
      workers.emplace_back([&] {
        for (std::size_t t;
             (t = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
          try {
            fn(t);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mu);
            if (!first_error) first_error = std::current_exception();
            next.store(n, std::memory_order_relaxed);  // abandon the rest
          }
        }
      });
    }
  }  // ~jthread joins every worker
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

unsigned resolve_jobs(std::int64_t requested) noexcept {
  if (requested > 0) return static_cast<unsigned>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

CampaignSpec CampaignSpec::paper() {
  return {ScenarioSpec::paper(), schemes::paper_scheme_grid()};
}

CampaignSpec CampaignSpec::grid(std::vector<trace::WorkloadCombo> combos,
                                std::vector<schemes::SchemeSpec> schemes) {
  return {ScenarioSpec::with_combos(std::move(combos)),
          std::move(schemes)};
}

std::string describe_schemes(
    const std::vector<schemes::SchemeSpec>& schemes) {
  std::string out;
  for (const auto& scheme : schemes) {
    out += "  " + scheme.id() + "\n";
  }
  return out;
}

std::string describe_combos(
    const std::vector<trace::WorkloadCombo>& combos) {
  std::string out;
  for (const auto& combo : combos) {
    out += strf("  %-28s C%d  [", combo.name.c_str(), combo.combo_class);
    for (std::size_t i = 0; i < combo.benchmarks.size(); ++i) {
      if (i > 0) out += ' ';
      out += combo.benchmarks[i];
    }
    out += "]\n";
  }
  return out;
}

std::string describe_grid(const CampaignSpec& spec) {
  const std::vector<trace::WorkloadCombo> combos = spec.combos();
  std::string out = "scenario " + spec.scenario.summary() + "\n";
  out += strf("grid: %zu combo(s) x %zu scheme(s) = %zu task(s)\n",
              combos.size(), spec.schemes.size(),
              combos.size() * spec.schemes.size());
  std::size_t i = 0;
  for (const auto& combo : combos) {
    for (const auto& scheme : spec.schemes) {
      out += strf("  [%3zu] %s / %s\n", ++i, combo.name.c_str(),
                  scheme.id().c_str());
    }
  }
  return out;
}

CampaignEngine::CampaignEngine(ExperimentRunner& runner, unsigned jobs)
    : runner_(runner), jobs_(resolve_jobs(jobs)) {}

CampaignResults CampaignEngine::run(const CampaignSpec& spec) {
  // The scenario must describe the machine this engine's runner was
  // built from, or cached results would be attributed to the wrong
  // topology.
  const std::uint64_t config_fp =
      config_fingerprint(runner_.config(), runner_.scale());
  SNUG_REQUIRE_MSG(
      config_fingerprint(spec.scenario.system_config(),
                         spec.scenario.scale) == config_fp,
      "campaign scenario '%s' does not match the runner's machine — "
      "construct the ExperimentRunner from the same ScenarioSpec",
      spec.scenario.name.c_str());

  const std::vector<trace::WorkloadCombo> combos = spec.combos();
  const std::size_t n_schemes = spec.schemes.size();
  const std::size_t n_tasks = combos.size() * n_schemes;
  SNUG_REQUIRE(n_tasks > 0);
  stats_ = Stats{};

  // Per-cell run fingerprints: the journal keys, covering everything
  // that affects the simulated IPCs.
  std::vector<std::uint64_t> fps(n_tasks);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    fps[i] = run_fingerprint(config_fp, combos[i / n_schemes],
                             spec.schemes[i % n_schemes]);
  }

  // Checkpoint/resume: open (or resume) the journal keyed by the
  // campaign's identity — machine plus the exact cell grid — so a
  // journal from a different campaign is moved aside, not replayed.
  std::unique_ptr<CampaignJournal> journal;
  if (!journal_path.empty()) {
    std::uint64_t cfp =
        Rng::derive_seed("campaign-journal", config_fp, n_tasks);
    for (const std::uint64_t fp : fps) {
      cfp = Rng::derive_seed("cell", cfp, fp);
    }
    journal = std::make_unique<CampaignJournal>(journal_path, cfp);
    stats_.journal_discarded_bytes = journal->discarded_tail_bytes();
    stats_.journal_reset_stale = journal->reset_stale();
    stats_.journal_stale_reaped = journal->stale_reaped();
  }

  // Task i = (combo i / n_schemes, scheme i % n_schemes); slots are
  // per-index so workers never contend on result storage.
  std::vector<RunResult> slots(n_tasks);

  std::mutex hook_mu;
  std::size_t done = 0;

  // Shared post-result bookkeeping: journal checkpoint and progress
  // hook, for simulated and journal-replayed cells alike.
  const auto finish_task = [&](std::size_t i) {
    // Checkpoint before the hook fires: a campaign killed right after a
    // progress tick must still replay that cell on resume.
    if (journal && !slots[i].replayed) {
      journal->append(fps[i], slots[i].ipc);
    }
    if (on_progress) {
      const std::lock_guard<std::mutex> lock(hook_mu);
      on_progress({++done, n_tasks, combos[i / n_schemes].name,
                   spec.schemes[i % n_schemes].id(), slots[i].cached,
                   slots[i].replayed});
    }
  };

  // Resume: serve journalled cells before any worker starts, re-seeding
  // the eval cache so a resumed campaign reproduces the uninterrupted
  // run's cache contents even for cells it never re-simulates.
  std::vector<bool> pending(n_tasks, true);
  if (journal) {
    for (std::size_t i = 0; i < n_tasks; ++i) {
      if (!journal->lookup(fps[i], slots[i].ipc)) continue;
      slots[i].replayed = true;
      pending[i] = false;
      runner_.seed_cache(combos[i / n_schemes],
                         spec.schemes[i % n_schemes], slots[i].ipc);
      ++stats_.replayed;
      finish_task(i);
    }
  }

  std::vector<std::size_t> todo;
  todo.reserve(n_tasks);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    if (pending[i]) todo.push_back(i);
  }
  // Transient failures retry with deterministic exponential backoff.
  std::atomic<std::uint64_t> retries{0};
  for_each_index(jobs_, todo.size(), [&](std::size_t t) {
    const std::size_t i = todo[t];
    run_with_retry(
        retry,
        [&] {
          slots[i] = runner_.run(combos[i / n_schemes],
                                 spec.schemes[i % n_schemes]);
        },
        [&] { retries.fetch_add(1, std::memory_order_relaxed); });
    finish_task(i);
  });
  stats_.retries = retries.load(std::memory_order_relaxed);
  if (journal) {
    stats_.journal_append_failures = journal->append_failures();
  }

  CampaignResults out;
  for (std::size_t c = 0; c < combos.size(); ++c) {
    ComboResults combo_results;
    for (std::size_t s = 0; s < n_schemes; ++s) {
      combo_results[spec.schemes[s].id()] = slots[c * n_schemes + s];
    }
    out[combos[c].name] = std::move(combo_results);
  }
  return out;
}

}  // namespace snug::sim
