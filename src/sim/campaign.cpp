#include "sim/campaign.hpp"

#include <atomic>
#include <memory>
#include <mutex>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/str.hpp"
#include "sim/journal.hpp"

namespace snug::sim {

CampaignSpec CampaignSpec::paper() {
  return {ScenarioSpec::paper(), schemes::paper_scheme_grid()};
}

CampaignSpec CampaignSpec::single(trace::WorkloadCombo combo) {
  return grid({std::move(combo)}, schemes::paper_scheme_grid());
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
    : runner_(runner), exec_(jobs) {}

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
  const std::uint64_t flags_before = exec_.watchdog_flagged();

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
  std::vector<std::unique_ptr<std::atomic<std::size_t>>> remaining;
  remaining.reserve(combos.size());
  for (std::size_t c = 0; c < combos.size(); ++c) {
    remaining.push_back(
        std::make_unique<std::atomic<std::size_t>>(n_schemes));
  }

  std::mutex hook_mu;
  std::size_t done = 0;

  // Shared post-result bookkeeping: journal checkpoint, progress hook,
  // per-combo countdown, combo-completion hook — for simulated and
  // journal-replayed cells alike.
  const auto finish_task = [&](std::size_t i) {
    const std::size_t c = i / n_schemes;
    const auto& combo = combos[c];
    // Checkpoint before the hooks fire: a campaign killed right after a
    // progress tick must still replay that cell on resume.
    if (journal && !slots[i].replayed) {
      journal->append(fps[i], slots[i].ipc);
    }
    if (on_progress) {
      const std::lock_guard<std::mutex> lock(hook_mu);
      on_progress({++done, n_tasks, combo.name,
                   spec.schemes[i % n_schemes].id(), slots[i].cached,
                   slots[i].replayed});
    }
    // acq_rel: the last decrementer observes every sibling's slot write.
    if (remaining[c]->fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        on_combo_done) {
      ComboResults combo_results;
      for (std::size_t s = 0; s < n_schemes; ++s) {
        combo_results[spec.schemes[s].id()] = slots[c * n_schemes + s];
      }
      const std::lock_guard<std::mutex> lock(hook_mu);
      on_combo_done(combo, combo_results);
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

  // Name tasks for the watchdog: a flag line must identify the wedged
  // CELL (combo/scheme + run fingerprint), not just the worker index.
  // The label fn captures locals of this run(), so it is cleared before
  // they go out of scope.
  const auto cell_label = [&](std::size_t i) {
    return strf("(%s/%s fp=%016llx)", combos[i / n_schemes].name.c_str(),
                spec.schemes[i % n_schemes].id().c_str(),
                static_cast<unsigned long long>(fps[i]));
  };
  struct LabelGuard {
    ParallelExecutor& exec;
    ~LabelGuard() { exec.task_label = nullptr; }
  } label_guard{exec_};

  std::vector<std::size_t> todo;
  todo.reserve(n_tasks);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    if (pending[i]) todo.push_back(i);
  }
  exec_.task_label = [&](std::size_t t) { return cell_label(todo[t]); };
  // Transient failures retry with deterministic exponential backoff.
  std::atomic<std::uint64_t> retries{0};
  exec_.run_indexed(todo.size(), [&](std::size_t t) {
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
  stats_.watchdog_flags = exec_.watchdog_flagged() - flags_before;
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
