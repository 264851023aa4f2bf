#include "sim/figures.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "common/str.hpp"
#include "stats/aggregate.hpp"
#include "stats/metrics.hpp"

namespace snug::sim {

const char* to_string(Metric m) noexcept {
  switch (m) {
    case Metric::kThroughputNorm:
      return "throughput (normalised to L2P)";
    case Metric::kAws:
      return "average weighted speedup";
    case Metric::kFairSpeedup:
      return "fair speedup";
  }
  return "?";
}

double metric_value(Metric m, const std::vector<double>& scheme_ipc,
                    const std::vector<double>& base_ipc) {
  SNUG_REQUIRE(scheme_ipc.size() == base_ipc.size());
  switch (m) {
    case Metric::kThroughputNorm:
      return stats::throughput(scheme_ipc) / stats::throughput(base_ipc);
    case Metric::kAws:
      return stats::average_weighted_speedup(scheme_ipc, base_ipc);
    case Metric::kFairSpeedup:
      return stats::fair_speedup(scheme_ipc, base_ipc);
  }
  SNUG_ENSURE(false);
  return 0.0;
}

double cc_best_value(const ComboResults& combo_results, Metric metric) {
  const auto& base = combo_results.at("L2P").ipc;
  double best = 0.0;
  bool any = false;
  for (const auto& [id, result] : combo_results) {
    if (id.rfind("CC(", 0) != 0) continue;
    const double v = metric_value(metric, result.ipc, base);
    if (!any || v > best) {
      best = v;
      any = true;
    }
  }
  SNUG_REQUIRE(any);
  return best;
}

FigureSeries assemble_figure(const CampaignResults& results,
                             Metric metric) {
  FigureSeries fig;
  fig.schemes = {"L2S", "CC(Best)", "DSR", "SNUG"};

  for (const auto& scheme : fig.schemes) {
    std::vector<stats::ClassValue> observations;
    for (const auto& combo : trace::all_combos()) {
      const auto it = results.find(combo.name);
      SNUG_REQUIRE(it != results.end());
      const auto& combo_results = it->second;
      const auto& base = combo_results.at("L2P").ipc;
      double v = 0.0;
      if (scheme == "CC(Best)") {
        v = cc_best_value(combo_results, metric);
      } else {
        v = metric_value(metric, combo_results.at(scheme).ipc, base);
      }
      observations.push_back({combo.combo_class, v});
    }
    fig.values[scheme] = stats::per_class_geomean(observations, 6);
  }
  return fig;
}

TextTable figure_table(const FigureSeries& fig) {
  TextTable table({"scheme", "C1", "C2", "C3", "C4", "C5", "C6", "AVG"});
  for (const auto& scheme : fig.schemes) {
    std::vector<std::string> row{scheme};
    for (const double v : fig.values.at(scheme)) {
      row.push_back(strf("%.3f", v));
    }
    table.add_row(std::move(row));
  }
  return table;
}

std::string render_cell_csv(const CampaignResults& results) {
  std::string out = "combo,scheme,ipc...\n";
  for (const auto& [combo, combo_results] : results) {
    for (const auto& [scheme, result] : combo_results) {
      out += combo;
      out += ',';
      out += scheme;
      for (const double ipc : result.ipc) {
        out += ',';
        append_g17(out, ipc);
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace snug::sim
