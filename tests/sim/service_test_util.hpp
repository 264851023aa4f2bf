// Shared fixtures for the service tests: the direct-simulation reference
// a service answer must bit-equal, and the cell-by-cell comparison.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "schemes/factory.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "sim/service/wire.hpp"

namespace snug::sim::service::testutil {

/// The reference: the same scenario x scheme run directly, no service.
inline std::vector<AnswerCell> direct_cells(const std::string& scenario_text,
                                            const std::string& scheme_id) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_TRUE(parse_scenario(scenario_text, spec, error)) << error;
  schemes::SchemeSpec scheme;
  EXPECT_TRUE(schemes::parse_scheme_id(scheme_id, scheme));
  ExperimentRunner runner(spec, /*cache_dir=*/"", /*warm_bank_dir=*/"");
  std::vector<AnswerCell> cells;
  for (const trace::WorkloadCombo& combo : spec.combos()) {
    const RunResult r = runner.run(combo, scheme);
    cells.push_back({combo.name, r.ipc});
  }
  return cells;
}

inline void expect_cells_equal(const std::vector<AnswerCell>& got,
                               const std::vector<AnswerCell>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].combo, want[i].combo);
    EXPECT_EQ(got[i].ipc, want[i].ipc)
        << got[i].combo << ": service and direct IPCs must be bit-equal";
  }
}

}  // namespace snug::sim::service::testutil
